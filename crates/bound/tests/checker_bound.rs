//! The Lower Bound Theorem, model-checked: the bottleneck is not an
//! artifact of one delivery order. On *every* explored schedule of a
//! full n-operation workload, some processor's load reaches the
//! theorem's `k` — and every operation's contact set touches the
//! root-holder chain, the geometric fact the weight argument charges
//! messages against.

use distctr_bound::theory::lower_bound_k;
use distctr_check::{
    default_invariants, Budget, CheckConfig, Checker, HotSpotIntersection, Invariant, World,
};

/// At any terminal state where the whole workload completed, the
/// maximum per-processor load is at least the theorem's `k`.
struct BottleneckAtLeast {
    k: u64,
}

impl Invariant for BottleneckAtLeast {
    fn name(&self) -> &'static str {
        "bottleneck-lower-bound"
    }

    fn check(&self, world: &World) -> Result<(), String> {
        if !world.ops().iter().all(|o| o.value.is_some()) {
            return Ok(()); // the theorem talks about completed workloads
        }
        let max = world.loads().max_load();
        if max < self.k {
            return Err(format!(
                "all {} ops completed but the bottleneck load is {max} < k = {}",
                world.ops().len(),
                self.k
            ));
        }
        Ok(())
    }
}

#[test]
fn bottleneck_holds_on_every_explored_schedule() {
    // n = 8 processors (k = 2), one op per processor: the theorem says
    // some processor must send+receive at least k messages, on every
    // schedule — not just the FIFO mainline the adversary tests drive.
    let n = 8u64;
    let k = u64::from(lower_bound_k(n));
    assert_eq!(k, 2);
    let cfg = CheckConfig::new(n as usize).sequential_ops(&[0, 1, 2, 3, 4, 5, 6, 7]);
    let mut invariants = default_invariants();
    invariants.push(Box::new(BottleneckAtLeast { k }));
    let outcome = Checker::new(cfg)
        .invariants(invariants)
        .budget(Budget { max_transitions: 80_000, ..Budget::default() })
        .run();
    assert!(outcome.holds(), "violation: {:?}", outcome.violation);
    assert!(outcome.stats.quiescent_leaves >= 1);
}

#[test]
fn hot_spot_geometry_survives_concurrency() {
    // The weight argument needs every op to reach the current root
    // holder; the checker's hot-spot invariant asserts exactly that at
    // every quiescent state, here with two ops racing across the
    // retirement window.
    let cfg = CheckConfig::new(8).warmup(&[0, 2, 4]).concurrent_ops(&[1, 6]);
    let outcome = Checker::new(cfg)
        .invariants(vec![Box::new(HotSpotIntersection)])
        .budget(Budget { max_transitions: 60_000, ..Budget::default() })
        .run();
    assert!(outcome.holds(), "violation: {:?}", outcome.violation);
}
