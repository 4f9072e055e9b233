//! The pluggable invariant set, evaluated at every terminal quiescent
//! state.
//!
//! Each invariant is a total function of the [`World`]'s observables.
//! The defaults cover the paper's schedule-universal claims: returned
//! values are correct (a permutation of `0..ops`), no processor exceeds
//! the O(k) load bound (plus the audited recovery slack under faults),
//! no node retires twice from the same pool position, any two
//! operations' contact sets intersect (the Hot Spot lemma's geometry),
//! and the completed history passes the increment-only pairwise
//! linearizability rule of `distctr_sim::linearize`.

use std::collections::HashSet;

use distctr_core::protocol::PoolPolicy;
use distctr_sim::{check_fetch_inc_history, FetchIncRecord, SimTime};

use crate::world::World;

/// One checkable property of a quiescent state.
pub trait Invariant {
    /// Stable name, used in reports and replay assertions.
    fn name(&self) -> &'static str;
    /// `Err(detail)` iff the property is violated in `world`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    fn check(&self, world: &World) -> Result<(), String>;
}

/// Completed operations received distinct counter values, and a fully
/// completed workload received exactly `0..ops`.
pub struct SequentialValues;

impl Invariant for SequentialValues {
    fn name(&self) -> &'static str {
        "sequential-values"
    }

    fn check(&self, world: &World) -> Result<(), String> {
        let mut values: Vec<u64> = world.ops().iter().filter_map(|o| o.value).collect();
        let completed = values.len();
        values.sort_unstable();
        if let Some(w) = values.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("two operations both received value {}", w[0]));
        }
        // The exact 0..ops shape only holds for unit increments; batch
        // workloads hand out range *starts*, whose shape is
        // `range-partition`'s concern.
        if world.ops().iter().any(|o| o.count > 1) {
            return Ok(());
        }
        let all_complete = world.ops().iter().all(|o| o.value.is_some());
        if all_complete && values.iter().enumerate().any(|(i, &v)| v != i as u64) {
            return Err(format!("values of {completed} completed ops are {values:?}, not 0.."));
        }
        Ok(())
    }
}

/// The batch-aware correctness condition: every completed operation
/// owns the contiguous range `[value, value + count)`, the ranges of
/// any two completed operations are disjoint, and a fully completed
/// workload's ranges partition `[0, total)` exactly (where `total` is
/// the sum of all counts). For unit workloads this degenerates to
/// [`SequentialValues`]'s exact check.
pub struct RangePartition;

impl Invariant for RangePartition {
    fn name(&self) -> &'static str {
        "range-partition"
    }

    fn check(&self, world: &World) -> Result<(), String> {
        let mut ranges: Vec<(u64, u64)> =
            world.ops().iter().filter_map(|o| o.value.map(|v| (v, o.count))).collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            let (start_a, count_a) = w[0];
            let (start_b, _) = w[1];
            if start_a + count_a > start_b {
                return Err(format!(
                    "ranges [{start_a}, {}) and [{start_b}, ..) overlap",
                    start_a + count_a
                ));
            }
        }
        if world.ops().iter().all(|o| o.value.is_some()) {
            let total: u64 = world.ops().iter().map(|o| o.count).sum();
            let mut expected = 0u64;
            for &(start, count) in &ranges {
                if start != expected {
                    return Err(format!(
                        "completed ranges leave a gap: expected a range starting at \
                         {expected}, found [{start}, {})",
                        start + count
                    ));
                }
                expected = start + count;
            }
            if expected != total {
                return Err(format!(
                    "completed ranges cover [0, {expected}), but {total} increments were applied"
                ));
            }
        }
        Ok(())
    }
}

/// No live processor's message count exceeds `20k` plus the world's
/// audited recovery slack — the fault-aware form of the paper's O(k)
/// bottleneck bound, as asserted by the chaos grid.
pub struct LoadBound {
    /// Extra allowance on top of `20k + fault_slack` (0 by default).
    pub extra: u64,
}

impl LoadBound {
    /// The standard bound.
    #[must_use]
    pub fn paper() -> Self {
        LoadBound { extra: 0 }
    }
}

impl Invariant for LoadBound {
    fn name(&self) -> &'static str {
        "per-processor-load"
    }

    fn check(&self, world: &World) -> Result<(), String> {
        let k = u64::from(world.topology().order());
        let limit = 20 * k + world.fault_slack() + self.extra;
        match world.loads().bottleneck() {
            Some((p, max)) if max > limit => {
                Err(format!("processor {} handled {max} messages, bound is {limit}", p.index()))
            }
            _ => Ok(()),
        }
    }
}

/// No node is retired twice from the same pool position, no handoff
/// installs the same pool position twice, and one-shot pools never
/// exceed their size.
pub struct NoDoubleRetirement;

impl Invariant for NoDoubleRetirement {
    fn name(&self) -> &'static str {
        "no-double-retirement"
    }

    fn check(&self, world: &World) -> Result<(), String> {
        let mut seen = HashSet::new();
        for &(flat, cursor) in world.retire_events() {
            if !seen.insert((flat, cursor)) {
                return Err(format!("node (flat {flat}) retired twice from pool cursor {cursor}"));
            }
        }
        let mut installed = HashSet::new();
        for &(flat, cursor) in world.installs() {
            if !installed.insert((flat, cursor)) {
                return Err(format!("node (flat {flat}) installed twice at pool cursor {cursor}"));
            }
        }
        if world.config().engine_config().pool_policy == PoolPolicy::OneShot {
            let topo = world.topology();
            let node_count = usize::try_from(topo.inner_node_count()).expect("fits usize");
            let mut per_node = vec![0u64; node_count];
            for &(flat, _) in world.retire_events() {
                per_node[flat] += 1;
            }
            for (flat, &count) in per_node.iter().enumerate() {
                let node = topo.node_at(flat);
                let size = topo.pool_size(node.level);
                if count >= size {
                    return Err(format!(
                        "node (flat {flat}) retired {count} times, pool size is {size}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// At most one live engine hosts any inner node: a handoff that leaves
/// the node served by two processors at once (the double-retirement
/// failure mode) is caught here even before the second retirement.
pub struct UniqueHosting;

impl Invariant for UniqueHosting {
    fn name(&self) -> &'static str {
        "unique-hosting"
    }

    fn check(&self, world: &World) -> Result<(), String> {
        for node in world.topology().nodes() {
            let hosts = world.hosts_of(node);
            if hosts.len() > 1 {
                return Err(format!(
                    "node ({}, {}) is hosted by {} live processors at once: {hosts:?}",
                    node.level,
                    node.index,
                    hosts.len()
                ));
            }
        }
        Ok(())
    }
}

/// The executable geometry behind the Hot Spot lemma: every completed
/// operation's contact set intersects the root-holder chain (the
/// processors that held the root at any point). Two operations
/// separated by a retirement touch *different* holders, but the
/// handoff links consecutive holders, so any two contact sets meet
/// when each is closed under the chain — which reduces to every
/// operation touching the chain at all. An operation that completes
/// without ever contacting a root holder has dodged the bottleneck the
/// lemma says is unavoidable.
///
/// This is stronger than the lemma as
/// [`distctr_sim::hot_spot_violations`] checks it on any counter's
/// trace (consecutive contact sets intersect), and it holds for the
/// retirement tree only, because every one of its operations passes
/// through the root-holder chain. It also applies to operations that
/// overlap, where "consecutive" has no meaning.
pub struct HotSpotIntersection;

impl Invariant for HotSpotIntersection {
    fn name(&self) -> &'static str {
        "hot-spot-intersection"
    }

    fn check(&self, world: &World) -> Result<(), String> {
        let holders = world.root_holders();
        for (i, op) in world.ops().iter().enumerate() {
            if op.completed_step.is_none() {
                continue;
            }
            let contact = world.contact_set(i);
            if !contact.iter().any(|p| holders.contains(p)) {
                return Err(format!(
                    "op {i} completed with contact set {contact:?}, disjoint from the \
                     root-holder chain {holders:?}"
                ));
            }
        }
        // Sanity of the chain closure itself: with at least one holder
        // recorded, any two completed ops' chain-closed contact sets
        // intersect by the membership above.
        Ok(())
    }
}

/// The completed history passes the increment-only pairwise
/// linearizability test: no operation with a larger value completes
/// before an operation with a smaller value starts, and no two
/// operations share a value. The history is partial (operations still
/// in flight hold values not yet returned), so a gap is legal here.
pub struct PairwiseLinearizable;

impl Invariant for PairwiseLinearizable {
    fn name(&self) -> &'static str {
        "pairwise-linearizable"
    }

    fn check(&self, world: &World) -> Result<(), String> {
        let (ops, records): (Vec<usize>, Vec<FetchIncRecord>) = world
            .ops()
            .iter()
            .enumerate()
            .filter_map(|(i, o)| {
                let record = FetchIncRecord {
                    started_at: SimTime::from_ticks(o.started_step?),
                    completed_at: SimTime::from_ticks(o.completed_step?),
                    value: o.value?,
                };
                Some((i, record))
            })
            .unzip();
        let verdict = check_fetch_inc_history(&records);
        if let Some(value) = verdict.duplicates.first() {
            return Err(format!("duplicate value {value} in the completed history"));
        }
        match verdict.violations.first() {
            None => Ok(()),
            Some(v) => Err(format!(
                "op {} (larger value) completed before op {} (smaller value) started",
                ops[v.floor], ops[v.op]
            )),
        }
    }
}

/// The default invariant set, most-specific first.
#[must_use]
pub fn default_invariants() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(NoDoubleRetirement),
        Box::new(UniqueHosting),
        Box::new(SequentialValues),
        Box::new(RangePartition),
        Box::new(PairwiseLinearizable),
        Box::new(HotSpotIntersection),
        Box::new(LoadBound::paper()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheckConfig;

    /// A world of three ops where ops 0 and 2 completed with `values`
    /// and op 1 is still in flight.
    fn partial_history(values: [u64; 2]) -> World {
        let mut world = World::new(&CheckConfig::new(8).concurrent_ops(&[0, 4, 5]));
        for (op, step, value) in [(0, 1, values[0]), (2, 3, values[1])] {
            let o = &mut world.ops_mut()[op];
            o.started_step = Some(step);
            o.completed_step = Some(step + 1);
            o.value = Some(value);
        }
        world
    }

    #[test]
    fn a_partial_history_may_have_a_gap_but_not_a_duplicate() {
        // Value 1 is held by the op still in flight: a legal gap.
        assert_eq!(PairwiseLinearizable.check(&partial_history([0, 2])), Ok(()));
        assert_eq!(
            PairwiseLinearizable.check(&partial_history([0, 0])),
            Err("duplicate value 0 in the completed history".to_string())
        );
        assert_eq!(
            PairwiseLinearizable.check(&partial_history([2, 0])),
            Err("op 0 (larger value) completed before op 2 (smaller value) started".to_string())
        );
    }
}
