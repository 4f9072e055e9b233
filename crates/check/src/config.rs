//! Checker run configuration: topology size, workload, engine knobs,
//! crash injection and seeded protocol mutations.

use distctr_core::engine::EngineConfig;
use distctr_core::kmath::{exact_order, order_for};
use distctr_core::protocol::PoolPolicy;
use distctr_sim::FaultPlan;

/// How workload operations enter the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// All operations are in flight from the first state: the checker
    /// explores every cross-operation interleaving.
    Concurrent(Vec<usize>),
    /// Operation `i + 1` is injected only once operation `i` has
    /// completed and the network has quiesced — the discipline of the
    /// sequential drivers, still exploring every within-operation
    /// delivery order (retirement cascades interleave with the climb).
    Sequential(Vec<usize>),
}

impl Workload {
    /// The initiators, in injection order.
    #[must_use]
    pub fn initiators(&self) -> &[usize] {
        match self {
            Workload::Concurrent(v) | Workload::Sequential(v) => v,
        }
    }
}

/// A seeded protocol-driver bug, used to validate that the checker (and
/// its counterexample minimizer) actually catches the class of fault it
/// exists for — mutation testing for the model checker itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// On every `Retired` effect, the buggy driver re-installs the node
    /// at the retiring worker (a botched handoff "rollback"): the node
    /// is now served by two processors at once, and enough further
    /// traffic retires it a second time from the same pool cursor — a
    /// double retirement the `no-double-retirement` invariant must
    /// catch.
    ResurrectRetired,
}

/// Everything one checker run needs to be reproducible: the serialized
/// counterexample [`Schedule`](crate::Schedule) is replayed against the
/// same `CheckConfig`.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Requested processor count (rounded up to `k^(k+1)`).
    pub n: usize,
    /// Operations run to quiescence in deterministic FIFO order *before*
    /// exploration starts — they pre-age the tree so the explored
    /// workload exercises retirement cascades, without being branch
    /// points themselves. Their op sequence numbers precede the
    /// workload's.
    pub warmup_ops: Vec<usize>,
    /// The workload to explore.
    pub workload: Workload,
    /// Batch size per *workload* operation (`op_counts[i]` pairs with
    /// the i-th workload initiator): an op with count `m > 1` is
    /// injected as one `Apply` traversal reserving the contiguous
    /// range `[v, v + m)`. Missing entries (and an empty vector, the
    /// default) mean unit increments; warm-up ops are always unit.
    pub op_counts: Vec<u64>,
    /// Engine configuration override; `None` uses the paper preset for
    /// the derived order `k`.
    pub engine: Option<EngineConfig>,
    /// Model the client watchdog at quiescence (promote pool successors
    /// of crashed/stuck workers, re-send incomplete operations). Needed
    /// whenever crashes are in play.
    pub watchdog: bool,
    /// Processors the checker may crash as a *branch choice* (bounded by
    /// [`CheckConfig::crash_budget`]).
    pub crash_candidates: Vec<usize>,
    /// Maximum explored crashes per trace.
    pub crash_budget: u32,
    /// Scripted crash points `(processor, after_deliveries)`, fired
    /// deterministically once the trace's delivery count passes the
    /// mark — the semantics of [`distctr_sim::CrashPoint`].
    pub scripted_crashes: Vec<(usize, u64)>,
    /// Optional seeded bug (see [`Mutation`]).
    pub mutation: Option<Mutation>,
}

impl CheckConfig {
    /// A fault-free paper-configured check of `ops` concurrent
    /// operations on (at least) `n` processors.
    #[must_use]
    pub fn new(n: usize) -> Self {
        CheckConfig {
            n,
            warmup_ops: Vec::new(),
            workload: Workload::Concurrent(Vec::new()),
            op_counts: Vec::new(),
            engine: None,
            watchdog: false,
            crash_candidates: Vec::new(),
            crash_budget: 0,
            scripted_crashes: Vec::new(),
            mutation: None,
        }
    }

    /// The tree order for this configuration.
    #[must_use]
    pub fn order(&self) -> u32 {
        let n = self.n.max(1) as u64;
        exact_order(n).unwrap_or_else(|| order_for(n))
    }

    /// The engine configuration in force (the explicit override, or the
    /// paper preset for the derived order).
    #[must_use]
    pub fn engine_config(&self) -> EngineConfig {
        self.engine.unwrap_or_else(|| EngineConfig::paper(self.order()))
    }

    /// Sets the deterministic warm-up operations (see
    /// [`CheckConfig::warmup_ops`]).
    #[must_use]
    pub fn warmup(mut self, initiators: &[usize]) -> Self {
        self.warmup_ops = initiators.to_vec();
        self
    }

    /// Sets a concurrent workload (all ops in flight from the start).
    #[must_use]
    pub fn concurrent_ops(mut self, initiators: &[usize]) -> Self {
        self.workload = Workload::Concurrent(initiators.to_vec());
        self
    }

    /// Sets a sequential workload (each op injected at quiescence).
    #[must_use]
    pub fn sequential_ops(mut self, initiators: &[usize]) -> Self {
        self.workload = Workload::Sequential(initiators.to_vec());
        self
    }

    /// Sets the per-op batch sizes (see [`CheckConfig::op_counts`]);
    /// zeros are treated as unit increments.
    #[must_use]
    pub fn batch_counts(mut self, counts: &[u64]) -> Self {
        self.op_counts = counts.to_vec();
        self
    }

    /// Overrides the engine configuration (e.g. threaded-backend parity).
    #[must_use]
    pub fn engine(mut self, config: EngineConfig) -> Self {
        self.engine = Some(config);
        self
    }

    /// Arms the quiescence watchdog and the stable-storage model: the
    /// engine dedupes retries through the reply cache and persists the
    /// root object, exactly like the simulator's fault-tolerant mode.
    #[must_use]
    pub fn fault_tolerant(mut self) -> Self {
        let mut cfg = self.engine_config();
        cfg.dedupe = true;
        cfg.persist = true;
        self.engine = Some(cfg);
        self.watchdog = true;
        self
    }

    /// Allows the checker to crash any of `candidates` at any branch
    /// point, at most `budget` crashes per trace. Implies nothing about
    /// recovery — combine with [`CheckConfig::fault_tolerant`].
    #[must_use]
    pub fn explore_crashes(mut self, candidates: &[usize], budget: u32) -> Self {
        self.crash_candidates = candidates.to_vec();
        self.crash_budget = budget;
        self
    }

    /// Scripts the crash points of `plan` into every explored trace
    /// (fired by network-wide delivery count, exactly like the
    /// simulator's fault injection; the plan's probabilistic drops and
    /// duplicates are subsumed by schedule + crash exploration and are
    /// ignored here).
    #[must_use]
    pub fn faults(mut self, plan: &FaultPlan) -> Self {
        self.scripted_crashes =
            plan.crashes.iter().map(|c| (c.processor.index(), c.after_deliveries)).collect();
        self
    }

    /// Injects a seeded protocol-driver bug (see [`Mutation`]).
    #[must_use]
    pub fn mutation(mut self, mutation: Mutation) -> Self {
        self.mutation = Some(mutation);
        self
    }

    /// Renders this configuration as the Rust builder expression that
    /// reconstructs it — the counterexample test snippet embeds this so
    /// a violation replays from source alone.
    #[must_use]
    pub fn to_builder_code(&self) -> String {
        let mut code = format!("CheckConfig::new({})", self.n);
        if !self.warmup_ops.is_empty() {
            code.push_str(&format!(".warmup(&{:?})", self.warmup_ops));
        }
        match &self.workload {
            Workload::Concurrent(ops) => {
                code.push_str(&format!(".concurrent_ops(&{ops:?})"));
            }
            Workload::Sequential(ops) => {
                code.push_str(&format!(".sequential_ops(&{ops:?})"));
            }
        }
        if !self.op_counts.is_empty() {
            code.push_str(&format!(".batch_counts(&{:?})", self.op_counts));
        }
        if let Some(e) = self.engine {
            let pool = match e.pool_policy {
                PoolPolicy::OneShot => "PoolPolicy::OneShot",
                PoolPolicy::Recycling => "PoolPolicy::Recycling",
            };
            code.push_str(&format!(
                ".engine(EngineConfig {{ threshold: {:?}, pool_policy: {pool}, \
                 dedupe: {}, persist: {} }})",
                e.threshold, e.dedupe, e.persist
            ));
        }
        if self.watchdog {
            code.push_str(".watchdog()");
        }
        if !self.crash_candidates.is_empty() || self.crash_budget > 0 {
            code.push_str(&format!(
                ".explore_crashes(&{:?}, {})",
                self.crash_candidates, self.crash_budget
            ));
        }
        for (p, after) in &self.scripted_crashes {
            code.push_str(&format!(".scripted_crash({p}, {after})"));
        }
        if let Some(m) = self.mutation {
            code.push_str(&format!(".mutation(Mutation::{m:?})"));
        }
        code
    }

    /// Arms the quiescence watchdog without touching the engine
    /// configuration (used by generated snippets; most callers want
    /// [`CheckConfig::fault_tolerant`]).
    #[must_use]
    pub fn watchdog(mut self) -> Self {
        self.watchdog = true;
        self
    }

    /// Scripts one crash point directly (used by generated snippets;
    /// most callers pass a [`FaultPlan`] to [`CheckConfig::faults`]).
    #[must_use]
    pub fn scripted_crash(mut self, processor: usize, after_deliveries: u64) -> Self {
        self.scripted_crashes.push((processor, after_deliveries));
        self
    }
}

/// The checker's standing sweep: four named cells (n ∈ {2, 4, 8},
/// fault-free and crash-budget-1) that `checkdrive` runs under a shared
/// transition budget and `tests/checker_sweep.rs` pins.
#[must_use]
pub fn sweep_cells() -> Vec<(&'static str, CheckConfig)> {
    vec![
        // n = 2 rounds up to the k = 2 tree; two concurrent ops on the
        // same leaf parent maximally contend for one entry node.
        ("n=2 fault-free (2 ops, shared leaf parent)", CheckConfig::new(2).concurrent_ops(&[0, 1])),
        // n = 4: warmed tree, two ops on distinct leaf parents.
        (
            "n=4 fault-free (warmup 2, 2 ops, distinct entries)",
            CheckConfig::new(4).warmup(&[0, 2]).concurrent_ops(&[1, 6]),
        ),
        // n = 8: deeper warm-up so the explored ops straddle the root's
        // retirement cascade.
        (
            "n=8 fault-free (warmup 3, cascade window)",
            CheckConfig::new(8).warmup(&[0, 2, 4]).concurrent_ops(&[1, 6]),
        ),
        // n = 8, crash budget 1: the checker may crash the root's initial
        // worker at any branch point; the watchdog must still complete
        // the sequential workload correctly.
        (
            "n=8 crash-budget-1 (sequential, watchdog recovery)",
            CheckConfig::new(8).sequential_ops(&[0, 4]).fault_tolerant().explore_crashes(&[0], 1),
        ),
    ]
}
