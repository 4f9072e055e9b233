//! A uniform registry of every counter implementation, so experiments can
//! sweep "all algorithms × all sizes × all policies" declaratively.

use distctr_baselines::{
    ArrowCounter, CentralCounter, CombiningTreeCounter, CountingNetworkCounter,
    DiffractingTreeCounter,
};
use distctr_core::{RetirementPolicy, TreeCounter};
use distctr_sim::{ConcurrentCounter, Counter, DeliveryPolicy, ProcessorId, SimError, TraceMode};

/// The algorithms under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// The paper's retirement tree (the contribution).
    RetirementTree,
    /// Ablation: same tree, no retirement.
    StaticTree,
    /// Single coordinator.
    Central,
    /// Software combining tree.
    Combining,
    /// Bitonic counting network with the given width.
    CountingNetwork {
        /// Network width (power of two).
        width: usize,
    },
    /// Diffracting tree with the given depth.
    Diffracting {
        /// Tree depth (2^depth exit counters).
        depth: u32,
    },
    /// Mobile token over a spanning tree (Arrow path reversal).
    Arrow,
}

impl Algo {
    /// The default comparison set for a network of `n` processors:
    /// widths/depths scaled to ~√n as the source papers recommend.
    #[must_use]
    pub fn comparison_set(n: usize) -> Vec<Algo> {
        let width = ((n as f64).sqrt() as usize).next_power_of_two().clamp(2, 64);
        let depth = width.trailing_zeros();
        vec![
            Algo::Central,
            Algo::StaticTree,
            Algo::Combining,
            Algo::CountingNetwork { width },
            Algo::Diffracting { depth },
            Algo::Arrow,
            Algo::RetirementTree,
        ]
    }

    /// Stable display name.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Algo::RetirementTree => "retirement-tree".to_string(),
            Algo::StaticTree => "static-tree".to_string(),
            Algo::Central => "central".to_string(),
            Algo::Combining => "combining-tree".to_string(),
            Algo::CountingNetwork { width } => format!("counting-net[w={width}]"),
            Algo::Diffracting { depth } => format!("diffracting[d={depth}]"),
            Algo::Arrow => "arrow-token".to_string(),
        }
    }

    /// Builds the counter for `n` processors.
    ///
    /// # Errors
    ///
    /// Propagates the implementation's construction error as a string.
    pub fn build(
        &self,
        n: usize,
        trace: TraceMode,
        policy: DeliveryPolicy,
    ) -> Result<Box<dyn Counter>, String> {
        Ok(match self.construct(n, trace, policy).map_err(|e| e.to_string())? {
            Built::Sequential(counter) => counter,
            Built::Concurrent(counter) => counter,
        })
    }

    /// Builds a concurrent-capable counter, if this algorithm supports
    /// batching.
    ///
    /// # Errors
    ///
    /// Propagates construction errors; `Err` with a descriptive message
    /// for sequential-only algorithms.
    pub fn build_concurrent(
        &self,
        n: usize,
        trace: TraceMode,
        policy: DeliveryPolicy,
    ) -> Result<Box<dyn ConcurrentCounter>, String> {
        match self.construct(n, trace, policy).map_err(|e| e.to_string())? {
            Built::Concurrent(counter) => Ok(counter),
            Built::Sequential(_) => {
                Err(format!("{} follows the paper's sequential model only", self.name()))
            }
        }
    }

    /// The one constructor dispatch behind [`Algo::build`] and
    /// [`Algo::build_concurrent`].
    fn construct(
        &self,
        n: usize,
        trace: TraceMode,
        policy: DeliveryPolicy,
    ) -> Result<Built, Box<dyn std::error::Error>> {
        Ok(match *self {
            Algo::RetirementTree | Algo::StaticTree => {
                let retirement = match self {
                    Algo::StaticTree => RetirementPolicy::Never,
                    _ => RetirementPolicy::PaperDefault,
                };
                let builder = TreeCounter::builder(n)?.trace(trace).delivery(policy);
                Built::Sequential(Box::new(builder.retirement(retirement).build()?))
            }
            Algo::Central => {
                Built::Concurrent(Box::new(CentralCounter::with_policy(n, trace, policy)?))
            }
            Algo::Combining => {
                Built::Concurrent(Box::new(CombiningTreeCounter::with_policy(n, trace, policy)?))
            }
            Algo::CountingNetwork { width } => Built::Concurrent(Box::new(
                CountingNetworkCounter::with_policy(n, width, trace, policy)?,
            )),
            Algo::Diffracting { depth } => Built::Concurrent(Box::new(
                DiffractingTreeCounter::with_policy(n, depth, trace, policy)?,
            )),
            Algo::Arrow => {
                Built::Sequential(Box::new(ArrowCounter::with_policy(n, trace, policy)?))
            }
        })
    }
}

/// A counter as [`Algo::construct`] built it: batching or not.
enum Built {
    /// Follows the paper's sequential model only.
    Sequential(Box<dyn Counter>),
    /// Also runs batches of concurrent `inc`s.
    Concurrent(Box<dyn ConcurrentCounter>),
}

/// Result of one sequential canonical run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Algorithm name.
    pub algo: String,
    /// Network size actually used (trees round up).
    pub n: usize,
    /// Bottleneck load and processor.
    pub bottleneck: u64,
    /// Total messages over the sequence.
    pub total_messages: u64,
    /// Mean messages per operation.
    pub messages_per_op: f64,
    /// Whether op `i` observed value `i` throughout.
    pub correct: bool,
    /// Per-processor loads (for histograms).
    pub loads: Vec<u64>,
    /// Gini coefficient of the load distribution.
    pub gini: f64,
}

/// Runs the canonical workload (one op per processor, shuffled by `seed`)
/// on `algo` at size `n`.
///
/// # Errors
///
/// Propagates construction and execution errors as strings.
pub fn run_canonical(
    algo: Algo,
    n: usize,
    policy: DeliveryPolicy,
    seed: u64,
) -> Result<RunSummary, String> {
    let mut counter = algo.build(n, TraceMode::Off, policy)?;
    let outcome = run_shuffled_dyn(counter.as_mut(), seed).map_err(|e| e.to_string())?;
    Ok(RunSummary {
        algo: algo.name(),
        n: counter.processors(),
        bottleneck: counter.loads().max_load(),
        total_messages: outcome.total_messages,
        messages_per_op: outcome.messages_per_op(),
        correct: outcome.values_are_sequential(),
        loads: counter.loads().to_vec(),
        gini: counter.loads().gini(),
    })
}

/// `SequentialDriver::run_shuffled` for trait objects.
///
/// # Errors
///
/// Propagates errors from the counter's `inc`.
pub fn run_shuffled_dyn(
    counter: &mut dyn Counter,
    seed: u64,
) -> Result<distctr_sim::SequenceOutcome, SimError> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut order: Vec<ProcessorId> = (0..counter.processors()).map(ProcessorId::new).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    // SequentialDriver is generic over C: Counter (sized); drive the
    // boxed counter directly here.
    let before = counter.loads().total_messages();
    let mut results = Vec::with_capacity(order.len());
    for &p in &order {
        results.push(counter.inc(p)?);
    }
    Ok(distctr_sim::SequenceOutcome {
        results,
        bottleneck: counter.loads().max_load(),
        total_messages: counter.loads().total_messages() - before,
    })
}

/// Seeds used across the harness so reports are reproducible.
pub const REPORT_SEED: u64 = 0x5EED_2026;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_set_scales_width() {
        let set = Algo::comparison_set(81);
        assert_eq!(set.len(), 7);
        assert!(set.contains(&Algo::CountingNetwork { width: 16 }), "√81=9 -> 16");
        assert!(set.contains(&Algo::Arrow));
        let names: std::collections::HashSet<String> = set.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 7, "distinct names");
    }

    #[test]
    fn every_algo_builds_and_counts_at_n8() {
        for algo in Algo::comparison_set(8) {
            let summary = run_canonical(algo, 8, DeliveryPolicy::Fifo, 1)
                .unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
            assert!(summary.correct, "{} counts correctly", summary.algo);
            assert!(summary.bottleneck >= 2, "{}", summary.algo);
            assert_eq!(summary.loads.len(), summary.n);
        }
    }

    #[test]
    fn sequential_only_algos_refuse_concurrent_build() {
        assert!(Algo::RetirementTree
            .build_concurrent(8, TraceMode::Off, DeliveryPolicy::Fifo)
            .is_err());
        assert!(Algo::Central.build_concurrent(8, TraceMode::Off, DeliveryPolicy::Fifo).is_ok());
    }

    #[test]
    fn run_is_reproducible_for_same_seed() {
        let a = run_canonical(Algo::RetirementTree, 81, DeliveryPolicy::Fifo, 5).expect("runs");
        let b = run_canonical(Algo::RetirementTree, 81, DeliveryPolicy::Fifo, 5).expect("runs");
        assert_eq!(a.bottleneck, b.bottleneck);
        assert_eq!(a.total_messages, b.total_messages);
    }
}
