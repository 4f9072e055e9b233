//! # distctr-check
//!
//! An engine-level model checker for the retirement-tree protocol. It
//! drives fleets of [`distctr_core::engine::NodeEngine`]s directly
//! through `on_event`, exploring **every admissible delivery order** of
//! a workload (and, optionally, crash points) with sleep-set
//! partial-order reduction: commuting deliveries to distinct processors
//! are branched only once per Mazurkiewicz trace, which is what makes
//! the search cheap enough to also cover crashes at branch points,
//! watchdog recovery and cross-op concurrency (EXPERIMENTS.md E21
//! records the 52-vs-2 coverage comparison against the whole-protocol
//! DFS this checker replaced).
//!
//! At every terminal quiescent state a pluggable [`Invariant`] set is
//! evaluated — correct values, the O(k) load bound, no double
//! retirement, hot-spot contact-set intersection, pairwise
//! linearizability. A violation is emitted as a **minimized,
//! replayable counterexample**: a delta-debugged [`Schedule`] that
//! [`replay`] (or the generated `#[test]` snippet) re-executes
//! deterministically.
//!
//! ```
//! use distctr_check::{CheckConfig, Checker};
//!
//! // Every delivery order of two concurrent increments on 8 processors.
//! let outcome = Checker::new(CheckConfig::new(8).concurrent_ops(&[0, 4])).run();
//! assert!(outcome.holds());
//! assert!(outcome.stats.distinct_quiescent >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod config;
pub mod history;
pub mod invariants;
mod minimize;
pub mod schedule;
pub mod world;

pub use checker::{Budget, CheckOutcome, CheckStats, Checker, Violation};
pub use config::{sweep_cells, CheckConfig, Mutation, Workload};
pub use history::{HistoryRecorder, ThreadHistory};
pub use invariants::{
    default_invariants, HotSpotIntersection, Invariant, LoadBound, NoDoubleRetirement,
    PairwiseLinearizable, RangePartition, SequentialValues, UniqueHosting,
};
pub use schedule::{replay, replay_with, Choice, ReplayOutcome, ReplayViolation, Schedule};
pub use world::{combined_fingerprint, OpState, Quiescence, World, MAX_WATCHDOG_ROUNDS};
