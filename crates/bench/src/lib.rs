//! # distctr-bench
//!
//! The experiments, as data: every figure and theorem/lemma of the
//! paper regenerated as a text report (the paper has no numeric tables;
//! its "evaluation" is theorems, which the experiments make
//! falsifiable), plus the gated serving experiments E22–E27.
//!
//! * [`EXPERIMENTS`] — the table, one row per experiment id.
//! * `report` binary — `cargo run -p distctr-bench --bin report [e1 e2 ...]`
//!   runs rows of it and regenerates what `EXPERIMENTS.md` records.
//!
//! A number from this crate is a message count or a gate verdict.
//! Anything timed comes from `distbench` (`benchmark/` at the repo
//! root), the one harness with repeated trials and a recorded host.
//!
//! The experiment index is documented in `DESIGN.md` §6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algos;
pub mod exp_ablation;
pub mod exp_arrow;
pub mod exp_async;
pub mod exp_batching;
pub mod exp_bottleneck;
pub mod exp_bound;
pub mod exp_chaos;
pub mod exp_concurrent;
pub mod exp_hotspot;
pub mod exp_keyspace;
pub mod exp_lemmas;
pub mod exp_linearizable;
pub mod exp_scale;
pub mod exp_shm;
pub mod figures;
pub mod json;
pub mod table;

pub use algos::{run_canonical, run_shuffled_dyn, Algo, RunSummary, REPORT_SEED};
pub use table::{Experiment, Outcome, Size, EXPERIMENTS};
