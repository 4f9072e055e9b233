//! `distbench`: the repo's one benchmark. See `benchmark/README.md`.
//!
//! A library so that `tests/` can feed the checker and the comparison
//! their negative controls; the binary in `main.rs` is the only user
//! otherwise.

pub mod check;
pub mod compare;
pub mod gen;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod rng;
pub mod run;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workload;
