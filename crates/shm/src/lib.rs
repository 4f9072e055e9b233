//! Shared-memory counter backends: the third `NodeEngine` driver plus
//! the classical lock-free contenders, under one bake-off.
//!
//! The paper's bound is stated in the message-passing model: any
//! counting scheme has a processor that handles `Ω(n/k · log n / log
//! log n)`-ish traffic. In shared memory the analogue of "messages at a
//! processor" is "RMW traffic at a cache line", and this crate makes
//! the comparison concrete by putting four structures behind one
//! surface:
//!
//! * [`ShmTreeCounter`] — the paper's retirement tree, *unchanged
//!   protocol*, realized on a shared arena of engine slots + mailboxes
//!   instead of channels (see [`tree`]);
//! * [`FlatCombiningCounter`] — one cell, touched once per combined
//!   batch ([`combining`]);
//! * [`AtomicBitonicCounter`] — the bitonic counting network compiled
//!   by `distctr-baselines`, run on real atomics ([`network`]);
//! * [`CentralCounter`] — the single padded `fetch_add` cell everything
//!   is judged against ([`central`]).
//!
//! Experiment E26 (`distctr-bench`) sweeps thread counts over all four
//! and publishes throughput, p99 latency, fairness, and — through
//! `distctr-check`'s history checker — a per-cell correctness verdict.
//!
//! # Loom
//!
//! Built with `--features loom`, every atomic, mutex, and thread in
//! this crate resolves to the `loom` model shim instead of `std`
//! (see the private `sync` module), and the `tests/loom.rs` suite exhaustively
//! explores interleavings of the small cores: balancer traversal,
//! mailbox handoff, combiner handoff. Normal builds pay nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sync;

#[cfg(not(feature = "loom"))]
pub mod bakeoff;
pub mod central;
pub mod combining;
mod error;
pub mod mailbox;
pub mod network;
pub mod pad;
pub mod tree;

#[cfg(not(feature = "loom"))]
pub use bakeoff::{run_cell, BackendKind, BakeoffRow};
pub use central::CentralCounter;
pub use combining::FlatCombiningCounter;
pub use error::ShmError;
pub use mailbox::Mailbox;
pub use network::AtomicBitonicCounter;
pub use pad::CachePadded;
pub use tree::ShmTreeCounter;

#[cfg(not(feature = "loom"))]
mod backend_impls {
    //! [`CounterBackend`] adapters for the flat structures, so loadgen
    //! and the conformance harness can host any shared-memory backend
    //! behind the same trait as the sim and net drivers. (The tree
    //! implements the trait directly in [`crate::tree`].)

    use distctr_core::CounterBackend;
    use distctr_sim::ProcessorId;

    use crate::{AtomicBitonicCounter, CentralCounter, ShmError};

    impl CounterBackend for CentralCounter {
        type Error = ShmError;

        fn processors(&self) -> usize {
            CentralCounter::processors(self)
        }

        fn inc(&mut self, _initiator: ProcessorId) -> Result<u64, Self::Error> {
            Ok(self.inc_shared())
        }

        fn bottleneck(&self) -> u64 {
            CentralCounter::bottleneck(self)
        }

        fn retirements(&self) -> u64 {
            0
        }
    }

    impl CounterBackend for AtomicBitonicCounter {
        type Error = ShmError;

        fn processors(&self) -> usize {
            self.width()
        }

        fn inc(&mut self, initiator: ProcessorId) -> Result<u64, Self::Error> {
            Ok(self.inc_on(initiator.index()))
        }

        fn bottleneck(&self) -> u64 {
            AtomicBitonicCounter::bottleneck(self)
        }

        fn retirements(&self) -> u64 {
            0
        }
    }
}
