//! # distctr-net
//!
//! A **real-threads** execution backend for the paper's retirement-tree
//! counter: one OS thread per processor, crossbeam channels as the
//! network, and node state that genuinely **migrates between threads**
//! inside handoff messages. No thread ever reads another's state; the
//! routing view (who works for my parent/children) is local knowledge
//! kept current by `NewWorker` notifications — exactly the paper's
//! information model.
//!
//! The discrete-event simulator (`distctr-sim`) remains the measurement
//! instrument (deterministic, exact counts, adversarial schedules); this
//! crate demonstrates the protocol survives genuine asynchrony — OS
//! scheduling, channel buffering, racy arrival orders — and the
//! cross-backend tests assert it produces the same observable behaviour.
//! Like the simulator, the backend is generic over the hosted
//! [`distctr_core::RootObject`]: [`ThreadedTreeClient`] serves any
//! sequentially-dependent object, and [`ThreadedTreeCounter`] is a type
//! alias for its counter instance.
//!
//! ```
//! use distctr_net::ThreadedTreeCounter;
//! use distctr_sim::ProcessorId;
//!
//! # fn main() -> Result<(), distctr_net::NetError> {
//! let mut counter = ThreadedTreeCounter::new(81)?; // 81 real threads
//! for i in 0..81 {
//!     assert_eq!(counter.inc(ProcessorId::new(i))?, i as u64);
//! }
//! assert!(counter.bottleneck() <= 20 * 3, "O(k) on real threads too");
//! counter.shutdown()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod error;
pub mod messages;
pub(crate) mod worker;

pub use counter::{ThreadedTreeClient, ThreadedTreeCounter, MAX_THREADED_PROCESSORS};
pub use error::NetError;
pub use messages::{NetMsg, NodeTransfer};
