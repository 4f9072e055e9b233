//! # distctr-baselines
//!
//! Every comparator counter the paper positions itself against, built
//! from scratch on the same simulated network as the paper's
//! retirement tree:
//!
//! * [`CentralCounter`] — the message-optimal single-coordinator counter
//!   from the paper's introduction; bottleneck Θ(n).
//! * [`CombiningTreeCounter`] — software combining tree (Yew-Tzeng-Lawrie
//!   / Goodman-Vernon-Woest); combines only under concurrency.
//! * [`CountingNetworkCounter`] — bitonic counting network
//!   (Aspnes-Herlihy-Shavit) of balancer processors.
//! * [`DiffractingTreeCounter`] — diffracting tree (Shavit-Zemach) with
//!   prisms realized as park-and-timeout.
//! * [`ArrowCounter`] — the opposite philosophy: a mobile token carrying
//!   the value over a spanning tree with Arrow path reversal.
//!
//! Each is a protocol (`CentralState`, …) driven by the one
//! [`SimCounter`] (see [`driver`]), so all implement
//! [`distctr_sim::Counter`] (sequential paper model), and
//! [`distctr_sim::ConcurrentCounter`] where concurrency is meaningful; the
//! experiments and the lower-bound adversary run identically against
//! each. The static-tree ablation — the paper's tree with retirement
//! disabled — is `distctr_core::TreeCounter` built with
//! `RetirementPolicy::Never`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrow;
pub mod bitonic;
pub mod central;
pub mod combining;
pub mod counting;
pub mod diffracting;
pub mod driver;
pub mod hosting;

pub use arrow::{ArrowCounter, ArrowMsg, SpanningTree};
pub use bitonic::{has_step_property, Balancer, BitonicNetwork};
pub use central::{CentralCounter, CentralMsg};
pub use combining::{CombiningMsg, CombiningTreeCounter};
pub use counting::{CountingMsg, CountingNetworkCounter};
pub use diffracting::{DiffractingMsg, DiffractingTreeCounter};
pub use driver::SimCounter;
pub use hosting::Hosting;
