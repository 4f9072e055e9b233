//! # distctr-sim
//!
//! A deterministic discrete-event simulator of the asynchronous
//! message-passing network model used by Wattenhofer & Widmayer,
//! *An Inherent Bottleneck in Distributed Counting* (1997).
//!
//! The model: `n` processors, each uniquely identified, unbounded local
//! memory, no shared memory, any processor may send a message directly to
//! any other, messages arrive an unbounded but finite time after being
//! sent, and no failures occur. The quantities of interest are **message
//! loads**: the number of messages each processor sends plus receives over
//! a sequence of operations. A simulator (rather than a real network)
//! makes those counts exact and every run reproducible.
//!
//! ## Architecture
//!
//! * [`Network`] — the event queue, delivery policies and accounting.
//!   Protocols are state machines implementing [`Protocol`]; the network
//!   delivers envelopes to them and collects the messages they emit.
//! * [`LoadTracker`] — per-processor sent/received counts; identifies the
//!   *bottleneck processor* (`argmax` of load).
//! * [`trace`] — per-operation communication DAGs (paper Figure 1), their
//!   topologically sorted communication lists (Figure 2) and contact sets
//!   `I_p` used by the Hot Spot Lemma, which [`hot_spot_violations`]
//!   checks over an execution.
//! * [`Counter`] — the abstract distributed-counter interface every
//!   implementation in this workspace provides, plus sequential and
//!   concurrent drivers.
//! * [`OpLoop`] — the one loop that schedules a simulated counter's ops
//!   on a network: open, enter, run, close, claim. The retirement tree
//!   and every baseline run their ops through it.
//!
//! ## Example
//!
//! ```
//! use distctr_sim::{Network, Protocol, Outbox, ProcessorId, OpId, TraceMode};
//!
//! /// A trivial protocol: processor 0 answers pings.
//! #[derive(Clone)]
//! struct PingPong;
//! impl Protocol for PingPong {
//!     type Msg = &'static str;
//!     fn on_deliver(&mut self, out: &mut Outbox<'_, Self::Msg>,
//!                   from: ProcessorId, msg: Self::Msg) {
//!         if msg == "ping" {
//!             out.send(from, "pong");
//!         }
//!     }
//! }
//!
//! let mut net = Network::new(2, TraceMode::Full).expect("two processors");
//! let op = OpId::new(0);
//! net.inject(op, ProcessorId::new(1), ProcessorId::new(0), "ping");
//! let mut proto = PingPong;
//! net.run_to_quiescence(&mut proto);
//! assert_eq!(net.loads().load_of(ProcessorId::new(0)), 2); // ping in, pong out
//! assert_eq!(net.loads().load_of(ProcessorId::new(1)), 2); // ping out, pong in
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod dag;
pub mod drivers;
pub mod error;
pub mod fault;
pub mod id;
pub mod linearize;
pub mod list;
pub mod load;
pub mod network;
pub mod op_loop;
pub mod policy;
pub mod queue;
pub mod time;
pub mod trace;
pub mod workloads;

pub use counter::{
    CompletedOp, ConcurrentCounter, Counter, IncResult, OpResult, OverlappedCounter,
};
pub use dag::{ArcId, CommDag, DagNodeId};
pub use drivers::{ConcurrentDriver, SequenceOutcome, SequentialDriver};
pub use error::SimError;
pub use fault::{CrashPoint, FaultEvent, FaultPlan, FaultStats};
pub use id::{OpId, ProcessorId};
pub use linearize::{check_fetch_inc_history, FetchIncRecord, HistoryVerdict, RealTimeViolation};
pub use list::CommList;
pub use load::{LoadSummary, LoadTracker};
pub use network::{Network, Outbox, Protocol, RunStats, DEFAULT_MESSAGE_CAP};
pub use op_loop::{claim, Delivered, Entry, OpLoop, OpProtocol};
pub use policy::DeliveryPolicy;
pub use queue::{Envelope, EventQueue};
pub use time::SimTime;
pub use trace::{hot_spot_violations, ContactSet, OpTrace, TraceMode, TraceRecorder};
pub use workloads::{Workload, ZipfSampler};
