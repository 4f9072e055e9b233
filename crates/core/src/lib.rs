//! # distctr-core
//!
//! The primary contribution of Wattenhofer & Widmayer, *An Inherent
//! Bottleneck in Distributed Counting* (1997): a distributed counter with
//! an **optimal communication bottleneck**. Over the canonical workload —
//! `n` sequential `inc` operations, one per processor — no processor
//! sends or receives more than O(k) messages, where `k^(k+1) = n` (so
//! `k ≈ log n / log log n`), matching the paper's lower bound.
//!
//! The construction is a k-ary communication tree of inner levels `0..=k`
//! whose leaves are the `n` processors. `inc` requests climb to the root,
//! which returns the value directly to the initiator. Every inner node
//! tracks its *age* (messages handled by its current worker) and
//! **retires** at age `4k`, handing the job to the next processor of a
//! statically assigned replacement pool — spreading the root's hot-spot
//! work over `k^k` processors.
//!
//! ```
//! use distctr_core::TreeCounter;
//! use distctr_sim::{Counter, SequentialDriver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut counter = TreeCounter::new(81)?; // k = 3
//! let outcome = SequentialDriver::run_shuffled(&mut counter, 42)?;
//! assert!(outcome.values_are_sequential());
//! // The headline guarantee: bottleneck load is O(k), not O(n)
//! // (the constant is ~17k: a processor may serve the root once and one
//! // other inner node once, each stint costing ~6k messages).
//! assert!(counter.loads().max_load() <= 20 * 3);
//! // And every lemma of the paper holds on the actual run:
//! assert!(counter.audit().grow_old_lemma_holds());
//! assert!(counter.audit().retirement_lemma_holds());
//! assert!(counter.audit().retirement_counts_within_pools(counter.topology()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod client;
pub mod counter;
pub mod engine;
pub mod error;
pub mod kmath;
pub mod messages;
pub mod node;
pub mod object;
pub mod protocol;
pub mod serve;
pub mod structures;
pub mod topology;

pub use audit::CounterAudit;
pub use client::{TreeClient, TreeClientBuilder};
pub use counter::{TreeCounter, TreeCounterBuilder};
pub use engine::{AuditEvent, Effect, Effects, EngineConfig, Event, NodeEngine, VirtualTime};
pub use error::CoreError;
pub use messages::{CounterMsg, Msg, NodeTransfer};
pub use object::{
    CounterObject, FlipBitObject, MaxRegisterObject, PriorityQueueObject, RootObject,
};
pub use protocol::{PoolPolicy, RetirementPolicy, TreeProtocol};
pub use serve::{
    CounterBackend, KeyedReply, KeyspaceStats, ReplyWindow, DEFAULT_KEY, REPLY_CACHE_CAP,
};
pub use structures::{DistributedFlipBit, DistributedPriorityQueue};
pub use topology::{NodeRef, Topology};
