//! # distctr
//!
//! A from-scratch Rust reproduction of **Wattenhofer & Widmayer, *An
//! Inherent Bottleneck in Distributed Counting* (ETH Zürich / PODC 1997)**:
//! the Ω(k) lower bound on some processor's message load (where
//! `k^(k+1) = n`), and the matching retirement-based communication-tree
//! counter whose bottleneck is O(k).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `distctr-sim` | asynchronous message-passing network simulator, load accounting, traces and the Hot Spot Lemma checker |
//! | [`core`] | `distctr-core` | the paper's retirement-tree counter and lemma audits |
//! | [`baselines`] | `distctr-baselines` | central, combining-tree, counting-network, diffracting-tree, Arrow counters (the static tree is `TreeCounter` with `RetirementPolicy::Never`) |
//! | [`bound`] | `distctr-bound` | the executable lower bound: adversary + weight audit |
//! | [`net`] | `distctr-net` | real-threads backend: the tree counter over OS threads + channels |
//! | [`server`] | `distctr-server` | TCP service layer: wire codec, counter server, remote client, load generator |
//! | [`chaos`] | `distctr-chaos` | fault-injecting TCP proxy: seeded latency/throttle/reset/blackhole/slice/corrupt toxics |
//! | [`keyspace`] | `distctr-keyspace` | sharded multi-counter keyspace with adaptive per-key backend promotion |
//! | [`shm`] | `distctr-shm` | shared-memory backends: the tree on a mailbox arena, flat combining, atomic counting network, central cell |
//! | [`analysis`] | `distctr-analysis` | statistics and report rendering |
//!
//! ## Quickstart
//!
//! ```
//! use distctr::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // n = 81 = 3^4 processors; tree order k = 3.
//! let mut counter = TreeCounter::new(81)?;
//! let outcome = SequentialDriver::run_shuffled(&mut counter, 42)?;
//! assert!(outcome.values_are_sequential());
//!
//! // The headline result: the bottleneck is O(k), not O(n)...
//! let bottleneck = counter.loads().max_load();
//! assert!(bottleneck <= 20 * 3);
//!
//! // ...and it cannot drop below k, for *any* implementation.
//! assert!(bottleneck >= distctr::bound::theory::lower_bound_k(81) as u64);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use distctr_analysis as analysis;
pub use distctr_baselines as baselines;
pub use distctr_bound as bound;
pub use distctr_chaos as chaos;
pub use distctr_check as check;
pub use distctr_core as core;
pub use distctr_keyspace as keyspace;
pub use distctr_net as net;
pub use distctr_server as server;
pub use distctr_shm as shm;
pub use distctr_sim as sim;

/// The most common imports for working with the reproduction.
pub mod prelude {
    pub use distctr_baselines::{
        CentralCounter, CombiningTreeCounter, CountingNetworkCounter, DiffractingTreeCounter,
    };
    pub use distctr_bound::{audit_weights, Adversary};
    // `CounterBackend` is deliberately NOT here: its `inc` would collide
    // with `Counter::inc` on `TreeCounter` for every prelude user. Reach
    // it as `distctr::core::CounterBackend`.
    pub use distctr_chaos::{ChaosPlan, ChaosProxy};
    pub use distctr_core::{
        DistributedFlipBit, DistributedPriorityQueue, RetirementPolicy, TreeClient, TreeCounter,
    };
    pub use distctr_keyspace::{Keyspace, KeyspaceConfig, PromotionPolicy};
    pub use distctr_net::ThreadedTreeCounter;
    pub use distctr_server::{
        run_load, ClientConfig, CounterServer, LoadConfig, RemoteCounter, RetryPolicy, ServerConfig,
    };
    pub use distctr_sim::{
        ConcurrentCounter, ConcurrentDriver, Counter, DeliveryPolicy, FaultPlan, ProcessorId,
        SequentialDriver, TraceMode,
    };
}
