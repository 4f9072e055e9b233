//! # distctr-server
//!
//! The TCP service layer that puts **real clients** in front of the
//! retirement tree. After this crate, the counter is no longer only
//! reachable in-process: a [`CounterServer`] hosts any
//! [`distctr_core::CounterBackend`] (the simulator's `TreeCounter`, the
//! real-threads `ThreadedTreeCounter`, or anything else implementing the
//! trait) behind a length-prefixed binary wire protocol, and a
//! [`RemoteCounter`] is a native client implementing the same backend
//! interface — a counter whose "network" is a socket.
//!
//! Five layers, all on `std::net` (no registry dependencies, preserving
//! the offline shims-only build):
//!
//! 1. [`wire`] — the sans-io codec: `Hello`/`Inc`/`Stats` requests,
//!    `HelloOk`/`IncOk`/`StatsOk`/`Err` replies, hardened against
//!    truncated frames, oversized length prefixes and garbage tags;
//!    parses from buffers, so the reactor and the blocking client
//!    share it.
//! 2. [`server`] — the **session layer** and the serving paths:
//!    connections map to sessions, sessions map to `ProcessorId`s, and
//!    each session carries the dedup state that makes
//!    reconnect-and-retry exactly-once (riding the threaded backend's
//!    migrating root reply cache where available); the flat combiner,
//!    admission control, drain and panic containment live here too.
//! 3. [`readiness`] — the serving engine, one reactor thread
//!    ([`CounterServer::serve_async`]): nonblocking connections as
//!    slab-held state machines over `distctr-reactor`'s epoll/poll
//!    poller, partial-frame buffers, writable-interest backpressure,
//!    `Busy` shedding on fd exhaustion.
//! 4. [`client`] — [`RemoteCounter`], with first-class resume/replay.
//! 5. [`load`] — the load generator, [`run_load`]: closed loops ride
//!    [`RemoteCounter`] (one thread per connection), open loops ride
//!    `mux`, the C10k client side — thousands of connections from a
//!    single thread over the same poller, with a paced connect ramp and
//!    no per-op allocation; both report throughput and p50/p99/max
//!    client-observed latency.
//!
//! ```
//! use distctr_net::ThreadedTreeCounter;
//! use distctr_server::{CounterServer, LoadConfig, RemoteCounter, ServerError};
//!
//! # fn main() -> Result<(), ServerError> {
//! let backend = ThreadedTreeCounter::new(8).map_err(|e| ServerError::Backend(e.to_string()))?;
//! let mut server = CounterServer::serve_async(backend)?;
//!
//! // Real clients over loopback TCP, 2 connections, 16 ops.
//! let report = distctr_server::run_load(server.local_addr(), &LoadConfig::closed(2, 16))?;
//! assert!(report.values_are_sequential_from(0), "exactly-once, observed over the wire");
//!
//! let stats = server.stats();
//! assert_eq!(stats.ops, 16);
//! server.shutdown()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod load;
mod mux;
pub mod readiness;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, RemoteCounter, RetryPolicy};
pub use error::{ErrCode, ServerError};
pub use load::{run_load, ConnReport, KeyLoad, KeyMix, LoadConfig, LoadMode, LoadReport};
pub use server::{CounterServer, ServerConfig, DRAIN_GRACE};
pub use wire::{StatsSnapshot, WireError, WireMsg, MAX_FRAME};
