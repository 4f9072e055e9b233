//! # distctr-keyspace
//!
//! A sharded multi-counter **keyspace**: one [`Keyspace`] hosts many
//! independent counters, addressed by a `u64` key, behind the same
//! [`CounterBackend`](distctr_core::CounterBackend) interface the TCP
//! server (`distctr-server`) already serves — so a single listener
//! hosts the whole namespace with keyed sessions, per-key flat
//! combining and exactly-once retries.
//!
//! The paper's result is the reason this crate exists: the retirement
//! tree's O(k) bottleneck bound only pays for itself **under
//! contention**. A cold counter is served strictly cheaper by a
//! centralized object (one message at the center per op, versus a
//! `k+1`-message traversal), while a hot counter batched to `m` ops per
//! traversal amortizes the tree to `(k+1)/m` messages per op — below
//! the center's unavoidable 1 as soon as `m > k+1`. The crossover is a
//! function of *measured traffic*, not configuration, so each key
//! starts centralized — a count on its key entry — and a per-key
//! [`ContentionMonitor`] promotes it **live** to a retirement-tree
//! backend when its windowed inc-rate or combiner batch depth crosses
//! the [`PromotionPolicy`] thresholds; demotion on cooldown is the
//! reverse path. Migration drains in-flight ops at a settle barrier and
//! carries both the counter value and the key's reply-cache entries
//! across, so exactly-once survives a key changing placement between a
//! request and its retry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod keyspace;
mod policy;

pub use keyspace::{Keyspace, KeyspaceConfig, KeyspaceError, MigrationDirection, MAX_KEYS};
pub use policy::{ContentionMonitor, PlacementPin, PromotionPolicy};
