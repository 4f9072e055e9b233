//! The backend-agnostic serving interface.
//!
//! A service boundary (such as `distctr-server`'s TCP layer) needs a
//! uniform view of "a counter it can host": execute one `inc` charged to
//! an initiating processor, and report the load-accounting quantities
//! the bottleneck story is about. Both execution backends implement it —
//! [`TreeCounter`] (the discrete-event simulator) here, and the
//! real-threads `ThreadedTreeCounter` in `distctr-net`, each the counter
//! alias of its substrate's generic tree client — so the same server,
//! tests and experiments run against either.
//!
//! Exactly-once across retries is part of the interface: a backend that
//! owns a reply cache (the root's migrating cache in both tree backends)
//! can hand out **tickets** via [`CounterBackend::reserve`]. Driving
//! [`CounterBackend::inc_ticketed`] twice with the same ticket applies
//! the increment once and returns the same value twice — which is what a
//! server needs when a client reconnects and retries a request whose
//! reply was lost in flight.

use distctr_sim::{Counter, ProcessorId};

use crate::counter::TreeCounter;
use crate::error::CoreError;

/// The key a single-counter client addresses implicitly: every backend
/// is a keyspace of (at least) one, hosting this key, so pre-keyspace
/// clients and servers interoperate with keyed ones unchanged.
pub const DEFAULT_KEY: u64 = 0;

/// Dedup window: how many recent request ids (a server session) or
/// `(session, request)` tokens (a keyspace key) are remembered for
/// exactly-once retries.
pub const DEDUP_WINDOW: usize = 256;

/// Outcome of a keyed operation ([`CounterBackend::inc_key`] /
/// [`CounterBackend::inc_batch_key`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyedReply {
    /// The operation was applied; the value (or first value of the
    /// granted contiguous range) is carried.
    Fresh(u64),
    /// The operation's dedup token was found in a reply cache: nothing
    /// was applied, and the original grant's (first) value is carried.
    /// This is what keeps a reconnect-and-retry exactly-once even when
    /// the key migrated backends between the attempts.
    Replay(u64),
    /// The backend does not host this key (single-counter backends host
    /// only [`DEFAULT_KEY`]; a keyspace may be at its key limit).
    Unrouted,
}

/// Keyspace-level statistics, carried over the wire in the server's
/// stats snapshot. A single-counter backend is a keyspace of one with
/// no migration machinery — see [`KeyspaceStats::single`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KeyspaceStats {
    /// Keys currently hosted.
    pub keys_hosted: u64,
    /// Keys promoted centralized → tree so far.
    pub promotions: u64,
    /// Keys demoted tree → centralized so far.
    pub demotions: u64,
    /// Keys marked for migration that have not yet settled (draining).
    pub migrations_inflight: u64,
}

impl KeyspaceStats {
    /// The stats of a plain single-counter backend: one hosted key,
    /// nothing ever migrates.
    #[must_use]
    pub fn single() -> Self {
        KeyspaceStats { keys_hosted: 1, ..KeyspaceStats::default() }
    }
}

/// A counter implementation that can be hosted behind a service
/// boundary.
///
/// # Examples
///
/// ```
/// use distctr_core::{CounterBackend, TreeCounter};
/// use distctr_sim::ProcessorId;
///
/// # fn main() -> Result<(), distctr_core::CoreError> {
/// let mut backend = TreeCounter::new(8)?;
/// assert_eq!(CounterBackend::inc(&mut backend, ProcessorId::new(3))?, 0);
/// assert_eq!(CounterBackend::inc(&mut backend, ProcessorId::new(5))?, 1);
/// assert!(backend.bottleneck() >= 1);
/// # Ok(())
/// # }
/// ```
pub trait CounterBackend {
    /// The backend's error type.
    type Error: std::error::Error + Send + Sync + 'static;

    /// Number of processors in the hosted network.
    fn processors(&self) -> usize;

    /// Executes one `inc` initiated (and charged to) `initiator`,
    /// returning the counter value.
    ///
    /// # Errors
    ///
    /// Backend-specific: out-of-range initiators always fail; threaded
    /// backends may also time out or lose peers.
    fn inc(&mut self, initiator: ProcessorId) -> Result<u64, Self::Error>;

    /// Reserves a dedup ticket for one client request, if this backend
    /// supports exactly-once retries. `None` (the default) means the
    /// caller must deduplicate retries itself.
    fn reserve(&mut self) -> Option<u64> {
        None
    }

    /// Executes one `inc` under a ticket from
    /// [`CounterBackend::reserve`]: re-driving the same ticket must not
    /// increment again, and must return the value of the first
    /// application. The default ignores the ticket and increments.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CounterBackend::inc`].
    fn inc_ticketed(&mut self, initiator: ProcessorId, _ticket: u64) -> Result<u64, Self::Error> {
        self.inc(initiator)
    }

    /// Executes a *batch* of `count` incs charged to `initiator` as one
    /// traversal where the backend supports it, returning the **first**
    /// value of the batch's contiguous range `[first, first + count)`.
    ///
    /// The default replays [`CounterBackend::inc`] `count` times —
    /// semantically identical (the values are contiguous because the
    /// backend serializes them) but unamortized. Tree backends override
    /// it with a single `BatchInc` traversal.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CounterBackend::inc`].
    fn inc_batch(&mut self, initiator: ProcessorId, count: u64) -> Result<u64, Self::Error> {
        let first = self.inc(initiator)?;
        for _ in 1..count {
            self.inc(initiator)?;
        }
        Ok(first)
    }

    /// Batch analogue of [`CounterBackend::inc_ticketed`]: re-driving the
    /// same ticket with the same `count` must not increment again and
    /// must return the same range start. The default ignores the ticket.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CounterBackend::inc`].
    fn inc_batch_ticketed(
        &mut self,
        initiator: ProcessorId,
        _ticket: u64,
        count: u64,
    ) -> Result<u64, Self::Error> {
        self.inc_batch(initiator, count)
    }

    /// Executes one `inc` against counter `key`, optionally under a
    /// `(session, request)` dedup token: a backend that keeps a keyed
    /// reply cache answers a replayed token with [`KeyedReply::Replay`]
    /// instead of incrementing again — and carries that cache across
    /// backend migrations, so exactly-once survives a key changing
    /// placement between a request and its retry.
    ///
    /// The default routes [`DEFAULT_KEY`] to [`CounterBackend::inc`]
    /// (ignoring the token; the caller's own answer table must dedup)
    /// and reports every other key [`KeyedReply::Unrouted`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`CounterBackend::inc`].
    fn inc_key(
        &mut self,
        key: u64,
        initiator: ProcessorId,
        token: Option<(u64, u64)>,
    ) -> Result<KeyedReply, Self::Error> {
        let _ = token;
        if key == DEFAULT_KEY {
            self.inc(initiator).map(KeyedReply::Fresh)
        } else {
            Ok(KeyedReply::Unrouted)
        }
    }

    /// Batch analogue of [`CounterBackend::inc_key`]: `count` incs
    /// against counter `key` as one traversal where supported, granting
    /// the contiguous range `[first, first + count)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CounterBackend::inc`].
    fn inc_batch_key(
        &mut self,
        key: u64,
        initiator: ProcessorId,
        count: u64,
        token: Option<(u64, u64)>,
    ) -> Result<KeyedReply, Self::Error> {
        let _ = token;
        if key == DEFAULT_KEY {
            self.inc_batch(initiator, count).map(KeyedReply::Fresh)
        } else {
            Ok(KeyedReply::Unrouted)
        }
    }

    /// Reads counter `key`'s current value (the count of grants so far)
    /// without incrementing, or `None` if this backend cannot serve
    /// reads for it. The default declines every key: the single-counter
    /// backends expose no read path, only keyspaces do.
    fn read_key(&self, key: u64) -> Option<u64> {
        let _ = key;
        None
    }

    /// Keyspace-level statistics. The default reports a keyspace of one
    /// ([`KeyspaceStats::single`]).
    fn keyspace_stats(&self) -> KeyspaceStats {
        KeyspaceStats::single()
    }

    /// The bottleneck load `m_b = max_p m_p` so far.
    fn bottleneck(&self) -> u64;

    /// Total worker retirements so far.
    fn retirements(&self) -> u64;
}

impl CounterBackend for TreeCounter {
    type Error = CoreError;

    fn processors(&self) -> usize {
        Counter::processors(self)
    }

    fn inc(&mut self, initiator: ProcessorId) -> Result<u64, Self::Error> {
        Ok(Counter::inc(self, initiator).map_err(CoreError::Sim)?.value)
    }

    fn inc_batch(&mut self, initiator: ProcessorId, count: u64) -> Result<u64, Self::Error> {
        Ok(TreeCounter::inc_batch(self, initiator, count).map_err(CoreError::Sim)?.value)
    }

    fn bottleneck(&self) -> u64 {
        self.loads().max_load()
    }

    fn retirements(&self) -> u64 {
        self.audit().retirements_by_level().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequential_through_the_trait<B: CounterBackend>(backend: &mut B, ops: usize) {
        for i in 0..ops {
            let p = ProcessorId::new(i % backend.processors());
            assert_eq!(backend.inc(p).expect("inc"), i as u64);
        }
    }

    #[test]
    fn sim_backend_counts_through_the_trait() {
        let mut sim = TreeCounter::new(8).expect("counter");
        sequential_through_the_trait(&mut sim, 8);
        assert!(sim.bottleneck() >= 2, "the root's worker moved messages");
        assert!(CounterBackend::retirements(&sim) > 0);
    }

    #[test]
    fn sim_batch_returns_the_range_start_and_advances_by_count() {
        let mut sim = TreeCounter::new(8).expect("counter");
        assert_eq!(CounterBackend::inc(&mut sim, ProcessorId::new(0)).expect("inc"), 0);
        assert_eq!(
            CounterBackend::inc_batch(&mut sim, ProcessorId::new(1), 5).expect("batch"),
            1,
            "owns [1, 6)"
        );
        assert_eq!(CounterBackend::inc(&mut sim, ProcessorId::new(2)).expect("inc"), 6);
        assert_eq!(sim.inc_batch_ticketed(ProcessorId::new(3), 9, 2).expect("batch"), 7);
    }

    #[test]
    fn default_ticketing_is_a_plain_inc() {
        let mut sim = TreeCounter::new(8).expect("counter");
        assert_eq!(sim.reserve(), None);
        assert_eq!(sim.inc_ticketed(ProcessorId::new(0), 7).expect("inc"), 0);
        assert_eq!(sim.inc_ticketed(ProcessorId::new(1), 7).expect("inc"), 1);
    }

    #[test]
    fn default_keyed_methods_make_every_backend_a_keyspace_of_one() {
        let mut sim = TreeCounter::new(8).expect("counter");
        let p = ProcessorId::new(0);
        assert_eq!(sim.inc_key(DEFAULT_KEY, p, Some((1, 1))).expect("inc"), KeyedReply::Fresh(0));
        assert_eq!(
            sim.inc_batch_key(DEFAULT_KEY, p, 3, None).expect("batch"),
            KeyedReply::Fresh(1)
        );
        assert_eq!(sim.inc_key(7, p, None).expect("inc"), KeyedReply::Unrouted);
        assert_eq!(sim.inc_batch_key(7, p, 2, None).expect("batch"), KeyedReply::Unrouted);
        assert_eq!(sim.read_key(DEFAULT_KEY), None, "single-counter backends decline reads");
        assert_eq!(sim.keyspace_stats(), KeyspaceStats::single());
        assert_eq!(sim.keyspace_stats().keys_hosted, 1);
    }
}
