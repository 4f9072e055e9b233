//! The keyed namespace router: many counters behind one backend, each
//! placed adaptively and migrated live between placements.

use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use distctr_core::kmath::order_for;
use distctr_core::{CounterBackend, KeyedReply, KeyspaceStats, ReplyWindow, TreeCounter};
use distctr_sim::ProcessorId;

use crate::policy::{PlacementPin, PromotionPolicy};
use crate::ContentionMonitor;

/// Cap on hosted keys; ops on keys beyond it are [`KeyedReply::Unrouted`].
pub const MAX_KEYS: usize = 1024;

/// Errors a [`Keyspace`] can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyspaceError {
    /// The initiating processor is outside the hosted network.
    BadInitiator {
        /// The offending initiator index.
        initiator: usize,
        /// The network size.
        n: usize,
    },
    /// The underlying tree backend failed (construction or traversal).
    Backend(String),
}

impl fmt::Display for KeyspaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyspaceError::BadInitiator { initiator, n } => {
                write!(f, "initiator {initiator} out of range for a network of {n}")
            }
            KeyspaceError::Backend(msg) => write!(f, "backend error: {msg}"),
        }
    }
}

impl std::error::Error for KeyspaceError {}

/// Which way a key is migrating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationDirection {
    /// Centralized backend → retirement tree (the key got hot).
    Promote,
    /// Retirement tree → centralized backend (the key cooled off).
    Demote,
}

/// Configuration for a [`Keyspace`].
#[derive(Debug, Clone)]
pub struct KeyspaceConfig {
    /// Network size shared by every hosted counter.
    pub processors: usize,
    /// The promotion/demotion policy (or a baseline pin).
    pub policy: PromotionPolicy,
    /// Modeled per-message service time, realized as busy-work under
    /// the serving lock: a centralized grant of `count` values costs
    /// `count` messages at the center, one tree traversal costs `k+1`.
    /// [`Duration::ZERO`] (the default) disables the model.
    pub per_message: Duration,
}

impl KeyspaceConfig {
    /// A keyspace over a network of `n` processors with the default
    /// adaptive policy and no cost model.
    #[must_use]
    pub fn new(n: usize) -> Self {
        KeyspaceConfig {
            processors: n,
            policy: PromotionPolicy::default(),
            per_message: Duration::ZERO,
        }
    }
}

/// Where one key currently lives.
enum Placement<B> {
    /// One processor (the center) hands out the entry's `granted` values
    /// in order. Each value is one message at the center — it cannot
    /// amortize a batch — so `handled` is its bottleneck: linear in the
    /// ops, the load the paper's lower bound says a *contended* counter
    /// cannot escape, and optimal for an uncontended one (the tree pays
    /// `k+1` messages per cold traversal where the center pays 1).
    Central {
        /// Messages handled at the center since this placement began.
        handled: u64,
    },
    Tree(B),
}

/// One hosted counter: its placement plus everything that must survive
/// a migration — the grant count, the reply cache, and the contention
/// monitor all live *outside* the placement, so swapping the placement
/// carries them implicitly. A central placement is nothing but a count
/// on the entry.
struct KeyEntry<B> {
    placement: Placement<B>,
    /// Values granted so far; the next grant is exactly this.
    granted: u64,
    /// A migration decided at the end of the previous op, to be settled
    /// at the start of the next one (the drain barrier: the serving
    /// lock guarantees no op is in flight at that point).
    pending: Option<MigrationDirection>,
    /// `(session, request)` → first granted value, for exactly-once.
    answers: ReplyWindow<(u64, u64)>,
    monitor: ContentionMonitor,
}

impl<B> KeyEntry<B> {
    fn new(placement: Placement<B>, window: Duration) -> Self {
        KeyEntry {
            placement,
            granted: 0,
            pending: None,
            answers: ReplyWindow::default(),
            monitor: ContentionMonitor::new(window),
        }
    }
}

/// A sharded multi-counter keyspace.
///
/// Every key starts centralized (one message per op at the center —
/// optimal while cold). A per-key [`ContentionMonitor`] feeds
/// the [`PromotionPolicy`]; when a key crosses the thresholds it is
/// marked for migration and **settled at the start of its next op**:
/// the serving lock serializes ops per backend, so at that instant the
/// key has no op in flight — that is the drain barrier. Promotion
/// builds a fresh retirement tree and warms it to the granted value
/// with one batch traversal; demotion drops the tree, and the center
/// resumes at the granted count. The reply cache and grant count live
/// on the key entry, outside the placement, so exactly-once retry
/// survives the swap by construction.
///
/// # Examples
///
/// ```
/// use distctr_core::{CounterBackend, KeyedReply};
/// use distctr_keyspace::{Keyspace, KeyspaceConfig};
/// use distctr_sim::ProcessorId;
///
/// let mut ks = Keyspace::sim(KeyspaceConfig::new(8));
/// let p = ProcessorId::new(0);
/// assert_eq!(ks.inc_key(7, p, None).unwrap(), KeyedReply::Fresh(0));
/// assert_eq!(ks.inc_key(9, p, None).unwrap(), KeyedReply::Fresh(0));
/// assert_eq!(ks.inc_key(7, p, None).unwrap(), KeyedReply::Fresh(1));
/// assert_eq!(ks.read_key(7), Some(2));
/// assert_eq!(ks.keyspace_stats().keys_hosted, 2);
/// ```
pub struct Keyspace<B: CounterBackend> {
    cfg: KeyspaceConfig,
    /// Reference instant for the monitors' microsecond clock.
    epoch: Instant,
    keys: HashMap<u64, KeyEntry<B>>,
    /// Builds a tree backend for `n` processors on each promotion.
    make_tree: Box<dyn FnMut(usize) -> Result<B, String> + Send>,
    promotions: u64,
    demotions: u64,
    /// `k = order_for(n)`: a tree traversal costs `k + 1` messages.
    tree_order: u32,
}

impl<B: CounterBackend> fmt::Debug for Keyspace<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Keyspace")
            .field("cfg", &self.cfg)
            .field("keys_hosted", &self.keys.len())
            .field("promotions", &self.promotions)
            .field("demotions", &self.demotions)
            .finish_non_exhaustive()
    }
}

impl<B: CounterBackend> Keyspace<B> {
    /// A keyspace that builds tree backends with `make_tree` on each
    /// promotion (and on first touch under
    /// [`PlacementPin::Tree`]).
    pub fn new<F>(cfg: KeyspaceConfig, make_tree: F) -> Self
    where
        F: FnMut(usize) -> Result<B, String> + Send + 'static,
    {
        let tree_order = order_for(cfg.processors as u64);
        Keyspace {
            cfg,
            epoch: Instant::now(),
            keys: HashMap::new(),
            make_tree: Box::new(make_tree),
            promotions: 0,
            demotions: 0,
            tree_order,
        }
    }

    /// The configuration this keyspace was built with.
    #[must_use]
    pub fn config(&self) -> &KeyspaceConfig {
        &self.cfg
    }

    /// Keys promoted centralized → tree so far.
    #[must_use]
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Keys demoted tree → centralized so far.
    #[must_use]
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Whether `key` currently lives on a tree backend.
    #[must_use]
    pub fn is_on_tree(&self, key: u64) -> bool {
        matches!(self.keys.get(&key), Some(KeyEntry { placement: Placement::Tree(_), .. }))
    }

    /// The single serving path: route `key`, replay or apply a batch of
    /// `count` incs, and run the migration state machine around it.
    fn serve(
        &mut self,
        key: u64,
        initiator: ProcessorId,
        count: u64,
        token: Option<(u64, u64)>,
    ) -> Result<KeyedReply, KeyspaceError> {
        // A batch of 0 is a batch of 1, as on every backend: granting
        // nothing would hand the same value out twice.
        let count = count.max(1);
        let now_us = self.epoch.elapsed().as_micros() as u64;
        if !self.keys.contains_key(&key) {
            if self.keys.len() >= MAX_KEYS {
                return Ok(KeyedReply::Unrouted);
            }
            let placement = if self.cfg.policy.pin == PlacementPin::Tree {
                // Pinned-tree keys are born on the tree: a baseline, not
                // a migration, so it does not count as a promotion.
                Placement::Tree(
                    (self.make_tree)(self.cfg.processors).map_err(KeyspaceError::Backend)?,
                )
            } else {
                Placement::Central { handled: 0 }
            };
            self.keys.insert(key, KeyEntry::new(placement, self.cfg.policy.window));
        }
        let Keyspace { cfg, keys, make_tree, promotions, demotions, tree_order, .. } = self;
        let entry = keys.get_mut(&key).expect("entry ensured above");

        // Exactly-once: a replayed token answers from the reply cache
        // without touching the placement at all — which is also why the
        // cache can never be stranded by a migration.
        if let Some(tok) = token {
            if let Some(first) = entry.answers.get(&tok) {
                return Ok(KeyedReply::Replay(first));
            }
        }

        // Settle a pending migration. This op has not started and the
        // serving lock admits one op per backend at a time, so the key
        // is drained right now: swap the placement, carrying the value;
        // the reply cache sits outside the placement and needs no copy.
        if let Some(direction) = entry.pending.take() {
            match direction {
                MigrationDirection::Promote => {
                    let mut tree = (make_tree)(cfg.processors).map_err(KeyspaceError::Backend)?;
                    if entry.granted > 0 {
                        // Warm the fresh tree to the carried value with
                        // one batch traversal charged to the center's
                        // former owner.
                        tree.inc_batch(ProcessorId::new(0), entry.granted)
                            .map_err(|e| KeyspaceError::Backend(e.to_string()))?;
                    }
                    entry.placement = Placement::Tree(tree);
                    *promotions += 1;
                }
                MigrationDirection::Demote => {
                    entry.placement = Placement::Central { handled: 0 };
                    *demotions += 1;
                }
            }
        }

        // Apply, and charge the modeled message cost: the center sees
        // every one of the batch's `count` ops; the tree serves the
        // whole batch in one `k + 1`-message traversal.
        let first = match &mut entry.placement {
            Placement::Central { handled } => {
                if initiator.index() >= cfg.processors {
                    return Err(KeyspaceError::BadInitiator {
                        initiator: initiator.index(),
                        n: cfg.processors,
                    });
                }
                *handled += count;
                spin_for(scaled(cfg.per_message, count));
                entry.granted
            }
            Placement::Tree(tree) => {
                let first = tree
                    .inc_batch(initiator, count)
                    .map_err(|e| KeyspaceError::Backend(e.to_string()))?;
                spin_for(scaled(cfg.per_message, u64::from(*tree_order) + 1));
                first
            }
        };
        debug_assert_eq!(first, entry.granted, "placements grant in lock-step with the entry");
        entry.granted += count;

        if let Some(tok) = token {
            entry.answers.insert(tok, first);
        }

        entry.monitor.record(now_us, count);
        let on_tree = matches!(entry.placement, Placement::Tree(_));
        entry.pending = cfg.policy.decide(&mut entry.monitor, now_us, on_tree);
        Ok(KeyedReply::Fresh(first))
    }
}

impl Keyspace<TreeCounter> {
    /// A keyspace whose hot keys are served by the discrete-event
    /// simulator's [`TreeCounter`].
    #[must_use]
    pub fn sim(cfg: KeyspaceConfig) -> Self {
        Keyspace::new(cfg, |n| TreeCounter::new(n).map_err(|e| e.to_string()))
    }
}

impl<B: CounterBackend> CounterBackend for Keyspace<B> {
    type Error = KeyspaceError;

    fn processors(&self) -> usize {
        self.cfg.processors
    }

    fn inc(&mut self, initiator: ProcessorId) -> Result<u64, Self::Error> {
        self.inc_batch(initiator, 1)
    }

    fn inc_batch(&mut self, initiator: ProcessorId, count: u64) -> Result<u64, Self::Error> {
        match self.serve(distctr_core::DEFAULT_KEY, initiator, count, None)? {
            KeyedReply::Fresh(first) | KeyedReply::Replay(first) => Ok(first),
            KeyedReply::Unrouted => {
                Err(KeyspaceError::Backend("keyspace is at its key limit".into()))
            }
        }
    }

    fn inc_batch_key(
        &mut self,
        key: u64,
        initiator: ProcessorId,
        count: u64,
        token: Option<(u64, u64)>,
    ) -> Result<KeyedReply, Self::Error> {
        self.serve(key, initiator, count, token)
    }

    fn read_key(&self, key: u64) -> Option<u64> {
        Some(self.keys.get(&key).map_or(0, |entry| entry.granted))
    }

    fn keyspace_stats(&self) -> KeyspaceStats {
        KeyspaceStats {
            keys_hosted: self.keys.len() as u64,
            promotions: self.promotions,
            demotions: self.demotions,
            migrations_inflight: self.keys.values().filter(|e| e.pending.is_some()).count() as u64,
        }
    }

    fn bottleneck(&self) -> u64 {
        self.keys
            .values()
            .map(|entry| match &entry.placement {
                Placement::Central { handled } => *handled,
                Placement::Tree(tree) => tree.bottleneck(),
            })
            .max()
            .unwrap_or(0)
    }

    fn retirements(&self) -> u64 {
        self.keys
            .values()
            .map(|entry| match &entry.placement {
                Placement::Central { .. } => 0,
                Placement::Tree(tree) => tree.retirements(),
            })
            .sum()
    }
}

/// `base × messages`, saturating.
fn scaled(base: Duration, messages: u64) -> Duration {
    base.saturating_mul(u32::try_from(messages).unwrap_or(u32::MAX))
}

/// Busy-waits for `d` — the modeled service time must hold the serving
/// lock (that is the bottleneck being modeled), so sleeping would be
/// wrong even if it were precise enough.
fn spin_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distctr_core::{DEFAULT_KEY, REPLY_CACHE_CAP};

    /// Instant promote on any touch, instant demote on the next: runs
    /// the whole migration cycle deterministically in three ops.
    fn thrash_policy() -> PromotionPolicy {
        PromotionPolicy {
            promote_depth: 1,
            demote_rate: f64::INFINITY,
            cooldown: Duration::ZERO,
            ..PromotionPolicy::default()
        }
    }

    #[test]
    fn keys_count_independently() {
        let mut ks = Keyspace::sim(KeyspaceConfig::new(8));
        let p = ProcessorId::new(0);
        for i in 0..4u64 {
            assert_eq!(ks.inc_key(10, p, None).expect("inc"), KeyedReply::Fresh(i));
            assert_eq!(ks.inc_key(20, p, None).expect("inc"), KeyedReply::Fresh(i));
        }
        assert_eq!(ks.inc_batch_key(10, p, 5, None).expect("batch"), KeyedReply::Fresh(4));
        assert_eq!(ks.read_key(10), Some(9));
        assert_eq!(ks.read_key(20), Some(4));
        assert_eq!(ks.read_key(999), Some(0), "an untouched key reads as zero");
        assert_eq!(ks.keyspace_stats().keys_hosted, 2);
    }

    #[test]
    fn the_full_migration_cycle_keeps_values_sequential() {
        let mut cfg = KeyspaceConfig::new(8);
        cfg.policy = thrash_policy();
        let mut ks = Keyspace::sim(cfg);
        let p = ProcessorId::new(3);

        // Op 1 on the center fires the promotion (depth 1 >= 1)...
        assert_eq!(ks.inc_key(5, p, None).expect("inc"), KeyedReply::Fresh(0));
        assert!(!ks.is_on_tree(5), "marked, not yet settled");
        assert_eq!(ks.keyspace_stats().migrations_inflight, 1, "draining is observable");

        // ...op 2 settles it (value carried to the tree) and fires the
        // demotion (rate below +inf, zero cooldown)...
        assert_eq!(ks.inc_key(5, p, None).expect("inc"), KeyedReply::Fresh(1));
        assert!(ks.is_on_tree(5));
        assert_eq!(ks.promotions(), 1);

        // ...and op 3 settles the demotion, value carried back.
        assert_eq!(ks.inc_key(5, p, None).expect("inc"), KeyedReply::Fresh(2));
        assert!(!ks.is_on_tree(5));
        assert_eq!(ks.demotions(), 1);
        assert_eq!(ks.read_key(5), Some(3));
    }

    #[test]
    fn replayed_tokens_answer_from_the_cache_across_a_migration() {
        let mut cfg = KeyspaceConfig::new(8);
        cfg.policy = thrash_policy();
        let mut ks = Keyspace::sim(cfg);
        let p = ProcessorId::new(0);

        let tok = (7, 1);
        assert_eq!(ks.inc_key(5, p, Some(tok)).expect("inc"), KeyedReply::Fresh(0));
        // The retry lands while the promotion is still pending…
        assert_eq!(ks.inc_key(5, p, Some(tok)).expect("retry"), KeyedReply::Replay(0));
        // …and again after another op has settled it onto the tree.
        assert_eq!(ks.inc_key(5, p, Some((7, 2))).expect("inc"), KeyedReply::Fresh(1));
        assert!(ks.is_on_tree(5));
        assert_eq!(ks.inc_key(5, p, Some(tok)).expect("retry"), KeyedReply::Replay(0));
        assert_eq!(ks.read_key(5), Some(2), "replays granted nothing");
    }

    #[test]
    fn the_reply_cache_evicts_beyond_its_window() {
        let mut ks = Keyspace::sim(KeyspaceConfig::new(8));
        let p = ProcessorId::new(0);
        let window = REPLY_CACHE_CAP as u64;
        for r in 0..=window {
            assert_eq!(ks.inc_key(1, p, Some((9, r))).expect("inc"), KeyedReply::Fresh(r));
        }
        assert_eq!(
            ks.inc_key(1, p, Some((9, 0))).expect("inc"),
            KeyedReply::Fresh(window + 1),
            "token 0 was evicted, so this is a fresh grant"
        );
        assert_eq!(ks.inc_key(1, p, Some((9, window))).expect("inc"), KeyedReply::Replay(window));
    }

    #[test]
    fn the_key_limit_unroutes_new_keys_but_not_existing_ones() {
        let mut ks = Keyspace::sim(KeyspaceConfig::new(8));
        let p = ProcessorId::new(0);
        for key in 0..MAX_KEYS as u64 {
            assert_eq!(ks.inc_key(key, p, None).expect("inc"), KeyedReply::Fresh(0));
        }
        assert_eq!(ks.inc_key(MAX_KEYS as u64, p, None).expect("inc"), KeyedReply::Unrouted);
        assert_eq!(ks.inc_key(1, p, None).expect("inc"), KeyedReply::Fresh(1));
        assert_eq!(ks.keyspace_stats().keys_hosted, MAX_KEYS as u64);
    }

    #[test]
    fn a_batch_of_zero_grants_one_value_on_both_placements() {
        for policy in [PromotionPolicy::pinned_central(), PromotionPolicy::pinned_tree()] {
            let mut ks = Keyspace::sim(KeyspaceConfig { policy, ..KeyspaceConfig::new(8) });
            let p = ProcessorId::new(0);
            assert_eq!(ks.inc_batch_key(5, p, 0, None).expect("batch"), KeyedReply::Fresh(0));
            assert_eq!(ks.inc_key(5, p, None).expect("inc"), KeyedReply::Fresh(1), "no reuse");
            assert_eq!(ks.read_key(5), Some(2));
        }
    }

    #[test]
    fn the_center_handles_one_message_per_value_and_never_retires() {
        let mut cfg = KeyspaceConfig::new(8);
        cfg.policy = PromotionPolicy::pinned_central();
        let mut ks = Keyspace::sim(cfg);
        let p = ProcessorId::new(0);
        assert_eq!(ks.inc_key(1, p, None).expect("inc"), KeyedReply::Fresh(0));
        assert_eq!(ks.inc_batch_key(1, p, 5, None).expect("batch"), KeyedReply::Fresh(1));
        assert_eq!(ks.bottleneck(), 6, "a batch of 5 is 5 messages at the center");
        assert_eq!(ks.retirements(), 0);
    }

    #[test]
    fn pins_fix_the_placement_from_birth() {
        let mut cfg = KeyspaceConfig::new(8);
        cfg.policy = PromotionPolicy::pinned_tree();
        let mut ks = Keyspace::sim(cfg);
        let p = ProcessorId::new(0);
        assert_eq!(ks.inc_key(1, p, None).expect("inc"), KeyedReply::Fresh(0));
        assert!(ks.is_on_tree(1), "pinned-tree keys are born on the tree");
        assert_eq!(ks.promotions(), 0, "birth placement is not a promotion");

        let mut cfg = KeyspaceConfig::new(8);
        cfg.policy = PromotionPolicy::pinned_central();
        let mut ks = Keyspace::sim(cfg);
        for _ in 0..50 {
            ks.inc_batch_key(1, p, 20, None).expect("batch");
        }
        assert!(!ks.is_on_tree(1), "pinned-central keys never promote");
        assert_eq!(ks.promotions(), 0);
    }

    #[test]
    fn a_keyspace_is_itself_a_legacy_backend_on_the_default_key() {
        let mut ks = Keyspace::sim(KeyspaceConfig::new(8));
        let p = ProcessorId::new(2);
        assert_eq!(CounterBackend::inc(&mut ks, p).expect("inc"), 0);
        assert_eq!(CounterBackend::inc_batch(&mut ks, p, 4).expect("batch"), 1);
        assert_eq!(ks.read_key(DEFAULT_KEY), Some(5));
        assert!(ks.bottleneck() >= 5, "the default key's center saw every op");
    }

    #[test]
    fn bad_initiators_are_rejected_on_both_placements() {
        let mut cfg = KeyspaceConfig::new(8);
        cfg.policy = PromotionPolicy::pinned_tree();
        let mut ks = Keyspace::sim(cfg);
        assert!(ks.inc_key(1, ProcessorId::new(8), None).is_err());
        let mut ks = Keyspace::sim(KeyspaceConfig::new(8));
        assert_eq!(
            ks.inc_key(1, ProcessorId::new(8), None),
            Err(KeyspaceError::BadInitiator { initiator: 8, n: 8 })
        );
    }
}
