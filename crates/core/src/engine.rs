//! The sans-io protocol engine: one state machine, three backends.
//!
//! Following the I/O-automaton shape (a protocol is pure state plus a
//! transition function; schedulers, clocks and wires live outside it),
//! every protocol decision of the retirement tree — `Apply` forwarding,
//! value return, retirement handoff, pool-successor promotion, and crash
//! recovery — is made in exactly one place: [`EngineState::on_event_into`].
//! The engine never touches a channel, a clock or a counter directly;
//! it consumes [`Event`]s and returns pure [`Effect`]s. Every driver
//! realizes them through one loop,
//! [`realize`](crate::protocol::realize), and supplies only its
//! transport (where `Send` and `Reply` go) and ledger (where `Audit`
//! and the registry effects go):
//!
//! | driver | transport | ledger |
//! |---|---|---|
//! | simulator | sim network; reply buffer | [`TreeProtocol`](crate::protocol::TreeProtocol) |
//! | model checker (`distctr-check`) | in-flight multiset; op state | [`TreeProtocol`](crate::protocol::TreeProtocol) |
//! | shared memory (`distctr-shm`) | arena mailbox; op cell | per-slot [`Tally`](crate::audit::Tally) |
//! | threads (`distctr-net`) | crossbeam channel; results channel | per-worker [`Tally`](crate::audit::Tally) |
//!
//! One [`EngineState`] models one *processor* (mirroring the threaded
//! backend, where all knowledge is local and node state genuinely
//! migrates inside [`Msg::HandoffFinal`]). What every processor of a
//! fleet shares — the topology and the [`EngineConfig`] — is one
//! [`EngineContext`], which each transition takes as an argument with
//! the processor's id. A fleet held in one place (the simulator, the
//! model checker) keeps one context and a vector of states; a driver
//! that holds engines one at a time (shm slots, net workers) keeps a
//! [`NodeEngine`], the triple of context, id and state.
//!
//! ## State model
//!
//! The engine hosts the nodes this processor currently works for. A
//! retirement removes the node and leaves a forwarding address (the
//! shim: messages that still arrive are forwarded to the successor for
//! one extra hop, the paper's handshake argument); the successor buffers
//! early traffic until the state-bearing final part installs the node.
//! Crash recovery is a *forced retirement*: the promoted successor
//! rebuilds the k+2-value state from one [`Msg::RebuildShare`] per
//! distinct neighbour instead of a handoff from the dead worker.
//!
//! The engine keeps no clock and arms no timers. A lost handoff or
//! rebuild is noticed outside it — at quiescence by the simulator's and
//! the checker's watchdog, or by the threaded driver's bounded retry —
//! and re-enters the engine as an ordinary [`Msg::RecoverPromote`].

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use distctr_sim::ProcessorId;

use crate::kmath;
use crate::messages::{Msg, NodeTransfer};
use crate::object::RootObject;
use crate::serve::push_capped;
use crate::topology::{NodeRef, Topology};

/// A protocol timestamp. The engine keeps no clock: this type survives
/// only as the ignored argument of [`NodeEngine::on_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct VirtualTime(pub u64);

impl VirtualTime {
    /// Time zero.
    pub const ZERO: VirtualTime = VirtualTime(0);
}

/// Retirement behaviour of the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetirementPolicy {
    /// The paper's threshold: retire at age `4k`.
    #[default]
    PaperDefault,
    /// Retire at a custom age (ablation experiments).
    AfterAge(u64),
    /// Never retire — this is exactly the static-tree baseline the paper
    /// argues is bottlenecked at the root.
    Never,
}

impl RetirementPolicy {
    /// The concrete age threshold for an order-`k` tree, or `None` for
    /// [`RetirementPolicy::Never`].
    #[must_use]
    pub fn threshold(self, k: u32) -> Option<u64> {
        match self {
            RetirementPolicy::PaperDefault => Some(kmath::retirement_threshold(k)),
            RetirementPolicy::AfterAge(age) => Some(age.max(1)),
            RetirementPolicy::Never => None,
        }
    }
}

/// How a node's replacement pool is consumed.
///
/// The paper dimensions each pool for the canonical workload (each
/// processor increments exactly once): `pool_size - 1` retirements
/// suffice, and a drained pool is never touched again. For longer
/// operation sequences (M rounds of the canonical workload) that
/// dimensioning is too small — [`PoolPolicy::Recycling`] wraps around the
/// pool instead, keeping the *amortized* per-processor load at O(k) per
/// round. This is an extension beyond the paper, exercised by experiment
/// E15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolPolicy {
    /// The paper's scheme: a node stops retiring when its pool is
    /// exhausted.
    #[default]
    OneShot,
    /// Wrap around the pool: after the last id, reuse the first.
    Recycling,
}

/// Static per-run parameters of a fleet's engines, held in its
/// [`EngineContext`]. The drivers differ only here — protocol
/// transitions are identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Retirement age threshold; `None` disables retirement (the
    /// static-tree ablation).
    pub threshold: Option<u64>,
    /// How replacement pools are consumed.
    pub pool_policy: PoolPolicy,
    /// Whether the root answers duplicate `op_seq`s from the reply cache
    /// (exactly-once retries). The threaded driver always dedupes; the
    /// simulator arms this with its fault-tolerant mode so fault-free
    /// runs pay nothing.
    pub dedupe: bool,
    /// Whether every fresh root application emits [`Effect::Persist`] —
    /// the simulator's stable-storage model, powering root crash
    /// recovery. The threaded driver has no stable storage and leaves
    /// this off.
    pub persist: bool,
}

impl EngineConfig {
    /// The paper's configuration for an order-`k` tree: retire at `4k`,
    /// one-shot pools, no dedupe, no stable storage.
    #[must_use]
    pub fn paper(k: u32) -> Self {
        EngineConfig {
            threshold: Some(kmath::retirement_threshold(k)),
            pool_policy: PoolPolicy::OneShot,
            dedupe: false,
            persist: false,
        }
    }
}

/// The k+2 values of one hosted node: the paper's "id that tells which
/// processor currently works for the node, the identifiers of its k
/// children and its parent, and … its age". Only the root's worker also
/// holds the object, in [`Hosted::root`].
#[derive(Clone)]
pub struct Hosted<O: RootObject> {
    /// Messages sent or received by the node in the current stint.
    pub age: u64,
    /// Retirements so far (worker = pool start + cursor).
    pub pool_cursor: u64,
    /// Current worker of the parent node (None at the root).
    pub parent_worker: Option<ProcessorId>,
    /// Inner-node children's workers (empty on level k).
    pub child_workers: Box<[ProcessorId]>,
    /// The object and its reply cache: `Some` at the root only, and
    /// `None` there too between a rebuild and its [`Event::Restore`].
    pub root: Option<Box<RootState<O>>>,
}

/// What the root's worker holds beyond the k+2 values: the hosted object
/// and the replies it already sent. It migrates with the root on handoff.
#[derive(Debug, Clone)]
pub struct RootState<O: RootObject> {
    /// The hosted object.
    pub object: O,
    /// Replies already sent, keyed by op sequence, oldest first, at most
    /// [`REPLY_CACHE_CAP`](crate::REPLY_CACHE_CAP) of them.
    pub reply_cache: VecDeque<(u64, O::Response)>,
}

/// A root state's two fields in the `Debug` text of [`Hosted`] and
/// [`NodeTransfer`], as they read when every node carried both: `object:
/// None, reply_cache: []` away from the root. Engine fingerprints hash
/// that text, so they stay the same.
pub(crate) fn debug_root_fields<O: RootObject>(
    s: &mut fmt::DebugStruct<'_, '_>,
    root: Option<&RootState<O>>,
) {
    /// The reply cache's list, empty without a root state.
    struct Replies<'a, R>(Option<&'a VecDeque<(u64, R)>>);
    impl<R: fmt::Debug> fmt::Debug for Replies<'_, R> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_list().entries(self.0.into_iter().flatten()).finish()
        }
    }
    s.field("object", &root.map(|r| &r.object))
        .field("reply_cache", &Replies(root.map(|r| &r.reply_cache)));
}

impl<O: RootObject> fmt::Debug for Hosted<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("Hosted");
        s.field("age", &self.age)
            .field("pool_cursor", &self.pool_cursor)
            .field("parent_worker", &self.parent_worker)
            .field("child_workers", &self.child_workers);
        debug_root_fields(&mut s, self.root.as_deref());
        s.finish()
    }
}

/// An input to the engine.
#[derive(Debug, Clone)]
pub enum Event<O: RootObject> {
    /// A protocol message was delivered to this processor.
    Deliver {
        /// The message.
        msg: Msg<O>,
    },
    /// The local user asks this processor to initiate one operation:
    /// [`Event::InvokeBatch`] with a count of 1.
    Invoke {
        /// Driver-assigned operation sequence number.
        op_seq: u64,
        /// The operation payload.
        req: O::Request,
    },
    /// The local user asks this processor to initiate a *batch* of
    /// `count` identical operations sharing one tree traversal (one
    /// [`Msg::Apply`] carrying the count). The eventual [`Effect::Reply`]
    /// carries the first response — the start of the batch's contiguous
    /// range for range-structured objects like the counter.
    InvokeBatch {
        /// Driver-assigned sequence number for the whole batch. A retry
        /// must repeat both the `op_seq` and the `count`.
        op_seq: u64,
        /// Number of operations combined (values < 1 are treated as 1).
        count: u64,
        /// The operation payload, shared by the whole batch.
        req: O::Request,
    },
    /// Stable storage restores a recovered node's object state (the
    /// driver answers [`Effect::Recovered`] for the root with this).
    Restore {
        /// The node being restored.
        node: NodeRef,
        /// The object state from stable storage.
        object: O,
        /// The reply cache from stable storage (exactly-once across the
        /// crash).
        reply_cache: Vec<(u64, O::Response)>,
    },
}

/// Ledger entries the engine emits so drivers can account identically.
/// The simulator maps these 1:1 onto
/// [`CounterAudit`](crate::audit::CounterAudit) calls; the threaded
/// driver keeps only the shared counters it reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEvent {
    /// `node`'s worker handled a message of `kind`, aging the node by
    /// `aged` (2 for an apply: receive + forward; 1 for a notification).
    Handled {
        /// The node that grew older.
        node: NodeRef,
        /// Message kind, as [`Msg::kind`].
        kind: &'static str,
        /// Age growth (also the node's message count for this delivery).
        aged: u64,
    },
    /// A message of `kind` was handled without aging anyone.
    Kind(&'static str),
    /// `msgs` messages were charged to `node`'s current stint without
    /// aging it through [`AuditEvent::Handled`] (handoff parts and
    /// notifications sent on retirement/recovery).
    Traffic {
        /// The node whose stint the messages belong to.
        node: NodeRef,
        /// Number of messages.
        msgs: u64,
    },
    /// A message reached a retired worker and was forwarded to the
    /// successor by the shim.
    ShimForward,
    /// `node` began an ordinary retirement.
    Retirement {
        /// The retiring node.
        node: NodeRef,
    },
    /// `node` reached the threshold with no successor available.
    PoolExhausted {
        /// The blocked node.
        node: NodeRef,
    },
    /// A stint of `node` completed (handoff or rebuild installed here);
    /// the new stint starts charged with the `setup_msgs` that installed
    /// it.
    StintComplete {
        /// The node that changed hands.
        node: NodeRef,
        /// Messages that set the new stint up (k+1 handoff parts, or one
        /// rebuild share per neighbour).
        setup_msgs: u64,
    },
    /// A crash recovery of `node` completed.
    Recovery {
        /// The recovered node.
        node: NodeRef,
    },
    /// `count` recovery messages (promotes, queries, shares) were
    /// exchanged — the explicit slack term of the fault-aware load
    /// bound. Recovery traffic never ages nodes.
    RecoveryMsgs {
        /// Number of messages.
        count: u64,
    },
    /// A message had to be dropped (lost routing view or missing object
    /// state after an unrecovered crash).
    Lost,
}

/// A pure output of the engine; drivers realize these on their
/// transport.
#[derive(Debug, Clone)]
pub enum Effect<O: RootObject> {
    /// Send `msg` to `to` (charged as network load by the driver).
    Send {
        /// Destination processor.
        to: ProcessorId,
        /// The message.
        msg: Msg<O>,
    },
    /// Deliver `resp` to the local user who invoked operation `op_seq`
    /// (the initiator received the root's `Reply`).
    Reply {
        /// Operation sequence number.
        op_seq: u64,
        /// The response.
        resp: O::Response,
    },
    /// This processor retired from `node`; `successor` will take over
    /// once the in-flight handoff installs there.
    Retired {
        /// The node changing hands.
        node: NodeRef,
        /// The pool successor the handoff is addressed to.
        successor: ProcessorId,
    },
    /// A handoff installed `node` at this processor (`worker`), which
    /// now serves it with the given pool cursor.
    Installed {
        /// The node that changed hands.
        node: NodeRef,
        /// The new worker (the emitting engine's processor).
        worker: ProcessorId,
        /// The node's position in its replacement pool.
        pool_cursor: u64,
    },
    /// A crash recovery of `node` started at this processor
    /// (`successor`), which is now collecting rebuild shares.
    RecoveryStarted {
        /// The node being rebuilt.
        node: NodeRef,
        /// The promoted pool successor (the emitting engine's
        /// processor).
        successor: ProcessorId,
    },
    /// A crash recovery of `node` completed: this processor (`worker`)
    /// serves it now. For the root, the driver should follow up with
    /// [`Event::Restore`] from stable storage.
    Recovered {
        /// The rebuilt node.
        node: NodeRef,
        /// The new worker (the emitting engine's processor).
        worker: ProcessorId,
        /// The node's position in its replacement pool.
        pool_cursor: u64,
    },
    /// Stable storage checkpoint: the root applied operation `op_seq`
    /// fresh, producing `resp` and the new `object` state. Only emitted
    /// with [`EngineConfig::persist`].
    Persist {
        /// The node whose state is checkpointed (the root).
        node: NodeRef,
        /// The object state after the application.
        object: O,
        /// The operation just applied.
        op_seq: u64,
        /// Its response.
        resp: O::Response,
    },
    /// An accounting entry; see [`AuditEvent`].
    Audit(AuditEvent),
}

/// The effects of one [`EngineState::on_event_into`] call, in emission order
/// (audit entries are ordered consistently with the simulator's
/// pre-refactor ledger).
pub type Effects<O> = Vec<Effect<O>>;

/// FNV-1a over `bytes`: a fixed, portable hash for state fingerprints
/// (`DefaultHasher` makes no cross-version stability promise).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A sorted arena of per-node slots, keyed by the interned `NodeRef →
/// u32` flat index ([`Topology::flat_index`]; [`Topology::node_at`] is
/// the inverse).
///
/// One engine hosts O(1) nodes out of a tree that can have millions, so
/// the former per-engine `HashMap<NodeRef, T>`s are replaced by one
/// short sorted run of `(flat, T)` pairs: a boxed slice of exactly its
/// entries, two words and no heap block when empty (a `HashMap` is six
/// words, plus its heap block once touched), binary-searched lookups
/// with no hashing, and iteration already in `NodeRef` order — which is
/// exactly the flat-index order, so fingerprints can rebuild the
/// canonical sorted rendering for free.
#[derive(Debug, Clone)]
struct NodeSlots<T> {
    entries: Box<[(u32, T)]>,
}

impl<T> NodeSlots<T> {
    fn new() -> Self {
        NodeSlots { entries: Box::default() }
    }

    /// Sortedness invariant, checked in debug builds and — so release
    /// checker runs catch stale-id bugs — under the `bounds-audit`
    /// feature.
    #[inline]
    fn audit(&self) {
        #[cfg(any(debug_assertions, feature = "bounds-audit"))]
        assert!(
            self.entries.windows(2).all(|w| w[0].0 < w[1].0),
            "arena slots must stay strictly sorted by interned node id"
        );
    }

    fn search(&self, key: u32) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&key, |&(k, _)| k)
    }

    fn contains(&self, key: u32) -> bool {
        self.search(key).is_ok()
    }

    fn get(&self, key: u32) -> Option<&T> {
        self.search(key).ok().map(|i| &self.entries[i].1)
    }

    fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        let i = self.search(key).ok()?;
        Some(&mut self.entries[i].1)
    }

    fn insert(&mut self, key: u32, value: T) {
        match self.search(key) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.insert_at(i, key, value),
        }
    }

    /// Inserts a new key at its sorted position `i`, growing the run by
    /// exactly one slot. Most engines host one node at a time: at k = 5 a
    /// `Vec`'s first push would leave 13,700 engines holding three idle
    /// slots each, 40 % of the simulator's resident memory.
    fn insert_at(&mut self, i: usize, key: u32, value: T) {
        let mut entries = std::mem::take(&mut self.entries).into_vec();
        entries.reserve_exact(1);
        entries.insert(i, (key, value));
        self.entries = entries.into_boxed_slice();
        self.audit();
    }

    /// Removes `key`, shrinking the run to its remaining entries. The run
    /// that becomes empty frees its buffer: a processor that retired from
    /// its only node keeps nothing of it (at k = 5, 881 KiB of one-slot
    /// `hosted` runs after a canonical pass).
    fn remove(&mut self, key: u32) -> Option<T> {
        let i = self.search(key).ok()?;
        let mut entries = std::mem::take(&mut self.entries).into_vec();
        let (_, value) = entries.remove(i);
        self.entries = entries.into_boxed_slice();
        self.audit();
        Some(value)
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The slot for `key`, inserting `T::default()` if absent (the
    /// former `entry(..).or_default()`).
    fn get_or_default(&mut self, key: u32) -> &mut T
    where
        T: Default,
    {
        let i = match self.search(key) {
            Ok(i) => i,
            Err(i) => {
                self.insert_at(i, key, T::default());
                i
            }
        };
        &mut self.entries[i].1
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Slots in ascending key (= `NodeRef`) order.
    fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }
}

/// The shim table: the successor each node this processor retired from
/// was handed to. A processor that retires at all mostly retires from
/// one node (7,470 of 8,642 in a k = 5 canonical pass, the rest from
/// two), so a lone entry lives inline, where a one-slot run would be an
/// 8-byte heap block; the enum takes the run's 16 bytes.
#[derive(Debug, Clone)]
enum Shims {
    /// One shim entry.
    One(u32, ProcessorId),
    /// No entry (an empty run), or more than one.
    Run(NodeSlots<ProcessorId>),
}

impl Shims {
    fn get(&self, key: u32) -> Option<ProcessorId> {
        match self {
            Shims::One(k, successor) => (*k == key).then_some(*successor),
            Shims::Run(run) => run.get(key).copied(),
        }
    }

    fn insert(&mut self, key: u32, successor: ProcessorId) {
        match self {
            Shims::Run(run) if run.is_empty() => *self = Shims::One(key, successor),
            Shims::Run(run) => run.insert(key, successor),
            Shims::One(k, old) if *k == key => *old = successor,
            Shims::One(k, old) => {
                let mut run = NodeSlots::new();
                run.insert(*k, *old);
                run.insert(key, successor);
                *self = Shims::Run(run);
            }
        }
    }

    fn remove(&mut self, key: u32) {
        match self {
            Shims::One(k, _) if *k == key => *self = Shims::Run(NodeSlots::new()),
            Shims::One(..) => {}
            Shims::Run(run) => {
                run.remove(key);
            }
        }
    }

    /// Entries in ascending key (= `NodeRef`) order.
    fn iter(&self) -> impl Iterator<Item = (u32, &ProcessorId)> {
        let (one, run) = match self {
            Shims::One(k, successor) => (Some((*k, successor)), None),
            Shims::Run(run) => (None, Some(run)),
        };
        one.into_iter().chain(run.into_iter().flat_map(NodeSlots::iter))
    }
}

/// How many rebuild shares a recovery of `node` must collect: one per
/// inner neighbour (parent plus inner children). Leaf children hold no
/// share — but level-k nodes have singleton pools and are never promoted
/// in the first place.
#[must_use]
pub fn expected_shares(topo: &Topology, node: NodeRef) -> u32 {
    let parent = u32::from(topo.parent(node).is_some());
    let children = topo.inner_children(node).map_or(0, |c| c.len() as u32);
    parent + children
}

/// Seeds the initial hosting across a fleet of per-processor engines:
/// each node is installed at its pool's first processor, with neighbour
/// routing derived from the topology and `object` hosted at the root.
///
/// # Panics
///
/// Panics if `engines` does not hold one engine per processor of
/// `topo`, in processor order.
pub fn seed_initial_hosting<O: RootObject>(
    topo: &Topology,
    engines: &mut [NodeEngine<O>],
    object: &O,
) {
    assert_eq!(engines.len() as u64, topo.processors(), "one engine per processor");
    seed_hosting(topo, object, |worker, node, hosted| {
        engines[worker.index()].install(node, hosted);
    });
}

/// The initial hosting of `topo`, one node at a time: `install(worker,
/// node, hosted)` for every node, with `object` at the root.
pub(crate) fn seed_hosting<O: RootObject>(
    topo: &Topology,
    object: &O,
    mut install: impl FnMut(ProcessorId, NodeRef, Hosted<O>),
) {
    for node in topo.nodes() {
        let parent_worker = topo.parent(node).map(|p| topo.initial_worker(p));
        let child_workers = topo
            .inner_children(node)
            .map(|children| children.map(|c| topo.initial_worker(c)).collect())
            .unwrap_or_default();
        let root = (node == NodeRef::ROOT)
            .then(|| Box::new(RootState { object: object.clone(), reply_cache: VecDeque::new() }));
        install(
            topo.initial_worker(node),
            node,
            Hosted { age: 0, pool_cursor: 0, parent_worker, child_workers, root },
        );
    }
}

/// The engine's tables for nodes in transit to this processor. Both are
/// empty in all but a handful of engines at any moment, so they live
/// behind one box that exists only while one of them holds an entry.
#[derive(Debug, Clone)]
struct Transit<O: RootObject> {
    /// Messages for nodes whose handoff has not arrived here yet.
    pending: NodeSlots<Vec<Msg<O>>>,
    /// In-flight rebuilds: per node, the distinct neighbours that
    /// answered so far with the worker each reported.
    rebuilding: NodeSlots<NodeSlots<ProcessorId>>,
}

/// What every engine of a fleet shares: the topology and the static
/// configuration. A fleet holds one; a [`NodeEngine`] carries its own.
#[derive(Debug, Clone)]
pub struct EngineContext {
    topo: Arc<Topology>,
    config: EngineConfig,
}

impl EngineContext {
    /// The context of a fleet on `topo` under `config`.
    #[must_use]
    pub fn new(topo: Arc<Topology>, config: EngineConfig) -> Self {
        EngineContext { topo, config }
    }

    /// The tree topology.
    #[must_use]
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Arms or disarms reply-cache deduplication at runtime (the
    /// simulator toggles it with its fault-tolerant mode).
    pub fn set_dedupe(&mut self, enabled: bool) {
        self.config.dedupe = enabled;
    }

    /// Interns `node` to its arena key: the topology's flat index, which
    /// is dense, stable, and ordered exactly like `NodeRef`'s `Ord`.
    /// Under `bounds-audit` (and in debug builds) the round trip through
    /// [`Topology::node_at`] is verified, catching stale or foreign ids
    /// before they corrupt a slot.
    #[inline]
    fn slot(&self, node: NodeRef) -> u32 {
        let flat = self.topo.flat_index(node);
        #[cfg(any(debug_assertions, feature = "bounds-audit"))]
        assert_eq!(self.topo.node_at(flat), node, "interned node id must round-trip");
        flat as u32
    }

    /// The inverse interning: arena key back to the node it names.
    #[inline]
    fn node_of(&self, slot: u32) -> NodeRef {
        self.topo.node_at(slot as usize)
    }
}

/// One processor's protocol state: the nodes it works for, its shims and
/// its transit tables, and nothing its fleet shares. Every transition is
/// a method of the state that takes the fleet's [`EngineContext`] and the
/// processor's id `me`. See the module docs.
#[derive(Debug, Clone)]
pub struct EngineState<O: RootObject> {
    /// Nodes this processor currently works for.
    hosted: NodeSlots<Hosted<O>>,
    /// Nodes this processor retired from, with the successor to forward
    /// to (the shim).
    forwarding: Shims,
    /// Buffered messages and in-flight rebuilds; `None` while both are
    /// empty.
    transit: Option<Box<Transit<O>>>,
}

impl<O: RootObject> Default for EngineState<O> {
    fn default() -> Self {
        EngineState::new()
    }
}

impl<O: RootObject> EngineState<O> {
    /// A processor hosting nothing yet (see [`seed_initial_hosting`]).
    /// It owns no heap block.
    #[must_use]
    pub fn new() -> Self {
        EngineState {
            hosted: NodeSlots::new(),
            forwarding: Shims::Run(NodeSlots::new()),
            transit: None,
        }
    }

    /// The transit tables, allocated on first use.
    fn transit_mut(&mut self) -> &mut Transit<O> {
        self.transit.get_or_insert_with(|| {
            Box::new(Transit { pending: NodeSlots::new(), rebuilding: NodeSlots::new() })
        })
    }

    /// Frees the transit tables once both are empty again.
    fn settle_transit(&mut self) {
        if self.transit.as_ref().is_some_and(|t| t.pending.is_empty() && t.rebuilding.is_empty()) {
            self.transit = None;
        }
    }

    /// Whether this processor currently works for `node`.
    #[must_use]
    pub fn hosts(&self, ctx: &EngineContext, node: NodeRef) -> bool {
        self.hosted.contains(ctx.slot(node))
    }

    /// The hosted state of `node`, if this processor works for it.
    #[must_use]
    pub fn hosted(&self, ctx: &EngineContext, node: NodeRef) -> Option<&Hosted<O>> {
        self.hosted.get(ctx.slot(node))
    }

    /// Installs `node` here directly (initial seeding; protocol-driven
    /// installs go through [`Msg::HandoffFinal`]).
    pub fn install(&mut self, ctx: &EngineContext, node: NodeRef, hosted: Hosted<O>) {
        self.hosted.insert(ctx.slot(node), hosted);
    }

    /// Forgets all hosted, forwarding, buffered and rebuild state, as a
    /// fail-silent crash with no stable storage does.
    pub fn reset(&mut self) {
        *self = EngineState::new();
    }

    /// A deterministic structural fingerprint of processor `me`'s
    /// protocol state: hosting table, shim forwarding, buffered messages
    /// and in-flight rebuilds. Two engines with identical protocol state
    /// produce identical fingerprints regardless of storage backend,
    /// process, or platform (the hash is FNV-1a over a canonical sorted
    /// rendering, not `DefaultHasher`), so drivers as different as the
    /// model checker and the threaded backend can compare final states.
    /// The rendering is pinned to the original `BTreeMap` one — the
    /// arena slots are de-interned through [`Topology::node_at`] and
    /// rebuilt into the same sorted maps, which costs nothing extra
    /// because slot order *is* `NodeRef` order. The static configuration
    /// is excluded: fingerprints only make sense between engines driven
    /// under the same `EngineConfig`.
    #[must_use]
    pub fn fingerprint(&self, ctx: &EngineContext, me: ProcessorId) -> u64 {
        use std::collections::BTreeMap;
        let hosted: BTreeMap<NodeRef, &Hosted<O>> =
            self.hosted.iter().map(|(s, h)| (ctx.node_of(s), h)).collect();
        let forwarding: BTreeMap<NodeRef, &ProcessorId> =
            self.forwarding.iter().map(|(s, w)| (ctx.node_of(s), w)).collect();
        let transit = self.transit.as_deref();
        let pending: BTreeMap<NodeRef, &Vec<Msg<O>>> = transit
            .iter()
            .flat_map(|t| t.pending.iter())
            .map(|(s, msgs)| (ctx.node_of(s), msgs))
            .collect();
        let rebuilding: BTreeMap<NodeRef, BTreeMap<NodeRef, &ProcessorId>> = transit
            .iter()
            .flat_map(|t| t.rebuilding.iter())
            .map(|(s, shares)| {
                (ctx.node_of(s), shares.iter().map(|(s2, w)| (ctx.node_of(s2), w)).collect())
            })
            .collect();
        let canon = format!(
            "p{} hosted={hosted:?} fwd={forwarding:?} pending={pending:?} rebuild={rebuilding:?}",
            me.index()
        );
        fnv1a(canon.as_bytes())
    }

    /// The single entry point: processor `me` consumes one event and
    /// appends the effects to `fx`, so a driver that drains one buffer
    /// per delivery allocates nothing per event.
    pub fn on_event_into(
        &mut self,
        ctx: &EngineContext,
        me: ProcessorId,
        event: Event<O>,
        fx: &mut Effects<O>,
    ) {
        match event {
            Event::Deliver { msg } => self.on_msg(ctx, me, msg, fx),
            Event::Invoke { op_seq, req } => invoke(ctx, me, op_seq, 1, req, fx),
            Event::InvokeBatch { op_seq, count, req } => invoke(ctx, me, op_seq, count, req, fx),
            Event::Restore { node, object, reply_cache } => {
                if let Some(h) = self.hosted.get_mut(ctx.slot(node)) {
                    h.root = Some(Box::new(RootState { object, reply_cache: reply_cache.into() }));
                    // The object is back; traffic buffered during the
                    // rebuild can flow now.
                    self.replay_pending(ctx, me, node, fx);
                }
            }
        }
    }

    fn on_msg(&mut self, ctx: &EngineContext, me: ProcessorId, msg: Msg<O>, fx: &mut Effects<O>) {
        match msg {
            Msg::Apply { node, origin, op_seq, count, req } => {
                self.on_apply(ctx, node, origin, op_seq, count, req, fx);
            }
            Msg::Reply { op_seq, resp } => {
                fx.push(Effect::Audit(AuditEvent::Kind("reply")));
                fx.push(Effect::Reply { op_seq, resp });
            }
            Msg::HandoffPart { node, .. } => {
                // Unit parts only carry load; the final part installs.
                // A part also names this processor the node's successor,
                // so a shim entry left from an earlier stint (recycling
                // pools) is stale: it points back into the pool, and with
                // the final lost in transit the node's traffic would
                // circle between the two forever. From here on that
                // traffic waits in the pending buffer.
                self.forwarding.remove(ctx.slot(node));
                fx.push(Effect::Audit(AuditEvent::Kind("handoff")));
            }
            Msg::HandoffFinal { transfer } => self.on_handoff_final(ctx, me, *transfer, fx),
            Msg::NewWorker { node, retired, new_worker } => {
                self.on_new_worker(ctx, node, retired, new_worker, fx);
            }
            Msg::NewWorkerLeaf { .. } => {
                fx.push(Effect::Audit(AuditEvent::Kind("new-worker-leaf")));
            }
            Msg::RecoverPromote { node, neighbours } => {
                self.on_recover_promote(ctx, me, node, neighbours, fx);
            }
            Msg::RebuildQuery { node, neighbour, successor } => {
                fx.push(Effect::Audit(AuditEvent::Kind("rebuild-query")));
                // Query received plus share sent. Any processor that
                // serves (or served) the neighbour can answer — the
                // share's content is the neighbour's identity and a
                // worker it answers at, which every pool member knows.
                fx.push(Effect::Audit(AuditEvent::RecoveryMsgs { count: 2 }));
                fx.push(Effect::Send {
                    to: successor,
                    msg: Msg::RebuildShare { node, neighbour, worker: me },
                });
            }
            Msg::RebuildShare { node, neighbour, worker } => {
                self.on_rebuild_share(ctx, me, node, neighbour, worker, fx);
            }
        }
    }

    /// Shims or buffers a message for the node in `slot`, which this
    /// processor no longer (or does not yet) works for.
    fn shim_or_buffer(&mut self, slot: u32, msg: Msg<O>, fx: &mut Effects<O>) {
        if let Some(successor) = self.forwarding.get(slot) {
            // Shim: forward to the successor we handed the node to
            // (counts as one extra message, the paper's handshake
            // argument).
            fx.push(Effect::Audit(AuditEvent::ShimForward));
            fx.push(Effect::Send { to: successor, msg });
        } else {
            // The handoff has not reached us yet; deliver when it does.
            self.transit_mut().pending.get_or_default(slot).push(msg);
        }
    }

    /// Handles an apply of `count` operations. It is **one message** of
    /// the protocol: the node ages by the same 2 (receive + forward)
    /// whatever the count, which is exactly where the amortized
    /// O(k / count) per-inc load comes from — and why the Hot Spot
    /// Lemma's accounting, which counts messages, is preserved per
    /// *traversal*.
    #[allow(clippy::too_many_arguments)] // the fleet's context plus the message's five fields
    fn on_apply(
        &mut self,
        ctx: &EngineContext,
        node: NodeRef,
        origin: ProcessorId,
        op_seq: u64,
        count: u64,
        req: O::Request,
        fx: &mut Effects<O>,
    ) {
        let slot = ctx.slot(node);
        let Some(h) = self.hosted.get_mut(slot) else {
            self.shim_or_buffer(slot, Msg::Apply { node, origin, op_seq, count, req }, fx);
            return;
        };
        fx.push(Effect::Audit(AuditEvent::Handled { node, kind: "apply", aged: 2 }));
        h.age += 2;
        if node == NodeRef::ROOT {
            // Deduplicate by operation: a retried (or network-duplicated)
            // Apply for an operation already executed re-sends the
            // cached response instead of applying twice. A batch retry
            // repeats the same op_seq *and* count, so the cached first
            // response denotes the identical range — batches are
            // exactly-once through the same cache.
            let Some(root) = h.root.as_deref_mut() else {
                // State was lost (crash without recovery): the operation
                // dies here instead of aborting the run.
                fx.push(Effect::Audit(AuditEvent::Lost));
                return;
            };
            let cached = ctx
                .config
                .dedupe
                .then(|| root.reply_cache.iter().find(|(seq, _)| *seq == op_seq))
                .flatten()
                .map(|(_, resp)| resp.clone());
            let resp = if let Some(resp) = cached {
                resp
            } else {
                let resp = root.object.apply_batch(req, count);
                push_capped(&mut root.reply_cache, (op_seq, resp.clone()));
                if ctx.config.persist {
                    fx.push(Effect::Persist {
                        node,
                        object: root.object.clone(),
                        op_seq,
                        resp: resp.clone(),
                    });
                }
                resp
            };
            fx.push(Effect::Send { to: origin, msg: Msg::Reply { op_seq, resp } });
        } else {
            let parent = ctx.topo.parent(node).expect("non-root has a parent");
            let Some(parent_worker) = h.parent_worker else {
                // An inner node that has lost its routing view drops the
                // request rather than aborting.
                fx.push(Effect::Audit(AuditEvent::Lost));
                return;
            };
            fx.push(Effect::Send {
                to: parent_worker,
                msg: Msg::Apply { node: parent, origin, op_seq, count, req },
            });
        }
        self.maybe_retire(ctx, node, slot, fx);
    }

    fn on_new_worker(
        &mut self,
        ctx: &EngineContext,
        node: NodeRef,
        retired: NodeRef,
        new_worker: ProcessorId,
        fx: &mut Effects<O>,
    ) {
        let slot = ctx.slot(node);
        let Some(h) = self.hosted.get_mut(slot) else {
            self.shim_or_buffer(slot, Msg::NewWorker { node, retired, new_worker }, fx);
            return;
        };
        fx.push(Effect::Audit(AuditEvent::Handled { node, kind: "new-worker", aged: 1 }));
        h.age += 1;
        if ctx.topo.parent(node) == Some(retired) {
            h.parent_worker = Some(new_worker);
        } else if let Some(mut children) = ctx.topo.inner_children(node) {
            if let Some(idx) = children.position(|c| c == retired) {
                h.child_workers[idx] = new_worker;
            }
        }
        self.maybe_retire(ctx, node, slot, fx);
    }

    fn on_handoff_final(
        &mut self,
        ctx: &EngineContext,
        me: ProcessorId,
        transfer: NodeTransfer<O>,
        fx: &mut Effects<O>,
    ) {
        fx.push(Effect::Audit(AuditEvent::Kind("handoff-final")));
        let node = transfer.node;
        let slot = ctx.slot(node);
        self.hosted.insert(
            slot,
            Hosted {
                age: 0,
                pool_cursor: transfer.pool_cursor,
                parent_worker: transfer.parent_worker,
                child_workers: transfer.child_workers,
                root: transfer.root,
            },
        );
        // We are the current worker now; drop any stale forwarding entry
        // (possible if this processor served the node in a previous
        // recycling epoch).
        self.forwarding.remove(slot);
        fx.push(Effect::Installed { node, worker: me, pool_cursor: transfer.pool_cursor });
        // The stint that just ended absorbed the k+1 handoff messages;
        // they seed the new stint's count.
        let setup = u64::from(ctx.topo.order()) + 1;
        fx.push(Effect::Audit(AuditEvent::StintComplete { node, setup_msgs: setup }));
        self.replay_pending(ctx, me, node, fx);
    }

    fn on_recover_promote(
        &mut self,
        ctx: &EngineContext,
        me: ProcessorId,
        node: NodeRef,
        neighbours: Vec<(NodeRef, ProcessorId)>,
        fx: &mut Effects<O>,
    ) {
        fx.push(Effect::Audit(AuditEvent::Kind("recover-promote")));
        let slot = ctx.slot(node);
        if self.hosted.contains(slot) {
            // Stale promotion: this processor already took over.
            return;
        }
        // (Re-)start the collection: a repeated promotion is the retry
        // path when rebuild traffic is itself lost.
        self.transit_mut().rebuilding.insert(slot, NodeSlots::new());
        fx.push(Effect::RecoveryStarted { node, successor: me });
        let queries = neighbours.len() as u64;
        for (neighbour, worker) in neighbours {
            fx.push(Effect::Send {
                to: worker,
                msg: Msg::RebuildQuery { node, neighbour, successor: me },
            });
        }
        // The promote delivery plus the queries it sent.
        fx.push(Effect::Audit(AuditEvent::RecoveryMsgs { count: 1 + queries }));
    }

    fn on_rebuild_share(
        &mut self,
        ctx: &EngineContext,
        me: ProcessorId,
        node: NodeRef,
        neighbour: NodeRef,
        worker: ProcessorId,
        fx: &mut Effects<O>,
    ) {
        fx.push(Effect::Audit(AuditEvent::Kind("rebuild-share")));
        fx.push(Effect::Audit(AuditEvent::RecoveryMsgs { count: 1 }));
        let topo = &*ctx.topo;
        let slot = ctx.slot(node);
        let neighbour_slot = ctx.slot(neighbour);
        // Every *distinct* neighbour must answer (a duplicated share
        // must not complete the rebuild with a neighbour missing).
        let needed = expected_shares(topo, node);
        let Some(transit) = self.transit.as_deref_mut() else { return };
        let Some(collected) = transit.rebuilding.get_mut(slot) else {
            // Late or duplicated share, no rebuild in flight: ignore.
            return;
        };
        collected.insert(neighbour_slot, worker);
        if (collected.len() as u32) < needed {
            return;
        }
        let collected = transit.rebuilding.remove(slot).expect("present above");
        self.settle_transit();
        // Align the pool cursor with the promoted worker so a later
        // ordinary retirement continues from the right place.
        let pool = topo.pool(node);
        let me_index = me.index() as u64;
        debug_assert!(pool.contains(&me_index), "successor must come from the node's pool");
        let pool_cursor = me_index - pool.start;
        let parent = topo.parent(node);
        let parent_worker =
            parent.map(|p| *collected.get(ctx.slot(p)).expect("parent share collected"));
        let child_workers: Box<[ProcessorId]> = topo
            .inner_children(node)
            .map(|children| {
                children
                    .map(|c| *collected.get(ctx.slot(c)).expect("child share collected"))
                    .collect()
            })
            .unwrap_or_default();
        self.hosted.insert(
            slot,
            Hosted {
                age: 0,
                pool_cursor,
                parent_worker,
                child_workers: child_workers.clone(),
                // The object (root only) comes back from stable storage:
                // the driver answers `Recovered` with `Event::Restore`.
                root: None,
            },
        );
        self.forwarding.remove(slot);
        fx.push(Effect::Recovered { node, worker: me, pool_cursor });
        fx.push(Effect::Audit(AuditEvent::Recovery { node }));
        fx.push(Effect::Audit(AuditEvent::StintComplete { node, setup_msgs: u64::from(needed) }));
        // Parent and children learn the new worker id through the normal
        // notification messages (ordinary, aging traffic).
        let mut notifications = 0u64;
        if let (Some(parent), Some(w)) = (parent, parent_worker) {
            fx.push(Effect::Send {
                to: w,
                msg: Msg::NewWorker { node: parent, retired: node, new_worker: me },
            });
            notifications += 1;
        }
        match topo.inner_children(node) {
            Some(children) => {
                for (idx, child) in children.enumerate() {
                    fx.push(Effect::Send {
                        to: child_workers[idx],
                        msg: Msg::NewWorker { node: child, retired: node, new_worker: me },
                    });
                    notifications += 1;
                }
            }
            None => {
                for leaf in topo.leaf_children(node) {
                    fx.push(Effect::Send {
                        to: leaf,
                        msg: Msg::NewWorkerLeaf { retired: node, new_worker: me },
                    });
                    notifications += 1;
                }
            }
        }
        fx.push(Effect::Audit(AuditEvent::Traffic { node, msgs: notifications }));
        // A rebuilt root has no object until `Event::Restore`; replaying
        // applies before that would lose them, so its pending buffer
        // waits for the restore.
        if node != NodeRef::ROOT {
            self.replay_pending(ctx, me, node, fx);
        }
    }

    /// Retires this processor from `node` (whose arena key is `slot`) if
    /// its age reached the threshold.
    fn maybe_retire(&mut self, ctx: &EngineContext, node: NodeRef, slot: u32, fx: &mut Effects<O>) {
        let EngineConfig { threshold: Some(threshold), pool_policy, .. } = ctx.config else {
            return;
        };
        let Some(h) = self.hosted.get(slot) else { return };
        if h.age < threshold {
            return;
        }
        let topo = &*ctx.topo;
        let pool = topo.pool(node);
        let size = pool.end - pool.start;
        let recycle = pool_policy == PoolPolicy::Recycling;
        let Some(next_index) = kmath::next_pool_index(h.pool_cursor, size, recycle) else {
            // No successor available (a drained one-shot pool, or a
            // singleton): the node soldiers on with a reset age. Under
            // the paper's dimensioning this is unreachable for the
            // canonical workload (the audit asserts so).
            fx.push(Effect::Audit(AuditEvent::PoolExhausted { node }));
            self.hosted.get_mut(slot).expect("hosted checked above").age = 0;
            return;
        };
        let successor = ProcessorId::new((pool.start + next_index) as usize);
        fx.push(Effect::Audit(AuditEvent::Retirement { node }));
        let h = self.hosted.remove(slot).expect("hosted checked above");
        self.forwarding.insert(slot, successor);
        fx.push(Effect::Retired { node, successor });

        // k+1 handoff messages: k unit parts plus the state-bearing
        // final (the paper's "k+3 messages" per retirement are these
        // plus the notifications below).
        let total = topo.order() + 1;
        for part in 0..total - 1 {
            fx.push(Effect::Send { to: successor, msg: Msg::HandoffPart { node, part, total } });
        }
        fx.push(Effect::Send {
            to: successor,
            msg: Msg::HandoffFinal {
                transfer: Box::new(NodeTransfer {
                    node,
                    pool_cursor: next_index,
                    parent_worker: h.parent_worker,
                    child_workers: h.child_workers.clone(),
                    root: h.root,
                }),
            },
        });
        // Notify the parent and every child of the new worker. The root
        // "saves the message that would inform the parent".
        let mut notifications = 0u64;
        if let (Some(parent), Some(w)) = (topo.parent(node), h.parent_worker) {
            fx.push(Effect::Send {
                to: w,
                msg: Msg::NewWorker { node: parent, retired: node, new_worker: successor },
            });
            notifications += 1;
        }
        match topo.inner_children(node) {
            Some(children) => {
                for (idx, child) in children.enumerate() {
                    fx.push(Effect::Send {
                        to: h.child_workers[idx],
                        msg: Msg::NewWorker { node: child, retired: node, new_worker: successor },
                    });
                    notifications += 1;
                }
            }
            None => {
                // Only reachable in ablation configurations: level-k
                // pools are singletons under the paper's scheme, so
                // level-k nodes never retire.
                for leaf in topo.leaf_children(node) {
                    fx.push(Effect::Send {
                        to: leaf,
                        msg: Msg::NewWorkerLeaf { retired: node, new_worker: successor },
                    });
                    notifications += 1;
                }
            }
        }
        fx.push(Effect::Audit(AuditEvent::Traffic {
            node,
            msgs: u64::from(total) + notifications,
        }));
    }

    fn replay_pending(
        &mut self,
        ctx: &EngineContext,
        me: ProcessorId,
        node: NodeRef,
        fx: &mut Effects<O>,
    ) {
        let slot = ctx.slot(node);
        let Some(buffered) = self.transit.as_deref_mut().and_then(|t| t.pending.remove(slot))
        else {
            return;
        };
        self.settle_transit();
        for msg in buffered {
            self.on_msg(ctx, me, msg, fx);
        }
    }
}

/// Enters `count` operations (at least one) from processor `me` into the
/// tree as one traversal. It reads no state: level-k nodes have
/// singleton pools and never move, so the leaf's entry point into the
/// tree is static.
fn invoke<O: RootObject>(
    ctx: &EngineContext,
    me: ProcessorId,
    op_seq: u64,
    count: u64,
    req: O::Request,
    fx: &mut Effects<O>,
) {
    let leaf_parent = ctx.topo.leaf_parent(me.index() as u64);
    let worker = ctx.topo.initial_worker(leaf_parent);
    fx.push(Effect::Send {
        to: worker,
        msg: Msg::Apply { node: leaf_parent, origin: me, op_seq, count: count.max(1), req },
    });
}

/// One processor's engine as its fleet holds it: the fleet's context,
/// the processor's id and its state, read-only.
pub struct EngineView<'a, O: RootObject> {
    ctx: &'a EngineContext,
    me: ProcessorId,
    state: &'a EngineState<O>,
}

impl<O: RootObject> Clone for EngineView<'_, O> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<O: RootObject> Copy for EngineView<'_, O> {}

impl<'a, O: RootObject> EngineView<'a, O> {
    /// The view of processor `me`'s `state` in the fleet of `ctx`.
    #[must_use]
    pub(crate) fn new(ctx: &'a EngineContext, me: ProcessorId, state: &'a EngineState<O>) -> Self {
        EngineView { ctx, me, state }
    }

    /// The fleet's static configuration.
    #[must_use]
    pub fn config(self) -> EngineConfig {
        self.ctx.config
    }

    /// Whether this processor currently works for `node`.
    #[must_use]
    pub fn hosts(self, node: NodeRef) -> bool {
        self.state.hosts(self.ctx, node)
    }

    /// The hosted state of `node`, if this processor works for it.
    #[must_use]
    pub fn hosted(self, node: NodeRef) -> Option<&'a Hosted<O>> {
        self.state.hosted(self.ctx, node)
    }

    /// See [`EngineState::fingerprint`].
    #[must_use]
    pub fn fingerprint(self) -> u64 {
        self.state.fingerprint(self.ctx, self.me)
    }
}

/// [`EngineView`] with the state writable, for a driver that crashes a
/// processor or seeds a bug into it.
pub struct EngineViewMut<'a, O: RootObject> {
    ctx: &'a EngineContext,
    state: &'a mut EngineState<O>,
}

impl<'a, O: RootObject> EngineViewMut<'a, O> {
    /// The writable view of `state` in the fleet of `ctx`.
    #[must_use]
    pub(crate) fn new(ctx: &'a EngineContext, state: &'a mut EngineState<O>) -> Self {
        EngineViewMut { ctx, state }
    }

    /// See [`EngineState::install`].
    pub fn install(&mut self, node: NodeRef, hosted: Hosted<O>) {
        self.state.install(self.ctx, node, hosted);
    }

    /// See [`EngineState::reset`].
    pub fn reset(&mut self) {
        self.state.reset();
    }
}

/// One processor's engine on its own: its own copy of the context, its
/// id and its state. For drivers that hold one engine per slot or
/// thread; a fleet in one place holds one [`EngineContext`] and an
/// [`EngineState`] per processor instead (see
/// [`TreeProtocol`](crate::protocol::TreeProtocol)).
#[derive(Debug, Clone)]
pub struct NodeEngine<O: RootObject> {
    ctx: EngineContext,
    me: ProcessorId,
    state: EngineState<O>,
}

impl<O: RootObject> NodeEngine<O> {
    /// An engine for processor `me`, hosting nothing yet (see
    /// [`seed_initial_hosting`]).
    #[must_use]
    pub fn new(me: ProcessorId, topo: Arc<Topology>, config: EngineConfig) -> Self {
        NodeEngine { ctx: EngineContext::new(topo, config), me, state: EngineState::new() }
    }

    /// This engine read through the fleet-view API.
    fn view(&self) -> EngineView<'_, O> {
        EngineView::new(&self.ctx, self.me, &self.state)
    }

    /// The processor this engine models.
    #[must_use]
    pub fn me(&self) -> ProcessorId {
        self.me
    }

    /// The engine's static configuration.
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        self.ctx.config
    }

    /// See [`EngineContext::set_dedupe`].
    pub fn set_dedupe(&mut self, enabled: bool) {
        self.ctx.set_dedupe(enabled);
    }

    /// See [`EngineState::hosts`].
    #[must_use]
    pub fn hosts(&self, node: NodeRef) -> bool {
        self.view().hosts(node)
    }

    /// See [`EngineState::hosted`].
    #[must_use]
    pub fn hosted(&self, node: NodeRef) -> Option<&Hosted<O>> {
        self.view().hosted(node)
    }

    /// See [`EngineState::install`].
    pub fn install(&mut self, node: NodeRef, hosted: Hosted<O>) {
        self.state.install(&self.ctx, node, hosted);
    }

    /// See [`EngineState::reset`].
    pub fn reset(&mut self) {
        self.state.reset();
    }

    /// See [`EngineState::fingerprint`].
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.view().fingerprint()
    }

    /// [`NodeEngine::on_event_into`] into a fresh buffer. The engine
    /// keeps no clock, so `_now` is ignored; it stays only because the
    /// benchmark harness still passes it.
    pub fn on_event(&mut self, event: Event<O>, _now: VirtualTime) -> Effects<O> {
        let mut fx = Vec::new();
        self.on_event_into(event, &mut fx);
        fx
    }

    /// See [`EngineState::on_event_into`].
    pub fn on_event_into(&mut self, event: Event<O>, fx: &mut Effects<O>) {
        self.state.on_event_into(&self.ctx, self.me, event, fx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::CounterObject;

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    fn fleet(k: u32, config: EngineConfig) -> (Arc<Topology>, Vec<NodeEngine<CounterObject>>) {
        let topo = Arc::new(Topology::new(k).expect("topology"));
        let mut engines: Vec<NodeEngine<CounterObject>> = (0..topo.processors() as usize)
            .map(|i| NodeEngine::new(p(i), Arc::clone(&topo), config))
            .collect();
        seed_initial_hosting(&topo, &mut engines, &CounterObject::new());
        (topo, engines)
    }

    fn sends<O: RootObject>(fx: &[Effect<O>]) -> Vec<(ProcessorId, &Msg<O>)> {
        fx.iter()
            .filter_map(|e| match e {
                Effect::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    fn step(
        engine: &mut NodeEngine<CounterObject>,
        event: Event<CounterObject>,
    ) -> Effects<CounterObject> {
        let mut fx = Vec::new();
        engine.on_event_into(event, &mut fx);
        fx
    }

    /// Runs the fleet like a zero-delay network until no sends remain,
    /// collecting every non-send effect. The engines are a complete
    /// executable protocol on their own — this is the smallest possible
    /// driver.
    fn run_fleet(
        engines: &mut [NodeEngine<CounterObject>],
        mut inbox: Vec<(ProcessorId, Msg<CounterObject>)>,
    ) -> Vec<Effect<CounterObject>> {
        let mut observed = Vec::new();
        while let Some((to, msg)) = inbox.pop() {
            let fx = step(&mut engines[to.index()], Event::Deliver { msg });
            for e in fx {
                match e {
                    Effect::Send { to, msg } => inbox.push((to, msg)),
                    other => observed.push(other),
                }
            }
        }
        observed
    }

    #[test]
    fn seeding_installs_each_node_at_its_pool_start() {
        let (topo, engines) = fleet(2, EngineConfig::paper(2));
        for node in topo.nodes() {
            let w = topo.initial_worker(node);
            assert!(engines[w.index()].hosts(node), "{node} at its initial worker");
        }
        let root = engines[0].hosted(NodeRef::ROOT).expect("root hosted at 0");
        assert!(root.root.is_some(), "object lives at the root");
        assert_eq!(root.child_workers.len(), 2);
    }

    #[test]
    fn invoke_enters_the_tree_at_the_leaf_parent() {
        let (topo, mut engines) = fleet(2, EngineConfig::paper(2));
        let fx = step(&mut engines[5], Event::Invoke { op_seq: 9, req: () });
        let s = sends(&fx);
        assert_eq!(s.len(), 1);
        let leaf_parent = topo.leaf_parent(5);
        assert_eq!(s[0].0, topo.initial_worker(leaf_parent));
        assert!(matches!(s[0].1, Msg::Apply { node, op_seq: 9, .. } if *node == leaf_parent));
    }

    #[test]
    fn a_unit_op_is_a_batch_of_one() {
        let invokes = [
            Event::Invoke { op_seq: 2, req: () },
            Event::InvokeBatch { op_seq: 2, count: 1, req: () },
            Event::InvokeBatch { op_seq: 2, count: 0, req: () },
        ];
        let runs: Vec<String> = invokes
            .into_iter()
            .map(|invoke| {
                let (_, mut engines) = fleet(2, EngineConfig::paper(2));
                let fx = step(&mut engines[5], invoke);
                let inbox = sends(&fx).into_iter().map(|(to, m)| (to, m.clone())).collect();
                format!("{fx:?} then {:?}", run_fleet(&mut engines, inbox))
            })
            .collect();
        assert_eq!(runs[0], runs[1], "a unit op and a batch of one");
        assert_eq!(runs[0], runs[2], "a unit op and a batch of zero");
    }

    #[test]
    fn an_operation_climbs_to_the_root_and_replies_to_the_initiator() {
        let (_, mut engines) = fleet(2, EngineConfig::paper(2));
        let fx = step(&mut engines[3], Event::Invoke { op_seq: 0, req: () });
        let inbox = sends(&fx).into_iter().map(|(to, m)| (to, m.clone())).collect();
        let observed = run_fleet(&mut engines, inbox);
        let replies: Vec<_> = observed
            .iter()
            .filter_map(|e| match e {
                Effect::Reply { op_seq, resp } => Some((*op_seq, *resp)),
                _ => None,
            })
            .collect();
        assert_eq!(replies, vec![(0, 0)], "first count, delivered to the invoker");
    }

    #[test]
    fn the_root_applies_each_op_seq_exactly_once_when_deduping() {
        let config = EngineConfig { dedupe: true, ..EngineConfig::paper(2) };
        let (_, mut engines) = fleet(2, config);
        let apply = Msg::Apply { node: NodeRef::ROOT, origin: p(7), op_seq: 4, count: 1, req: () };
        for _ in 0..2 {
            let fx = step(&mut engines[0], Event::Deliver { msg: apply.clone() });
            let s = sends(&fx);
            assert!(
                matches!(s[0].1, Msg::Reply { op_seq: 4, resp: 0 }),
                "duplicate answered from the cache, not re-applied"
            );
        }
        let next = Msg::Apply { node: NodeRef::ROOT, origin: p(7), op_seq: 5, count: 1, req: () };
        let fx = step(&mut engines[0], Event::Deliver { msg: next });
        assert!(matches!(sends(&fx)[0].1, Msg::Reply { resp: 1, .. }), "count advanced once");
    }

    #[test]
    fn a_batch_traverses_once_and_replies_with_the_range_start() {
        let (_, mut engines) = fleet(2, EngineConfig::paper(2));
        // Warm the counter to 3 with unit ops, then send a batch of 5.
        for seq in 0..3 {
            let fx = step(&mut engines[3], Event::Invoke { op_seq: seq, req: () });
            let inbox = sends(&fx).into_iter().map(|(to, m)| (to, m.clone())).collect();
            run_fleet(&mut engines, inbox);
        }
        let fx = step(&mut engines[3], Event::InvokeBatch { op_seq: 3, count: 5, req: () });
        let s = sends(&fx);
        assert!(
            matches!(s[0].1, Msg::Apply { count: 5, op_seq: 3, .. }),
            "the batch enters the tree as one message"
        );
        let inbox = s.into_iter().map(|(to, m)| (to, m.clone())).collect();
        let observed = run_fleet(&mut engines, inbox);
        let replies: Vec<_> = observed
            .iter()
            .filter_map(|e| match e {
                Effect::Reply { op_seq, resp } => Some((*op_seq, *resp)),
                _ => None,
            })
            .collect();
        assert_eq!(replies, vec![(3, 3)], "the batch owns [3, 8)");
        // The next unit op sees the whole range consumed.
        let fx = step(&mut engines[4], Event::Invoke { op_seq: 4, req: () });
        let inbox = sends(&fx).into_iter().map(|(to, m)| (to, m.clone())).collect();
        let observed = run_fleet(&mut engines, inbox);
        assert!(
            observed.iter().any(|e| matches!(e, Effect::Reply { op_seq: 4, resp: 8 })),
            "unit op after the batch starts at 8"
        );
    }

    #[test]
    fn a_batch_of_m_ages_each_node_by_two_not_two_m() {
        let (topo, mut engines) = fleet(2, EngineConfig::paper(2));
        let node = NodeRef { level: 1, index: 0 };
        let me = topo.initial_worker(node);
        // Threshold is 4k = 8; a batch of 100 is still ONE message and
        // must age the node by exactly 2 — no retirement.
        let msg = Msg::Apply { node, origin: p(0), op_seq: 0, count: 100, req: () };
        let fx = step(&mut engines[me.index()], Event::Deliver { msg });
        assert!(
            !fx.iter().any(|e| matches!(e, Effect::Retired { .. })),
            "a batch counts once toward the threshold, not once per inc"
        );
        assert_eq!(engines[me.index()].hosted(node).expect("hosted").age, 2);
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Audit(AuditEvent::Handled { kind: "apply", aged: 2, .. })
        )));
        // Exactly as many batches as unit applies reach the threshold:
        // three more deliveries retire the node (4 * 2 = 8 = 4k).
        let mut last = Vec::new();
        for seq in 1..4 {
            let msg = Msg::Apply { node, origin: p(0), op_seq: seq, count: 100, req: () };
            last = step(&mut engines[me.index()], Event::Deliver { msg });
        }
        assert!(
            last.iter().any(|e| matches!(e, Effect::Retired { node: n, .. } if *n == node)),
            "the fourth traversal (batched or not) retires the node"
        );
        let forwarded =
            sends(&last).iter().filter(|(_, m)| matches!(m, Msg::Apply { count: 100, .. })).count();
        assert_eq!(forwarded, 1, "the batch climbs on as a batch");
    }

    #[test]
    fn a_batch_retry_is_answered_from_the_reply_cache_with_the_same_range() {
        let config = EngineConfig { dedupe: true, ..EngineConfig::paper(2) };
        let (_, mut engines) = fleet(2, config);
        let batch = Msg::Apply { node: NodeRef::ROOT, origin: p(7), op_seq: 4, count: 6, req: () };
        for attempt in 0..2 {
            let fx = step(&mut engines[0], Event::Deliver { msg: batch.clone() });
            let s = sends(&fx);
            assert!(
                matches!(s[0].1, Msg::Reply { op_seq: 4, resp: 0 }),
                "attempt {attempt}: the retried batch owns the same range [0, 6)"
            );
        }
        let next = Msg::Apply { node: NodeRef::ROOT, origin: p(7), op_seq: 5, count: 1, req: () };
        let fx = step(&mut engines[0], Event::Deliver { msg: next });
        assert!(
            matches!(sends(&fx)[0].1, Msg::Reply { resp: 6, .. }),
            "the counter advanced by the batch size exactly once"
        );
    }

    #[test]
    fn a_batch_buffered_at_an_uninstalled_successor_keeps_its_count() {
        let (topo, mut engines) = fleet(2, EngineConfig::paper(2));
        let node = NodeRef { level: 1, index: 0 };
        let successor = ProcessorId::new(topo.pool(node).start as usize + 1);
        let early = Msg::Apply { node, origin: p(0), op_seq: 0, count: 9, req: () };
        let fx = step(&mut engines[successor.index()], Event::Deliver { msg: early });
        assert!(sends(&fx).is_empty(), "buffered until the handoff installs");
        let transfer = NodeTransfer {
            node,
            pool_cursor: 1,
            parent_worker: Some(p(0)),
            child_workers: Box::new([p(0), p(2)]),
            root: None,
        };
        let fx = step(
            &mut engines[successor.index()],
            Event::Deliver { msg: Msg::HandoffFinal { transfer: Box::new(transfer) } },
        );
        assert!(
            sends(&fx)
                .iter()
                .any(|(to, m)| *to == p(0) && matches!(m, Msg::Apply { count: 9, .. })),
            "the replayed batch still carries count 9"
        );
    }

    #[test]
    fn reaching_the_threshold_retires_with_k_plus_one_handoffs_and_notifications() {
        let (topo, mut engines) = fleet(2, EngineConfig::paper(2));
        let node = NodeRef { level: 1, index: 0 };
        let me = topo.initial_worker(node);
        // Age the node to the threshold (8 = 4k): four applies.
        let mut fx = Vec::new();
        for seq in 0..4 {
            let msg = Msg::Apply { node, origin: p(0), op_seq: seq, count: 1, req: () };
            fx = step(&mut engines[me.index()], Event::Deliver { msg });
        }
        assert!(
            fx.iter().any(|e| matches!(e, Effect::Retired { node: n, .. } if *n == node)),
            "threshold reached → retired"
        );
        let successor = topo.pool(node).start + 1;
        let to_successor: Vec<_> =
            sends(&fx).into_iter().filter(|(to, _)| to.index() as u64 == successor).collect();
        let parts =
            to_successor.iter().filter(|(_, m)| matches!(m, Msg::HandoffPart { .. })).count();
        let finals =
            to_successor.iter().filter(|(_, m)| matches!(m, Msg::HandoffFinal { .. })).count();
        assert_eq!((parts, finals), (2, 1), "k unit parts + the state-bearing final");
        let notifications =
            sends(&fx).iter().filter(|(_, m)| matches!(m, Msg::NewWorker { .. })).count();
        assert_eq!(notifications, 3, "parent + 2 children");
        assert!(!engines[me.index()].hosts(node), "the job left this processor");
    }

    #[test]
    fn early_traffic_buffers_until_the_final_installs_then_replays() {
        let (topo, mut engines) = fleet(2, EngineConfig::paper(2));
        let node = NodeRef { level: 1, index: 0 };
        let successor = ProcessorId::new(topo.pool(node).start as usize + 1);
        // An apply reaches the successor before any handoff: buffered.
        let early = Msg::Apply { node, origin: p(0), op_seq: 0, count: 1, req: () };
        let fx = step(&mut engines[successor.index()], Event::Deliver { msg: early });
        assert!(sends(&fx).is_empty(), "nothing forwarded yet");
        // The final arrives: install + replay of the buffered apply.
        let transfer = NodeTransfer {
            node,
            pool_cursor: 1,
            parent_worker: Some(p(0)),
            child_workers: Box::new([p(0), p(2)]),
            root: None,
        };
        let fx = step(
            &mut engines[successor.index()],
            Event::Deliver { msg: Msg::HandoffFinal { transfer: Box::new(transfer) } },
        );
        assert!(fx.iter().any(|e| matches!(e, Effect::Installed { .. })));
        assert!(
            sends(&fx).iter().any(|(to, m)| *to == p(0) && matches!(m, Msg::Apply { .. })),
            "the buffered apply climbed on after the install"
        );
        assert_eq!(engines[successor.index()].hosted(node).expect("installed").age, 2);
    }

    #[test]
    fn a_retired_worker_shims_traffic_to_its_successor() {
        let (topo, mut engines) = fleet(2, EngineConfig::paper(2));
        let node = NodeRef { level: 1, index: 0 };
        let me = topo.initial_worker(node);
        for seq in 0..4 {
            let msg = Msg::Apply { node, origin: p(0), op_seq: seq, count: 1, req: () };
            step(&mut engines[me.index()], Event::Deliver { msg });
        }
        assert!(!engines[me.index()].hosts(node), "retired above");
        let stale = Msg::Apply { node, origin: p(0), op_seq: 9, count: 1, req: () };
        let fx = step(&mut engines[me.index()], Event::Deliver { msg: stale });
        assert!(fx.iter().any(|e| matches!(e, Effect::Audit(AuditEvent::ShimForward))));
        let s = sends(&fx);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0.index() as u64, topo.pool(node).start + 1, "forwarded to successor");
        // A recycling pool hands the node back: from its first part on,
        // the shim entry is stale, and traffic waits for the final.
        let part = Msg::HandoffPart { node, part: 0, total: 3 };
        step(&mut engines[me.index()], Event::Deliver { msg: part });
        let early = Msg::Apply { node, origin: p(0), op_seq: 10, count: 1, req: () };
        let fx = step(&mut engines[me.index()], Event::Deliver { msg: early });
        assert!(sends(&fx).is_empty(), "buffered, not sent back around the pool");
    }

    #[test]
    fn recovery_rebuilds_from_distinct_neighbours_only() {
        let (topo, mut engines) = fleet(2, EngineConfig::paper(2));
        let node = NodeRef { level: 1, index: 0 };
        let successor = ProcessorId::new(topo.pool(node).start as usize + 1);
        let parent = topo.parent(node).expect("level 1 has a parent");
        let children: Vec<NodeRef> =
            topo.inner_children(node).expect("level 1 has inner children").collect();
        let neighbours: Vec<(NodeRef, ProcessorId)> =
            std::iter::once((parent, topo.initial_worker(parent)))
                .chain(children.iter().map(|&c| (c, topo.initial_worker(c))))
                .collect();
        let promote = Msg::RecoverPromote { node, neighbours: neighbours.clone() };
        let fx = step(&mut engines[successor.index()], Event::Deliver { msg: promote });
        assert!(fx.iter().any(|e| matches!(e, Effect::RecoveryStarted { .. })));
        let queries =
            sends(&fx).iter().filter(|(_, m)| matches!(m, Msg::RebuildQuery { .. })).count();
        assert_eq!(queries, neighbours.len(), "one query per neighbour");
        // A duplicated parent share must not complete the rebuild early.
        let parent_share =
            Msg::RebuildShare { node, neighbour: parent, worker: topo.initial_worker(parent) };
        for _ in 0..3 {
            let fx =
                step(&mut engines[successor.index()], Event::Deliver { msg: parent_share.clone() });
            assert!(
                !fx.iter().any(|e| matches!(e, Effect::Recovered { .. })),
                "duplicates of one neighbour never complete the rebuild"
            );
        }
        // The remaining distinct neighbours complete it.
        let mut last = Vec::new();
        for &c in &children {
            let share = Msg::RebuildShare { node, neighbour: c, worker: topo.initial_worker(c) };
            last = step(&mut engines[successor.index()], Event::Deliver { msg: share });
        }
        assert!(
            last.iter().any(|e| matches!(
                e,
                Effect::Recovered { node: n, worker, .. } if *n == node && *worker == successor
            )),
            "all distinct neighbours answered → recovered"
        );
        let rebuilt = engines[successor.index()].hosted(node).expect("installed");
        assert_eq!(rebuilt.pool_cursor, 1, "cursor aligned with the promoted worker");
        assert_eq!(rebuilt.parent_worker, Some(topo.initial_worker(parent)));
        let notifications =
            sends(&last).iter().filter(|(_, m)| matches!(m, Msg::NewWorker { .. })).count();
        assert_eq!(notifications, neighbours.len(), "neighbours learn the new worker");
    }

    #[test]
    fn a_recovered_root_waits_for_restore_before_serving_buffered_applies() {
        let (topo, mut engines) = fleet(2, EngineConfig::paper(2));
        let successor = p(1);
        let children: Vec<NodeRef> =
            topo.inner_children(NodeRef::ROOT).expect("root children").collect();
        let neighbours: Vec<(NodeRef, ProcessorId)> =
            children.iter().map(|&c| (c, topo.initial_worker(c))).collect();
        step(
            &mut engines[successor.index()],
            Event::Deliver { msg: Msg::RecoverPromote { node: NodeRef::ROOT, neighbours } },
        );
        // An apply lands mid-rebuild: buffered.
        let apply = Msg::Apply { node: NodeRef::ROOT, origin: p(6), op_seq: 3, count: 1, req: () };
        let fx = step(&mut engines[successor.index()], Event::Deliver { msg: apply });
        assert!(sends(&fx).is_empty(), "buffered while rebuilding");
        for &c in &children {
            let share = Msg::RebuildShare { node: NodeRef::ROOT, neighbour: c, worker: p(0) };
            let fx = step(&mut engines[successor.index()], Event::Deliver { msg: share });
            // Even once recovered, the buffered apply must wait for the
            // object to come back from stable storage.
            assert!(!sends(&fx).iter().any(|(_, m)| matches!(m, Msg::Reply { .. })));
        }
        let mut restored = CounterObject::new();
        let replies =
            vec![(0, restored.apply(())), (1, restored.apply(())), (2, restored.apply(()))];
        let fx = step(
            &mut engines[successor.index()],
            Event::Restore { node: NodeRef::ROOT, object: restored, reply_cache: replies },
        );
        let s = sends(&fx);
        assert!(
            s.iter().any(|(to, m)| *to == p(6) && matches!(m, Msg::Reply { op_seq: 3, resp: 3 })),
            "restore replayed the buffered apply against the restored state: {s:?}"
        );
    }

    #[test]
    fn exhausted_pools_reset_the_age_instead_of_retiring() {
        // Threshold 1 with one-shot pools: the level-2 (singleton pool)
        // node blocks immediately.
        let config = EngineConfig { threshold: Some(1), ..EngineConfig::paper(2) };
        let (topo, mut engines) = fleet(2, config);
        let node = topo.leaf_parent(0);
        let me = topo.initial_worker(node);
        let msg = Msg::Apply { node, origin: p(0), op_seq: 0, count: 1, req: () };
        let fx = step(&mut engines[me.index()], Event::Deliver { msg });
        assert!(fx.iter().any(
            |e| matches!(e, Effect::Audit(AuditEvent::PoolExhausted { node: n }) if *n == node)
        ));
        assert_eq!(engines[me.index()].hosted(node).expect("still hosted").age, 0);
        assert!(engines[me.index()].hosts(node), "the node soldiers on");
    }

    #[test]
    fn stale_promotions_are_ignored_by_the_current_worker() {
        let (_, mut engines) = fleet(2, EngineConfig::paper(2));
        let promote = Msg::RecoverPromote { node: NodeRef::ROOT, neighbours: Vec::new() };
        let fx = step(&mut engines[0], Event::Deliver { msg: promote });
        assert!(sends(&fx).is_empty(), "processor 0 still hosts the root: no rebuild");
        assert!(!fx.iter().any(|e| matches!(e, Effect::RecoveryStarted { .. })));
    }

    #[test]
    fn rebuild_queries_are_answered_with_a_unit_share() {
        let (_, mut engines) = fleet(2, EngineConfig::paper(2));
        let node = NodeRef { level: 1, index: 0 };
        let query = Msg::RebuildQuery { node, neighbour: NodeRef::ROOT, successor: p(3) };
        let fx = step(&mut engines[0], Event::Deliver { msg: query });
        let s = sends(&fx);
        assert_eq!(s.len(), 1);
        assert!(matches!(
            s[0].1,
            Msg::RebuildShare { node: n, neighbour, worker } if *n == node && *neighbour == NodeRef::ROOT && *worker == p(0)
        ));
    }

    #[test]
    fn an_engine_without_transit_state_fits_in_112_bytes() {
        // Its own context (the topology pointer and the configuration),
        // the processor id and the state: 80 bytes, the size of every
        // engine a shm slot or a net worker holds.
        assert!(std::mem::size_of::<NodeEngine<CounterObject>>() <= 112);
        let (_, engines) = fleet(2, EngineConfig::paper(2));
        assert!(engines.iter().all(|e| e.state.transit.is_none()), "seeding buffers nothing");
    }

    #[test]
    fn a_processors_state_fits_in_40_bytes() {
        // Two boxed-slice runs and the transit box, and nothing the
        // fleet shares: the size of every idle processor of a simulated
        // fleet.
        assert!(std::mem::size_of::<EngineState<CounterObject>>() <= 40);
    }

    #[test]
    fn the_transit_box_is_freed_once_its_tables_drain() {
        let (topo, mut engines) = fleet(2, EngineConfig::paper(2));
        let node = NodeRef { level: 1, index: 0 };
        let successor = topo.pool(node).start as usize + 1;
        let early = Msg::Apply { node, origin: p(0), op_seq: 0, count: 1, req: () };
        step(&mut engines[successor], Event::Deliver { msg: early });
        assert!(engines[successor].state.transit.is_some(), "the early apply is buffered");
        let transfer = NodeTransfer {
            node,
            pool_cursor: 1,
            parent_worker: Some(p(0)),
            child_workers: Box::new([p(0), p(2)]),
            root: None,
        };
        let handoff = Msg::HandoffFinal { transfer: Box::new(transfer) };
        step(&mut engines[successor], Event::Deliver { msg: handoff });
        assert!(engines[successor].state.transit.is_none(), "the replay emptied the buffer");
    }

    #[test]
    fn a_run_frees_its_buffer_with_its_last_entry_and_regrows_by_one() {
        // A boxed slice's length is its capacity: every insert and remove
        // leaves the run without a spare slot, and the empty run's
        // zero-sized slice is no heap block.
        let mut slots = NodeSlots::new();
        assert_eq!(std::mem::size_of_val(&*slots.entries), 0, "a new run holds no buffer");
        for key in [7, 3, 5] {
            slots.insert(key, u64::from(key));
        }
        assert_eq!(slots.iter().map(|(k, _)| k).collect::<Vec<_>>(), [3, 5, 7]);
        assert_eq!(slots.entries.len(), 3, "three entries in three slots");
        slots.insert(5, 50);
        assert_eq!((slots.entries.len(), slots.get(5)), (3, Some(&50)), "replaced in place");
        assert_eq!(slots.remove(5), Some(50));
        assert_eq!(slots.remove(5), None, "already gone");
        assert_eq!(slots.remove(3), Some(3));
        assert_eq!(slots.entries.len(), 1, "one entry left in one slot");
        assert_eq!(slots.remove(7), Some(7));
        assert_eq!(std::mem::size_of_val(&*slots.entries), 0, "the empty run holds no buffer");
        *slots.get_or_default(4) += 1;
        assert_eq!(slots.entries.len(), 1, "a first insert takes one slot");
        slots.insert(2, 9);
        slots.insert(6, 8);
        assert_eq!(slots.iter().collect::<Vec<_>>(), [(2, &9), (4, &1), (6, &8)]);
        slots.audit();
    }

    #[test]
    fn a_lone_shim_entry_lives_inline_and_a_second_moves_both_to_a_run() {
        let mut shims = Shims::Run(NodeSlots::new());
        shims.insert(7, p(1));
        assert!(matches!(shims, Shims::One(7, _)), "the first entry is inline");
        shims.insert(7, p(2));
        assert_eq!(shims.get(7), Some(p(2)), "replaced in place");
        shims.insert(3, p(4));
        assert!(matches!(&shims, Shims::Run(run) if run.len() == 2));
        assert_eq!(shims.iter().collect::<Vec<_>>(), [(3, &p(4)), (7, &p(2))], "in key order");
        shims.remove(7);
        assert_eq!((shims.get(7), shims.get(3)), (None, Some(p(4))));
        shims.remove(3);
        shims.insert(5, p(6));
        assert!(matches!(shims, Shims::One(5, _)), "an emptied run goes inline again");
        shims.remove(5);
        assert_eq!(shims.iter().count(), 0);
        assert_eq!(std::mem::size_of::<Shims>(), 16, "the size of a run");
    }

    #[test]
    fn retirement_policy_thresholds_come_from_kmath() {
        assert_eq!(RetirementPolicy::PaperDefault.threshold(3), Some(12));
        assert_eq!(RetirementPolicy::AfterAge(7).threshold(3), Some(7));
        assert_eq!(RetirementPolicy::AfterAge(0).threshold(3), Some(1), "clamped to 1");
        assert_eq!(RetirementPolicy::Never.threshold(3), None);
        assert_eq!(RetirementPolicy::default(), RetirementPolicy::PaperDefault);
    }
}
