//! The system under test, seen from outside.
//!
//! Every call into a crate of this repository is in this file, so a
//! rename in the repository touches one place in the benchmark. The
//! rest of the benchmark sees plain numbers, byte buffers and the
//! small types defined here.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;

use distctr_core::engine::{seed_initial_hosting, Effect, EngineConfig, Event, VirtualTime};
use distctr_core::{CounterBackend, CounterObject, KeyedReply, NodeEngine, Topology, TreeCounter};
use distctr_keyspace::{Keyspace, KeyspaceConfig, PromotionPolicy};
use distctr_net::ThreadedTreeCounter;
use distctr_server::wire::{self, WireMsg};
use distctr_server::{CounterServer, RemoteCounter};
use distctr_shm::{CentralCounter, FlatCombiningCounter, ShmTreeCounter};
use distctr_sim::{Counter, ProcessorId};

pub use distctr_reactor::{Event as PollEvent, Interest, Poller, Waker};

/// Processors behind every served backend: 81 = 3^4, tree order k = 3.
pub const SERVED_N: usize = 81;
/// Tree order of the served backends.
pub const SERVED_K: u32 = 3;
/// Tree order of the simulated workload: n = 5^6 = 15,625.
pub const SIM_K: u32 = 5;
/// Thread names the server gives its two service threads.
pub const REACTOR_THREAD: &str = "distctr-reactor";
pub const COMBINER_THREAD: &str = "distctr-combiner";

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Which kernel interface the repo's poller runs on, for the host facts.
pub fn poller_backend() -> String {
    Poller::new().map_or_else(|e| format!("unavailable: {e}"), |p| format!("{:?}", p.backend()))
}

// ---------------------------------------------------------------- wire

/// A reply frame, reduced to what the generator checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    HelloOk,
    Inc {
        request_id: u64,
        value: u64,
    },
    Read {
        key: u64,
        value: u64,
    },
    /// `Busy`, `Err` or anything a generator never asked for.
    Refused,
}

pub fn encode_hello(out: &mut Vec<u8>) {
    wire::encode_frame_into(&WireMsg::Hello { resume: None }, out);
}

pub fn encode_inc(request_id: u64, out: &mut Vec<u8>) {
    wire::encode_frame_into(&WireMsg::Inc { request_id, initiator: None }, out);
}

pub fn encode_key_inc(key: u64, request_id: u64, out: &mut Vec<u8>) {
    wire::encode_frame_into(&WireMsg::KeyInc { key, request_id, initiator: None }, out);
}

pub fn encode_read(key: u64, out: &mut Vec<u8>) {
    wire::encode_frame_into(&WireMsg::Read { key }, out);
}

/// Decodes one reply from the front of `buf`: `Ok(None)` when the frame
/// is not complete yet, `Ok(Some((reply, bytes consumed)))` otherwise.
pub fn decode_reply(buf: &[u8]) -> Result<Option<(Reply, usize)>, String> {
    let Some((msg, used)) = wire::try_decode_frame(buf).map_err(text)? else {
        return Ok(None);
    };
    let reply = match msg {
        WireMsg::HelloOk { .. } => Reply::HelloOk,
        WireMsg::IncOk { request_id, value } => Reply::Inc { request_id, value },
        WireMsg::ReadOk { key, value } => Reply::Read { key, value },
        _ => Reply::Refused,
    };
    Ok(Some((reply, used)))
}

/// An `IncOk` frame, as the server would send it: input for timing
/// `decode_reply` and payload for the bare echo rungs of the ladder.
pub fn encode_inc_ok(request_id: u64, value: u64, out: &mut Vec<u8>) {
    wire::encode_frame_into(&WireMsg::IncOk { request_id, value }, out);
}

pub fn crc32(bytes: &[u8]) -> u32 {
    wire::crc32(bytes)
}

// -------------------------------------------------------------- server

/// The serving set-ups the workloads and the ladder use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    /// `serve_async_combining` over `ShmTreeCounter::new(81)`: the path
    /// that ships (`serve-sat`, `serve-rtt`).
    CombiningTree,
    /// `serve_async_combining` over a default `Keyspace` whose promoted
    /// keys live on shm trees (`serve-keyed`).
    CombiningKeyspace,
    /// `serve_async` (incs inline on the reactor) over the shm tree.
    InlineTree,
    /// `serve_async` over the keyspace: the only backend kind that
    /// answers `Read`.
    InlineKeyspace,
}

type ShmKeyspace = Keyspace<ShmTreeCounter>;

enum Hosted {
    Tree(CounterServer<ShmTreeCounter>),
    Keyspace(CounterServer<ShmKeyspace>),
}

/// A running server; stopped (threads joined) on `stop` or drop.
pub struct Server {
    hosted: Hosted,
}

/// The server counters the per-layer metrics report.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    pub ops: u64,
    pub combined_traversals: u64,
    pub shed: u64,
    pub deduped: u64,
    pub wire_errors: u64,
    pub sessions: u64,
    pub keys_hosted: u64,
    pub promotions: u64,
    pub demotions: u64,
}

fn shm_tree() -> Result<ShmTreeCounter, String> {
    ShmTreeCounter::new(SERVED_N).map_err(text)
}

fn shm_keyspace(policy: PromotionPolicy) -> ShmKeyspace {
    let mut cfg = KeyspaceConfig::new(SERVED_N);
    cfg.policy = policy;
    Keyspace::new(cfg, |n| ShmTreeCounter::new(n).map_err(text))
}

impl Server {
    pub fn start(kind: ServerKind) -> Result<Server, String> {
        let keyspace = || shm_keyspace(PromotionPolicy::default());
        let hosted = match kind {
            ServerKind::CombiningTree => {
                Hosted::Tree(CounterServer::serve_async_combining(shm_tree()?).map_err(text)?)
            }
            ServerKind::InlineTree => {
                Hosted::Tree(CounterServer::serve_async(shm_tree()?).map_err(text)?)
            }
            ServerKind::CombiningKeyspace => {
                Hosted::Keyspace(CounterServer::serve_async_combining(keyspace()).map_err(text)?)
            }
            ServerKind::InlineKeyspace => {
                Hosted::Keyspace(CounterServer::serve_async(keyspace()).map_err(text)?)
            }
        };
        Ok(Server { hosted })
    }

    pub fn addr(&self) -> SocketAddr {
        match &self.hosted {
            Hosted::Tree(s) => s.local_addr(),
            Hosted::Keyspace(s) => s.local_addr(),
        }
    }

    pub fn stats(&self) -> ServerStats {
        let s = match &self.hosted {
            Hosted::Tree(s) => s.stats(),
            Hosted::Keyspace(s) => s.stats(),
        };
        ServerStats {
            ops: s.ops,
            combined_traversals: s.combined_traversals,
            shed: s.shed,
            deduped: s.deduped,
            wire_errors: s.wire_errors,
            sessions: s.sessions,
            keys_hosted: s.keys_hosted,
            promotions: s.promotions,
            demotions: s.demotions,
        }
    }

    /// Stops the server and joins its threads.
    pub fn stop(mut self) -> Result<(), String> {
        match &mut self.hosted {
            Hosted::Tree(s) => s.shutdown().map_err(text),
            Hosted::Keyspace(s) => s.shutdown().map_err(text),
        }
    }
}

/// The shipped blocking client.
pub struct Client(RemoteCounter);

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        RemoteCounter::connect(addr).map(Client).map_err(text)
    }

    pub fn inc(&mut self) -> Result<u64, String> {
        self.0.inc().map_err(text)
    }
}

// ------------------------------------------------------ canonical pass

/// The exact counts of one canonical pass: `n` incs, one per processor
/// in id order, no batching, on a fresh backend.
#[derive(Debug, Clone, Copy)]
pub struct Canonical {
    pub n: u64,
    pub k: u32,
    /// `max_p m_p`, sends plus receives.
    pub bottleneck_msgs: u64,
    pub total_msgs: u64,
    pub retirements: u64,
    /// Values came out as 0, 1, 2, … in order.
    pub sequential: bool,
}

/// Runs the pass through `inc`, then reads the loads off `tree()`: a
/// handle to the arena the incs ran on.
fn canonical_of_shm(
    mut inc: impl FnMut(ProcessorId) -> Result<u64, String>,
    tree: impl FnOnce() -> Result<ShmTreeCounter, String>,
) -> Result<Canonical, String> {
    let mut sequential = true;
    for i in 0..SERVED_N {
        sequential &= inc(ProcessorId::new(i))? == i as u64;
    }
    let tree = tree()?;
    // Each message is one send and one receive in the per-slot loads.
    let total: u64 = tree.loads().iter().sum();
    Ok(Canonical {
        n: SERVED_N as u64,
        k: SERVED_K,
        bottleneck_msgs: tree.bottleneck(),
        total_msgs: total / 2,
        retirements: tree.retirements(),
        sequential,
    })
}

/// Canonical pass on the backend `serve-sat` and `serve-rtt` host.
pub fn canonical_shm_tree() -> Result<Canonical, String> {
    let mut tree = shm_tree()?;
    let view = tree.share();
    canonical_of_shm(|p| tree.inc(p).map_err(text), || Ok(view))
}

/// Canonical pass through the keyspace router `serve-keyed` hosts, with
/// the key pinned to its tree placement: the adaptive policy promotes
/// on a wall-clock rate, and a count that must repeat exactly cannot
/// depend on one. The key's tree is read through a second handle.
pub fn canonical_keyspace() -> Result<Canonical, String> {
    let (tx, rx) = std::sync::mpsc::channel();
    let mut cfg = KeyspaceConfig::new(SERVED_N);
    cfg.policy = PromotionPolicy::pinned_tree();
    let mut ks = Keyspace::new(cfg, move |n| {
        let tree = ShmTreeCounter::new(n).map_err(text)?;
        let _ = tx.send(tree.share());
        Ok(tree)
    });
    canonical_of_shm(
        |p| match ks.inc_key(1, p, None).map_err(text)? {
            KeyedReply::Fresh(v) => Ok(v),
            other => Err(format!("keyspace refused an inc: {other:?}")),
        },
        || rx.try_recv().map_err(|_| "the pinned key never built its tree".to_string()),
    )
}

// ----------------------------------------------------------- simulator

/// One simulated retirement tree (`TreeCounter::with_order`).
pub struct SimTree(TreeCounter);

impl SimTree {
    pub fn build(k: u32) -> Result<SimTree, String> {
        TreeCounter::with_order(k).map(SimTree).map_err(text)
    }

    pub fn processors(&self) -> usize {
        Counter::processors(&self.0)
    }

    pub fn inc(&mut self, processor: usize) -> Result<u64, String> {
        Counter::inc(&mut self.0, ProcessorId::new(processor)).map(|r| r.value).map_err(text)
    }

    pub fn bottleneck_msgs(&self) -> u64 {
        self.0.loads().max_load()
    }

    pub fn total_msgs(&self) -> u64 {
        self.0.loads().total_messages()
    }

    pub fn retirements(&self) -> u64 {
        self.0.audit().retirements_by_level().iter().sum()
    }

    /// The paper's lemmas and the `20k` load envelope, checked on the
    /// run so far.
    pub fn audit(&self) -> Result<(), String> {
        let audit = self.0.audit();
        let k = u64::from(self.0.order());
        let failed = if !audit.grow_old_lemma_holds() {
            "grow-old lemma"
        } else if !audit.retirement_lemma_holds() {
            "retirement lemma"
        } else if !audit.retirement_counts_within_pools(self.0.topology()) {
            "retirements within pools"
        } else if self.bottleneck_msgs() > 20 * k {
            "m_b <= 20k"
        } else {
            return Ok(());
        };
        Err(format!("audit failed: {failed}"))
    }
}

/// Canonical pass on the simulator, order `k`.
pub fn canonical_sim(k: u32) -> Result<Canonical, String> {
    let mut tree = SimTree::build(k)?;
    let n = tree.processors();
    let mut sequential = true;
    for i in 0..n {
        sequential &= tree.inc(i)? == i as u64;
    }
    tree.audit()?;
    Ok(Canonical {
        n: n as u64,
        k,
        bottleneck_msgs: tree.bottleneck_msgs(),
        total_msgs: tree.total_msgs(),
        retirements: tree.retirements(),
        sequential,
    })
}

// ------------------------------------------------- engines, no driver

/// `NodeEngine`s driven directly: a FIFO of `(destination, event)` in
/// benchmark code and nothing else — no simulator, no mailboxes.
pub struct BareEngines {
    engines: Vec<NodeEngine<CounterObject>>,
    fifo: VecDeque<(usize, Event<CounterObject>)>,
    next_op: u64,
    /// `on_event` calls so far.
    pub events: u64,
}

impl BareEngines {
    pub fn build(k: u32) -> Result<BareEngines, String> {
        let topo = Arc::new(Topology::new(k)?);
        let n = usize::try_from(topo.processors()).map_err(text)?;
        let mut engines: Vec<NodeEngine<CounterObject>> = (0..n)
            .map(|i| {
                NodeEngine::new(ProcessorId::new(i), Arc::clone(&topo), EngineConfig::paper(k))
            })
            .collect();
        seed_initial_hosting(&topo, &mut engines, &CounterObject::new());
        Ok(BareEngines { engines, fifo: VecDeque::new(), next_op: 0, events: 0 })
    }

    pub fn processors(&self) -> usize {
        self.engines.len()
    }

    /// One `inc` to quiescence; returns the value.
    pub fn inc(&mut self, processor: usize) -> Result<u64, String> {
        let op_seq = self.next_op;
        self.next_op += 1;
        let mut value = None;
        self.fifo.push_back((processor, Event::Invoke { op_seq, req: () }));
        while let Some((dest, event)) = self.fifo.pop_front() {
            self.events += 1;
            for effect in self.engines[dest].on_event(event, VirtualTime::ZERO) {
                match effect {
                    Effect::Send { to, msg } => {
                        self.fifo.push_back((to.index(), Event::Deliver { msg }));
                    }
                    Effect::Reply { resp, .. } => value = Some(resp),
                    _ => {}
                }
            }
        }
        value.ok_or_else(|| format!("op {op_seq} quiesced without a reply"))
    }
}

// ------------------------------------------------- shared-memory layer

pub struct ShmTree(ShmTreeCounter);

impl ShmTree {
    pub fn build() -> Result<ShmTree, String> {
        shm_tree().map(ShmTree)
    }

    pub fn inc(&mut self, processor: usize) -> Result<u64, String> {
        self.0.inc(ProcessorId::new(processor)).map_err(text)
    }

    pub fn inc_batch(&mut self, processor: usize, count: u64) -> Result<u64, String> {
        self.0.inc_batch(ProcessorId::new(processor), count).map_err(text)
    }

    /// A second handle for a helping thread.
    pub fn share(&self) -> ShmTree {
        ShmTree(self.0.share())
    }

    pub fn inc_shared(&self, processor: usize) -> Result<u64, String> {
        self.0.inc_shared(ProcessorId::new(processor)).map_err(text)
    }
}

pub struct ShmCentral(CentralCounter);

impl ShmCentral {
    pub fn build() -> ShmCentral {
        ShmCentral(CentralCounter::new(SERVED_N))
    }

    pub fn inc(&self) -> u64 {
        self.0.inc_shared()
    }
}

pub struct ShmCombining(FlatCombiningCounter);

impl ShmCombining {
    pub fn build() -> ShmCombining {
        ShmCombining(FlatCombiningCounter::new(1))
    }

    pub fn inc(&self) -> u64 {
        self.0.inc_shared(0)
    }
}

// ------------------------------------------------------- threaded layer

/// `ThreadedTreeCounter::new(8)`: one OS thread per processor.
pub struct NetTree(ThreadedTreeCounter);

impl NetTree {
    pub fn build() -> Result<NetTree, String> {
        ThreadedTreeCounter::new(8).map(NetTree).map_err(text)
    }

    pub fn processors(&self) -> usize {
        self.0.processors()
    }

    pub fn inc(&mut self, processor: usize) -> Result<u64, String> {
        self.0.inc(ProcessorId::new(processor)).map_err(text)
    }

    pub fn stop(mut self) -> Result<(), String> {
        self.0.shutdown().map_err(text)
    }
}

// ------------------------------------------------------ keyspace layer

/// A keyspace called directly, one key, pinned to one placement.
pub struct PinnedKeyspace(ShmKeyspace);

impl PinnedKeyspace {
    pub fn central() -> PinnedKeyspace {
        PinnedKeyspace(shm_keyspace(PromotionPolicy::pinned_central()))
    }

    pub fn tree() -> PinnedKeyspace {
        PinnedKeyspace(shm_keyspace(PromotionPolicy::pinned_tree()))
    }

    pub fn inc_key(&mut self, key: u64, processor: usize) -> Result<u64, String> {
        match self.0.inc_key(key, ProcessorId::new(processor), None).map_err(text)? {
            KeyedReply::Fresh(v) | KeyedReply::Replay(v) => Ok(v),
            KeyedReply::Unrouted => Err(format!("key {key} unrouted")),
        }
    }

    pub fn read_key(&self, key: u64) -> Option<u64> {
        self.0.read_key(key)
    }
}
