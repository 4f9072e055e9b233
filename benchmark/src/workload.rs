//! The four workloads. Each `run_trial` builds a fresh system under test
//! (timed), warms it, measures one window and checks every value seen.

use std::time::{Duration, Instant};

use crate::check::Checker;
use crate::gen::{Generator, LoadSpec, Mix, Tally};
use crate::host::{self, ThreadRow};
use crate::rng::{Rng, Zipf};
use crate::stats::percentile;
use crate::sut::{self, Canonical, Client, Server, ServerKind, ServerStats, SimTree};
use crate::trace::Tracer;

/// Latency limit of `within_limit_share` on the served workloads.
const SERVED_LIMIT: Duration = Duration::from_millis(1);
/// The same for one simulated `inc`.
const SIM_LIMIT: Duration = Duration::from_micros(100);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeSat,
    ServeRtt,
    ServeKeyed,
    SimCanonical,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ServeSat, Workload::ServeRtt, Workload::ServeKeyed, Workload::SimCanonical];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSat => "serve-sat",
            Workload::ServeRtt => "serve-rtt",
            Workload::ServeKeyed => "serve-keyed",
            Workload::SimCanonical => "sim-canonical",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The load, in a line, for the result file.
    pub fn load(self) -> &'static str {
        match self {
            Workload::ServeSat => {
                "closed loop, 2 connections x 32 unkeyed Inc in flight, one mux generator thread; \
                 serve_async_combining over ShmTreeCounter::new(81)"
            }
            Workload::ServeRtt => {
                "closed loop, 1 connection, 1 in flight, RemoteCounter::inc; \
                 serve_async_combining over ShmTreeCounter::new(81)"
            }
            Workload::ServeKeyed => {
                "closed loop, 2 connections x 16 in flight, Zipf(1.1) over 64 keys, 80% KeyInc / \
                 20% Read; serve_async_combining over Keyspace(81) with shm trees"
            }
            Workload::SimCanonical => {
                "one thread, passes of the paper's workload on TreeCounter::with_order(5): \
                 15,625 processors increment once each in shuffled order, every pass audited"
            }
        }
    }

    /// The canonical pass: exactly `n` incs, one per processor in id
    /// order, on a fresh backend of this workload's kind.
    pub fn canonical(self) -> Result<Canonical, String> {
        match self {
            Workload::ServeSat | Workload::ServeRtt => sut::canonical_shm_tree(),
            Workload::ServeKeyed => sut::canonical_keyspace(),
            Workload::SimCanonical => sut::canonical_sim(sut::SIM_K),
        }
    }
}

/// How a run of `--seconds` is cut into trials.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub trials: usize,
    pub warm: Duration,
    pub window: Duration,
    /// The window also closes once this many ops are acked: `u64::MAX` for
    /// the timed trials, a fixed count for the memory pass.
    pub max_ops: u64,
}

impl Plan {
    /// A tenth of the time is kept for set-ups and the canonical pass;
    /// the rest is trials of 0.2 s warm-up + 1.6 s window, 15 of them at
    /// the benchmark's 30 s. Shorter runs (smoke tests) keep the 1:8
    /// shape with fewer, shorter trials.
    pub fn for_seconds(seconds: f64) -> Plan {
        let budget = seconds * 0.9;
        let trials = ((budget / 1.8).round() as usize).clamp(3, 15);
        let per_trial = budget / trials as f64;
        Plan {
            trials,
            ..Plan::timed(
                Duration::from_secs_f64(per_trial / 9.0),
                Duration::from_secs_f64(per_trial * 8.0 / 9.0),
            )
        }
    }

    /// One trial: `warm`, then a window of `window`.
    pub fn timed(warm: Duration, window: Duration) -> Plan {
        Plan { trials: 1, warm, window, max_ops: u64::MAX }
    }

    /// The memory pass: no warm-up, a fixed number of ops (about a second
    /// of them), so that the memory it peaks at does not depend on how
    /// fast the host happens to be. The time is only a guard.
    pub fn fixed_work(workload: Workload) -> Plan {
        let max_ops = match workload {
            Workload::ServeSat => 300_000,
            Workload::ServeRtt => 100_000,
            Workload::ServeKeyed => 300_000,
            // Two passes of 15,625.
            Workload::SimCanonical => 31_250,
        };
        Plan { max_ops, ..Plan::timed(Duration::ZERO, Duration::from_secs(20)) }
    }
}

/// One trial's raw numbers.
#[derive(Debug, Default)]
pub struct Trial {
    /// Seconds the tally covers: the window's wall time (served) or the
    /// time spent inside the `inc` loops (sim).
    pub measured_s: f64,
    pub tally: Tally,
    /// The generator thread over the window.
    pub gen: ThreadRow,
    /// Every thread alive over the whole window, counters over the window.
    pub threads: Vec<ThreadRow>,
    pub steal_share: f64,
    /// Server counters over the window (served workloads).
    pub server: Option<ServerStats>,
    /// The most `RssAnon` seen at the end of a slice, system still up, KiB.
    pub anon_rss_kib: u64,
    pub violations: Vec<String>,
    /// The slices the window was cut into, in the order their latencies
    /// sit in the tally.
    pub slices: Vec<Slice>,
}

/// A piece of a window that is a sample of its own: a tenth of a second of
/// a served window, or one pass of the sim (n incs on a fresh tree).
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Ops acked.
    pub ops: u64,
    /// Of `ops`, acked within the latency limit.
    pub within: u64,
    /// Ops that failed or were refused: attempted, never acked.
    pub failed: u64,
    /// Seconds measured.
    pub measured_s: f64,
    /// Whether the tracer was on. Under a tracer every second slice is, so
    /// that a traced slice has an untraced neighbour in the same server
    /// lifetime and the same phase of the host.
    pub traced: bool,
}

/// How long a slice of a served window is.
pub const SLICE: Duration = Duration::from_millis(100);

/// The slice of a window that is being measured.
struct OpenSlice {
    started: Instant,
    acked: u64,
    within: u64,
    failed: u64,
    traced: bool,
}

impl OpenSlice {
    fn open(tally: &Tally, traced: bool) -> OpenSlice {
        OpenSlice {
            acked: tally.acked,
            within: tally.within,
            failed: tally.failed,
            traced,
            started: Instant::now(),
        }
    }

    /// The slice from its opening to now, given the window's tally so far.
    fn close(&self, tally: &Tally) -> Slice {
        Slice {
            measured_s: self.started.elapsed().as_secs_f64(),
            ops: tally.acked - self.acked,
            within: tally.within - self.within,
            failed: tally.failed - self.failed,
            traced: self.traced,
        }
    }
}

/// A slice with its latencies: one sample of every timing metric.
#[derive(Debug)]
pub struct Sample {
    pub slice: Slice,
    lat_ns: Vec<u32>,
}

impl Sample {
    pub fn goodput_ops_s(&self) -> f64 {
        self.slice.ops as f64 / self.slice.measured_s
    }

    /// The `q`-quantile of the slice's latencies, µs.
    pub fn latency_us(&mut self, q: f64) -> f64 {
        f64::from(percentile(&mut self.lat_ns, q)) / 1e3
    }

    /// Of the ops attempted, the share acked within the limit.
    pub fn within_limit_share(&self) -> f64 {
        let attempted = self.slice.ops + self.slice.failed;
        if attempted == 0 {
            return 0.0;
        }
        self.slice.within as f64 / attempted as f64
    }
}

/// Cuts `window` into a whole number of slices of about [`SLICE`].
fn slices_of(window: Duration) -> (u32, Duration) {
    let count = (window.as_secs_f64() / SLICE.as_secs_f64()).round().max(1.0) as u32;
    (count, window / count)
}

impl Trial {
    /// The `q`-quantile of the window's latencies, µs.
    pub fn latency_us(&mut self, q: f64) -> f64 {
        f64::from(percentile(&mut self.tally.lat_ns, q)) / 1e3
    }

    /// Ends `slice` here, on the tally so far.
    fn close_slice(&mut self, slice: &OpenSlice) {
        self.slices.push(slice.close(&self.tally));
        self.anon_rss_kib = self.anon_rss_kib.max(host::anon_rss_kib());
    }

    /// Share of the window the generator thread spent on a core.
    pub fn gen_busy_share(&self) -> f64 {
        self.gen.run_ns as f64 / 1e9 / self.measured_s
    }

    /// The samples a run's value is picked from: the window's slices, in
    /// order. The host slows this program in phases that can be shorter
    /// than a window (README, finding 7); a slice is short enough to fall
    /// between them.
    pub fn into_samples(self) -> Vec<Sample> {
        let mut lat_ns = self.tally.lat_ns.into_iter();
        self.slices
            .into_iter()
            .map(|slice| Sample {
                slice,
                lat_ns: lat_ns.by_ref().take(slice.ops as usize).collect(),
            })
            .collect()
    }

    pub fn thread(&self, name: &str) -> ThreadRow {
        self.threads.iter().find(|t| t.name == host::comm_of(name)).cloned().unwrap_or_default()
    }
}

/// `/proc` readings at the two edges of a window.
struct Edge {
    at: Instant,
    threads: Vec<ThreadRow>,
    gen: ThreadRow,
    steal: (u64, u64),
    server: Option<ServerStats>,
}

impl Edge {
    fn take(server: Option<&Server>) -> Edge {
        Edge {
            server: server.map(Server::stats),
            threads: host::threads(),
            gen: host::this_thread(),
            steal: host::steal_jiffies(),
            at: Instant::now(),
        }
    }

    /// Fills `trial` with everything that happened since `start`.
    fn close(start: &Edge, server: Option<&Server>, trial: &mut Trial) {
        let wall = start.at.elapsed();
        let end = Edge::take(server);
        trial.measured_s = wall.as_secs_f64();
        trial.gen = end.gen.since(&start.gen);
        trial.threads = end
            .threads
            .iter()
            .filter_map(|t| {
                let earlier = start.threads.iter().find(|e| e.name == t.name)?;
                Some(t.since(earlier))
            })
            .collect();
        trial.steal_share = host::steal_share(start.steal, end.steal);
        trial.server = end.server.zip(start.server).map(|(e, s)| ServerStats {
            ops: e.ops - s.ops,
            combined_traversals: e.combined_traversals - s.combined_traversals,
            shed: e.shed - s.shed,
            deduped: e.deduped - s.deduped,
            wire_errors: e.wire_errors - s.wire_errors,
            ..e
        });
    }
}

/// The load of the two multiplexed workloads.
pub fn mux_spec(workload: Workload) -> Option<(ServerKind, LoadSpec)> {
    match workload {
        Workload::ServeSat => Some((
            ServerKind::CombiningTree,
            LoadSpec { conns: 2, depth: 32, mix: Mix::Unkeyed, limit: SERVED_LIMIT },
        )),
        Workload::ServeKeyed => Some((
            ServerKind::CombiningKeyspace,
            LoadSpec {
                conns: 2,
                depth: 16,
                mix: Mix::Keyed { keys: Zipf::new(64, 1.1), read_share: 0.2 },
                limit: SERVED_LIMIT,
            },
        )),
        Workload::ServeRtt | Workload::SimCanonical => None,
    }
}

/// A system under test, set up and ready for its first measured op.
// One per trial, built and taken apart once: the variants' sizes cost nothing.
#[allow(clippy::large_enum_variant)]
enum System {
    Mux { server: Server, generator: Generator },
    Rtt { server: Server, client: Client },
    Sim(SimTree),
}

/// Builds the backend, starts the server, connects and handshakes (sim:
/// `TreeCounter::with_order`); returns the system and the seconds it took.
fn set_up(workload: Workload, seed: u64) -> Result<(System, f64), String> {
    let started = Instant::now();
    let system = match workload {
        Workload::ServeSat | Workload::ServeKeyed => {
            let (kind, spec) = mux_spec(workload).expect("a multiplexed workload");
            let server = Server::start(kind)?;
            let generator = Generator::connect(server.addr(), spec, seed)?;
            System::Mux { server, generator }
        }
        Workload::ServeRtt => {
            let server = Server::start(ServerKind::CombiningTree)?;
            let client = Client::connect(server.addr())?;
            System::Rtt { server, client }
        }
        Workload::SimCanonical => System::Sim(SimTree::build(sut::SIM_K)?),
    };
    Ok((system, started.elapsed().as_secs_f64()))
}

/// One sample of `setup_s`: sets the system up, then drops it (a dropped
/// server stops and joins its threads).
pub fn time_set_up(workload: Workload) -> Result<f64, String> {
    set_up(workload, 0).map(|(_system, setup_s)| setup_s)
}

/// Runs trial number `index` of `workload`. With a tracer, spans and
/// generator self-times of the measured window are recorded into it.
pub fn run_trial(
    workload: Workload,
    seed: u64,
    index: u64,
    plan: Plan,
    tracer: Option<Tracer>,
) -> Result<(Trial, Option<Tracer>), String> {
    let trial_seed = Rng::for_stream(seed, index).next_u64();
    let (system, _setup_s) = set_up(workload, trial_seed)?;
    let mut trial = Trial::default();
    let tracer = match system {
        System::Mux { server, generator } => {
            mux_trial(server, generator, plan, tracer, &mut trial)?
        }
        System::Rtt { server, client } => rtt_trial(server, client, plan, tracer, &mut trial)?,
        System::Sim(tree) => sim_trial(tree, trial_seed, plan, tracer, &mut trial)?,
    };
    Ok((trial, tracer))
}

fn mux_trial(
    server: Server,
    mut generator: Generator,
    plan: Plan,
    tracer: Option<Tracer>,
    trial: &mut Trial,
) -> Result<Option<Tracer>, String> {
    generator.run_closed(plan.warm, false, u64::MAX)?;
    let mut tracer = tracer;
    let tracing = tracer.is_some();
    let edge = Edge::take(Some(&server));
    let (count, length) = slices_of(plan.window);
    let mut window = Ok(());
    for index in 0..count {
        let left = plan.max_ops.saturating_sub(trial.tally.acked);
        if left == 0 {
            break;
        }
        let traced = tracing && index % 2 == 1;
        if traced {
            generator.tracer = tracer.take();
        }
        let slice = OpenSlice::open(&trial.tally, traced);
        let ran = generator.run_closed(length, true, left);
        if traced {
            tracer = generator.tracer.take();
        }
        // A window that broke off still counts what it saw: the op that
        // was refused is in the tally `run_closed` left behind.
        let (tally, ran) = match ran {
            Ok(tally) => (tally, Ok(())),
            Err(e) => (generator.take_tally(), Err(e)),
        };
        trial.tally.absorb(tally);
        trial.close_slice(&slice);
        if ran.is_err() {
            window = ran;
            break;
        }
    }
    Edge::close(&edge, Some(&server), trial);
    if let Err(e) = window.and_then(|()| generator.finish()) {
        trial.violations.push(format!("the window never closed: {e}"));
    }
    trial.violations.extend(generator.checker.violations());
    drop(generator);
    server.stop()?;
    Ok(tracer)
}

fn rtt_trial(
    server: Server,
    mut client: Client,
    plan: Plan,
    mut tracer: Option<Tracer>,
    trial: &mut Trial,
) -> Result<Option<Tracer>, String> {
    let mut checker = Checker::new();
    let warm_end = Instant::now() + plan.warm;
    while Instant::now() < warm_end {
        checker.inc(0, client.inc()?);
    }
    let edge = Edge::take(Some(&server));
    let (_, length) = slices_of(plan.window);
    let end = edge.at + plan.window;
    let tracing = tracer.is_some();
    let mut slice = OpenSlice::open(&trial.tally, false);
    let mut sent_at = slice.started;
    while sent_at < end && trial.tally.acked < plan.max_ops {
        if sent_at >= slice.started + length {
            trial.close_slice(&slice);
            slice = OpenSlice::open(&trial.tally, tracing && trial.slices.len() % 2 == 1);
            sent_at = slice.started;
        }
        match client.inc() {
            Ok(value) => {
                let now = Instant::now();
                let lat = now - sent_at;
                checker.inc(0, value);
                trial.tally.acked += 1;
                trial.tally.within += u64::from(lat <= SERVED_LIMIT);
                trial.tally.lat_ns.push(u32::try_from(lat.as_nanos()).unwrap_or(u32::MAX));
                if let Some(t) = tracer.as_mut().filter(|_| slice.traced) {
                    // The shipped client is one call: everything between
                    // send and ack is inside it.
                    t.counts.wait_ns += lat.as_nanos() as u64;
                    t.counts.frames_sent += 1;
                    t.counts.frames_received += 1;
                    t.counts.writes += 1;
                    t.counts.reads += 1;
                    if let Some(op) = t.next_op() {
                        let root = t.span("op", sent_at, now, None, Some(op));
                        t.span("client.inc", sent_at, now, Some(root), Some(op));
                    }
                }
                sent_at = now;
            }
            Err(e) => {
                trial.tally.failed += 1;
                trial.violations.push(format!("inc failed: {e}"));
                break;
            }
        }
    }
    // The last slice counts if it is most of one; a sliver would be noise.
    // (A failed op ended the window, and its slice counts whatever its length.)
    if slice.started.elapsed() >= length / 2 || trial.tally.failed > 0 {
        trial.close_slice(&slice);
    }
    Edge::close(&edge, Some(&server), trial);
    trial.violations.extend(checker.violations());
    drop(client);
    server.stop()?;
    Ok(tracer)
}

/// One audited pass over a fresh tree.
fn sim_pass(
    mut tree: SimTree,
    rng: &mut Rng,
    record: Option<&mut Trial>,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let pass_start = Instant::now();
    let traced = tracer.is_some();
    let mut order: Vec<usize> = (0..tree.processors()).collect();
    rng.shuffle(&mut order);
    let mut violations = Vec::new();
    let mut lat = Vec::new();
    let cpu_before = host::this_thread().run_ns;
    let loop_start = Instant::now();
    let mut sent_at = loop_start;
    // (pass, its inc loop): closed once their ends are known.
    let open_spans = tracer.as_deref_mut().map(|t| {
        let pass = t.span("pass", pass_start, pass_start, None, None);
        (pass, t.span("sim.incs", loop_start, loop_start, Some(pass), None))
    });
    for (expected, &processor) in order.iter().enumerate() {
        let value = tree.inc(processor)?;
        let now = Instant::now();
        if value != expected as u64 {
            violations.push(format!("op {expected} of a pass returned {value}"));
        }
        lat.push(u32::try_from((now - sent_at).as_nanos()).unwrap_or(u32::MAX));
        if let Some(t) = tracer.as_deref_mut() {
            if let Some(op) = t.next_op() {
                t.span("sim.inc", sent_at, now, open_spans.map(|(_, incs)| incs), Some(op));
            }
        }
        sent_at = now;
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let cpu_ns = host::this_thread().run_ns.saturating_sub(cpu_before);
    // With the tree still alive.
    let anon_rss_kib = host::anon_rss_kib();
    let audit_start = Instant::now();
    if let Err(e) = tree.audit() {
        violations.push(e);
    }
    if let (Some(t), Some((pass, incs))) = (tracer, open_spans) {
        let end = Instant::now();
        t.close(incs, audit_start);
        t.span("sim.audit", audit_start, end, Some(pass), None);
        t.close(pass, end);
    }
    if let Some(trial) = record {
        trial.measured_s += loop_s;
        trial.gen.run_ns += cpu_ns;
        trial.tally.acked += lat.len() as u64;
        let within = lat.iter().filter(|&&l| u128::from(l) <= SIM_LIMIT.as_nanos()).count() as u64;
        trial.tally.within += within;
        trial.tally.lat_ns.extend_from_slice(&lat);
        trial.violations.extend(violations);
        trial.anon_rss_kib = trial.anon_rss_kib.max(anon_rss_kib);
        trial.slices.push(Slice {
            ops: lat.len() as u64,
            within,
            failed: 0,
            measured_s: loop_s,
            traced,
        });
    } else if let Some(v) = violations.into_iter().next() {
        return Err(format!("warm-up pass: {v}"));
    }
    Ok(())
}

fn sim_trial(
    first: SimTree,
    seed: u64,
    plan: Plan,
    mut tracer: Option<Tracer>,
    trial: &mut Trial,
) -> Result<Option<Tracer>, String> {
    let mut rng = Rng::new(seed);
    // The retirement pools are one-shot: every pass runs on a fresh tree,
    // built outside the measured loops.
    let mut next = Some(first);
    let mut tree = || next.take().map_or_else(|| SimTree::build(sut::SIM_K), Ok);

    let warm_end = Instant::now() + plan.warm;
    while Instant::now() < warm_end {
        sim_pass(tree()?, &mut rng, None, None)?;
    }
    let steal = host::steal_jiffies();
    let gen = host::this_thread();
    let window_end = Instant::now() + plan.window;
    while Instant::now() < window_end && trial.tally.acked < plan.max_ops {
        // Under a tracer every second pass is traced, as every second
        // slice of a served window is.
        let traced = trial.slices.len() % 2 == 1;
        sim_pass(tree()?, &mut rng, Some(trial), tracer.as_mut().filter(|_| traced))?;
    }
    trial.steal_share = host::steal_share(steal, host::steal_jiffies());
    // Busy share is over the inc loops, where this thread never blocks: the
    // passes added their CPU up in `run_ns`.
    let busy_ns = trial.gen.run_ns;
    trial.gen = host::this_thread().since(&gen);
    trial.gen.run_ns = busy_ns;
    trial.threads = vec![trial.gen.clone()];
    Ok(tracer)
}
