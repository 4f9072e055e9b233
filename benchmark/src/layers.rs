//! The per-layer half: each module's public functions timed from here,
//! the round-trip ladder, the open-loop probe, and the traced run.
//!
//! None of these numbers carries a bound. They say where an end-to-end
//! change should come from, and the README says which way each points.

use std::hint::black_box;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::Generator;
use crate::host;
use crate::json::Json;
use crate::metrics::{self, PER_LAYER};
use crate::rng::Rng;
use crate::stats::{percentile, Summary};
use crate::sut::{self, Interest, Poller, Reply, Server, ServerKind, Waker};
use crate::trace::Tracer;
use crate::workload::{self, Plan, Workload};

/// Named per-layer values, in the order they were measured.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(metrics::per_layer(name).is_some(), "{name} is not declared");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: Layers) {
        self.values.extend(other.values);
    }

    /// `(name, value, unit)` for every declared metric, in declaration
    /// order; a metric that was not measured is an error.
    pub fn declared(&self) -> Result<Vec<(String, f64, &'static str)>, String> {
        PER_LAYER
            .iter()
            .map(|m| {
                let value = self.get(m.name).ok_or(format!("{} was not measured", m.name))?;
                Ok((m.name.to_string(), value, m.unit))
            })
            .collect()
    }
}

/// How much of the full measurement to do: 1 at the benchmark's 30 s,
/// less for smoke runs.
#[derive(Debug, Clone, Copy)]
pub struct Effort(f64);

impl Effort {
    pub fn for_seconds(seconds: f64) -> Effort {
        Effort((seconds / 30.0).clamp(0.02, 1.0))
    }

    fn ops(self, full: u64) -> u64 {
        ((full as f64 * self.0) as u64).max(64)
    }

    fn reps(self, full: usize) -> usize {
        ((full as f64 * self.0).ceil() as usize).max(1)
    }

    fn secs(self, full: f64) -> Duration {
        Duration::from_secs_f64(full * self.0)
    }
}

/// Median over `reps` repetitions of `ops` calls of `f`, in ns per call.
fn ns_per_op(reps: usize, ops: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..ops {
                f();
            }
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    Summary::of(&samples).median
}

fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

// ------------------------------------------------------------ modules

fn core_and_sim(effort: Effort, out: &mut Layers) -> Result<(), String> {
    let reps = effort.reps(5);
    let (mut per_event, mut per_inc) = (Vec::new(), 0.0);
    for _ in 0..reps {
        let mut engines = sut::BareEngines::build(sut::SIM_K)?;
        let n = engines.processors();
        let start = Instant::now();
        for p in 0..n {
            black_box(engines.inc(p)?);
        }
        per_event.push(start.elapsed().as_nanos() as f64 / engines.events as f64);
        per_inc = engines.events as f64 / n as f64;
    }
    out.put("core.engine.on_event_ns", median(&per_event));
    out.put("core.engine.events_per_inc", per_inc);

    let canonical = sut::canonical_sim(sut::SIM_K)?;
    out.put("core.bottleneck_msgs", canonical.bottleneck_msgs as f64);
    out.put("core.retirements", canonical.retirements as f64);

    let (mut build, mut inc, mut events, mut audit) = (vec![], vec![], vec![], vec![]);
    for _ in 0..reps {
        let start = Instant::now();
        let mut tree = sut::SimTree::build(sut::SIM_K)?;
        build.push(start.elapsed().as_secs_f64());
        let n = tree.processors();
        let start = Instant::now();
        for p in 0..n {
            black_box(tree.inc(p)?);
        }
        let pass = start.elapsed().as_secs_f64();
        inc.push(pass * 1e9 / n as f64);
        // One event per message delivered, one per invoke.
        events.push((tree.total_msgs() + n as u64) as f64 / pass);
        let start = Instant::now();
        tree.audit()?;
        audit.push(start.elapsed().as_secs_f64());
    }
    out.put("sim.inc_ns", median(&inc));
    out.put("sim.events_s", median(&events));
    out.put("sim.build_s", median(&build));
    out.put("sim.audit_s", median(&audit));
    Ok(())
}

/// One pass at k = 6 (279,936 processors, DRAM-bound), in a process of
/// its own so that `VmHWM` is the pass's.
fn sim_k6(out: &mut Layers) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe).arg("k6").output().map_err(|e| format!("spawn k6: {e}"))?;
    if !output.status.success() {
        return Err(format!("k6 pass failed: {}", String::from_utf8_lossy(&output.stderr)));
    }
    let doc = Json::parse(String::from_utf8_lossy(&output.stdout).trim())?;
    for name in ["sim.k6.inc_ns", "sim.k6.build_s", "sim.k6.peak_rss_mib"] {
        let value = doc.get(name).and_then(Json::as_f64).ok_or(format!("k6 printed no {name}"))?;
        out.put(name, value);
    }
    Ok(())
}

/// The `k6` subcommand: what [`sim_k6`] runs in its child.
pub fn k6_pass() -> Result<String, String> {
    let start = Instant::now();
    let mut tree = sut::SimTree::build(6)?;
    let build_s = start.elapsed().as_secs_f64();
    let n = tree.processors();
    let start = Instant::now();
    for p in 0..n {
        if tree.inc(p)? != p as u64 {
            return Err(format!("k6 pass: op {p} out of sequence"));
        }
    }
    let inc_ns = start.elapsed().as_nanos() as f64 / n as f64;
    tree.audit()?;
    Ok(Json::obj([
        ("sim.k6.inc_ns", Json::Num(inc_ns)),
        ("sim.k6.build_s", Json::Num(build_s)),
        ("sim.k6.peak_rss_mib", Json::Num(host::peak_rss_mib())),
    ])
    .render())
}

fn shm_net_keyspace(effort: Effort, out: &mut Layers) -> Result<(), String> {
    let n = sut::SERVED_N;
    let reps = effort.reps(5);
    let mut failed = None;
    let mut keep = |r: Result<u64, String>| match r {
        Ok(v) => {
            black_box(v);
        }
        Err(e) => failed = Some(e),
    };

    let mut tree = sut::ShmTree::build()?;
    let mut p = 0usize;
    let mut next = || {
        p = (p + 1) % n;
        p
    };
    // Past the one-shot pools' retirements, as a server's tree is within
    // its first few milliseconds.
    for _ in 0..2000 {
        keep(tree.inc(next()));
    }
    out.put("shm.tree.inc_ns", ns_per_op(reps, effort.ops(20_000), || keep(tree.inc(next()))));
    let batch = ns_per_op(reps, effort.ops(20_000), || keep(tree.inc_batch(next(), 16)));
    out.put("shm.tree.inc_batch16_ns", batch / 16.0);

    let per_thread = effort.ops(20_000);
    let shared = sut::ShmTree::build()?;
    // Two helping threads, free to take a CPU each.
    let shared2_ns = host::spread(|| {
        let start = Instant::now();
        std::thread::scope(|scope| {
            let workers = [0usize, 1].map(|t| {
                let handle = shared.share();
                scope.spawn(move || {
                    (0..per_thread).try_for_each(|i| {
                        handle.inc_shared((2 * i as usize + t) % n).map(|v| {
                            black_box(v);
                        })
                    })
                })
            });
            workers
                .into_iter()
                .try_for_each(|w| w.join().map_err(|_| "helper panicked".to_string())?)
        })?;
        Ok::<f64, String>(start.elapsed().as_nanos() as f64 / (2 * per_thread) as f64)
    })?;
    out.put("shm.tree.shared2.inc_ns", shared2_ns);

    let central = sut::ShmCentral::build();
    out.put(
        "shm.central.inc_ns",
        ns_per_op(reps, effort.ops(2_000_000), || {
            black_box(central.inc());
        }),
    );
    let combining = sut::ShmCombining::build();
    out.put(
        "shm.combining.inc_ns",
        ns_per_op(reps, effort.ops(1_000_000), || {
            black_box(combining.inc());
        }),
    );

    // One OS thread per processor, spread over the CPUs as `distctr-net`
    // means them to be.
    let net_ns = host::spread(|| {
        let mut net = sut::NetTree::build()?;
        let procs = net.processors();
        let mut q = 0usize;
        let net_ns = ns_per_op(reps, effort.ops(2_000), || {
            q = (q + 1) % procs;
            keep(net.inc(q));
        });
        net.stop()?;
        Ok::<f64, String>(net_ns)
    })?;
    out.put("net.inc_us", net_ns / 1e3);

    let mut ks = sut::PinnedKeyspace::central();
    out.put(
        "keyspace.central.inc_key_ns",
        ns_per_op(reps, effort.ops(200_000), || {
            keep(ks.inc_key(1, next()));
        }),
    );
    out.put(
        "keyspace.read_key_ns",
        ns_per_op(reps, effort.ops(1_000_000), || {
            black_box(ks.read_key(black_box(1)));
        }),
    );
    let mut ks = sut::PinnedKeyspace::tree();
    for _ in 0..2000 {
        keep(ks.inc_key(1, next()));
    }
    out.put(
        "keyspace.tree.inc_key_ns",
        ns_per_op(reps, effort.ops(20_000), || {
            keep(ks.inc_key(1, next()));
        }),
    );
    failed.map_or(Ok(()), Err)
}

fn wire(effort: Effort, out: &mut Layers) -> Result<(), String> {
    let reps = effort.reps(5);
    let mut buf = Vec::with_capacity(64);
    let mut id = 0u64;
    out.put(
        "server.wire.encode_ns",
        ns_per_op(reps, effort.ops(1_000_000), || {
            buf.clear();
            id += 1;
            sut::encode_inc(black_box(id), &mut buf);
            black_box(&buf);
        }),
    );
    let mut frame = Vec::new();
    sut::encode_inc_ok(7, 1_000_000, &mut frame);
    if sut::decode_reply(&frame)?
        != Some((Reply::Inc { request_id: 7, value: 1_000_000 }, frame.len()))
    {
        return Err("an IncOk frame did not decode to itself".into());
    }
    out.put(
        "server.wire.decode_ns",
        ns_per_op(reps, effort.ops(1_000_000), || {
            let _ = black_box(sut::decode_reply(black_box(&frame)));
        }),
    );
    let kib: Vec<u8> = (0..1024u32).map(|i| (i * 31 % 251) as u8).collect();
    out.put(
        "server.wire.crc32_ns_per_kib",
        ns_per_op(reps, effort.ops(20_000), || {
            black_box(sut::crc32(black_box(&kib)));
        }),
    );
    Ok(())
}

fn reactor(effort: Effort, out: &mut Layers) -> Result<(), String> {
    let io = |e: std::io::Error| format!("reactor: {e}");
    // The syscall floor: `wait` on a descriptor that is already readable.
    let mut poller = Poller::new().map_err(io)?;
    let ready = Waker::new().map_err(io)?;
    poller.register(ready.fd(), 0, Interest::READ).map_err(io)?;
    ready.wake();
    let mut events = Vec::new();
    out.put(
        "reactor.wait_ready_ns",
        ns_per_op(effort.reps(5), effort.ops(200_000), || {
            let _ = black_box(poller.wait(&mut events, Some(Duration::ZERO)));
        }),
    );

    // One wake hop: two threads wake each other in turn, each blocked in
    // `wait` until the other's `wake`; a round trip is two hops.
    let mine = Arc::new(Waker::new().map_err(io)?);
    let theirs = Arc::new(Waker::new().map_err(io)?);
    let mut poller = Poller::new().map_err(io)?;
    poller.register(mine.fd(), 0, Interest::READ).map_err(io)?;
    let stop = Arc::new(AtomicBool::new(false));
    let peer = {
        let (mine, theirs, stop) = (Arc::clone(&mine), Arc::clone(&theirs), Arc::clone(&stop));
        let mut poller = Poller::new().map_err(io)?;
        poller.register(theirs.fd(), 0, Interest::READ).map_err(io)?;
        // The woken thread shares this one's CPU, as a server's reactor
        // shares its client's.
        std::thread::spawn(move || {
            let mut events = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                if poller.wait(&mut events, Some(Duration::from_millis(100))).unwrap_or(0) > 0 {
                    theirs.drain();
                    mine.wake();
                }
            }
        })
    };
    let mut rtts: Vec<u32> = Vec::new();
    for _ in 0..effort.ops(20_000) {
        let start = Instant::now();
        theirs.wake();
        while poller.wait(&mut events, Some(Duration::from_secs(1))).map_err(io)? == 0 {}
        mine.drain();
        rtts.push(start.elapsed().as_nanos() as u32);
    }
    stop.store(true, Ordering::SeqCst);
    theirs.wake();
    peer.join().map_err(|_| "wake peer panicked".to_string())?;
    out.put("reactor.wake_rtt_ns", f64::from(percentile(&mut rtts, 0.5)) / 2.0);
    Ok(())
}

// ------------------------------------------------------------- ladder

/// One-in-flight round trips for `window`, after a tenth of it as warm-up,
/// summarised as `run` summarises `latency_p50_us`: the window is cut into
/// slices of [`workload::SLICE`], each slice has a p50, and the rung's value
/// is the best of them, µs. Whole slices only, and at least one.
fn rtt_p50_us(
    window: Duration,
    mut trip: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let warm_end = Instant::now() + window / 10;
    while Instant::now() < warm_end {
        trip()?;
    }
    let mut best = u32::MAX;
    let mut lat: Vec<u32> = Vec::new();
    let mut slice_start = Instant::now();
    let end = slice_start + window;
    let mut sent_at = slice_start;
    loop {
        trip()?;
        let now = Instant::now();
        lat.push(u32::try_from((now - sent_at).as_nanos()).unwrap_or(u32::MAX));
        sent_at = now;
        if now - slice_start >= workload::SLICE {
            best = best.min(percentile(&mut lat, 0.5));
            lat.clear();
            slice_start = now;
            if now >= end {
                return Ok(f64::from(best) / 1e3);
            }
        }
    }
}

fn io_err(e: std::io::Error) -> String {
    format!("ladder: {e}")
}

/// A blocking client that speaks frames: writes `request`, reads until
/// one reply decodes.
struct FrameClient {
    stream: TcpStream,
    inbuf: Vec<u8>,
    out: Vec<u8>,
}

impl FrameClient {
    fn connect(addr: SocketAddr, hello: bool) -> Result<FrameClient, String> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        let mut client = FrameClient { stream, inbuf: Vec::new(), out: Vec::new() };
        if hello {
            match client.trip(sut::encode_hello)? {
                Reply::HelloOk => {}
                other => return Err(format!("handshake answered {other:?}")),
            }
        }
        Ok(client)
    }

    fn trip(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<Reply, String> {
        self.out.clear();
        encode(&mut self.out);
        self.stream.write_all(&self.out).map_err(io_err)?;
        let mut chunk = [0u8; 512];
        loop {
            if let Some((reply, used)) = sut::decode_reply(&self.inbuf)? {
                self.inbuf.drain(..used);
                return Ok(reply);
            }
            let n = self.stream.read(&mut chunk).map_err(io_err)?;
            if n == 0 {
                return Err("ladder: server closed".into());
            }
            self.inbuf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Echoes one connection from a blocking thread, until the peer closes.
fn blocking_echo(listener: TcpListener) -> std::io::Result<()> {
    let (mut stream, _) = listener.accept()?;
    stream.set_nodelay(true)?;
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(());
        }
        stream.write_all(&buf[..n])?;
    }
}

/// The same echo from a bare `Poller` loop: accept and the connection are
/// readiness events, the socket is nonblocking.
fn reactor_echo(listener: TcpListener) -> std::io::Result<()> {
    const LISTENER: usize = 0;
    const CONN: usize = 1;
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER, Interest::READ)?;
    let mut conn: Option<TcpStream> = None;
    let mut events = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        poller.wait(&mut events, None)?;
        for ev in &events {
            match (ev.token, &mut conn) {
                (LISTENER, None) => {
                    let (stream, _) = listener.accept()?;
                    stream.set_nonblocking(true)?;
                    stream.set_nodelay(true)?;
                    poller.register(stream.as_raw_fd(), CONN, Interest::READ)?;
                    conn = Some(stream);
                }
                (CONN, Some(stream)) => loop {
                    match stream.read(&mut buf) {
                        Ok(0) => return Ok(()),
                        // A frame is far below the socket buffer: the
                        // echo never meets a short write.
                        Ok(n) => stream.write_all(&buf[..n])?,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                },
                _ => {}
            }
        }
    }
}

fn echo_rung(
    window: Duration,
    serve: fn(TcpListener) -> std::io::Result<()>,
) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err)?;
    let addr = listener.local_addr().map_err(io_err)?;
    let server = std::thread::spawn(move || serve(listener));
    let mut client = FrameClient::connect(addr, false)?;
    // The payload is a real reply frame, so the client's side of the trip
    // (encode, write, read, decode) is the same on every rung.
    let p50 = rtt_p50_us(window, || client.trip(|out| sut::encode_inc_ok(1, 1, out)).map(|_| ()));
    drop(client);
    server.join().map_err(|_| "echo thread panicked".to_string())?.map_err(io_err)?;
    p50
}

fn server_rung(
    window: Duration,
    kind: ServerKind,
    request: fn(u64, &mut Vec<u8>),
) -> Result<f64, String> {
    let server = Server::start(kind)?;
    let mut client = FrameClient::connect(server.addr(), true)?;
    let mut id = 0u64;
    let p50 = rtt_p50_us(window, || {
        id += 1;
        match client.trip(|out| request(id, out))? {
            Reply::Inc { .. } | Reply::Read { .. } => Ok(()),
            other => Err(format!("ladder: the server answered {other:?}")),
        }
    });
    drop(client);
    server.stop()?;
    p50
}

fn ladder(effort: Effort, out: &mut Layers) -> Result<(), String> {
    // At full effort 10 slices a rung, some 60k to 150k round trips.
    let window = effort.secs(1.0);
    let loopback = echo_rung(window, blocking_echo)?;
    let echo = echo_rung(window, reactor_echo)?;
    let read = server_rung(window, ServerKind::InlineKeyspace, |_, out| sut::encode_read(1, out))?;
    let inline = server_rung(window, ServerKind::InlineTree, sut::encode_inc)?;
    let combined = server_rung(window, ServerKind::CombiningTree, sut::encode_inc)?;
    let shipped = {
        let server = Server::start(ServerKind::CombiningTree)?;
        let mut client = sut::Client::connect(server.addr())?;
        let p50 = rtt_p50_us(window, || client.inc().map(|_| ()));
        drop(client);
        server.stop()?;
        p50?
    };
    out.put("host.loopback_rtt_us", loopback);
    out.put("reactor.echo_rtt_us", echo);
    out.put("server.readiness.read_rtt_us", read);
    out.put("server.readiness.inc_rtt_us", inline);
    out.put("server.combiner.inc_rtt_us", combined);
    out.put("server.client.inc_rtt_us", shipped);
    out.put("server.readiness.hop_us", read - echo);
    out.put("server.session.inc_us", inline - read);
    out.put("server.combiner.hop_us", combined - inline);
    out.put("server.client.overhead_us", shipped - combined);
    Ok(())
}

// ----------------------------------------------------- probes on servers

/// The `serve-sat` server once more: saturate it briefly, then offer half
/// of what it took on a schedule and time each op from when it was due.
fn open_loop_probe(effort: Effort, seed: u64, out: &mut Layers) -> Result<(), String> {
    let (kind, spec) = workload::mux_spec(Workload::ServeSat).expect("serve-sat is multiplexed");
    let server = Server::start(kind)?;
    let mut generator = Generator::connect(server.addr(), spec, seed)?;
    generator.run_closed(effort.secs(0.2), false, u64::MAX)?;
    let window = Instant::now();
    let saturated = generator.run_closed(effort.secs(1.0), true, u64::MAX)?;
    let goodput = saturated.acked as f64 / window.elapsed().as_secs_f64();
    generator.finish()?;
    let mut open = generator.run_open(goodput / 2.0, effort.secs(2.0))?;
    let violations = generator.checker.violations();
    drop(generator);
    server.stop()?;
    if let Some(v) = violations.first() {
        return Err(format!("open-loop probe: {v}"));
    }
    out.put("client.open.p50_us", f64::from(percentile(&mut open.lat_ns, 0.5)) / 1e3);
    out.put("client.open.p99_us", f64::from(percentile(&mut open.lat_ns, 0.99)) / 1e3);
    out.put("client.open.late_share", open.late as f64 / open.acked.max(1) as f64);
    Ok(())
}

/// `server.stats()` after a short `serve-keyed` run.
fn keyspace_stats(effort: Effort, seed: u64, out: &mut Layers) -> Result<(), String> {
    let plan = Plan::timed(effort.secs(0.2), effort.secs(1.0));
    let (trial, _) = workload::run_trial(Workload::ServeKeyed, seed, 0, plan, None)?;
    if let Some(v) = trial.violations.first() {
        return Err(format!("keyspace stats run: {v}"));
    }
    let stats = trial.server.unwrap_or_default();
    out.put("keyspace.keys_hosted", stats.keys_hosted as f64);
    out.put("keyspace.promotions", stats.promotions as f64);
    out.put("keyspace.demotions", stats.demotions as f64);
    Ok(())
}

/// Everything that does not depend on the workload asked for.
pub fn common(effort: Effort, seed: u64) -> Result<Layers, String> {
    let mut out = Layers::default();
    core_and_sim(effort, &mut out)?;
    sim_k6(&mut out)?;
    shm_net_keyspace(effort, &mut out)?;
    wire(effort, &mut out)?;
    reactor(effort, &mut out)?;
    ladder(effort, &mut out)?;
    open_loop_probe(effort, seed, &mut out)?;
    keyspace_stats(effort, seed, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------- traced run

/// What the traced run of one workload found.
pub struct Traced {
    pub layers: Layers,
    pub tracer: Tracer,
    /// `latency_p50_us` of the run's untraced slices, picked as `run` picks
    /// it (the best slice's p50), µs: what the ladder's top rung is held
    /// against on `serve-rtt`.
    pub untraced_p50_us: f64,
    /// Ops of the window: acked or failed, and failed.
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

/// Runs `workload` once more, for 10 s at full effort, with the tracer on
/// in every second slice, and turns the window into the per-layer rows.
/// Generator self-times are per op of the traced slices; the `/proc` rows
/// and the server's counters, which do not depend on the tracer, are over
/// the whole window.
pub fn traced(workload: Workload, effort: Effort, seed: u64) -> Result<Traced, String> {
    // Never less than two pairs of slices.
    let plan = Plan::timed(effort.secs(0.2), effort.secs(10.0).max(4 * workload::SLICE));
    let (mut trial, tracer) = workload::run_trial(workload, seed, 0, plan, Some(Tracer::new()))?;
    let tracer = tracer.expect("the tracer comes back");
    let mut out = Layers::default();
    let counts = tracer.counts;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;

    let traced_ops: u64 = trial.slices.iter().filter(|s| s.traced).map(|s| s.ops).sum();
    out.put("bench.gen.encode_ns", ratio(counts.encode_ns, traced_ops));
    out.put("bench.gen.write_ns", ratio(counts.write_ns, traced_ops));
    out.put("bench.gen.wait_ns", ratio(counts.wait_ns, traced_ops));
    out.put("bench.gen.read_ns", ratio(counts.read_ns, traced_ops));
    out.put("bench.gen.decode_ns", ratio(counts.decode_ns, traced_ops));
    out.put("bench.gen.busy_share", trial.gen_busy_share());
    out.put("bench.gen.frames_per_read", ratio(counts.frames_received, counts.reads));
    out.put("bench.gen.frames_per_write", ratio(counts.frames_sent, counts.writes));
    out.put("client.latency_p90_us", trial.latency_us(0.9));
    out.put("client.latency_p99_us", trial.latency_us(0.99));
    out.put("client.latency_max_us", trial.latency_us(1.0));

    let ops = trial.tally.acked.max(1) as f64;
    let window_ns = trial.measured_s * 1e9;
    let reactor = trial.thread(sut::REACTOR_THREAD);
    let combiner = trial.thread(sut::COMBINER_THREAD);
    out.put("server.readiness.cpu_us_per_op", reactor.run_ns as f64 / 1e3 / ops);
    out.put("server.combiner.cpu_us_per_op", combiner.run_ns as f64 / 1e3 / ops);
    out.put("bench.gen.cpu_us_per_op", trial.gen.run_ns as f64 / 1e3 / ops);
    out.put("server.readiness.wakeups_per_op", reactor.voluntary_switches as f64 / ops);
    out.put("server.combiner.wakeups_per_op", combiner.voluntary_switches as f64 / ops);
    out.put("server.readiness.runq_wait_share", reactor.runq_wait_ns as f64 / window_ns);
    out.put("server.combiner.runq_wait_share", combiner.runq_wait_ns as f64 / window_ns);

    let server = trial.server.unwrap_or_default();
    out.put("server.combiner.mean_batch", ratio(server.ops, server.combined_traversals));
    out.put("server.combiner.rounds_s", server.combined_traversals as f64 / trial.measured_s);
    out.put("server.shed", server.shed as f64);
    out.put("server.deduped", server.deduped as f64);
    out.put("server.wire_errors", server.wire_errors as f64);
    out.put("server.session.count", server.sessions as f64);
    out.put("host.steal_share", trial.steal_share);

    let violations = std::mem::take(&mut trial.violations);
    let (attempted, failed) = (trial.tally.acked + trial.tally.failed, trial.tally.failed);
    let mut samples = trial.into_samples();
    // Each traced slice against the untraced slice just before it: the two
    // share a server and, nearly always, a phase of the host, which whole
    // windows run one after the other do not (README, finding 7).
    let kept: Vec<f64> = samples
        .chunks_exact(2)
        .filter(|pair| pair[0].slice.ops > 0)
        .map(|pair| pair[1].goodput_ops_s() / pair[0].goodput_ops_s())
        .collect();
    if kept.is_empty() {
        return Err(format!("{}: the traced window held no pair of slices", workload.name()));
    }
    let kept = Summary::of(&kept);
    out.put("trace.overhead_share", 1.0 - kept.median);
    out.put("trace.overhead_spread", kept.q3 - kept.q1);

    let untraced_p50_us = samples
        .iter_mut()
        .filter(|s| !s.slice.traced && s.slice.ops > 0)
        .map(|s| s.latency_us(0.5))
        .fold(f64::INFINITY, f64::min);
    Ok(Traced { layers: out, tracer, untraced_p50_us, attempted, failed, violations })
}

/// A generator for the probes' own streams, apart from the trials'.
pub fn probe_seed(seed: u64) -> u64 {
    Rng::for_stream(seed, u64::MAX).next_u64()
}
