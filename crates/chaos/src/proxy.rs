//! The proxy itself: accept, dial upstream, pump bytes through toxics.
//!
//! One proxied connection is two **pump threads** — client→server
//! ("up") and server→client ("down") — each reading chunks from its
//! source socket and pushing them through the plan's toxic chain before
//! forwarding. Each pump owns a deterministic random stream
//! ([`crate::ChaosPlan::stream_seed`]), so every jitter draw, slice
//! boundary and corrupted byte replays identically for a given seed and
//! accept order.
//!
//! Toxic processing order per chunk: latency and throttle first (they
//! only cost time), then the byte budgets ([`Toxic::Reset`] /
//! [`Toxic::Blackhole`]), then [`Toxic::Corrupt`] on what survives,
//! then [`Toxic::Slice`] segmentation on the way out.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::plan::{ChaosPlan, Toxic};

/// How often a blocked pump read polls the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// Counter snapshot of a [`ChaosProxy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Connections accepted (and dialed upstream).
    pub connections: u64,
    /// Client→server bytes forwarded (after budgets, before slicing).
    pub bytes_up: u64,
    /// Server→client bytes forwarded.
    pub bytes_down: u64,
    /// Connections cut by [`Toxic::Reset`].
    pub resets: u64,
    /// Pump directions silenced by [`Toxic::Blackhole`].
    pub blackholed: u64,
    /// Bytes mangled by [`Toxic::Corrupt`].
    pub corrupted_bytes: u64,
}

#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    bytes_up: AtomicU64,
    bytes_down: AtomicU64,
    resets: AtomicU64,
    blackholed: AtomicU64,
    corrupted_bytes: AtomicU64,
}

/// A fault-injecting TCP proxy in front of one upstream address. See
/// the crate docs for the toxic taxonomy.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    pumps: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stats: Arc<Counters>,
}

impl ChaosProxy {
    /// Binds an ephemeral loopback port and proxies every accepted
    /// connection to `upstream` through `plan`'s toxics.
    ///
    /// # Errors
    ///
    /// Propagates binding/spawn failures.
    pub fn start(upstream: SocketAddr, plan: ChaosPlan) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let pumps: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(Counters::default());
        let accept = {
            let stop = Arc::clone(&stop);
            let pumps = Arc::clone(&pumps);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new().name("chaos-accept".into()).spawn(move || {
                accept_conns(&listener, upstream, &plan, &stop, &pumps, &stats);
            })?
        };
        Ok(ChaosProxy { addr, stop, accept: Some(accept), pumps, stats })
    }

    /// The proxy's listening address — point clients here.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the proxy's counters.
    #[must_use]
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            connections: self.stats.connections.load(Ordering::Relaxed),
            bytes_up: self.stats.bytes_up.load(Ordering::Relaxed),
            bytes_down: self.stats.bytes_down.load(Ordering::Relaxed),
            resets: self.stats.resets.load(Ordering::Relaxed),
            blackholed: self.stats.blackholed.load(Ordering::Relaxed),
            corrupted_bytes: self.stats.corrupted_bytes.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, tears down every proxied connection, and joins
    /// all threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let handles = match self.pumps.lock() {
            Ok(mut pumps) => pumps.drain(..).collect::<Vec<_>>(),
            Err(_) => Vec::new(),
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_conns(
    listener: &TcpListener,
    upstream: SocketAddr,
    plan: &ChaosPlan,
    stop: &Arc<AtomicBool>,
    pumps: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    stats: &Arc<Counters>,
) {
    let mut conn_index = 0u64;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((client, _)) => {
                // A dead upstream is itself a fault the client must
                // handle; drop the client and let its connect-level
                // retry policy deal with it.
                let Ok(server) = TcpStream::connect(upstream) else { continue };
                stats.connections.fetch_add(1, Ordering::Relaxed);
                let conn = conn_index;
                conn_index += 1;
                let up = spawn_pump(&client, &server, plan, conn, 0, stop, stats);
                let down = spawn_pump(&server, &client, plan, conn, 1, stop, stats);
                if let Ok(mut pumps) = pumps.lock() {
                    pumps.retain(|h| !h.is_finished());
                    pumps.extend(up);
                    pumps.extend(down);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Clones the stream pair and spawns one direction's pump; `None` only
/// if a clone or spawn failed (the connection is then abandoned).
fn spawn_pump(
    src: &TcpStream,
    dst: &TcpStream,
    plan: &ChaosPlan,
    conn: u64,
    dir: u64,
    stop: &Arc<AtomicBool>,
    stats: &Arc<Counters>,
) -> Option<JoinHandle<()>> {
    let (Ok(src), Ok(dst)) = (src.try_clone(), dst.try_clone()) else { return None };
    let toxics = plan.toxics.clone();
    let seed = plan.stream_seed(conn, dir);
    let stop = Arc::clone(stop);
    let stats = Arc::clone(stats);
    let is_up = dir == 0;
    std::thread::Builder::new()
        .name(format!("chaos-pump-c{conn}-d{dir}"))
        .spawn(move || pump(&src, &dst, &toxics, seed, &stop, &stats, is_up))
        .ok()
}

/// One direction's pump: read a chunk, pass it through the toxic
/// chain, forward what survives. Exits on EOF, socket error, a reset
/// toxic firing, or proxy shutdown.
fn pump(
    src: &TcpStream,
    dst: &TcpStream,
    toxics: &[Toxic],
    seed: u64,
    stop: &AtomicBool,
    stats: &Counters,
    is_up: bool,
) {
    let _ = src.set_read_timeout(Some(POLL));
    let mut src_reader = src;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut forwarded = 0u64;
    let mut silenced = false;
    let mut buf = [0u8; 4096];
    'outer: loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let n = match src_reader.read(&mut buf) {
            Ok(0) => {
                // Clean EOF: propagate the half-close and stop.
                let _ = dst.shutdown(Shutdown::Write);
                break;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        let mut chunk = buf[..n].to_vec();

        // -- time toxics -------------------------------------------------
        for toxic in toxics {
            match *toxic {
                Toxic::Latency { delay, jitter } => {
                    let jitter_ns = jitter.as_nanos() as u64;
                    let extra = if jitter_ns == 0 { 0 } else { rng.gen_range(0..=jitter_ns) };
                    std::thread::sleep(delay + Duration::from_nanos(extra));
                }
                Toxic::Throttle { bytes_per_sec } => {
                    std::thread::sleep(Duration::from_secs_f64(
                        chunk.len() as f64 / bytes_per_sec as f64,
                    ));
                }
                _ => {}
            }
        }

        // -- byte budgets ------------------------------------------------
        let mut cut_after = false;
        for toxic in toxics {
            match *toxic {
                Toxic::Reset { after_bytes } => {
                    let budget = after_bytes.saturating_sub(forwarded);
                    if (budget as usize) < chunk.len() {
                        chunk.truncate(budget as usize);
                        cut_after = true;
                    }
                }
                Toxic::Blackhole { after_bytes } => {
                    let budget = after_bytes.saturating_sub(forwarded);
                    if (budget as usize) < chunk.len() {
                        chunk.truncate(budget as usize);
                        if !silenced {
                            silenced = true;
                            stats.blackholed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                _ => {}
            }
        }

        // -- corruption --------------------------------------------------
        for toxic in toxics {
            if let Toxic::Corrupt { prob } = *toxic {
                for byte in &mut chunk {
                    if rng.gen_bool(prob) {
                        // XOR with a nonzero mask guarantees the byte
                        // actually changes.
                        *byte ^= rng.gen_range(1u32..=255) as u8;
                        stats.corrupted_bytes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }

        // -- forward (sliced if asked) ----------------------------------
        let slice = toxics.iter().find_map(|t| match *t {
            Toxic::Slice { max_chunk, gap } => Some((max_chunk, gap)),
            _ => None,
        });
        // Counted before the write: whoever sees these bytes arrive also
        // sees them in the stats.
        let ctr = if is_up { &stats.bytes_up } else { &stats.bytes_down };
        ctr.fetch_add(chunk.len() as u64, Ordering::Relaxed);
        let mut dst_writer = dst;
        let mut rest: &[u8] = &chunk;
        while !rest.is_empty() {
            let take = match slice {
                Some((max_chunk, _)) => rng.gen_range(1..=max_chunk).min(rest.len()),
                None => rest.len(),
            };
            if dst_writer.write_all(&rest[..take]).is_err() {
                break 'outer;
            }
            rest = &rest[take..];
            if let (Some((_, gap)), false) = (slice, rest.is_empty()) {
                std::thread::sleep(gap);
            }
        }
        forwarded += chunk.len() as u64;

        if cut_after {
            // An abrupt, unannounced cut: both halves die mid-whatever
            // was in flight.
            stats.resets.fetch_add(1, Ordering::Relaxed);
            let _ = src.shutdown(Shutdown::Both);
            let _ = dst.shutdown(Shutdown::Both);
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-connection echo server for exercising the proxy without
    /// the counter stack.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("echo addr");
        let handle = std::thread::spawn(move || {
            let Ok((mut conn, _)) = listener.accept() else { return };
            let mut buf = [0u8; 1024];
            loop {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if conn.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_clean_plan_is_a_faithful_proxy() {
        let (addr, echo) = echo_server();
        let mut proxy = ChaosProxy::start(addr, ChaosPlan::new(1)).expect("proxy");
        let mut client = TcpStream::connect(proxy.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let payload = b"through the looking glass";
        client.write_all(payload).expect("write");
        let mut got = vec![0u8; payload.len()];
        client.read_exact(&mut got).expect("read");
        assert_eq!(&got, payload);
        let stats = proxy.stats();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.bytes_up, payload.len() as u64);
        assert_eq!(stats.bytes_down, payload.len() as u64);
        assert_eq!(stats.corrupted_bytes, 0);
        drop(client);
        proxy.shutdown();
        let _ = echo.join();
    }

    #[test]
    fn sliced_and_corrupted_bytes_still_all_arrive() {
        let (addr, echo) = echo_server();
        let plan = ChaosPlan::new(9).slice(3, Duration::from_micros(100)).corrupt(0.2);
        let mut proxy = ChaosProxy::start(addr, plan).expect("proxy");
        let mut client = TcpStream::connect(proxy.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let payload: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        client.write_all(&payload).expect("write");
        let mut got = vec![0u8; payload.len()];
        client.read_exact(&mut got).expect("read");
        // Same byte count, but corruption virtually surely mangled some
        // (2 directions × 200 bytes × p=0.2).
        assert_ne!(got, payload, "corruption must have struck at p=0.2 over 400 bytes");
        assert!(proxy.stats().corrupted_bytes > 0);
        drop(client);
        proxy.shutdown();
        let _ = echo.join();
    }

    #[test]
    fn reset_cuts_the_connection_at_the_byte_budget() {
        let (addr, echo) = echo_server();
        let plan = ChaosPlan::new(3).reset_after(10);
        let mut proxy = ChaosProxy::start(addr, plan).expect("proxy");
        let mut client = TcpStream::connect(proxy.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let _ = client.write_all(&[7u8; 64]);
        // At most 10 bytes come back before the cut kills both halves.
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match client.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
            }
        }
        assert!(got.len() <= 10, "no more than the budget leaks through: {}", got.len());
        assert!(proxy.stats().resets >= 1);
        proxy.shutdown();
        let _ = echo.join();
    }

    #[test]
    fn blackhole_stalls_without_closing() {
        let (addr, echo) = echo_server();
        let plan = ChaosPlan::new(5).blackhole_after(4);
        let mut proxy = ChaosProxy::start(addr, plan).expect("proxy");
        let mut client = TcpStream::connect(proxy.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_millis(300))).expect("timeout");
        client.write_all(&[1u8; 32]).expect("write");
        let mut buf = [0u8; 64];
        let mut got = 0usize;
        // Up to 4 bytes make it; then reads time out (stall), not EOF.
        loop {
            match client.read(&mut buf) {
                Ok(0) => panic!("a blackhole must stall, not close"),
                Ok(n) => got += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(e) => panic!("unexpected socket error: {e}"),
            }
        }
        assert!(got <= 4, "at most the budget arrives: {got}");
        assert!(proxy.stats().blackholed >= 1);
        proxy.shutdown();
        let _ = echo.join();
    }

    #[test]
    fn latency_toxic_delays_delivery() {
        let (addr, echo) = echo_server();
        let plan = ChaosPlan::new(11).latency(Duration::from_millis(30), Duration::ZERO);
        let mut proxy = ChaosProxy::start(addr, plan).expect("proxy");
        let mut client = TcpStream::connect(proxy.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let t0 = std::time::Instant::now();
        client.write_all(b"ping").expect("write");
        let mut got = [0u8; 4];
        client.read_exact(&mut got).expect("read");
        // 30 ms each way.
        assert!(t0.elapsed() >= Duration::from_millis(55), "round trip took {:?}", t0.elapsed());
        proxy.shutdown();
        let _ = echo.join();
    }
}
