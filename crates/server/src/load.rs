//! The load-generation harness: N concurrent client connections in
//! front of one server, with client-observed latency accounting.
//!
//! Two driving disciplines behind one entry point, [`run_load`]:
//!
//! * **closed loop** — every connection keeps exactly one operation in
//!   flight (send, wait, repeat) over the shipped, self-healing
//!   [`RemoteCounter`], one thread per connection. Throughput is
//!   limited by the server's serialized backend; latency measures
//!   service time plus queueing behind the other connections.
//! * **open loop** — operations are injected on a fixed schedule
//!   regardless of completions, every connection on one thread and one
//!   poller (`mux.rs`), and latency is measured from the
//!   *scheduled* injection time. Past the saturation rate the queue
//!   grows without bound and the tail explodes — the classic
//!   contention-vs-throughput picture (cf. Lenzen–Rybicki's counting
//!   regimes), retold as what a client actually experiences in front of
//!   the paper's bottleneck.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use distctr_analysis::{percentile, Histogram, Table};
use distctr_sim::ZipfSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::client::{ClientConfig, RemoteCounter};
use crate::error::ServerError;
use crate::mux::run_open;

/// The driving discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// One in-flight operation per connection.
    Closed,
    /// Fixed-schedule injection at `rate` operations/second in total
    /// (round-robin over the connections), latency measured from the
    /// scheduled injection time.
    Open {
        /// Total target rate, operations per second.
        rate: f64,
    },
}

/// A keyed traffic mix: every operation targets a counter key drawn
/// from a Zipf distribution over ranks `0..keys` — the multi-counter
/// analogue of [`distctr_sim::Workload::Zipf`]. Low ranks are hot,
/// high ranks are cold; a keyspace backend should promote the former
/// and leave the latter centralized.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyMix {
    /// Number of distinct counter keys.
    pub keys: usize,
    /// Zipf skew exponent (`0` = uniform-with-replacement).
    pub s: f64,
    /// Sampling seed (varied per connection).
    pub seed: u64,
}

/// A load-generation run description.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub conns: usize,
    /// Total operations across all connections.
    pub ops: usize,
    /// Driving discipline.
    pub mode: LoadMode,
    /// Knobs (timeout, retry policy) for the closed-loop clients —
    /// chaos runs shrink the budget so a dead path gives up quickly.
    pub client: ClientConfig,
    /// When set, operations carry counter keys (`KeyInc` frames) drawn
    /// from this mix instead of driving the server's single default
    /// counter.
    pub key_mix: Option<KeyMix>,
}

impl LoadConfig {
    /// A closed-loop run.
    #[must_use]
    pub fn closed(conns: usize, ops: usize) -> Self {
        LoadConfig {
            conns,
            ops,
            mode: LoadMode::Closed,
            client: ClientConfig::default(),
            key_mix: None,
        }
    }

    /// An open-loop run at `rate` total operations/second.
    #[must_use]
    pub fn open(conns: usize, ops: usize, rate: f64) -> Self {
        LoadConfig {
            conns,
            ops,
            mode: LoadMode::Open { rate },
            client: ClientConfig::default(),
            key_mix: None,
        }
    }

    /// The same run with explicit client knobs.
    #[must_use]
    pub fn with_client(mut self, client: ClientConfig) -> Self {
        self.client = client;
        self
    }

    /// The same run over `keys` counters with Zipf skew `s`.
    #[must_use]
    pub fn with_keys(mut self, keys: usize, s: f64, seed: u64) -> Self {
        self.key_mix = Some(KeyMix { keys, s, seed });
        self
    }
}

/// Per-connection client-side accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnReport {
    /// Operations this connection completed.
    pub ops: usize,
    /// Largest latency this connection observed, in microseconds.
    pub max_us: u64,
}

/// The aggregated result of a load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Operations completed.
    pub ops: usize,
    /// Operations that failed for good: in a closed loop the client's
    /// whole retry budget was spent without an ack; in an open loop the
    /// operation was shed (`Busy`), died with its connection, or
    /// outlived the straggler grace.
    pub failed: usize,
    /// Wall-clock duration of the run (an open loop's connection ramp
    /// is warmup and not counted).
    pub wall: Duration,
    /// The rate the run *asked* for (open-loop injection schedule), in
    /// operations/second; `None` for closed-loop runs, which have no
    /// schedule. Compare against [`LoadReport::throughput`]: past
    /// saturation the two diverge and the difference is queueing.
    pub offered_rate: Option<f64>,
    /// All observed latencies in microseconds, ascending.
    pub latencies_us: Vec<u64>,
    /// All counter values handed out, ascending. In a keyed run each
    /// key counts independently, so values repeat across keys here —
    /// use [`LoadReport::per_key`] for correctness checks there.
    pub values: Vec<u64>,
    /// Per-connection accounting, in connection order — one entry per
    /// connection that completed its handshake.
    pub per_conn: Vec<ConnReport>,
    /// Per-key accounting, ascending by key — empty unless the run had
    /// a [`KeyMix`].
    pub per_key: Vec<KeyLoad>,
}

/// Per-key accounting of a keyed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyLoad {
    /// The counter key.
    pub key: u64,
    /// Operations acked on this key.
    pub ops: usize,
    /// Counter values acked on this key, ascending.
    pub values: Vec<u64>,
}

impl LoadReport {
    /// Completed operations per second — what the run actually
    /// sustained, as opposed to what [`LoadReport::offered_rate`] asked
    /// for.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.ops as f64 / self.wall.as_secs_f64()
    }

    /// The `q`-th latency percentile in microseconds (0–100).
    #[must_use]
    pub fn latency_percentile_us(&self, q: f64) -> u64 {
        let as_f64: Vec<f64> = self.latencies_us.iter().map(|&v| v as f64).collect();
        percentile(&as_f64, q).map_or(0, |v| v.round() as u64)
    }

    /// The largest observed latency in microseconds.
    #[must_use]
    pub fn max_latency_us(&self) -> u64 {
        self.latencies_us.last().copied().unwrap_or(0)
    }

    /// The fraction of attempted operations that were acked:
    /// `ops / (ops + failed)`, `1.0` for an empty run. Under chaos this
    /// is the availability headline; correctness of what *was* acked is
    /// [`LoadReport::values_are_distinct`].
    #[must_use]
    pub fn availability(&self) -> f64 {
        let attempted = self.ops + self.failed;
        if attempted == 0 {
            return 1.0;
        }
        self.ops as f64 / attempted as f64
    }

    /// Whether the values handed out across *all* connections are
    /// exactly `start..start + ops` — the distributed counter's
    /// correctness condition, observed from outside the service
    /// boundary.
    #[must_use]
    pub fn values_are_sequential_from(&self, start: u64) -> bool {
        self.values.len() == self.ops
            && self.values.iter().enumerate().all(|(i, &v)| v == start + i as u64)
    }

    /// Whether every key's acked values are exactly `0..ops_k` — the
    /// distributed counter's correctness condition, independently per
    /// counter. Vacuously true for runs without a [`KeyMix`]; a live
    /// promotion or demotion that lost or duplicated a grant shows up
    /// here as a gap or a repeat on that key.
    #[must_use]
    pub fn values_are_sequential_per_key(&self) -> bool {
        self.per_key.iter().all(|k| {
            k.values.len() == k.ops && k.values.iter().enumerate().all(|(i, &v)| v == i as u64)
        })
    }

    /// Whether no counter value was acked twice — the exactly-once
    /// half that must survive even runs where some operations failed
    /// (shed or timed out), when the acked set is no longer contiguous.
    #[must_use]
    pub fn values_are_distinct(&self) -> bool {
        // `values` is sorted ascending, so duplicates are adjacent.
        self.values.windows(2).all(|w| w[0] != w[1])
    }

    /// Renders the throughput summary and the latency histogram.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut t = Table::new(vec!["metric", "value"]);
        t.row(vec!["operations".into(), self.ops.to_string()]);
        if self.failed > 0 {
            t.row(vec!["failed".into(), self.failed.to_string()]);
            t.row(vec!["availability".into(), format!("{:.4}", self.availability())]);
        }
        t.row(vec!["wall time".into(), format!("{:.3} s", self.wall.as_secs_f64())]);
        if let Some(offered) = self.offered_rate {
            t.row(vec!["offered rate".into(), format!("{offered:.0} ops/s")]);
            t.row(vec!["achieved rate".into(), format!("{:.0} ops/s", self.throughput())]);
        } else {
            t.row(vec!["throughput".into(), format!("{:.0} ops/s", self.throughput())]);
        }
        t.row(vec!["p50 latency".into(), format!("{} us", self.latency_percentile_us(50.0))]);
        t.row(vec!["p99 latency".into(), format!("{} us", self.latency_percentile_us(99.0))]);
        t.row(vec!["max latency".into(), format!("{} us", self.max_latency_us())]);
        out.push_str(&t.render());
        if !self.per_key.is_empty() {
            out.push_str("\nper-key goodput:\n");
            let mut kt = Table::new(vec!["key", "ops", "rate", "sequential"]);
            let wall = self.wall.as_secs_f64();
            for k in &self.per_key {
                let rate = if wall > 0.0 { k.ops as f64 / wall } else { 0.0 };
                let sequential = k.values.iter().enumerate().all(|(i, &v)| v == i as u64)
                    && k.values.len() == k.ops;
                kt.row(vec![
                    k.key.to_string(),
                    k.ops.to_string(),
                    format!("{rate:.0} ops/s"),
                    if sequential { "yes".into() } else { "NO".into() },
                ]);
            }
            out.push_str(&kt.render());
        }
        out.push_str("\nlatency distribution (us):\n");
        let h = Histogram::from_samples(&self.latencies_us, 10);
        out.push_str(&h.render(40));
        out
    }
}

/// Runs `cfg` against the server at `addr` and aggregates the result.
///
/// # Errors
///
/// A closed loop propagates the first failed initial connect; an open
/// loop fails only if *no* connection survives its ramp. Operations
/// that fail after that are counted in [`LoadReport::failed`].
///
/// # Panics
///
/// Panics if `cfg.conns` or `cfg.ops` is zero, or an open-loop rate is
/// not positive.
pub fn run_load(addr: SocketAddr, cfg: &LoadConfig) -> Result<LoadReport, ServerError> {
    assert!(cfg.conns > 0, "need at least one connection");
    assert!(cfg.ops > 0, "need at least one operation");
    match cfg.mode {
        LoadMode::Closed => run_closed(addr, cfg),
        LoadMode::Open { rate } => run_open(addr, cfg, rate),
    }
}

impl LoadReport {
    /// Sorts what a run acked — `(key, value, latency_us)` triples,
    /// everything on key 0 in an unkeyed run — into its report.
    pub(crate) fn assemble(
        cfg: &LoadConfig,
        acked: Vec<(u64, u64, u64)>,
        per_conn: Vec<ConnReport>,
        failed: usize,
        wall: Duration,
    ) -> LoadReport {
        let mut latencies = Vec::with_capacity(acked.len());
        let mut values = Vec::with_capacity(acked.len());
        let mut by_key: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (key, value, lat_us) in acked {
            values.push(value);
            latencies.push(lat_us);
            if cfg.key_mix.is_some() {
                by_key.entry(key).or_default().push(value);
            }
        }
        latencies.sort_unstable();
        values.sort_unstable();
        let per_key = by_key
            .into_iter()
            .map(|(key, mut vals)| {
                vals.sort_unstable();
                KeyLoad { key, ops: vals.len(), values: vals }
            })
            .collect();
        let offered_rate = match cfg.mode {
            LoadMode::Closed => None,
            LoadMode::Open { rate } => Some(rate),
        };
        LoadReport {
            ops: values.len(),
            failed,
            wall,
            offered_rate,
            latencies_us: latencies,
            values,
            per_conn,
            per_key,
        }
    }
}

/// The closed loop: one thread and one [`RemoteCounter`] per connection.
fn run_closed(addr: SocketAddr, cfg: &LoadConfig) -> Result<LoadReport, ServerError> {
    let started = Instant::now();
    let mut handles = Vec::with_capacity(cfg.conns);
    for conn in 0..cfg.conns {
        // Spread the remainder over the first `ops % conns` connections.
        let ops = cfg.ops / cfg.conns + usize::from(conn < cfg.ops % cfg.conns);
        let client = cfg.client.clone();
        let key_mix = cfg.key_mix.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("loadgen-c{conn}"))
                .spawn(move || drive_closed(addr, conn, ops, &client, key_mix.as_ref()))
                .map_err(|e| ServerError::Io(e.to_string()))?,
        );
    }
    let mut acked = Vec::with_capacity(cfg.ops);
    let mut per_conn = Vec::with_capacity(cfg.conns);
    let mut failed = 0;
    let mut first_error = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok(conn_result)) => {
                per_conn.push(ConnReport {
                    ops: conn_result.acked.len(),
                    max_us: conn_result.acked.iter().map(|&(_, _, lat)| lat).max().unwrap_or(0),
                });
                failed += conn_result.failed;
                acked.extend(conn_result.acked);
            }
            Ok(Err(e)) => first_error = first_error.or(Some(e)),
            Err(_) => {
                first_error =
                    first_error.or(Some(ServerError::Io("a loadgen thread panicked".into())));
            }
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    Ok(LoadReport::assemble(cfg, acked, per_conn, failed, started.elapsed()))
}

/// One connection's outcome: acked `(key, value, latency_us)` triples
/// plus the count of operations whose retry budget ran dry. Unkeyed
/// runs report everything on key 0.
struct ConnOutcome {
    acked: Vec<(u64, u64, u64)>,
    failed: usize,
}

/// A per-connection key sequence: each connection samples its own
/// stream from the mix, seeded by connection index so the run is
/// reproducible without coordination.
pub(crate) fn key_stream(mix: &KeyMix, conn: usize) -> impl Iterator<Item = u64> {
    let sampler = ZipfSampler::new(mix.keys, mix.s);
    let mut rng = StdRng::seed_from_u64(mix.seed.wrapping_add(conn as u64));
    std::iter::repeat_with(move || sampler.sample(&mut rng) as u64)
}

/// One closed-loop connection. Operation failures (retry budget spent)
/// are *counted*, not fatal: under chaos a connection keeps driving the
/// ops that remain, and availability is reported from the split. Only a
/// failed initial connect aborts the run.
fn drive_closed(
    addr: SocketAddr,
    conn: usize,
    ops: usize,
    config: &ClientConfig,
    key_mix: Option<&KeyMix>,
) -> Result<ConnOutcome, ServerError> {
    let mut client = RemoteCounter::connect_with(addr, config.clone())?;
    let mut keys = key_mix.map(|mix| key_stream(mix, conn));
    let mut out = ConnOutcome { acked: Vec::with_capacity(ops), failed: 0 };
    for _ in 0..ops {
        let t0 = Instant::now();
        let (key, result) = match keys.as_mut().and_then(Iterator::next) {
            Some(key) => (key, client.inc_key(key)),
            None => (0, client.inc()),
        };
        match result {
            Ok(value) => out.acked.push((key, value, t0.elapsed().as_micros() as u64)),
            Err(_) => out.failed += 1,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(latencies: Vec<u64>, values: Vec<u64>) -> LoadReport {
        let ops = values.len();
        LoadReport {
            ops,
            failed: 0,
            wall: Duration::from_millis(100),
            offered_rate: None,
            latencies_us: latencies,
            values,
            per_conn: vec![ConnReport { ops, max_us: 0 }],
            per_key: Vec::new(),
        }
    }

    #[test]
    fn sequential_check_catches_gaps_and_dups() {
        assert!(report(vec![1, 2, 3], vec![0, 1, 2]).values_are_sequential_from(0));
        assert!(report(vec![1, 2, 3], vec![5, 6, 7]).values_are_sequential_from(5));
        assert!(!report(vec![1, 2, 3], vec![0, 2, 3]).values_are_sequential_from(0));
        assert!(!report(vec![1, 2, 3], vec![0, 1, 1]).values_are_sequential_from(0));
    }

    #[test]
    fn percentiles_and_throughput() {
        let r = report((1..=100).collect(), (0..100).collect());
        assert_eq!(r.latency_percentile_us(50.0), 51);
        assert_eq!(r.latency_percentile_us(99.0), 99);
        assert_eq!(r.max_latency_us(), 100);
        assert!((r.throughput() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn render_contains_the_headlines() {
        let r = report(vec![10, 20, 30, 1000], vec![0, 1, 2, 3]);
        let s = r.render();
        assert!(s.contains("throughput"));
        assert!(s.contains("p99 latency"));
        assert!(s.contains('#'), "histogram bars present");
    }

    #[test]
    fn availability_and_distinctness_track_partial_runs() {
        let mut r = report(vec![1, 2, 3], vec![0, 4, 9]);
        assert!(r.values_are_distinct(), "gaps are fine, duplicates are not");
        assert!(!r.values_are_sequential_from(0), "a gappy run is not sequential");
        assert!((r.availability() - 1.0).abs() < 1e-9);
        r.failed = 1;
        assert!((r.availability() - 0.75).abs() < 1e-9, "3 acked of 4 attempted");
        assert!(r.render().contains("availability"));
        let dup = report(vec![1, 2, 3], vec![0, 4, 4]);
        assert!(!dup.values_are_distinct(), "an acked value handed out twice");
        assert!((report(Vec::new(), Vec::new()).availability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_key_sequentiality_catches_gaps_dups_and_renders() {
        let mut r = report(vec![1, 2, 3, 4, 5], vec![0, 0, 1, 1, 2]);
        assert!(r.values_are_sequential_per_key(), "vacuously true without a mix");
        r.per_key = vec![
            KeyLoad { key: 0, ops: 3, values: vec![0, 1, 2] },
            KeyLoad { key: 7, ops: 2, values: vec![0, 1] },
        ];
        assert!(r.values_are_sequential_per_key());
        let s = r.render();
        assert!(s.contains("per-key goodput"));
        assert!(s.contains("yes"));
        r.per_key[1].values = vec![0, 2];
        assert!(!r.values_are_sequential_per_key(), "a gap on one key fails the run");
        assert!(r.render().contains("NO"));
        r.per_key[1].values = vec![0, 0];
        assert!(!r.values_are_sequential_per_key(), "a duplicate on one key fails the run");
    }

    #[test]
    fn key_streams_are_reproducible_and_skewed() {
        let mix = KeyMix { keys: 8, s: 1.5, seed: 42 };
        let take = |conn| key_stream(&mix, conn).take(500).collect::<Vec<u64>>();
        let (a, b, c) = (take(0), take(0), take(1));
        assert_eq!(a, b, "same conn, same stream");
        assert_ne!(a, c, "different conns sample independently");
        assert!(a.iter().all(|&k| k < 8));
        let hot = a.iter().filter(|&&k| k == 0).count();
        assert!(hot > 100, "rank 0 dominates a 1.5-skewed stream: {hot}/500");
    }

    #[test]
    fn open_loop_reports_offered_and_achieved_separately() {
        let mut r = report(vec![10, 20], vec![0, 1]);
        r.offered_rate = Some(5000.0);
        assert!((r.throughput() - 20.0).abs() < 1e-6, "2 ops in 100 ms");
        let s = r.render();
        assert!(s.contains("offered rate"));
        assert!(s.contains("achieved rate"));
        assert!(!s.contains("throughput"), "replaced by the offered/achieved pair");
    }
}
