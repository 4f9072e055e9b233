//! Per-processor message-load accounting.
//!
//! The paper's central quantity: `m_p`, the number of messages processor
//! `p` sends **or** receives during an operation sequence, and the
//! *bottleneck processor* `b` with `m_b = max_p m_p`. The tracker counts
//! every scheduled send and every delivery exactly once.

use std::fmt;

use crate::id::ProcessorId;

/// Five-number-plus summary of a load distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSummary {
    /// Mean load.
    pub mean: f64,
    /// Median load.
    pub p50: u64,
    /// 90th-percentile load.
    pub p90: u64,
    /// 99th-percentile load.
    pub p99: u64,
    /// Maximum load (the bottleneck).
    pub max: u64,
    /// Load imbalance `max / mean` (0.0 when no traffic).
    pub imbalance: f64,
    /// Gini coefficient of the distribution.
    pub gini: f64,
}

impl std::fmt::Display for LoadSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean {:.1}, p50 {}, p90 {}, p99 {}, max {}, imbalance {:.2}, gini {:.3}",
            self.mean, self.p50, self.p90, self.p99, self.max, self.imbalance, self.gini
        )
    }
}

/// Running message loads for every processor in a network.
///
/// A processor's load is one counter, `m_p`, which its sends and its
/// receives both advance; only the network-wide send count is kept apart,
/// for [`LoadTracker::total_messages`].
///
/// # Examples
///
/// ```
/// use distctr_sim::{LoadTracker, ProcessorId};
/// let mut loads = LoadTracker::new(3);
/// loads.record_send(ProcessorId::new(0));
/// loads.record_receive(ProcessorId::new(1));
/// assert_eq!(loads.load_of(ProcessorId::new(0)), 1);
/// assert_eq!(loads.max_load(), 1);
/// assert_eq!(loads.total_messages(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadTracker {
    /// `m_p`, messages sent plus received, per processor.
    loads: Vec<u64>,
    /// Messages sent by all processors.
    sent: u64,
}

impl LoadTracker {
    /// Creates a tracker for `processors` processors, all loads zero.
    #[must_use]
    pub fn new(processors: usize) -> Self {
        LoadTracker { loads: vec![0; processors], sent: 0 }
    }

    /// Number of processors tracked.
    #[must_use]
    pub fn processors(&self) -> usize {
        self.loads.len()
    }

    /// Records one message sent by `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn record_send(&mut self, p: ProcessorId) {
        self.loads[p.index()] += 1;
        self.sent += 1;
    }

    /// Records one message received by `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn record_receive(&mut self, p: ProcessorId) {
        self.loads[p.index()] += 1;
    }

    /// The paper's message load `m_p = sent + received`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn load_of(&self, p: ProcessorId) -> u64 {
        self.loads[p.index()]
    }

    /// Iterator over `(processor, load)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessorId, u64)> + '_ {
        self.loads.iter().enumerate().map(|(i, &load)| (ProcessorId::new(i), load))
    }

    /// Load vector indexed by processor.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u64> {
        self.loads.clone()
    }

    /// The bottleneck load `m_b = max_p m_p` (0 for an empty tracker).
    #[must_use]
    pub fn max_load(&self) -> u64 {
        self.iter().map(|(_, l)| l).max().unwrap_or(0)
    }

    /// The bottleneck processor: the smallest-index processor attaining
    /// [`LoadTracker::max_load`]. `None` for an empty tracker.
    #[must_use]
    pub fn bottleneck(&self) -> Option<(ProcessorId, u64)> {
        self.iter().max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// Total messages exchanged so far. Every message is counted once
    /// (sends are counted; each send is eventually received).
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.sent
    }

    /// Average load `2 * total / n`: each message contributes to two
    /// processors' loads. Returns 0.0 for an empty tracker.
    #[must_use]
    pub fn average_load(&self) -> f64 {
        if self.processors() == 0 {
            return 0.0;
        }
        let total: u64 = self.loads.iter().sum();
        total as f64 / self.processors() as f64
    }

    /// Load imbalance `max / avg` — 1.0 for perfectly spread load, `n/2`
    /// for a single hot processor handling everything. Returns 0.0 when
    /// no messages have been exchanged.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let avg = self.average_load();
        if avg == 0.0 {
            0.0
        } else {
            self.max_load() as f64 / avg
        }
    }

    /// The Gini coefficient of the load distribution: 0.0 = perfectly
    /// equal, approaching 1.0 as all load concentrates on one processor.
    /// The scalar the paper's "degree of distribution" intuition asks
    /// for.
    #[must_use]
    pub fn gini(&self) -> f64 {
        let mut loads: Vec<u64> = self.to_vec();
        loads.sort_unstable();
        let n = loads.len() as f64;
        let total: u64 = loads.iter().sum();
        if n == 0.0 || total == 0 {
            return 0.0;
        }
        // Gini = (2 * Σ i*x_i) / (n * Σ x_i) - (n + 1) / n, 1-based ranks.
        let weighted: f64 =
            loads.iter().enumerate().map(|(i, &x)| (i as f64 + 1.0) * x as f64).sum();
        (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n
    }

    /// Summarizes the current load distribution.
    #[must_use]
    pub fn summary(&self) -> LoadSummary {
        let mut loads = self.to_vec();
        loads.sort_unstable();
        let pct = |q: f64| -> u64 {
            if loads.is_empty() {
                0
            } else {
                let rank = (q * (loads.len() - 1) as f64).round() as usize;
                loads[rank.min(loads.len() - 1)]
            }
        };
        LoadSummary {
            mean: self.average_load(),
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            max: self.max_load(),
            imbalance: self.imbalance(),
            gini: self.gini(),
        }
    }

    /// Resets every counter to zero, keeping the processor count.
    pub fn reset(&mut self) {
        self.loads.fill(0);
        self.sent = 0;
    }

    /// Element-wise difference `self - earlier`, used to isolate the load
    /// contributed by a span of operations.
    ///
    /// # Panics
    ///
    /// Panics if the trackers have different sizes or `earlier` exceeds
    /// `self` anywhere (i.e. it is not actually an earlier snapshot).
    #[must_use]
    pub fn delta_since(&self, earlier: &LoadTracker) -> LoadTracker {
        assert_eq!(
            self.processors(),
            earlier.processors(),
            "snapshots must cover the same network"
        );
        let diff = |x: u64, y: u64| x.checked_sub(y).expect("snapshot is not earlier");
        LoadTracker {
            loads: self.loads.iter().zip(&earlier.loads).map(|(&l, &l0)| diff(l, l0)).collect(),
            sent: diff(self.sent, earlier.sent),
        }
    }
}

impl fmt::Display for LoadTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (b, m) = self.bottleneck().map_or((ProcessorId::new(0), 0), |x| x);
        write!(
            f,
            "loads(n={}, total_msgs={}, bottleneck={b}:{m}, avg={:.2})",
            self.processors(),
            self.total_messages(),
            self.average_load()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    #[test]
    fn sends_and_receives_both_load_a_processor_and_only_sends_count_as_messages() {
        let mut t = LoadTracker::new(3);
        t.record_send(p(0));
        t.record_send(p(0));
        t.record_receive(p(1));
        t.record_receive(p(0));
        assert_eq!((t.load_of(p(0)), t.load_of(p(1)), t.load_of(p(2))), (3, 1, 0));
        assert_eq!(t.total_messages(), 2, "a receive is the other end of a counted send");
        assert_eq!(t.to_vec(), [3, 1, 0]);
    }

    #[test]
    fn bottleneck_picks_max_then_smallest_index() {
        let mut t = LoadTracker::new(3);
        t.record_send(p(1));
        t.record_send(p(2));
        assert_eq!(t.bottleneck(), Some((p(1), 1)), "tie broken toward smaller index");
        t.record_receive(p(2));
        assert_eq!(t.bottleneck(), Some((p(2), 2)));
        assert_eq!(t.max_load(), 2);
    }

    #[test]
    fn totals_and_average() {
        let mut t = LoadTracker::new(4);
        // Two complete messages: 0->1, 2->3.
        t.record_send(p(0));
        t.record_receive(p(1));
        t.record_send(p(2));
        t.record_receive(p(3));
        assert_eq!(t.total_messages(), 2);
        // Each message adds 2 load units; 4 units over 4 processors.
        assert!((t.average_load() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delta_since_isolates_a_span() {
        let mut t = LoadTracker::new(2);
        t.record_send(p(0));
        let snap = t.clone();
        t.record_send(p(0));
        t.record_receive(p(1));
        let d = t.delta_since(&snap);
        assert_eq!(d.load_of(p(0)), 1);
        assert_eq!(d.load_of(p(1)), 1);
        assert_eq!(d.total_messages(), 1, "the span's one send");
    }

    #[test]
    #[should_panic(expected = "not earlier")]
    fn delta_since_rejects_later_snapshot() {
        let t = LoadTracker::new(1);
        let mut later = t.clone();
        later.record_send(p(0));
        let _ = t.delta_since(&later);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut t = LoadTracker::new(2);
        t.record_send(p(0));
        t.record_receive(p(1));
        t.reset();
        assert_eq!(t.max_load(), 0);
        assert_eq!(t.total_messages(), 0);
        assert_eq!(t.processors(), 2);
    }

    #[test]
    fn empty_tracker_degenerate_cases() {
        let t = LoadTracker::new(0);
        assert_eq!(t.max_load(), 0);
        assert_eq!(t.bottleneck(), None);
        assert_eq!(t.average_load(), 0.0);
    }

    #[test]
    fn imbalance_and_gini_extremes() {
        // Perfectly equal: each of 4 processors sends and receives once.
        let mut even = LoadTracker::new(4);
        for i in 0..4 {
            even.record_send(p(i));
            even.record_receive(p(i));
        }
        assert!((even.imbalance() - 1.0).abs() < 1e-12);
        assert!(even.gini().abs() < 1e-12);

        // Fully concentrated: one processor does everything.
        let mut hot = LoadTracker::new(4);
        for _ in 0..10 {
            hot.record_send(p(0));
            hot.record_receive(p(0));
        }
        assert!((hot.imbalance() - 4.0).abs() < 1e-12, "max/avg = n for one hot spot");
        assert!((hot.gini() - 0.75).abs() < 1e-12, "gini = (n-1)/n");

        // Empty tracker.
        let empty = LoadTracker::new(3);
        assert_eq!(empty.imbalance(), 0.0);
        assert_eq!(empty.gini(), 0.0);
    }

    #[test]
    fn gini_orders_known_distributions() {
        let make = |loads: &[u64]| {
            let mut t = LoadTracker::new(loads.len());
            for (i, &l) in loads.iter().enumerate() {
                for _ in 0..l {
                    t.record_send(p(i));
                }
            }
            t
        };
        let flat = make(&[5, 5, 5, 5]);
        let mild = make(&[2, 4, 6, 8]);
        let steep = make(&[1, 1, 1, 17]);
        assert!(flat.gini() < mild.gini());
        assert!(mild.gini() < steep.gini());
    }

    #[test]
    fn summary_percentiles_and_display() {
        let mut t = LoadTracker::new(10);
        // Loads 0..9 via sends.
        for i in 0..10 {
            for _ in 0..i {
                t.record_send(p(i));
            }
        }
        let s = t.summary();
        assert_eq!(s.max, 9);
        assert!((4..=5).contains(&s.p50), "median of 0..9: {}", s.p50);
        assert_eq!(s.p99, 9);
        assert!((s.mean - 4.5).abs() < 1e-12);
        assert!(s.imbalance > 1.9 && s.imbalance < 2.1);
        let text = s.to_string();
        assert!(text.contains("max 9") && text.contains("gini"));
        // Empty tracker summary is all zeros.
        let empty = LoadTracker::new(0).summary();
        assert_eq!(empty.max, 0);
        assert_eq!(empty.p50, 0);
    }

    #[test]
    fn display_mentions_bottleneck() {
        let mut t = LoadTracker::new(2);
        t.record_send(p(1));
        let s = t.to_string();
        assert!(s.contains("P1"), "display shows bottleneck processor: {s}");
    }
}
