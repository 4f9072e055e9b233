//! A concurrent-history recorder for fetch&increment objects, feeding
//! the simulator's history checker ([`check_fetch_inc_history`]).
//!
//! The shared-memory bake-off (`crates/shm`, experiment E26) runs
//! free-running OS threads against a counter backend and needs a
//! correctness verdict that does not depend on the scheduler: every
//! backend must hand out **exactly** the values `0..ops` (gap-free, no
//! duplicates), and — for the linearizable backends — must respect
//! real-time order: an operation that *starts* after another *returns*
//! must observe a larger value.
//!
//! The recorder is deliberately cheap and contention-free: each thread
//! records into its own [`ThreadHistory`] (a plain `Vec` it owns), with
//! timestamps in nanoseconds since one shared monotonic epoch so
//! cross-thread comparison is meaningful. Threads never synchronize
//! through the recorder, so the recorder cannot mask races in the
//! object under test.

use std::time::Instant;

use distctr_sim::{check_fetch_inc_history, FetchIncRecord, HistoryVerdict};

/// Per-thread event log. Owned by exactly one thread while recording;
/// hand it back to [`HistoryRecorder::check`] when the thread is done.
#[derive(Debug)]
pub struct ThreadHistory {
    epoch: Instant,
    records: Vec<FetchIncRecord<u64>>,
}

impl ThreadHistory {
    /// Marks an invocation; feed the returned instant to [`Self::ret`].
    #[must_use]
    pub fn invoke(&self) -> Instant {
        Instant::now()
    }

    /// Records a completed operation that returned `value`.
    pub fn ret(&mut self, invoked_at: Instant, value: u64) {
        let now = Instant::now();
        self.records.push(FetchIncRecord {
            started_at: saturating_ns(self.epoch, invoked_at),
            completed_at: saturating_ns(self.epoch, now),
            value,
        });
    }

    /// Number of operations recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no operations have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

fn saturating_ns(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Allocates per-thread histories sharing one epoch and checks the
/// merged result.
#[derive(Debug)]
pub struct HistoryRecorder {
    epoch: Instant,
}

impl HistoryRecorder {
    /// A fresh recorder; its construction instant is the shared epoch.
    #[must_use]
    pub fn new() -> Self {
        Self { epoch: Instant::now() }
    }

    /// A private log for one thread. Move it into the thread; collect
    /// it back (e.g. through the join handle) for [`Self::check`].
    #[must_use]
    pub fn thread(&self) -> ThreadHistory {
        ThreadHistory { epoch: self.epoch, records: Vec::new() }
    }

    /// Merges per-thread logs and renders the verdict.
    #[must_use]
    pub fn check(&self, histories: &[ThreadHistory]) -> HistoryVerdict {
        let records: Vec<FetchIncRecord<u64>> =
            histories.iter().flat_map(|h| h.records.iter().copied()).collect();
        check_fetch_inc_history(&records)
    }
}

impl Default for HistoryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distctr_sim::RealTimeViolation;

    fn ev(invoke_ns: u64, return_ns: u64, value: u64) -> FetchIncRecord<u64> {
        FetchIncRecord { started_at: invoke_ns, completed_at: return_ns, value }
    }

    #[test]
    fn a_sequential_history_is_linearizable_and_gap_free() {
        let v = check_fetch_inc_history(&[ev(0, 10, 0), ev(20, 30, 1), ev(40, 50, 2)]);
        assert_eq!(v.ops, 3);
        assert!(v.gap_free(), "{v:?}");
        assert!(v.linearizable(), "{v:?}");
    }

    #[test]
    fn overlapping_operations_may_return_in_either_order() {
        // Two overlapping ops: the later invocation returning the
        // smaller value is fine because neither happened-before the
        // other.
        let v = check_fetch_inc_history(&[ev(0, 100, 1), ev(10, 90, 0)]);
        assert!(v.linearizable(), "{v:?}");
    }

    #[test]
    fn a_real_time_violation_is_reported_with_its_floor() {
        // Op returning 5 completed at t=10; an op invoked at t=20 then
        // returned 3 < 5: quiescently consistent, not linearizable.
        // Every later op is below that floor too.
        let h = [
            ev(0, 10, 5),
            ev(20, 30, 3),
            ev(40, 50, 0),
            ev(60, 70, 1),
            ev(80, 90, 2),
            ev(100, 110, 4),
        ];
        let v = check_fetch_inc_history(&h);
        assert!(v.gap_free(), "{v:?}");
        assert!(!v.linearizable());
        let below: Vec<RealTimeViolation> =
            (1..6).map(|op| RealTimeViolation { op, floor: 0 }).collect();
        assert_eq!(v.violations, below);
    }

    #[test]
    fn gaps_and_duplicates_are_both_reported() {
        let v = check_fetch_inc_history(&[ev(0, 10, 0), ev(20, 30, 0), ev(40, 50, 7)]);
        assert!(!v.gap_free());
        assert_eq!(v.duplicates, vec![0], "0 twice");
        assert_eq!(v.missing, vec![1, 2], "values 1 and 2 never returned");
    }

    #[test]
    fn the_recorder_merges_per_thread_logs_against_one_epoch() {
        let rec = HistoryRecorder::new();
        let mut a = rec.thread();
        let mut b = rec.thread();
        let t = a.invoke();
        a.ret(t, 0);
        let t = b.invoke();
        b.ret(t, 1);
        let t = a.invoke();
        a.ret(t, 2);
        assert_eq!(a.len(), 2);
        assert!(!b.is_empty());
        let v = rec.check(&[a, b]);
        assert_eq!(v.ops, 3);
        assert!(v.linearizable(), "{v:?}");
    }

    #[test]
    fn the_empty_history_is_trivially_linearizable() {
        let v = check_fetch_inc_history::<u64>(&[]);
        assert_eq!(v.ops, 0);
        assert!(v.linearizable());
    }
}
