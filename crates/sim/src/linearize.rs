//! The fetch&increment history checker: one verdict for every counter
//! history the workspace records.
//!
//! The paper's model serializes operations, where linearizability is
//! automatic. Under *overlapping* operations the implementations differ:
//! a centralized counter is linearizable, while counting networks are
//! only **quiescently consistent** — a famous observation formalized in
//! Herlihy-Shavit-Waarts, *Linearizable Counting Networks* (cited by the
//! paper). The verdict therefore has two halves:
//!
//! * the **multiset** half, required of every counter after quiescence:
//!   the values are exactly `0..ops`, each once;
//! * the **real-time** half, required of linearizable counters: whenever
//!   operation A completes before operation B starts,
//!   `value(A) < value(B)`.
//!
//! For an increment-only counter handing out distinct values the general
//! Wing-Gong check collapses to that pairwise rule ("only if" is
//! immediate; "if" holds because ordering operations by value is then a
//! legal linearization: it extends the real-time partial order, and a
//! counter's sequential semantics is exactly "values in increasing
//! order"). The rule is decided in O(m log m) by a sweep over
//! invocation order that keeps the *floor*, the largest value among the
//! operations already returned: B breaks the rule iff its value is below
//! the floor at its invocation.
//!
//! The checker is generic over the timestamp: [`SimTime`] for the
//! simulator and the model checker, wall-clock nanoseconds (`u64`) for
//! the shared-memory bake-off's recorder.

use crate::time::SimTime;

/// One completed fetch&increment operation, as its caller saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchIncRecord<T = SimTime> {
    /// When it was initiated.
    pub started_at: T,
    /// When its value was delivered to the initiator.
    pub completed_at: T,
    /// The value it received.
    pub value: u64,
}

/// An operation that received a value below its floor: the floor op
/// completed before it started, yet got the larger value. Both are
/// indices into the checked slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealTimeViolation {
    /// The operation below its floor.
    pub op: usize,
    /// The already-completed operation with the largest value at `op`'s
    /// invocation.
    pub floor: usize,
}

/// The outcome of checking a fetch&increment history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryVerdict {
    /// Completed operations in the history.
    pub ops: usize,
    /// Values in `0..ops` that no operation received, ascending.
    pub missing: Vec<u64>,
    /// Values received by more than one operation, ascending.
    pub duplicates: Vec<u64>,
    /// One entry per operation below its floor, in invocation order.
    pub violations: Vec<RealTimeViolation>,
}

impl HistoryVerdict {
    /// Every value in `0..ops` received exactly once.
    #[must_use]
    pub fn gap_free(&self) -> bool {
        self.missing.is_empty() && self.duplicates.is_empty()
    }

    /// Gap-free **and** no real-time violation.
    #[must_use]
    pub fn linearizable(&self) -> bool {
        self.gap_free() && self.violations.is_empty()
    }
}

/// Checks a history of completed fetch&increment operations; `records`
/// is not reordered.
///
/// # Examples
///
/// ```
/// use distctr_sim::{check_fetch_inc_history, FetchIncRecord, SimTime};
/// let t = SimTime::from_ticks;
/// let history = [
///     FetchIncRecord { started_at: t(0), completed_at: t(5), value: 1 },
///     FetchIncRecord { started_at: t(6), completed_at: t(9), value: 0 },
/// ];
/// let verdict = check_fetch_inc_history(&history);
/// assert!(verdict.gap_free());
/// assert!(!verdict.linearizable(), "op 0 returned 1 before op 1 started and got 0");
/// assert_eq!((verdict.violations[0].op, verdict.violations[0].floor), (1, 0));
/// ```
#[must_use]
pub fn check_fetch_inc_history<T: Ord + Copy>(records: &[FetchIncRecord<T>]) -> HistoryVerdict {
    let (missing, duplicates) = value_multiset(records.iter().map(|r| r.value).collect());
    let mut by_start: Vec<usize> = (0..records.len()).collect();
    by_start.sort_by_key(|&i| records[i].started_at);
    let mut by_end: Vec<usize> = (0..records.len()).collect();
    by_end.sort_by_key(|&i| records[i].completed_at);

    let mut violations = Vec::new();
    let mut floor: Option<usize> = None;
    let mut returned = by_end.into_iter().peekable();
    for op in by_start {
        let started_at = records[op].started_at;
        while let Some(done) = returned.next_if(|&j| records[j].completed_at < started_at) {
            if floor.is_none_or(|f| records[done].value > records[f].value) {
                floor = Some(done);
            }
        }
        if let Some(floor) = floor.filter(|&f| records[op].value < records[f].value) {
            violations.push(RealTimeViolation { op, floor });
        }
    }
    HistoryVerdict { ops: records.len(), missing, duplicates, violations }
}

/// The multiset half of the verdict: the values of `0..values.len()`
/// that are absent, and the values present more than once, both
/// ascending. Together they are empty iff `values` is `0..len` in some
/// order — a value out of range forces a missing one.
#[must_use]
pub(crate) fn value_multiset(mut values: Vec<u64>) -> (Vec<u64>, Vec<u64>) {
    let ops = values.len() as u64;
    values.sort_unstable();
    let mut duplicates: Vec<u64> =
        values.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0]).collect();
    duplicates.dedup();
    values.dedup();
    let missing = (0..ops).filter(|v| values.binary_search(v).is_err()).collect();
    (missing, duplicates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(start: u64, end: u64, value: u64) -> FetchIncRecord {
        FetchIncRecord {
            started_at: SimTime::from_ticks(start),
            completed_at: SimTime::from_ticks(end),
            value,
        }
    }

    /// The rule by its definition, pair by pair: some op with a larger
    /// value completed before an op with a smaller value started.
    fn pairwise_violated(records: &[FetchIncRecord]) -> bool {
        records
            .iter()
            .any(|a| records.iter().any(|b| a.value > b.value && a.completed_at < b.started_at))
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let h = [rec(0, 5, 0), rec(6, 9, 1), rec(10, 12, 2)];
        assert!(check_fetch_inc_history(&h).linearizable());
    }

    #[test]
    fn overlapping_out_of_order_values_are_fine() {
        // A and B overlap; either value order is linearizable.
        let h = [rec(0, 10, 1), rec(2, 8, 0)];
        assert!(check_fetch_inc_history(&h).linearizable());
    }

    #[test]
    fn the_classic_violation_is_caught() {
        // A completes (value 1) before B starts; B gets value 0.
        let v = check_fetch_inc_history(&[rec(0, 5, 1), rec(10, 12, 0)]);
        assert!(v.gap_free());
        assert_eq!(v.violations, vec![RealTimeViolation { op: 1, floor: 0 }]);
    }

    #[test]
    fn empty_and_singleton_histories() {
        assert!(check_fetch_inc_history::<SimTime>(&[]).linearizable());
        let v = check_fetch_inc_history(&[rec(3, 4, 7)]);
        assert!(v.violations.is_empty());
        assert_eq!(v.missing, vec![0], "one op must get value 0");
    }

    #[test]
    fn duplicate_values_give_a_verdict_not_a_panic() {
        let v = check_fetch_inc_history(&[rec(0, 1, 5), rec(2, 3, 5)]);
        assert_eq!(v.duplicates, vec![5]);
        assert_eq!(v.missing, vec![0, 1]);
        assert!(v.violations.is_empty(), "equal values break no real-time order");
    }

    #[test]
    fn long_chain_with_one_violation_deep_inside() {
        let mut h: Vec<FetchIncRecord> = (0..20).map(|i| rec(i * 10, i * 10 + 5, i)).collect();
        // Swap values of ops 7 and 12 (non-overlapping): ops 8..=12 all
        // start after op 7 returned 12, and got less.
        h[7].value = 12;
        h[12].value = 7;
        let v = check_fetch_inc_history(&h);
        assert!(v.gap_free());
        let below: Vec<usize> = v.violations.iter().map(|x| x.op).collect();
        assert_eq!(below, vec![8, 9, 10, 11, 12]);
        assert!(v.violations.iter().all(|x| x.floor == 7));
    }

    proptest! {
        #[test]
        fn the_sweep_agrees_with_the_pairwise_rule(
            ops in prop::collection::vec(0u64..12 * 6 * 8, 0..10),
        ) {
            // Each draw is a start in 0..12, a length in 0..6 and a value
            // in 0..8: small ranges make overlaps, gaps and duplicate
            // values common.
            let h: Vec<FetchIncRecord> =
                ops.iter().map(|&x| rec(x % 12, x % 12 + x / 12 % 6, x / 72)).collect();
            let v = check_fetch_inc_history(&h);
            prop_assert_eq!(v.violations.is_empty(), !pairwise_violated(&h));
            for x in &v.violations {
                prop_assert!(h[x.floor].completed_at < h[x.op].started_at);
                prop_assert!(h[x.floor].value > h[x.op].value);
            }
            let mut values: Vec<u64> = h.iter().map(|r| r.value).collect();
            values.sort_unstable();
            prop_assert_eq!(v.gap_free(), values.iter().copied().eq(0..h.len() as u64));
        }
    }
}
