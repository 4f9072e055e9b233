//! Experiment E14 — linearizability under overlapping operations.
//!
//! The paper's model serializes operations; its related work cites
//! Herlihy-Shavit-Waarts, *Linearizable Counting Networks*, which shows
//! plain counting networks are **not** linearizable once operations
//! overlap. This experiment reproduces the classic stalled-token
//! execution with targeted (scripted) message delays and checks every
//! implementation's history with the fetch&increment history checker.

use distctr_analysis::Table;
use distctr_baselines::{CentralCounter, CountingNetworkCounter};
use distctr_sim::{
    check_fetch_inc_history, CompletedOp, DeliveryPolicy, OverlappedCounter, ProcessorId, SimTime,
    TraceMode,
};

fn stalled_schedule<C: OverlappedCounter>(counter: &mut C) -> Vec<CompletedOp> {
    let t = SimTime::from_ticks;
    counter.start_inc(ProcessorId::new(0)).expect("T1");
    counter.advance_until(t(50)).expect("advance");
    counter.start_inc(ProcessorId::new(1)).expect("T2");
    counter.advance_until(t(70)).expect("advance");
    counter.start_inc(ProcessorId::new(2)).expect("T3");
    counter.finish_all().expect("drain")
}

/// E14 — the stalled-token schedule against the overlappable counters.
#[must_use]
pub fn e14_linearizability() -> String {
    let mut out = String::new();
    out.push_str(
        "E14. Linearizability under overlapping ops (stalled-token schedule,\n     scripted delays: T1's second hop takes 100 ticks)\n\n",
    );
    let mut table = Table::new(vec![
        "implementation",
        "history (start..end = value)",
        "gap-free",
        "linearizable",
    ]);

    let mut render = |name: &str, completed: Vec<CompletedOp>| {
        let history = completed
            .iter()
            .map(|c| format!("{}..{}={}", c.started_at.ticks(), c.completed_at.ticks(), c.value))
            .collect::<Vec<_>>()
            .join("  ");
        let records: Vec<_> = completed.iter().map(|c| c.to_record()).collect();
        let verdict = check_fetch_inc_history(&records);
        let linearizable = match verdict.violations.first() {
            None => "yes".to_string(),
            Some(v) => {
                format!(
                    "NO ({} before {} yet larger value)",
                    completed[v.floor].op, completed[v.op].op
                )
            }
        };
        table.row(vec![
            name.to_string(),
            history,
            if verdict.gap_free() { "yes".into() } else { "NO".to_string() },
            linearizable,
        ]);
    };

    {
        let mut c = CountingNetworkCounter::with_policy(
            4,
            2,
            TraceMode::Contacts,
            DeliveryPolicy::scripted([1, 100]),
        )
        .expect("counting network");
        render("counting-net[w=2]", stalled_schedule(&mut c));
    }
    {
        let mut c =
            CentralCounter::with_policy(4, TraceMode::Contacts, DeliveryPolicy::scripted([1, 100]))
                .expect("central");
        render("central", stalled_schedule(&mut c));
    }
    out.push_str(&table.render());
    out.push_str(
        "\n(counting networks are quiescently consistent but not linearizable —\n the distinction Herlihy-Shavit-Waarts formalize; the paper's sequential\n model sidesteps it by never overlapping operations)\n\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_shows_the_separation() {
        let report = e14_linearizability();
        // The counting network row must show the violation; central must
        // not; both stay gap-free.
        let net_line = report.lines().find(|l| l.starts_with("counting-net")).expect("row");
        assert!(net_line.contains("NO ("), "violation reported: {net_line}");
        let central_line = report.lines().find(|l| l.starts_with("central")).expect("row");
        assert!(central_line.trim_end().ends_with("yes"), "central linearizable: {central_line}");
        assert!(!report.contains("gap-free  NO"));
    }
}
