//! Replayable schedules: the serialized form of a counterexample.
//!
//! A [`Schedule`] is the list of choices (deliveries by message
//! sequence number, crashes by processor) the checker made along one
//! trace. Sequence numbers are assigned deterministically in emission
//! order, so replaying the choices against a fresh [`World`] of the
//! same [`CheckConfig`] reconstructs the same trace — and a *subset* of
//! the choices still replays meaningfully: infeasible choices are
//! skipped and the tail is drained oldest-message-first, which is what
//! makes delta-debugging minimization (the checker's
//! [`Violation::minimized`](crate::Violation::minimized)) work.

use crate::config::CheckConfig;
use crate::invariants::{default_invariants, Invariant};
use crate::world::{Quiescence, World};

/// A transition key: stable identity of one branch choice. Carries the
/// destination so independence is decidable without the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum TransKey {
    /// Deliver in-flight message `seq` (addressed to processor `to`).
    Deliver { seq: u64, to: usize },
    /// Crash processor `p`.
    Crash { p: usize },
}

impl TransKey {
    /// Two transitions commute iff neither touches the other's
    /// processor: deliveries to distinct destinations are independent;
    /// a crash is conservatively dependent with everything.
    pub(crate) fn independent(self, other: TransKey) -> bool {
        match (self, other) {
            (TransKey::Deliver { to: a, .. }, TransKey::Deliver { to: b, .. }) => a != b,
            _ => false,
        }
    }

    pub(crate) fn to_choice(self) -> Choice {
        match self {
            TransKey::Deliver { seq, .. } => Choice::Deliver(seq),
            TransKey::Crash { p } => Choice::Crash(p),
        }
    }
}

/// One serialized schedule step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Deliver the in-flight message with this sequence number.
    Deliver(u64),
    /// Crash this processor.
    Crash(usize),
}

/// A replayable delivery/crash schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    /// The choices, in order.
    pub choices: Vec<Choice>,
}

impl Schedule {
    /// Builds a schedule from choices.
    #[must_use]
    pub fn new(choices: Vec<Choice>) -> Self {
        Schedule { choices }
    }

    /// Serializes as a compact single line: `d<seq>` per delivery,
    /// `c<p>` per crash, space-separated (e.g. `"d0 d2 c5 d3"`).
    #[must_use]
    pub fn serialize(&self) -> String {
        self.choices
            .iter()
            .map(|c| match c {
                Choice::Deliver(seq) => format!("d{seq}"),
                Choice::Crash(p) => format!("c{p}"),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Parses the [`Schedule::serialize`] format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut choices = Vec::new();
        for tok in s.split_whitespace() {
            let (kind, num) = tok.split_at(1);
            let parse_u64 =
                |n: &str| n.parse::<u64>().map_err(|e| format!("bad schedule token {tok:?}: {e}"));
            match kind {
                "d" => choices.push(Choice::Deliver(parse_u64(num)?)),
                "c" => choices.push(Choice::Crash(
                    usize::try_from(parse_u64(num)?).map_err(|e| format!("{tok:?}: {e}"))?,
                )),
                _ => return Err(format!("bad schedule token {tok:?}: expected d<seq> or c<p>")),
            }
        }
        Ok(Schedule { choices })
    }

    /// Renders a ready-to-paste `#[test]` that replays this schedule
    /// against `cfg` and asserts the violation reproduces.
    #[must_use]
    pub fn to_test_snippet(&self, cfg: &CheckConfig, invariant: &str) -> String {
        format!(
            r#"#[test]
fn replays_minimized_counterexample() {{
    use distctr_check::{{replay, CheckConfig, Mutation, Schedule}};
    use distctr_core::engine::EngineConfig;
    use distctr_core::protocol::PoolPolicy;
    let cfg = {};
    let schedule = Schedule::parse("{}").expect("well-formed schedule");
    let outcome = replay(&cfg, &schedule);
    let violation = outcome.violation.expect("the counterexample must reproduce");
    assert_eq!(violation.invariant, "{}");
}}
"#,
            cfg.to_builder_code(),
            self.serialize(),
            invariant,
        )
    }
}

/// What a [`replay`] observed.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The invariant violation hit (name + detail), if any.
    pub violation: Option<ReplayViolation>,
    /// Schedule choices that were infeasible at replay time (already
    /// delivered, never sent, or already crashed) and were skipped.
    pub skipped: usize,
    /// Deliveries performed in total (scheduled + drain tail).
    pub deliveries: u64,
    /// State fingerprint at the end of the replay.
    pub fingerprint: u64,
    /// The response values of the completed operations, in op order.
    pub values: Vec<Option<u64>>,
    /// Retirements that occurred along the replay (audited).
    pub retirements: u64,
}

/// A violation reproduced by a replay.
#[derive(Debug, Clone)]
pub struct ReplayViolation {
    /// The violated invariant's name.
    pub invariant: String,
    /// Human-readable details.
    pub detail: String,
}

/// Replays `schedule` against a fresh world of `cfg` under the default
/// invariant set and reports what happened. Infeasible choices are
/// skipped; after the last choice the world is drained
/// oldest-message-first to final quiescence, where the invariants are
/// evaluated (they are also evaluated at any final quiescence reached
/// mid-schedule).
#[must_use]
pub fn replay(cfg: &CheckConfig, schedule: &Schedule) -> ReplayOutcome {
    replay_with(cfg, schedule, &default_invariants())
}

/// [`replay`] with an explicit invariant set.
#[must_use]
pub fn replay_with(
    cfg: &CheckConfig,
    schedule: &Schedule,
    invariants: &[Box<dyn Invariant>],
) -> ReplayOutcome {
    let mut world = World::new(cfg);
    let mut skipped = 0usize;
    let mut violation = None;

    let check = |world: &World, violation: &mut Option<ReplayViolation>| {
        if violation.is_none() {
            for inv in invariants {
                if let Err(detail) = inv.check(world) {
                    *violation =
                        Some(ReplayViolation { invariant: inv.name().to_string(), detail });
                    break;
                }
            }
        }
    };

    'choices: for &choice in &schedule.choices {
        // Resolve any quiescence first, so scheduled seqs of
        // watchdog/sequential injections exist when their turn comes.
        // Invariants are evaluated at every quiescent state, as in the
        // search itself.
        while world.is_quiescent() {
            check(&world, &mut violation);
            if violation.is_some() {
                break 'choices;
            }
            match world.on_quiescence() {
                Quiescence::Continued => {}
                Quiescence::Final => break 'choices,
            }
        }
        let key = match choice {
            Choice::Deliver(seq) => {
                // Destination is irrelevant for execution feasibility.
                crate::schedule::TransKey::Deliver { seq, to: 0 }
            }
            Choice::Crash(p) => crate::schedule::TransKey::Crash { p },
        };
        if !world.execute(key) {
            skipped += 1;
        }
    }

    // Drain deterministically to final quiescence, checking at every
    // quiescent state along the way.
    if violation.is_none() {
        loop {
            while !world.is_quiescent() {
                world.deliver_oldest();
            }
            check(&world, &mut violation);
            if violation.is_some() {
                break;
            }
            match world.on_quiescence() {
                Quiescence::Continued => {}
                Quiescence::Final => break,
            }
        }
    }

    ReplayOutcome {
        violation,
        skipped,
        deliveries: world.deliveries(),
        fingerprint: world.fingerprint(),
        values: world.ops().iter().map(|o| o.value).collect(),
        retirements: world.retirements(),
    }
}
