//! The experiment table: one row per experiment id, and nothing about
//! an experiment lives anywhere else — the `report` binary only parses,
//! selects, prints, writes and exits.
//!
//! A row carries, per size, the arguments its experiment function
//! takes. Rows marked [`Experiment::repeats`] are pure functions of
//! [`crate::REPORT_SEED`]: the paper's message counts, lemma audits and
//! figures, byte-identical on every run — `tests/determinism.rs` runs
//! each of them twice. The other six put a real serving path or real
//! threads under load; CI runs each at its smoke size, and each returns
//! a `BENCH_*.json` artifact and an [`Outcome::gate`] verdict. A row is
//! one or the other: `report` prints no number that is neither a count
//! that repeats nor gated.

use crate::{
    exp_ablation, exp_arrow, exp_async, exp_batching, exp_bottleneck, exp_bound, exp_chaos,
    exp_concurrent, exp_hotspot, exp_keyspace, exp_lemmas, exp_linearizable, exp_scale, exp_shm,
    figures,
};

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// `--smoke`: the CI gate size of a gated experiment.
    Smoke,
    /// `--quick`: small enough for every row to finish in seconds.
    Quick,
    /// The size `EXPERIMENTS.md` records.
    Full,
}

impl Size {
    /// The flag's name, as the report header prints it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Size::Smoke => "smoke",
            Size::Quick => "quick",
            Size::Full => "full",
        }
    }

    /// A two-size row's argument: `full` at full size, else `quick`.
    fn of<T>(self, quick: T, full: T) -> T {
        if self == Size::Full {
            full
        } else {
            quick
        }
    }
}

/// What one experiment run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The rendered report section.
    pub text: String,
    /// The `BENCH_*.json` artifact this run regenerates, `(file name,
    /// contents)`; `report` writes it to the working directory after a
    /// full-size run only.
    pub bench_file: Option<(&'static str, String)>,
    /// The regression verdict; `Err` carries what failed.
    pub gate: Result<(), String>,
}

impl Outcome {
    /// An ungated, text-only outcome.
    #[must_use]
    pub fn text(text: String) -> Self {
        Outcome { text, bench_file: None, gate: Ok(()) }
    }
}

/// A gate's verdict from the claims it found broken, one per line.
pub(crate) fn verdict(broken: impl IntoIterator<Item = String>) -> Result<(), String> {
    let broken: Vec<String> = broken.into_iter().collect();
    if broken.is_empty() {
        Ok(())
    } else {
        Err(broken.join("\n"))
    }
}

/// One row of the experiment table.
#[derive(Debug)]
pub struct Experiment {
    /// The id `report` selects by (case-insensitive).
    pub id: &'static str,
    /// A second name the row answers to, if any.
    pub alias: Option<&'static str>,
    /// Whether the output is a pure function of the seed.
    pub repeats: bool,
    /// Whether the row has a [`Size::Smoke`] (every row has the other
    /// two).
    pub smoke: bool,
    /// Runs the experiment at a size the row has.
    pub run: fn(Size) -> Outcome,
}

impl Experiment {
    /// Whether `name` selects this row.
    #[must_use]
    pub fn answers_to(&self, name: &str) -> bool {
        self.id.eq_ignore_ascii_case(name)
            || self.alias.is_some_and(|a| a.eq_ignore_ascii_case(name))
    }
}

/// The processor counts E2 sweeps (also what `report --csv` exports).
#[must_use]
pub fn e2_sizes(size: Size) -> &'static [usize] {
    if size == Size::Full {
        &[8, 81, 1024]
    } else {
        &[8, 81]
    }
}

fn lemma_orders(size: Size) -> &'static [u32] {
    if size == Size::Full {
        &[2, 3, 4]
    } else {
        &[2, 3]
    }
}

/// A seed-determined row of the paper's reproduction.
const fn paper(id: &'static str, run: fn(Size) -> Outcome) -> Experiment {
    Experiment { id, alias: None, repeats: true, smoke: false, run }
}

/// A row that puts real threads or sockets under load and that CI gates
/// on, with its `exp_*` module name as alias.
const fn gated(id: &'static str, alias: &'static str, run: fn(Size) -> Outcome) -> Experiment {
    Experiment { id, alias: Some(alias), repeats: false, smoke: true, run }
}

/// Every experiment `report` can run, in report order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        alias: Some("f2"),
        ..paper("f1", |_| Outcome::text(figures::figure_1_and_2(81, 40)))
    },
    paper("f3", |_| Outcome::text(figures::figure_3(8, 3))),
    paper("f4", |_| Outcome::text(figures::figure_4(3))),
    paper("e1", |s| {
        let (n, sample) = s.of((8, None), (81, Some(8)));
        Outcome::text(exp_bound::e1_adversarial_lower_bound(n, sample))
    }),
    paper("e2", |s| {
        Outcome::text(format!(
            "{}\n{}",
            exp_bottleneck::e2_bottleneck_vs_n(e2_sizes(s)),
            exp_bottleneck::e2_load_histograms(s.of(81, 1024))
        ))
    }),
    paper("e3", |s| Outcome::text(exp_lemmas::e3_retirements_per_level(lemma_orders(s)))),
    paper("e4", |s| Outcome::text(exp_lemmas::e4_per_op_lemmas(lemma_orders(s)))),
    paper("e5", |s| Outcome::text(exp_lemmas::e5_work_lemmas(lemma_orders(s)))),
    paper("e6", |s| Outcome::text(exp_hotspot::e6_hot_spot(s.of(8, 81)))),
    paper("e7", |s| Outcome::text(exp_bound::e7_weight_audit(s.of(8, 81)))),
    paper("e8", |s| Outcome::text(exp_bottleneck::e8_message_complexity(s.of(81, 1024)))),
    paper("e9", |s| {
        let n = s.of(32, 64);
        Outcome::text(exp_concurrent::e9_concurrency(n, &[1, 8, n]))
    }),
    paper("e10", |_| Outcome::text(exp_hotspot::e10_quorums())),
    paper("e11", |s| Outcome::text(exp_ablation::e11_threshold_ablation(s.of(3, 4)))),
    paper("e12", |s| Outcome::text(exp_ablation::e12_skewed_workloads(s.of(3, 4)))),
    paper("e13", |s| Outcome::text(exp_ablation::e13_generalized_structures(s.of(3, 4)))),
    paper("e14", |_| Outcome::text(exp_linearizable::e14_linearizability())),
    paper("e15", |s| Outcome::text(exp_ablation::e15_multi_round(s.of(3, 4), 4))),
    paper("e17", |s| Outcome::text(exp_arrow::e17_arrow_topologies(s.of(32, 128)))),
    gated("e22", "exp_batching", exp_batching::e22),
    gated("e23", "exp_chaos", exp_chaos::e23),
    gated("e24", "exp_keyspace", exp_keyspace::e24),
    gated("e25", "exp_scale", exp_scale::e25),
    gated("e26", "exp_shm", exp_shm::e26),
    gated("e27", "exp_async", exp_async::e27),
];

/// The row `name` selects, by id or alias.
#[must_use]
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.answers_to(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_the_paper_rows_are_the_ones_that_repeat() {
        let mut names: Vec<&str> =
            EXPERIMENTS.iter().flat_map(|e| [Some(e.id), e.alias]).flatten().collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "an id or alias names two rows");
        assert_eq!(find("exp_scale").map(|e| e.id), Some("e25"));
        for record in ["e16", "e18", "e19", "e20", "e21"] {
            assert!(find(record).is_none(), "{record} is a record in EXPERIMENTS.md, not a row");
        }
        assert!(EXPERIMENTS.iter().all(|e| e.repeats != e.smoke), "a count that repeats or a gate");

        let ids = |keep: fn(&Experiment) -> bool| -> String {
            let ids: Vec<&str> = EXPERIMENTS.iter().filter(|e| keep(e)).map(|e| e.id).collect();
            ids.join(" ")
        };
        assert_eq!(
            ids(|e| e.repeats),
            "f1 f3 f4 e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 e17"
        );
        assert_eq!(ids(|e| e.smoke), "e22 e23 e24 e25 e26 e27");
    }
}
