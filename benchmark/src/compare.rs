//! `distbench compare A.json B.json`: is B worse than A, cell by cell?

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{self, Better};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's value or B's is looser than the bound: the cell cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// `b / a`: the base is A's median.
    pub ratio: f64,
    pub bound: f64,
    /// How loosely each run's own samples pin its value down
    /// ([`crate::stats::Cell::looseness`]).
    pub looseness_a: f64,
    pub looseness_b: f64,
    pub verdict: Verdict,
}

/// The verdict on one cell. `looseness` is the looser of the two runs: a
/// run in which the host never let the floor show reads slow, and only its
/// own trials can say so.
pub fn judge(a: f64, b: f64, better: Better, bound: f64, looseness: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if looseness > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The per-workload documents of a result file: a set (`workloads`) or a
/// single workload's document.
fn workloads(doc: &Json) -> Result<BTreeMap<String, &Json>, String> {
    if let Some(set) = doc.get("workloads").and_then(Json::as_obj) {
        return Ok(set.iter().map(|(k, v)| (k.clone(), v)).collect());
    }
    let name = doc.get("workload").and_then(Json::as_str).ok_or("not a distbench result")?;
    Ok(BTreeMap::from([(name.to_string(), doc)]))
}

fn field(metric: &Json, key: &str) -> Result<f64, String> {
    metric.get(key).and_then(Json::as_f64).ok_or(format!("a metric has no {key}"))
}

/// One row per workload × end-to-end metric present in both files.
///
/// # Errors
///
/// A file that is not a result, or a workload of A that B lacks.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let (a, b) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (workload, doc_a) in &a {
        let doc_b = b.get(workload).ok_or(format!("B has no workload {workload}"))?;
        for m in &metrics::END_TO_END {
            let cell = |doc: &Json| doc.get("metrics").and_then(|ms| ms.get(m.name)).cloned();
            let (Some(ma), Some(mb)) = (cell(doc_a), cell(doc_b)) else {
                return Err(format!("{workload} lacks {} in one file", m.name));
            };
            let (va, vb) = (field(&ma, "value")?, field(&mb, "value")?);
            let (looseness_a, looseness_b) = (field(&ma, "looseness")?, field(&mb, "looseness")?);
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.to_string(),
                unit: m.unit.to_string(),
                a: va,
                b: vb,
                ratio: vb / va,
                bound: m.bound,
                looseness_a,
                looseness_b,
                verdict: judge(va, vb, m.better, m.bound, looseness_a.max(looseness_b)),
            });
        }
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<20} {:>14} {:>14} {:<6} {:>10} {:>7} {:>8} {:>8}  verdict\n",
        "workload", "metric", "A (base)", "B", "unit", "B/A", "bound", "A loose", "B loose"
    );
    for r in rows {
        out += &format!(
            "{:<14} {:<20} {:>14.4} {:>14.4} {:<6} {:>10.4} {:>6.1}% {:>7.1}% {:>7.1}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.unit,
            r.ratio,
            r.bound * 100.0,
            r.looseness_a * 100.0,
            r.looseness_b * 100.0,
            r.verdict.as_str()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    out += &format!(
        "{} cells: {} ok, {} worse, {} unresolved\n",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    out
}
