//! Spans recorded from the benchmark's own files, around the calls into
//! the system under test. Counts are kept for every op; spans are kept in
//! memory for every 64th op and written out when the run ends.

use std::fs;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Every `SAMPLE_EVERY`-th op keeps its spans.
pub const SAMPLE_EVERY: u64 = 64;

/// Where trace files go, relative to the directory the benchmark is run from.
pub const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: Option<u64>,
}

/// Generator self-times and counts, for all ops of a traced window.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenCounts {
    pub encode_ns: u64,
    pub write_ns: u64,
    pub wait_ns: u64,
    pub read_ns: u64,
    pub decode_ns: u64,
    pub frames_sent: u64,
    pub writes: u64,
    pub frames_received: u64,
    pub reads: u64,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    ops_seen: u64,
    pub counts: GenCounts,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            ops_seen: 0,
            counts: GenCounts::default(),
        }
    }

    /// Counts one op; `Some(op id)` when this op keeps its spans.
    pub fn next_op(&mut self) -> Option<u64> {
        let id = self.ops_seen;
        self.ops_seen += 1;
        id.is_multiple_of(SAMPLE_EVERY).then_some(id)
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its id, for children to name as parent.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: Option<u64>,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, op });
        self.spans.len() - 1
    }

    /// Moves the end of span `id`, opened before its children were known.
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    pub fn spans_kept(&self) -> usize {
        self.spans.len()
    }

    /// Writes `benchmark/out/trace-<workload>.json`: the spans, each with
    /// its self time (duration minus what its children cover), and the
    /// per-layer metrics of the run as `counts`.
    ///
    /// # Errors
    ///
    /// The I/O error, as text.
    pub fn write(&self, workload: &str, counts: &[(String, f64, &str)]) -> Result<String, String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let duration = s.end_ns.saturating_sub(s.start_ns);
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(duration.saturating_sub(child_ns[id]) as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("op", s.op.map_or(Json::Null, |o| Json::Num(o as f64))),
                ])
            })
            .collect();
        let counts =
            counts.iter().map(|(name, value, unit)| (name.clone(), Json::measured(*value, unit)));
        let doc = Json::obj([
            ("workload", Json::str(workload)),
            ("sample_every", Json::Num(SAMPLE_EVERY as f64)),
            ("ops_seen", Json::Num(self.ops_seen as f64)),
            ("counts", Json::obj(counts)),
            ("spans", Json::Arr(spans)),
        ]);
        let path = Path::new(OUT_DIR).join(format!("trace-{workload}.json"));
        fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        fs::write(&path, doc.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path.display().to_string())
    }
}
