//! An in-memory span tracer.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (never inside the library), kept in memory while the
//! workload runs, and written out as JSON lines when the benchmark ends.
//! A disabled tracer records nothing: its methods return immediately, so
//! untraced runs pay only for the timestamps the benchmark needs anyway.
//! An enabled tracer times its own recording calls, which is exactly what
//! a traced run spends that an untraced one does not.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies an open or closed span; `NO_SPAN` when tracing is off.
pub type SpanId = usize;

/// The id returned by a disabled tracer.
pub const NO_SPAN: SpanId = usize::MAX;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// Position in the tracer's span list.
    pub id: SpanId,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// The run (timed repetition or replay) the span belongs to.
    pub run: usize,
    /// The layer the span is attributed to (`core.eval`, `synth`, ...).
    pub layer: &'static str,
    /// What was called (`core.eval`, `synth.rewrite`, ...).
    pub name: String,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created; `NaN` while still open.
    pub end_s: f64,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    runs: Mutex<Vec<String>>,
    overhead_ns: AtomicU64,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every recording call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            runs: Mutex::new(Vec::new()),
            overhead_ns: AtomicU64::new(0),
        }
    }

    /// Seconds spent inside the tracer's recording calls so far.
    pub fn overhead_s(&self) -> f64 {
        self.overhead_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Seconds since the tracer was created (the clock every span uses).
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Registers a run and returns its id; spans of one run share it.
    pub fn begin_run(&self, label: impl Into<String>) -> usize {
        let mut runs = self.runs.lock().expect("tracer lock poisoned");
        runs.push(label.into());
        runs.len() - 1
    }

    /// Opens a span that later spans can name as their parent.
    pub fn open(
        &self,
        run: usize,
        layer: &'static str,
        name: &str,
        parent: Option<SpanId>,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let entered = Instant::now();
        let start_s = self.now();
        let id = self.push(run, layer, name, parent, start_s, f64::NAN);
        self.count_overhead(entered);
        id
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let entered = Instant::now();
        let end_s = self.now();
        self.spans.lock().expect("tracer lock poisoned")[id].end_s = end_s;
        self.count_overhead(entered);
    }

    fn count_overhead(&self, entered: Instant) {
        let ns = u64::try_from(entered.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.overhead_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records a span whose interval was measured by the caller.
    pub fn record(
        &self,
        run: usize,
        layer: &'static str,
        name: &str,
        parent: Option<SpanId>,
        start_s: f64,
        end_s: f64,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let entered = Instant::now();
        let id = self.push(run, layer, name, parent, start_s, end_s);
        self.count_overhead(entered);
        id
    }

    fn push(
        &self,
        run: usize,
        layer: &'static str,
        name: &str,
        parent: Option<SpanId>,
        start_s: f64,
        end_s: f64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            parent: parent.filter(|&p| p != NO_SPAN),
            run,
            layer,
            name: name.to_string(),
            start_s,
            end_s,
        });
        id
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// The closed span with this id (`None` when tracing is off).
    pub fn span(&self, id: SpanId) -> Option<Span> {
        self.spans
            .lock()
            .expect("tracer lock poisoned")
            .get(id)
            .cloned()
    }

    /// Self time per layer over the spans of `run`: each span's duration
    /// minus the part of its interval that its children cover (children
    /// running in parallel are counted once).
    pub fn self_time_by_layer(&self, run: usize) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<SpanId, Vec<(f64, f64)>> = BTreeMap::new();
        for span in spans.iter().filter(|s| s.run == run) {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_s, span.end_s));
            }
        }
        let mut by_layer = BTreeMap::new();
        for span in spans.iter().filter(|s| s.run == run) {
            let covered = children
                .get(&span.id)
                .map_or(0.0, |c| covered_length(c, span.start_s, span.end_s));
            *by_layer.entry(span.layer).or_insert(0.0) += span.duration() - covered;
        }
        by_layer
    }

    /// Writes a header line, one line per span, and one self-time line
    /// per run, as JSON lines.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for span in self.spans() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9}}}",
                span.id, parent, span.run, span.layer, span.name, span.start_s, span.end_s
            )?;
        }
        let runs = self.runs.lock().expect("tracer lock poisoned").clone();
        for (run, label) in runs.iter().enumerate() {
            let layers: Vec<String> = self
                .self_time_by_layer(run)
                .into_iter()
                .map(|(layer, s)| format!("\"{layer}\":{s:.9}"))
                .collect();
            writeln!(
                out,
                "{{\"run\":{run},\"label\":\"{label}\",\"self_s\":{{{}}}}}",
                layers.join(",")
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_length(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_counted_once() {
        assert_eq!(
            covered_length(&[(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0),
            4.0
        );
        assert_eq!(covered_length(&[(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0), 3.0);
    }

    #[test]
    fn self_time_subtracts_child_intervals() {
        let tracer = Tracer::new(true);
        let run = tracer.begin_run("test");
        let root = tracer.push(run, "core.boils", "run", None, 0.0, 10.0);
        tracer.record(run, "core.eval", "eval", Some(root), 1.0, 4.0);
        tracer.record(run, "core.eval", "eval", Some(root), 5.0, 6.0);
        let by_layer = tracer.self_time_by_layer(run);
        assert_eq!(by_layer["core.boils"], 6.0);
        assert_eq!(by_layer["core.eval"], 4.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let run = tracer.begin_run("off");
        let id = tracer.open(run, "core.boils", "run", None);
        tracer.record(run, "core.eval", "eval", Some(id), 0.0, 1.0);
        tracer.close(id);
        assert_eq!(id, NO_SPAN);
        assert!(tracer.spans().is_empty());
    }
}
