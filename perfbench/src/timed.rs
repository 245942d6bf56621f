//! A timing [`SequenceObjective`] wrapper: the `core.eval` layer boundary.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use boils_core::{QorPoint, RunControl, SequenceObjective};

use crate::trace::{SpanId, Tracer};

/// One evaluation call as seen from outside the objective.
#[derive(Clone, Debug)]
pub struct EvalCall {
    /// The evaluated sequence.
    pub tokens: Vec<u8>,
    /// Tracer clock at the call.
    pub start_s: f64,
    /// Tracer clock at the return.
    pub end_s: f64,
}

impl EvalCall {
    /// Latency of the call in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }
}

/// Forwards every [`SequenceObjective`] method to `inner`, timestamping
/// evaluation calls and counting memo hits. Values pass through untouched,
/// so a wrapped run's trajectory is bit-identical to an unwrapped one.
pub struct TimedObjective<'a, O: ?Sized> {
    inner: &'a O,
    tracer: &'a Tracer,
    run: usize,
    parent: SpanId,
    calls: Mutex<Vec<EvalCall>>,
    lookup_hits: AtomicUsize,
}

impl<'a, O: SequenceObjective + ?Sized> TimedObjective<'a, O> {
    /// Wraps `inner`; evaluation spans join `run` under `parent`.
    pub fn new(inner: &'a O, tracer: &'a Tracer, run: usize, parent: SpanId) -> Self {
        TimedObjective {
            inner,
            tracer,
            run,
            parent,
            calls: Mutex::new(Vec::new()),
            lookup_hits: AtomicUsize::new(0),
        }
    }

    /// Every evaluation call so far, ordered by start time.
    pub fn calls(&self) -> Vec<EvalCall> {
        let mut calls = self.calls.lock().expect("call log poisoned").clone();
        calls.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        calls
    }

    /// Lookups answered from the objective's memo table.
    pub fn lookup_hits(&self) -> usize {
        self.lookup_hits.load(Ordering::Relaxed)
    }

    fn timed<T>(&self, tokens: &[u8], evaluate: impl FnOnce() -> T) -> T {
        let start_s = self.tracer.now();
        let value = evaluate();
        let end_s = self.tracer.now();
        self.tracer.record(
            self.run,
            "core.eval",
            "core.eval",
            Some(self.parent),
            start_s,
            end_s,
        );
        self.calls
            .lock()
            .expect("call log poisoned")
            .push(EvalCall {
                tokens: tokens.to_vec(),
                start_s,
                end_s,
            });
        value
    }
}

impl<O: SequenceObjective + ?Sized> SequenceObjective for TimedObjective<'_, O> {
    fn evaluate_tokens(&self, tokens: &[u8]) -> QorPoint {
        self.timed(tokens, || self.inner.evaluate_tokens(tokens))
    }

    fn lookup(&self, tokens: &[u8]) -> Option<QorPoint> {
        let hit = self.inner.lookup(tokens);
        if hit.is_some() {
            self.lookup_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn is_cached(&self, tokens: &[u8]) -> bool {
        self.inner.is_cached(tokens)
    }

    fn num_evaluations(&self) -> usize {
        self.inner.num_evaluations()
    }

    fn evaluate_tokens_controlled(&self, tokens: &[u8], control: &RunControl) -> Option<QorPoint> {
        self.timed(tokens, || {
            self.inner.evaluate_tokens_controlled(tokens, control)
        })
    }

    fn cost_name(&self) -> String {
        self.inner.cost_name()
    }

    fn vector_of(&self, tokens: &[u8]) -> Option<Vec<f64>> {
        self.inner.vector_of(tokens)
    }
}
