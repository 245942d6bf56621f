//! The BOiLS benchmark: three user-facing workloads measured end to end,
//! plus a traced mode that measures every layer from outside by timing
//! calls into its public functions. See `METRICS.md` in this directory
//! for what each metric means and which workload should move it.

pub mod daemon;
pub mod metrics;
pub mod replay;
pub mod single;
pub mod timed;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

use metrics::{median, quantile, Metrics};

/// The workloads, by the names `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["boils_sqrt", "rs_multiplier", "daemon_restart"];

/// What one workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// Operations attempted (evaluations, or daemon jobs).
    pub attempted: usize,
    /// Operations that failed (quarantined evaluations, rejected or failed
    /// jobs).
    pub failed: usize,
    /// Correctness checks that did not hold; empty when correct.
    pub problems: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// The timings of one timed repetition.
#[derive(Clone, Debug, Default)]
pub struct Timing {
    /// Wall time of the timed phase.
    pub run_s: f64,
    /// Unique black-box evaluations performed.
    pub unique: usize,
    /// Latency samples per black-box evaluation, in ms.
    pub eval_ms: Vec<f64>,
    /// Job latencies (submission to result), in s.
    pub job_s: Vec<f64>,
    /// Peak resident memory during the repetition, in MB.
    pub peak_rss_mb: f64,
}

/// Repetitions that fill about `seconds` when one takes about `nominal_s`:
/// a count fixed by the arguments, so a seed always gets the same inputs.
pub fn repetitions(seconds: f64, nominal_s: f64) -> usize {
    (seconds / nominal_s).round().max(1.0) as usize
}

/// What [`measure`] returns.
pub struct Measured<R> {
    /// Every set-up time, in s.
    pub setups: Vec<f64>,
    /// Every repetition's result.
    pub reps: Vec<R>,
    /// Every repetition's peak resident memory, in MB.
    pub peaks_mb: Vec<f64>,
}

/// Runs `setup` then `rep`, `reps` times. Before each repetition, set-up
/// runs as many times as it takes to make `min_setups` in all, and the
/// last set-up feeds the repetition: spread over the run like this, the
/// set-up times sample the same host conditions as the repetitions. Each
/// repetition's peak resident memory is measured from the end of its
/// set-up.
pub fn measure<S, R>(
    reps: usize,
    min_setups: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    mut rep: impl FnMut(usize, S) -> Result<R, String>,
) -> Result<Measured<R>, String> {
    let mut measured = Measured {
        setups: Vec::new(),
        reps: Vec::new(),
        peaks_mb: Vec::new(),
    };
    let setups_per_rep = min_setups.div_ceil(reps.max(1)).max(1);
    for i in 0..reps {
        let mut state = None;
        for _ in 0..setups_per_rep {
            drop(state.take());
            let t = Instant::now();
            state = Some(setup()?);
            measured.setups.push(t.elapsed().as_secs_f64());
        }
        let state = state.expect("at least one set-up per repetition");
        metrics::reset_peak_rss();
        measured.reps.push(rep(i, state)?);
        measured.peaks_mb.push(metrics::peak_rss_mb());
    }
    Ok(measured)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    setups: &[f64],
    reps: &[Timing],
    best_qor: f64,
    attempted: usize,
    failed: usize,
) -> Metrics {
    let mut m = Metrics::default();
    let eval_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.eval_ms.iter().copied())
        .collect();
    let job_s: Vec<f64> = reps.iter().flat_map(|r| r.job_s.iter().copied()).collect();
    let run_s: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let rates: Vec<f64> = reps.iter().map(|r| r.unique as f64 / r.run_s).collect();
    let peaks: Vec<f64> = reps.iter().map(|r| r.peak_rss_mb).collect();
    m.set("setup_s", median(setups));
    m.set("run_s", median(&run_s));
    m.set("evals_per_s", median(&rates));
    m.set("eval_ms.p50", quantile(&eval_ms, 0.5));
    m.set("eval_ms.p90", quantile(&eval_ms, 0.9));
    m.set("best_qor", best_qor);
    m.set("job_s.p50", median(&job_s));
    m.set("peak_rss_mb", median(&peaks));
    m.set("ok_ratio", 1.0 - failed as f64 / attempted.max(1) as f64);
    m
}

/// The sample counts behind an untraced run's percentiles.
pub fn sample_note(setups: &[f64], reps: &[Timing]) -> String {
    let run_s: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.run_s)).collect();
    format!(
        "samples: {} set-ups, {} repetitions (run_s {}), {} evaluation latencies, {} job latencies",
        setups.len(),
        reps.len(),
        run_s.join(" "),
        reps.iter().map(|r| r.eval_ms.len()).sum::<usize>(),
        reps.iter().map(|r| r.job_s.len()).sum::<usize>(),
    )
}

/// Where the benchmark writes traces and scratch stores: `out/` inside
/// the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}
