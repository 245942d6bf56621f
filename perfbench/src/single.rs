//! The single-evaluator workloads: one optimisation run on one circuit.
//!
//! * `boils_sqrt` — the paper-protocol BOiLS run (`BoilsConfig::default()`:
//!   K = 20, 20 initial samples, trust region, one thread) on sqrt(16).
//!   The optimiser's own loop costs a good share of the synthesis it
//!   schedules.
//! * `rs_multiplier` — random search: one Latin hypercube of sequences on
//!   multiplier(8), evaluated by `BatchEvaluator` on two threads. Nearly
//!   pure uncached synthesis and mapping; bypasses the surrogate.
//!
//! A timed phase is several short optimisation runs, each on a fresh
//! evaluator with a seed of its own derived from the workload seed, so a
//! run's figures are medians over runs and pool the evaluations of many
//! trajectories.

use std::collections::HashSet;

use boils_aig::Aig;
use boils_baselines::random_search;
use boils_circuits::{Benchmark, CircuitSpec};
use boils_core::{
    Boils, BoilsConfig, OptimizationResult, QorEvaluator, RunDiagnostics, SequenceObjective,
    SequenceSpace, Termination,
};

use crate::metrics::quantile;
use crate::replay::{LayerSamples, Replay};
use crate::timed::{EvalCall, TimedObjective};
use crate::trace::Tracer;
use crate::{end_to_end, measure, out_dir, repetitions, sample_note, Measured, Outcome, Timing};

/// Set-ups per untraced run; `setup_s` is their median.
const MIN_SETUPS: usize = 21;
/// Evaluated sequences replayed through synthesis and mapping in a
/// traced run, evenly spaced through the history.
const REPLAY_SEQUENCES: usize = 50;
/// Of those, sequences replayed into the persistent store.
const STORE_REPLAY_SEQUENCES: usize = 10;

/// One of the single-evaluator workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Single {
    /// BOiLS on sqrt(16).
    BoilsSqrt,
    /// Random search on multiplier(8).
    RsMultiplier,
}

impl Single {
    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Single::BoilsSqrt => "boils_sqrt",
            Single::RsMultiplier => "rs_multiplier",
        }
    }

    /// The circuit being optimised.
    pub fn circuit(self) -> Aig {
        match self {
            Single::BoilsSqrt => CircuitSpec::new(Benchmark::SquareRoot).bits(16).build(),
            Single::RsMultiplier => CircuitSpec::new(Benchmark::Multiplier).bits(8).build(),
        }
    }

    /// Evaluations per optimisation run: BOiLS takes 40 (its 20 initial
    /// samples, then 20 BO steps), random search 20.
    pub fn budget(self) -> usize {
        match self {
            Single::BoilsSqrt => 40,
            Single::RsMultiplier => 20,
        }
    }

    /// About how long one optimisation run takes on two cores, in seconds.
    fn nominal_s(self) -> f64 {
        match self {
            Single::BoilsSqrt => 10.0,
            Single::RsMultiplier => 6.0,
        }
    }

    /// Evaluation threads.
    pub fn threads(self) -> usize {
        match self {
            Single::BoilsSqrt => 1,
            Single::RsMultiplier => 2,
        }
    }

    /// Runs the optimiser against any objective. `seed` is the workload
    /// seed; the optimiser receives it as its RNG seed.
    ///
    /// # Errors
    ///
    /// A BOiLS run that fails to fit its surrogate.
    pub fn optimise<O: SequenceObjective>(
        self,
        objective: &O,
        seed: u64,
        budget: usize,
    ) -> Result<(OptimizationResult, Option<RunDiagnostics>), String> {
        match self {
            Single::BoilsSqrt => {
                let mut boils = Boils::new(BoilsConfig {
                    max_evaluations: budget,
                    seed,
                    ..BoilsConfig::default()
                });
                let result = boils
                    .run(objective)
                    .map_err(|e| format!("BOiLS run: {e}"))?;
                Ok((result, Some(boils.diagnostics().clone())))
            }
            Single::RsMultiplier => Ok((
                random_search(
                    objective,
                    SequenceSpace::paper(),
                    budget,
                    seed,
                    self.threads(),
                ),
                None,
            )),
        }
    }
}

/// The circuit and its evaluator: what set-up builds.
struct Setup {
    aig: Aig,
    evaluator: QorEvaluator,
}

fn setup(kind: Single) -> Result<Setup, String> {
    let aig = kind.circuit();
    let evaluator = QorEvaluator::new(&aig).map_err(|e| e.to_string())?;
    Ok(Setup { aig, evaluator })
}

/// One timed repetition and what the layer metrics need from it.
struct Rep {
    setup: Setup,
    result: OptimizationResult,
    diagnostics: Option<RunDiagnostics>,
    timing: Timing,
    calls: Vec<EvalCall>,
    busy_s: f64,
    step_ms: Vec<f64>,
    lookup_hits: usize,
    root_self_s: f64,
}

fn rep(kind: Single, setup: Setup, seed: u64, tracer: &Tracer) -> Result<Rep, String> {
    let run = tracer.begin_run(format!("{} seed {seed}", kind.name()));
    let layer = match kind {
        Single::BoilsSqrt => "core.boils",
        Single::RsMultiplier => "core.batch",
    };
    let start = tracer.now();
    let root = tracer.open(run, layer, layer, None);
    let timed = TimedObjective::new(&setup.evaluator, tracer, run, root);
    let (result, diagnostics) = kind.optimise(&timed, seed, kind.budget())?;
    tracer.close(root);
    let end = tracer.now();
    let calls = timed.calls();
    // In a traced run the root span's own interval is the run time, so
    // that self time plus evaluation busy time adds up to it exactly.
    let run_s = tracer
        .span(root)
        .map_or(end - start, |span| span.end_s - span.start_s);
    let step_ms = calls
        .windows(2)
        .map(|w| (w[1].start_s - w[0].end_s) * 1e3)
        .collect();
    Ok(Rep {
        timing: Timing {
            run_s,
            unique: setup.evaluator.num_evaluations(),
            eval_ms: calls.iter().map(|c| c.ms()).collect(),
            job_s: vec![run_s],
            peak_rss_mb: 0.0,
        },
        busy_s: calls.iter().map(|c| c.end_s - c.start_s).sum(),
        root_self_s: tracer
            .self_time_by_layer(run)
            .get(layer)
            .copied()
            .unwrap_or(0.0),
        step_ms,
        lookup_hits: timed.lookup_hits(),
        calls,
        diagnostics,
        result,
        setup,
    })
}

/// The optimiser seed of run `i` of workload seed `seed`.
pub fn run_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i as u64)
}

/// Runs a single-evaluator workload. Untraced, it makes optimisation runs
/// for about `seconds` and reports the end-to-end metrics; traced, it makes
/// the first of those runs traced and replays its history through each
/// layer.
pub fn run(kind: Single, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(problem) = run_into(kind, seed, seconds, trace, &mut outcome) {
        outcome.problems.push(problem);
    }
    outcome
}

fn run_into(
    kind: Single,
    seed: u64,
    seconds: f64,
    trace: bool,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let off = Tracer::new(false);
    if !trace {
        let reps = repetitions(seconds, kind.nominal_s());
        let Measured {
            setups,
            reps,
            peaks_mb,
        } = measure(
            reps,
            MIN_SETUPS,
            || setup(kind),
            |i, s| rep(kind, s, run_seed(seed, i), &off),
        )?;
        let replay = Replay::new(
            &off,
            0,
            &reps[0].setup.aig,
            reps[0].setup.evaluator.reference_stats(),
        );
        check_reps(kind, &reps, &replay, &mut LayerSamples::default(), outcome);
        let timings: Vec<Timing> = reps
            .iter()
            .zip(peaks_mb)
            .map(|(r, peak_rss_mb)| Timing {
                peak_rss_mb,
                ..r.timing.clone()
            })
            .collect();
        outcome.notes.push(sample_note(&setups, &timings));
        let best = geometric_mean(reps.iter().map(|r| r.result.best_qor));
        outcome.metrics = end_to_end(&setups, &timings, best, outcome.attempted, outcome.failed);
        return Ok(());
    }
    let tracer = Tracer::new(true);
    let reps = [rep(kind, setup(kind)?, run_seed(seed, 0), &tracer)?];
    let traced = &reps[0];
    let traced_s = traced.timing.run_s;
    let overhead_s = tracer.overhead_s();
    let run = tracer.begin_run(format!("{} seed {seed} replay", kind.name()));
    let replay = Replay::new(
        &tracer,
        run,
        &traced.setup.aig,
        traced.setup.evaluator.reference_stats(),
    );
    let mut samples = LayerSamples::default();
    check_reps(kind, &reps, &replay, &mut samples, outcome);

    // Replay the traced run's own history through each layer: synthesis,
    // mapping and the store on evenly spaced sequences, the surrogate on
    // all of it, in evaluation order.
    let history: Vec<Vec<u8>> = traced
        .result
        .history
        .iter()
        .map(|e| e.tokens.clone())
        .collect();
    let qors: Vec<f64> = traced.result.history.iter().map(|e| e.point.qor).collect();
    let sequences = spread(&history, REPLAY_SEQUENCES);
    let stats = replay.synth_and_map(&sequences, &mut samples);
    let same = sequences.iter().zip(&stats).all(|(tokens, s)| {
        let i = history
            .iter()
            .position(|h| h == tokens)
            .expect("replayed from history");
        replay.qor(s).to_bits() == qors[i].to_bits()
    });
    outcome.check(same, || {
        "replayed sequences score differently from the run".to_string()
    });
    let dir = out_dir().join(format!("store-{}-{}", kind.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stored = replay.store(&sequences[..STORE_REPLAY_SEQUENCES], &dir, &mut samples);
    let _ = std::fs::remove_dir_all(&dir);
    stored?;
    replay.gp(&history, &qors, &mut samples)?;
    // The run's own busy time on exactly the replayed sequences.
    let replayed_busy_s: f64 = traced
        .calls
        .iter()
        .filter(|c| sequences.contains(&c.tokens))
        .map(|c| c.end_s - c.start_s)
        .sum();

    let m = &mut outcome.metrics;
    samples.finish(m);
    let prefix = traced.setup.evaluator.prefix_stats();
    let passes = prefix.passes_applied + prefix.passes_saved;
    m.set("core.eval.calls", traced.calls.len() as f64);
    m.set("core.eval.busy_s", traced.busy_s);
    m.set("core.eval.unique", traced.timing.unique as f64);
    m.set("core.eval.cache_hits", traced.lookup_hits as f64);
    m.set("core.prefix.passes_applied", prefix.passes_applied as f64);
    m.set("core.prefix.passes_saved", prefix.passes_saved as f64);
    m.set(
        "core.prefix.reuse_ratio",
        prefix.passes_saved as f64 / passes.max(1) as f64,
    );
    if let Some(diagnostics) = &traced.diagnostics {
        m.set("core.boils.self_s", traced.root_self_s);
        m.set("core.boils.step_ms.p50", quantile(&traced.step_ms, 0.5));
        m.set("core.boils.step_ms.p90", quantile(&traced.step_ms, 0.9));
        m.set("core.boils.retrains", diagnostics.retrains_at.len() as f64);
        m.set("core.boils.batches", diagnostics.batches as f64);
        let sum = traced.root_self_s + traced.busy_s;
        if (sum - traced_s).abs() > 1e-6 * traced_s {
            outcome.problems.push(format!(
                "core.boils.self_s + core.eval.busy_s = {sum} but run_s = {traced_s}"
            ));
        }
        outcome.notes.push(format!(
            "traced run_s {traced_s:.6} = core.boils.self_s {:.6} + core.eval.busy_s {:.6}",
            traced.root_self_s, traced.busy_s
        ));
    }
    m.set(
        "core.batch.parallel_efficiency",
        traced.busy_s / (kind.threads() as f64 * traced_s),
    );
    m.set(
        "attribution.replay_over_busy",
        samples.synth_and_map_busy_s() / replayed_busy_s,
    );
    m.set("trace.overhead_ratio", overhead_s / traced_s);
    outcome.notes.push(format!(
        "traced run_s {traced_s:.6}, {overhead_s:.6} s of it recording spans; replayed {} of {} sequences ({} into the store)",
        sequences.len(),
        history.len(),
        STORE_REPLAY_SEQUENCES
    ));
    let path = out_dir().join(format!("trace-{}-seed{seed}.jsonl", kind.name()));
    tracer
        .write_jsonl(
            &path,
            &format!("{{\"workload\":\"{}\",\"seed\":{seed}}}", kind.name()),
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    outcome
        .notes
        .push(format!("spans written to {}", path.display()));
    Ok(())
}

/// The geometric mean of positive `values`.
fn geometric_mean(values: impl Iterator<Item = f64>) -> f64 {
    let logs: Vec<f64> = values.map(f64::ln).collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

/// At most `count` elements, evenly spaced through `items`.
fn spread<T: Clone>(items: &[T], count: usize) -> Vec<T> {
    let step = items.len().div_ceil(count.max(1)).max(1);
    items.iter().step_by(step).cloned().collect()
}

/// The correctness checks on the optimisation runs; counts attempted and
/// failed evaluations. Every run's best cost is re-evaluated from scratch;
/// the best sequence over all runs is checked for equivalence, timed into
/// `samples`.
fn check_reps(
    kind: Single,
    reps: &[Rep],
    replay: &Replay,
    samples: &mut LayerSamples,
    outcome: &mut Outcome,
) {
    let budget = kind.budget();
    for rep in reps {
        let r = &rep.result;
        outcome.attempted += budget;
        outcome.failed += r.quarantined.len();
        let distinct: HashSet<&[u8]> = r.history.iter().map(|e| e.tokens.as_slice()).collect();
        outcome.check(
            r.history.len() == budget && distinct.len() == budget,
            || {
                format!(
                    "{} evaluations, {} distinct; budget {budget}",
                    r.history.len(),
                    distinct.len()
                )
            },
        );
        outcome.check(
            rep.timing.unique == budget && rep.calls.len() == budget,
            || {
                format!(
                "evaluator counted {} unique evaluations, wrapper saw {} calls; budget {budget}",
                rep.timing.unique,
                rep.calls.len()
            )
            },
        );
        outcome.check(r.termination == Termination::BudgetExhausted, || {
            format!("run ended {}", r.termination)
        });
        outcome.check(r.quarantined.is_empty(), || {
            format!("{} evaluations quarantined", r.quarantined.len())
        });
        match QorEvaluator::new(&rep.setup.aig) {
            Ok(fresh) => {
                let again = fresh
                    .without_prefix_cache()
                    .evaluate_tokens(&r.best_tokens)
                    .qor;
                outcome.check(again.to_bits() == r.best_qor.to_bits(), || {
                    format!(
                        "best_qor {} but a fresh evaluation gives {again}",
                        r.best_qor
                    )
                });
            }
            Err(e) => outcome.problems.push(e.to_string()),
        }
    }
    let best = reps
        .iter()
        .map(|rep| &rep.result)
        .min_by(|a, b| a.best_qor.total_cmp(&b.best_qor))
        .expect("at least one run");
    if let Err(problem) = replay.equivalence(&best.best_tokens, samples) {
        outcome.problems.push(problem);
    }
}
