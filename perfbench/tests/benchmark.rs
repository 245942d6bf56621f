//! Checks on the benchmark itself. Run with `cargo test --release` from
//! this directory: the identity tests run real optimisations.

use boils_core::{OptimizationResult, QorEvaluator};
use boils_perfbench::metrics::{end_to_end, per_layer};
use boils_perfbench::single::Single;
use boils_perfbench::timed::TimedObjective;
use boils_perfbench::trace::Tracer;

/// Runs `kind` bare and through the timing wrapper (with tracing on) and
/// asserts bit-identical histories. The BOiLS budget is shorter than the
/// workload's to keep the test quick, but still covers its initial design,
/// BO steps and retrains; random search runs its full two-thread batch.
fn assert_wrapper_identity(kind: Single, seed: u64, budget: usize) {
    let aig = kind.circuit();
    let bare = QorEvaluator::new(&aig).expect("non-degenerate circuit");
    let (plain, plain_diag) = kind.optimise(&bare, seed, budget).expect("bare run");

    let inner = QorEvaluator::new(&aig).expect("non-degenerate circuit");
    let tracer = Tracer::new(true);
    let run = tracer.begin_run("wrapped");
    let root = tracer.open(run, "test", "test", None);
    let timed = TimedObjective::new(&inner, &tracer, run, root);
    let (wrapped, wrapped_diag) = kind.optimise(&timed, seed, budget).expect("wrapped run");
    tracer.close(root);

    assert_same_history(&plain, &wrapped);
    assert_eq!(plain_diag, wrapped_diag);
    assert_eq!(timed.calls().len(), budget);
    assert_eq!(bare.num_evaluations(), inner.num_evaluations());
    if kind.threads() == 1 {
        // With two threads, which worker publishes a shared prefix first
        // is a race, so only single-threaded runs repeat these counts.
        assert_eq!(bare.prefix_stats(), inner.prefix_stats());
    }
    assert_eq!(tracer.spans().len(), budget + 1);
}

fn assert_same_history(a: &OptimizationResult, b: &OptimizationResult) {
    assert_eq!(a.history.len(), b.history.len());
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.tokens, y.tokens);
        assert_eq!(x.point.qor.to_bits(), y.point.qor.to_bits());
        assert_eq!((x.point.area, x.point.delay), (y.point.area, y.point.delay));
    }
    assert_eq!(a.best_tokens, b.best_tokens);
    assert_eq!(a.best_qor.to_bits(), b.best_qor.to_bits());
}

#[test]
fn wrapped_boils_sqrt_matches_unwrapped() {
    assert_wrapper_identity(Single::BoilsSqrt, 3, 30);
}

#[test]
fn wrapped_rs_multiplier_matches_unwrapped() {
    assert_wrapper_identity(Single::RsMultiplier, 3, 20);
}

/// `BENCHMARK.json` at the repository root names exactly the metrics the
/// benchmark prints, in the same order.
#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let listed: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .filter(|name| !boils_perfbench::WORKLOADS.contains(name))
        .collect();
    let printed: Vec<String> = end_to_end()
        .into_iter()
        .chain(per_layer())
        .map(|(name, _)| name)
        .collect();
    assert_eq!(listed, printed);
    for (name, unit) in end_to_end().into_iter().chain(per_layer()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
    }
}
