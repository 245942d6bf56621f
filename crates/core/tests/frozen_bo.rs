//! Frozen BO trajectories for the configurations the other frozen suites
//! leave unpinned: batched, windowed, UCB, trust-region-free, restarting
//! and multi-objective BOiLS, and batched, windowed and multi-objective
//! SBO.
//!
//! Each row holds a run's history length and a 64-bit hash over every
//! record's tokens and `qor.to_bits()`, so any change to a proposal, an
//! RNG draw or a value shows up here. On a mismatch the test prints the
//! table the current code produces, in the same syntax as [`FROZEN`].

use boils_aig::{random_aig, splitmix64};
use boils_core::{
    Acquisition, Boils, BoilsConfig, OptimizationResult, QorEvaluator, Sbo, SboConfig,
    SequenceSpace,
};
use boils_gp::TrainConfig;

fn boils_config() -> BoilsConfig {
    BoilsConfig {
        max_evaluations: 18,
        initial_samples: 8,
        space: SequenceSpace::new(6, 11),
        acq_restarts: 2,
        acq_steps: 4,
        acq_neighbors: 10,
        train: TrainConfig {
            steps: 5,
            ..TrainConfig::default()
        },
        seed: 5,
        ..BoilsConfig::default()
    }
}

fn sbo_config() -> SboConfig {
    SboConfig {
        max_evaluations: 16,
        initial_samples: 6,
        space: SequenceSpace::new(5, 11),
        acq_restarts: 2,
        acq_steps: 3,
        acq_neighbors: 8,
        train: TrainConfig {
            steps: 4,
            ..TrainConfig::default()
        },
        seed: 9,
        ..SboConfig::default()
    }
}

/// Every configuration of the table, labelled, with its result and the
/// number of acquisition batches it proposed.
fn runs() -> Vec<(&'static str, OptimizationResult, usize)> {
    let boils_rows: Vec<(&'static str, BoilsConfig)> = vec![
        (
            "boils_q4",
            BoilsConfig {
                batch_size: 4,
                ..boils_config()
            },
        ),
        (
            "boils_window6",
            BoilsConfig {
                surrogate_window: Some(6),
                ..boils_config()
            },
        ),
        (
            "boils_ucb",
            BoilsConfig {
                acquisition: Acquisition::UpperConfidenceBound { beta: 2.0 },
                ..boils_config()
            },
        ),
        (
            "boils_no_trust_region",
            BoilsConfig {
                use_trust_region: false,
                fail_tolerance: 1,
                ..boils_config()
            },
        ),
        (
            "boils_restarts",
            BoilsConfig {
                fail_tolerance: 1,
                ..boils_config()
            },
        ),
        (
            "boils_mo_q1",
            BoilsConfig {
                multi_objective: true,
                fail_tolerance: 1,
                ..boils_config()
            },
        ),
        (
            "boils_mo_q2",
            BoilsConfig {
                multi_objective: true,
                batch_size: 2,
                ..boils_config()
            },
        ),
    ];
    let sbo_rows: Vec<(&'static str, SboConfig)> = vec![
        (
            "sbo_q4",
            SboConfig {
                batch_size: 4,
                ..sbo_config()
            },
        ),
        (
            "sbo_window6",
            SboConfig {
                surrogate_window: Some(6),
                ..sbo_config()
            },
        ),
        (
            "sbo_mo_q2",
            SboConfig {
                multi_objective: true,
                batch_size: 2,
                ..sbo_config()
            },
        ),
    ];
    let boils_aig = random_aig(41, 8, 300, 3);
    let sbo_aig = random_aig(43, 8, 300, 3);
    let mut out = Vec::new();
    for (label, config) in boils_rows {
        let evaluator = QorEvaluator::new(&boils_aig).expect("non-degenerate");
        let mut boils = Boils::new(config);
        let result = boils.run(&evaluator).expect("run");
        out.push((label, result, boils.diagnostics().batches));
    }
    for (label, config) in sbo_rows {
        let evaluator = QorEvaluator::new(&sbo_aig).expect("non-degenerate");
        let mut sbo = Sbo::new(config);
        let result = sbo.run(&evaluator).expect("run");
        out.push((label, result, sbo.diagnostics().batches));
    }
    out
}

/// A 64-bit hash over every record's tokens and QoR bits, in order.
fn history_hash(result: &OptimizationResult) -> u64 {
    let mut h = 0u64;
    for record in &result.history {
        for &t in &record.tokens {
            h = splitmix64(h ^ u64::from(t));
        }
        h = splitmix64(h ^ record.point.qor.to_bits());
    }
    h
}

/// `(label, history length, history hash)`.
const FROZEN: [(&str, usize, u64); 10] = [
    ("boils_q4", 18, 0x9a127ffcb669e224),
    ("boils_window6", 18, 0xbfe048ed27b53da4),
    ("boils_ucb", 18, 0x587e085577a1bc24),
    ("boils_no_trust_region", 18, 0xc244579af6ad0956),
    ("boils_restarts", 18, 0x62c2ed6ef33a1985),
    ("boils_mo_q1", 18, 0xb3f84ee24245a40c),
    ("boils_mo_q2", 18, 0x6833891663e2b7fc),
    ("sbo_q4", 16, 0xed5dc7dcaa497177),
    ("sbo_window6", 16, 0x552f62d05b90af7f),
    ("sbo_mo_q2", 16, 0x9aa1b23baa094954),
];

#[test]
fn bo_trajectories_match_frozen_table() {
    let runs = runs();
    // With `fail_tolerance: 1` the radius collapses and the trust region
    // restarts at a random, evaluated point: the history then outgrows
    // one record per batch. That holds with the trust region switched off
    // too — its schedule still runs.
    for (label, result, batches) in &runs {
        if matches!(*label, "boils_restarts" | "boils_no_trust_region") {
            assert!(
                batches + 8 < result.history.len(),
                "{label}: no restart fired ({batches} batches)"
            );
        }
    }
    let actual: Vec<(&str, usize, u64)> = runs
        .iter()
        .map(|(label, result, _)| (*label, result.history.len(), history_hash(result)))
        .collect();
    let mut table = String::new();
    for (label, len, hash) in &actual {
        table.push_str(&format!("    ({label:?}, {len}, {hash:#018x}),\n"));
    }
    let mut mismatches = Vec::new();
    if FROZEN.len() != actual.len() {
        mismatches.push(format!(
            "frozen table has {} rows, the configurations give {}",
            FROZEN.len(),
            actual.len()
        ));
    }
    for (got, want) in actual.iter().zip(&FROZEN) {
        if got != want {
            mismatches.push(format!("got {got:?}, frozen {want:?}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} BO trajectories changed:\n{}\ncurrent table:\n{table}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
