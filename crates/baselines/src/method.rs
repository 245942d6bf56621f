//! A uniform interface over every optimiser in the paper's comparison.

use crate::{
    genetic_algorithm_controlled, greedy_controlled, random_search_controlled,
    reinforcement_learning_controlled, GaConfig, RlAlgorithm, RlConfig, RlFeatures, RolloutCircuit,
};
use boils_core::{
    Boils, BoilsConfig, OptimizationResult, RunBoilsError, RunControl, RunDiagnostics, Sbo,
    SboConfig, SequenceObjective, SequenceSpace, StopReason, WarmStart,
};
use boils_gp::TrainConfig;

/// Everything one optimisation run takes besides the method and the
/// objective. [`RunSpec::new`] fills in the defaults: one thread,
/// sequential acquisition, the full-history surrogate, the scalar cost, no
/// warm start and a control that never fires.
///
/// The batch, window, multi-objective and warm-start settings only steer
/// the BO methods (warm start only BOiLS); the other methods have no
/// acquisition loop or surrogate and ignore them, though their
/// [`OptimizationResult::pareto_front`] archive is still maintained.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The sequence space `Alg^K`.
    pub space: SequenceSpace,
    /// Black-box evaluation budget.
    pub budget: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for batched black-box evaluations.
    pub threads: usize,
    /// Candidates proposed per BO iteration (see
    /// [`BoilsConfig::batch_size`]).
    pub batch_size: usize,
    /// Bounded-history surrogate window (see
    /// [`BoilsConfig::surrogate_window`]).
    pub surrogate_window: Option<usize>,
    /// Optimise the cost vector with ParEGO scalarisations (see
    /// [`BoilsConfig::multi_objective`]).
    pub multi_objective: bool,
    /// Cross-circuit warm start for BOiLS (see [`BoilsConfig::warm_start`]).
    pub warm_start: Option<WarmStart>,
    /// Cancellation and deadline of the run.
    pub control: RunControl,
}

impl RunSpec {
    /// A spec with the defaults listed on [`RunSpec`].
    pub fn new(space: SequenceSpace, budget: usize, seed: u64) -> RunSpec {
        RunSpec {
            space,
            budget,
            seed,
            threads: 1,
            batch_size: 1,
            surrogate_window: None,
            multi_objective: false,
            warm_start: None,
            control: RunControl::new(),
        }
    }
}

/// Every method of the paper's evaluation (Figure 3 top row columns).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Method {
    /// DRiLLS with PPO updates.
    DrillsPpo,
    /// DRiLLS with A2C updates.
    DrillsA2c,
    /// Graph-feature RL.
    GraphRl,
    /// Genetic algorithm.
    Ga,
    /// Random search.
    Rs,
    /// Greedy constructor.
    Greedy,
    /// Standard Bayesian optimisation.
    Sbo,
    /// The paper's contribution.
    Boils,
}

impl Method {
    /// All methods in the paper's column order.
    pub const ALL: [Method; 8] = [
        Method::DrillsPpo,
        Method::DrillsA2c,
        Method::GraphRl,
        Method::Ga,
        Method::Rs,
        Method::Greedy,
        Method::Sbo,
        Method::Boils,
    ];

    /// The paper's column label.
    pub fn name(self) -> &'static str {
        match self {
            Method::DrillsPpo => "DRiLLS (PPO)",
            Method::DrillsA2c => "DRiLLS (A2C)",
            Method::GraphRl => "Graph-RL",
            Method::Ga => "GA",
            Method::Rs => "RS",
            Method::Greedy => "Greedy",
            Method::Sbo => "SBO",
            Method::Boils => "BOiLS",
        }
    }

    /// A file-system friendly identifier.
    pub fn id(self) -> &'static str {
        match self {
            Method::DrillsPpo => "ppo",
            Method::DrillsA2c => "a2c",
            Method::GraphRl => "graphrl",
            Method::Ga => "ga",
            Method::Rs => "rs",
            Method::Greedy => "greedy",
            Method::Sbo => "sbo",
            Method::Boils => "boils",
        }
    }

    /// Parses an identifier (as printed by [`Method::id`]).
    pub fn from_id(id: &str) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.id() == id)
    }

    /// [`Method::from_id`] with a one-line diagnostic listing the valid
    /// ids — the shared validation used by both the experiment CLI and
    /// the daemon's job decoder.
    ///
    /// # Errors
    ///
    /// Returns a message naming every known id for unknown input.
    pub fn parse(id: &str) -> Result<Method, String> {
        Method::from_id(id).ok_or_else(|| {
            let known: Vec<&str> = Method::ALL.iter().map(|m| m.id()).collect();
            format!(
                "unknown method {id:?} (expected one of: {})",
                known.join(", ")
            )
        })
    }

    /// Whether this is one of the two sample-efficient BO methods (run at
    /// the smaller budget in the paper's protocol).
    pub fn is_bayesian(self) -> bool {
        matches!(self, Method::Sbo | Method::Boils)
    }

    /// Runs the method under `spec` against an objective, spending
    /// black-box evaluations through the shared engine. This is the one
    /// entry point every surface (CLI, daemon, experiment harness) runs a
    /// job through.
    ///
    /// Budgets are spent as whole black-box evaluations; every method uses
    /// the same [`SequenceObjective`] and produces the same trace format,
    /// and each trajectory is thread-count invariant. A cancel or deadline
    /// on [`RunSpec::control`] stops the method at the next evaluation
    /// boundary and returns best-so-far (an exact prefix of the
    /// uncancelled trajectory). The BO methods also return their
    /// [`RunDiagnostics`]; the other methods have none.
    ///
    /// # Errors
    ///
    /// [`RunBoilsError::Interrupted`] when the control fired before a
    /// single evaluation completed; for the BO methods also a budget below
    /// the initial design or a GP that cannot be fitted.
    pub fn run<O: SequenceObjective + RolloutCircuit>(
        self,
        spec: &RunSpec,
        objective: &O,
    ) -> Result<(OptimizationResult, Option<RunDiagnostics>), RunBoilsError> {
        let RunSpec {
            space,
            budget,
            seed,
            threads,
            batch_size,
            surrogate_window,
            multi_objective,
            ref warm_start,
            ref control,
        } = *spec;
        let rl = |algorithm, features| {
            reinforcement_learning_controlled(
                objective,
                space,
                budget,
                &RlConfig {
                    algorithm,
                    features,
                    seed,
                    ..RlConfig::default()
                },
                control,
            )
        };
        let result = match self {
            Method::Rs => {
                random_search_controlled(objective, space, budget, seed, threads, control)
            }
            Method::Greedy => greedy_controlled(objective, space, budget, threads, control),
            Method::Ga => genetic_algorithm_controlled(
                objective,
                space,
                budget,
                &GaConfig {
                    seed,
                    threads,
                    ..GaConfig::default()
                },
                control,
            ),
            Method::DrillsPpo => rl(RlAlgorithm::Ppo, RlFeatures::Stats),
            Method::DrillsA2c => rl(RlAlgorithm::A2c, RlFeatures::Stats),
            Method::GraphRl => rl(RlAlgorithm::A2c, RlFeatures::Graph),
            Method::Sbo => {
                let mut sbo = Sbo::new(SboConfig {
                    max_evaluations: budget,
                    initial_samples: initial_design(budget),
                    space,
                    seed,
                    threads,
                    batch_size,
                    surrogate_window,
                    multi_objective,
                    train: bo_training(),
                    ..SboConfig::default()
                });
                let result = sbo.run_with_control(objective, control)?;
                return Ok((result, Some(sbo.diagnostics().clone())));
            }
            Method::Boils => {
                let mut boils = Boils::new(BoilsConfig {
                    max_evaluations: budget,
                    initial_samples: initial_design(budget),
                    space,
                    seed,
                    threads,
                    batch_size,
                    surrogate_window,
                    multi_objective,
                    warm_start: warm_start.clone(),
                    train: bo_training(),
                    ..BoilsConfig::default()
                });
                let result = boils.run_with_control(objective, control)?;
                return Ok((result, Some(boils.diagnostics().clone())));
            }
        };
        let reason = || control.stop_reason().unwrap_or(StopReason::Cancelled);
        result
            .map(|result| (result, None))
            .ok_or_else(|| RunBoilsError::Interrupted(reason()))
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Initial design size: 20% of the budget, at least 4, and below the
/// budget where it can be (a budget of 1 is left for the BO methods to
/// reject as too small).
fn initial_design(budget: usize) -> usize {
    (budget / 5).max(4).min(budget.saturating_sub(1).max(1))
}

/// Kernel training of the BO methods: the library's Adam settings with 10
/// steps per retrain.
fn bo_training() -> TrainConfig {
    TrainConfig {
        steps: 10,
        ..TrainConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boils_aig::random_aig;

    /// Runs `method` and returns its result, panicking on any error.
    fn run(
        method: Method,
        spec: &RunSpec,
        evaluator: &boils_core::QorEvaluator,
    ) -> OptimizationResult {
        method.run(spec, evaluator).expect("run completes").0
    }

    #[test]
    fn ids_round_trip() {
        for m in Method::ALL {
            assert_eq!(Method::from_id(m.id()), Some(m));
        }
        assert_eq!(Method::from_id("nope"), None);
    }

    #[test]
    fn every_method_respects_the_budget() {
        let evaluator = boils_core::QorEvaluator::new(&random_aig(61, 8, 250, 3)).expect("ok");
        let space = SequenceSpace::new(4, 11);
        for m in Method::ALL {
            let budget = if m == Method::Greedy { 22 } else { 12 };
            let r = run(m, &RunSpec::new(space, budget, 0), &evaluator);
            assert_eq!(r.num_evaluations(), budget, "{m}");
        }
    }

    #[test]
    fn batched_bo_methods_respect_the_budget() {
        let evaluator = boils_core::QorEvaluator::new(&random_aig(61, 8, 250, 3)).expect("ok");
        let spec = RunSpec {
            threads: 2,
            batch_size: 4,
            ..RunSpec::new(SequenceSpace::new(4, 11), 13, 0)
        };
        for m in [Method::Sbo, Method::Boils] {
            assert_eq!(run(m, &spec, &evaluator).num_evaluations(), 13, "{m}");
        }
    }

    #[test]
    fn windowed_bo_methods_respect_the_budget() {
        let evaluator = boils_core::QorEvaluator::new(&random_aig(61, 8, 250, 3)).expect("ok");
        let spec = RunSpec {
            surrogate_window: Some(5),
            ..RunSpec::new(SequenceSpace::new(4, 11), 14, 0)
        };
        for m in [Method::Sbo, Method::Boils] {
            assert_eq!(run(m, &spec, &evaluator).num_evaluations(), 14, "{m}");
        }
    }

    #[test]
    fn every_method_is_thread_count_invariant() {
        let aig = random_aig(61, 8, 250, 3);
        let space = SequenceSpace::new(4, 11);
        for m in Method::ALL {
            let budget = if m == Method::Greedy { 22 } else { 12 };
            let serial = boils_core::QorEvaluator::new(&aig).expect("ok");
            let parallel = boils_core::QorEvaluator::new(&aig).expect("ok");
            let a = run(m, &RunSpec::new(space, budget, 1), &serial);
            let spec = RunSpec {
                threads: 8,
                ..RunSpec::new(space, budget, 1)
            };
            let b = run(m, &spec, &parallel);
            assert_eq!(a.best_tokens, b.best_tokens, "{m}");
            assert_eq!(a.best_qor, b.best_qor, "{m}");
            assert_eq!(
                serial.num_evaluations(),
                parallel.num_evaluations(),
                "{m}: unique-evaluation accounting drifted with threads"
            );
        }
    }

    #[test]
    fn only_the_bo_methods_report_diagnostics() {
        let evaluator = boils_core::QorEvaluator::new(&random_aig(61, 8, 250, 3)).expect("ok");
        let spec = RunSpec::new(SequenceSpace::new(4, 11), 12, 0);
        for m in Method::ALL {
            let budget = if m == Method::Greedy { 22 } else { 12 };
            let spec = RunSpec {
                budget,
                ..spec.clone()
            };
            let (_, diagnostics) = m.run(&spec, &evaluator).expect("run");
            assert_eq!(diagnostics.is_some(), m.is_bayesian(), "{m}");
        }
    }

    #[test]
    fn bo_methods_handle_budgets_below_the_design_floor() {
        // The design size used to `clamp(4, budget - 1)`, which panics
        // for budgets under 5.
        let evaluator = boils_core::QorEvaluator::new(&random_aig(61, 8, 250, 3)).expect("ok");
        for m in [Method::Sbo, Method::Boils] {
            let spec = RunSpec::new(SequenceSpace::new(4, 11), 1, 0);
            assert!(
                matches!(
                    m.run(&spec, &evaluator),
                    Err(RunBoilsError::BudgetTooSmall { .. })
                ),
                "{m}"
            );
            for budget in 2..5 {
                let spec = RunSpec::new(SequenceSpace::new(4, 11), budget, 0);
                assert_eq!(run(m, &spec, &evaluator).num_evaluations(), budget, "{m}");
            }
        }
    }

    #[test]
    fn a_pre_cancelled_run_is_an_interrupted_error() {
        let evaluator = boils_core::QorEvaluator::new(&random_aig(61, 8, 250, 3)).expect("ok");
        let spec = RunSpec::new(SequenceSpace::new(4, 11), 12, 0);
        spec.control.cancel();
        for m in Method::ALL {
            assert!(
                matches!(
                    m.run(&spec, &evaluator),
                    Err(RunBoilsError::Interrupted(StopReason::Cancelled))
                ),
                "{m}"
            );
        }
        assert_eq!(evaluator.num_evaluations(), 0);
    }
}
