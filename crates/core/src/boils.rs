//! BOiLS — Algorithm 2 of the paper: a Gaussian process with the
//! sub-sequence string kernel models `−QoR(seq)`, and expected improvement
//! is maximised by local search inside an adaptive Hamming trust region
//! centred on the incumbent.

use boils_gp::{
    expected_improvement, hypervolume_improvement_2d, ConstantLiar, Gp, Kernel,
    NotPositiveDefiniteError, Scalarisation, SskKernel, Surrogate, SurrogateConfig,
    SurrogateDiagnostics, TrainConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::control::{RunControl, StopReason};
use crate::eval::{BatchEvaluator, SequenceObjective, QUARANTINE_QOR};
use crate::result::{EvalRecord, OptimizationResult, Termination};
use crate::space::SequenceSpace;

/// Random resamples the freshness guard tries before falling back to the
/// deterministic lexicographic sweep.
const RESAMPLE_GUARD: usize = 32;

/// The acquisition function used in line 8 of Algorithm 2.
///
/// The paper adopts expected improvement "although other options are
/// possible" (Section III-A2); UCB is provided as one of those options.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Acquisition {
    /// Expected improvement over the incumbent (the paper's choice).
    ExpectedImprovement,
    /// Upper confidence bound `μ + β·σ`.
    UpperConfidenceBound {
        /// The exploration coefficient β.
        beta: f64,
    },
}

/// Opt-in cross-circuit warm start: the recorded history of a *similar*
/// circuit (picked by [`CircuitFeatures`](boils_aig::CircuitFeatures)
/// similarity, typically via
/// [`PersistentPrefixStore::transfer_donor`](crate::PersistentPrefixStore::transfer_donor))
/// biases where this run's search starts.
///
/// Two channels, both exactness-preserving:
///
/// * [`seeds`](WarmStart::seeds) replace initial-design rows
///   *positionally* — the Latin hypercube is drawn first and donor
///   sequences overwrite its leading rows, so the RNG consumes exactly
///   the draws it would have without any warm start, and every seed is
///   **re-evaluated on the target circuit** (its recorded donor cost is
///   never trusted as a value).
/// * [`observations`](WarmStart::observations) are donor `(tokens, QoR)`
///   pairs injected into the GP via [`Surrogate::seed`] — prior shape
///   only, never entering the history, the incumbent, or the result.
///
/// `warm_start: None` (the default) is bit-identical to a build without
/// the feature.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WarmStart {
    /// Donor sequences injected into the initial design (best-first). At
    /// most half the design (rounded up) is replaced, so the LHS keeps
    /// exploring; invalid and duplicate sequences are skipped.
    pub seeds: Vec<Vec<u8>>,
    /// Donor `(tokens, qor)` pairs seeded into the surrogate as prior
    /// observations (the optimiser models `−qor` internally).
    pub observations: Vec<(Vec<u8>, f64)>,
}

impl WarmStart {
    /// A warm start from a transfer donor's recorded history: the
    /// `max_seeds` best sequences become design seeds, the full history
    /// becomes surrogate prior observations.
    pub fn from_donor(donor: &crate::TransferDonor, max_seeds: usize) -> WarmStart {
        WarmStart {
            seeds: donor
                .observations
                .iter()
                .take(max_seeds)
                .map(|(tokens, _)| tokens.clone())
                .collect(),
            observations: donor.observations.clone(),
        }
    }

    /// Whether there is anything to transfer.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty() && self.observations.is_empty()
    }
}

/// Configuration of the BOiLS optimiser.
///
/// The defaults mirror the paper's setting (`K = 20`, 11 actions,
/// `Nmax = 200`, trust region with the 3-success / 20-failure schedule).
#[derive(Clone, Debug)]
pub struct BoilsConfig {
    /// Total black-box evaluation budget `Nmax` (including initial samples).
    pub max_evaluations: usize,
    /// Initial Latin-hypercube design size `Ninit`.
    pub initial_samples: usize,
    /// The sequence space `Alg^K`.
    pub space: SequenceSpace,
    /// Maximum SSK sub-sequence order ℓ.
    pub ssk_order: usize,
    /// Whether the SSK is normalised (ablation knob).
    pub normalize_kernel: bool,
    /// Whether the trust region is active (ablation knob: `false` recovers
    /// unconstrained local search).
    pub use_trust_region: bool,
    /// Consecutive improvements before the radius grows (paper: 3).
    pub success_tolerance: usize,
    /// Consecutive non-improvements before the radius shrinks (paper: 20).
    pub fail_tolerance: usize,
    /// Random restarts of the acquisition local search.
    pub acq_restarts: usize,
    /// Maximum hill-climbing steps per restart.
    pub acq_steps: usize,
    /// Random Hamming-1 neighbours examined per step.
    pub acq_neighbors: usize,
    /// Candidates proposed and evaluated per BO iteration (`q`).
    ///
    /// `1` (the default) is the paper's fully sequential Algorithm 2:
    /// bit-identical to previous releases whenever the old and new retrain
    /// pacing coincide — i.e. `initial_samples` is a multiple of
    /// [`retrain_every`](BoilsConfig::retrain_every) and no trust-region
    /// restart or dedup-guard exhaustion fires (the retrain-cadence and
    /// dedup bugfixes intentionally change those trajectories; see
    /// `retrain_every`). Larger values
    /// propose `q` candidates per iteration with the **constant-liar**
    /// heuristic (each accepted candidate's outcome is hallucinated as the
    /// incumbent on a scratch copy of the GP, EI is re-maximised against
    /// the lied model, and the lies are discarded before the surrogate sees
    /// real data) and evaluate them as a single prefix-aware parallel batch
    /// ([`BatchEvaluator::evaluate_grouped`]). The budget is still spent as
    /// whole evaluations — the final batch shrinks to the remaining budget
    /// — and each batch advances the trust-region schedule by one step.
    pub batch_size: usize,
    /// Hyperparameters are retrained once this many evaluations accumulate
    /// since the previous retrain (restart and batch evaluations count),
    /// and always on the first iteration after the initial design.
    ///
    /// Earlier releases tested `history.len() % retrain_every == 0`
    /// instead, which skips retraining whenever an iteration appends more
    /// than one record and never fires at all if the initial design is not
    /// a multiple of `retrain_every` — so runs hitting those cases retrain
    /// (correctly) on different iterations than they used to.
    pub retrain_every: usize,
    /// Between hyperparameter retrains, extend the previous GP by the new
    /// observations in `O(n²)` ([`boils_gp::Gp::extend`]) instead of
    /// refitting from scratch in `O(n³)`, with per-sequence
    /// self-similarities cached across the Gram fill and prediction, and
    /// the SSK's decay-independent match structure cached across the Adam
    /// steps of a retrain ([`SskKernel::with_match_caching`]). `false`
    /// restores the seed's from-scratch surrogate (full refit every
    /// iteration, normalisation constants recomputed inside every pair
    /// evaluation) as a benchmarking baseline. The search trajectory is
    /// bit-identical either way.
    pub incremental_surrogate: bool,
    /// Bounded-history surrogate: `Some(w)` keeps at most `w` observations
    /// in the GP's training set, evicting the oldest non-incumbent point
    /// by a rank-1 Cholesky downdate once the window fills — the per-step
    /// surrogate cost stops growing with the budget. The incumbent is
    /// pinned (never evicted), so expected improvement keeps the true
    /// best in-model. `None` (the default) trains on the full history,
    /// bit-identical to previous releases.
    pub surrogate_window: Option<usize>,
    /// Projected-Adam settings for kernel training (paper Eq. 4).
    pub train: TrainConfig,
    /// GP observation noise.
    pub noise: f64,
    /// The acquisition function (paper: expected improvement).
    pub acquisition: Acquisition,
    /// Multi-objective mode: instead of the scalar cost, optimise the
    /// objective's cost *vector* (the paper's `(area ratio, delay ratio)`
    /// pair for the built-ins) with random-weight Chebyshev scalarisations
    /// over the constant-liar batch path, judging trust-region progress by
    /// 2-D hypervolume improvement of the nondominated archive
    /// ([`OptimizationResult::pareto_front`](crate::OptimizationResult)).
    /// `false` (the default) is the paper's scalar Algorithm 2,
    /// bit-identical to previous releases.
    pub multi_objective: bool,
    /// Opt-in cross-circuit transfer (see [`WarmStart`]). `None` — the
    /// default — leaves every RNG draw, design row and surrogate
    /// observation bit-identical to a run without the feature.
    pub warm_start: Option<WarmStart>,
    /// Worker threads for batched black-box evaluations (the initial
    /// design). The search trajectory is thread-count invariant: the same
    /// seed yields the same best sequence and evaluation count at any
    /// setting.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BoilsConfig {
    fn default() -> Self {
        BoilsConfig {
            max_evaluations: 200,
            initial_samples: 20,
            space: SequenceSpace::paper(),
            ssk_order: 4,
            normalize_kernel: true,
            use_trust_region: true,
            success_tolerance: 3,
            fail_tolerance: 20,
            acq_restarts: 3,
            acq_steps: 10,
            acq_neighbors: 30,
            batch_size: 1,
            retrain_every: 5,
            incremental_surrogate: true,
            surrogate_window: None,
            train: TrainConfig {
                steps: 15,
                ..TrainConfig::default()
            },
            noise: 1e-4,
            acquisition: Acquisition::ExpectedImprovement,
            multi_objective: false,
            warm_start: None,
            threads: 1,
            seed: 0,
        }
    }
}

/// Error from a BOiLS run.
#[derive(Debug)]
pub enum RunBoilsError {
    /// The evaluation budget cannot even cover the initial design.
    BudgetTooSmall {
        /// Configured budget.
        budget: usize,
        /// Configured initial design size.
        initial: usize,
    },
    /// The GP surrogate could not be fitted.
    SurrogateFit(NotPositiveDefiniteError),
    /// The run was cancelled (or its deadline passed) before a single
    /// evaluation completed, so there is no best-so-far to report.
    Interrupted(StopReason),
}

impl std::fmt::Display for RunBoilsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunBoilsError::BudgetTooSmall { budget, initial } => write!(
                f,
                "evaluation budget {budget} is smaller than the initial design {initial}"
            ),
            RunBoilsError::SurrogateFit(e) => write!(f, "failed to fit the GP surrogate: {e}"),
            RunBoilsError::Interrupted(reason) => write!(
                f,
                "run interrupted ({}) before any evaluation completed",
                Termination::from(*reason)
            ),
        }
    }
}

impl std::error::Error for RunBoilsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunBoilsError::SurrogateFit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NotPositiveDefiniteError> for RunBoilsError {
    fn from(e: NotPositiveDefiniteError) -> Self {
        RunBoilsError::SurrogateFit(e)
    }
}

/// Counters describing the most recent [`Boils::run`] / [`Sbo::run`](crate::Sbo::run).
///
/// Purely observational — reading them cannot change a trajectory — and
/// cheap enough to be collected unconditionally.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunDiagnostics {
    /// History lengths at which kernel hyperparameters were retrained
    /// (always starts with the initial-design size: the first surrogate is
    /// trained). Mirrors [`SurrogateDiagnostics::retrains_at`].
    pub retrains_at: Vec<usize>,
    /// The surrogate subsystem's own lifecycle counters: factor extends,
    /// window-eviction downdates, and incremental updates that fell back
    /// to a full refit.
    pub surrogate: SurrogateDiagnostics,
    /// Acquisition batches proposed (BO loop iterations).
    pub batches: usize,
    /// Candidates rescued by the deterministic lexicographic sweep after
    /// `RESAMPLE_GUARD` (32) random resamples all collided with evaluated
    /// sequences.
    pub sweep_rescues: usize,
    /// Evaluations spent on already-memoised sequences. Non-zero only when
    /// the space was genuinely exhausted (every sequence evaluated).
    pub duplicate_evals: usize,
    /// Sequences whose evaluation panicked and was quarantined (the
    /// history holds worst-case sentinels in their place).
    pub quarantined: Vec<Vec<u8>>,
    /// Why the run ended (mirrors
    /// [`OptimizationResult::termination`](crate::OptimizationResult)).
    pub termination: Termination,
    /// The active cost function's name (mirrors
    /// [`OptimizationResult::objective`](crate::OptimizationResult)).
    pub objective: String,
}

/// The multi-objective cost vector of one evaluated record: the
/// objective's own vector when it can produce one, otherwise the raw
/// `(area, delay)` pair; quarantined sentinels map to a worst-case vector
/// so they can never join (or distort) the nondominated archive.
fn mo_vector<O: SequenceObjective + ?Sized>(objective: &O, record: &EvalRecord) -> Vec<f64> {
    if record.point.is_quarantined() {
        return vec![QUARANTINE_QOR; 2];
    }
    objective
        .vector_of(&record.tokens)
        .unwrap_or_else(|| vec![record.point.area as f64, record.point.delay as f64])
}

/// A fixed hypervolume reference for a run: componentwise 1.1× the worst
/// non-quarantined cost of the initial design. Fixed after the design so
/// hypervolume gains are comparable across the whole run.
fn mo_reference(vectors: &[Vec<f64>]) -> (f64, f64) {
    let mut reference = (0.0f64, 0.0f64);
    let mut seen = false;
    for v in vectors {
        if v.len() != 2 || v[0] >= QUARANTINE_QOR {
            continue;
        }
        reference.0 = reference.0.max(v[0]);
        reference.1 = reference.1.max(v[1]);
        seen = true;
    }
    if !seen {
        return (QUARANTINE_QOR, QUARANTINE_QOR);
    }
    (reference.0 * 1.1 + 1e-9, reference.1 * 1.1 + 1e-9)
}

/// The 2-D projections of the non-quarantined cost vectors in `vectors`.
fn mo_points(vectors: &[Vec<f64>]) -> Vec<(f64, f64)> {
    vectors
        .iter()
        .filter(|v| v.len() == 2 && v[0] < QUARANTINE_QOR)
        .map(|v| (v[0], v[1]))
        .collect()
}

/// Outcome of the freshness guard around one proposed candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FreshOutcome {
    /// The acquisition's own argmax was fresh.
    Direct,
    /// A random resample (inside the trust region, if any) was fresh.
    Resampled,
    /// Random resampling kept colliding; the deterministic sweep found a
    /// fresh sequence.
    Swept,
    /// Every sequence in the space is evaluated or pending; the duplicate
    /// is returned as a last resort.
    Exhausted,
}

/// The budget guard shared by BOiLS and SBO: never spend an evaluation on a
/// sequence the objective has already memoised, or that is already pending
/// in the current batch — unless the space is genuinely exhausted.
///
/// Tries the acquisition's own `candidate` first, then up to
/// [`RESAMPLE_GUARD`] random resamples (the pre-existing behaviour), and
/// finally sweeps the space in lexicographic order from the last rejected
/// candidate ([`SequenceSpace::advance`]). The sweep is deterministic,
/// consumes no RNG draws, terminates after at most `|cache| + 1` probes
/// when a fresh sequence exists, and ignores the trust region — a fresh
/// point anywhere beats re-buying a known value. Only when the sweep wraps
/// all the way around (every one of the `alphabet^K` sequences is taken)
/// does it concede and return the duplicate.
fn fresh_candidate<O, R>(
    objective: &O,
    space: &SequenceSpace,
    trust_region: Option<(&[u8], usize)>,
    pending: &[Vec<u8>],
    mut candidate: Vec<u8>,
    rng: &mut R,
) -> (Vec<u8>, FreshOutcome)
where
    O: SequenceObjective + ?Sized,
    R: Rng,
{
    let taken = |tokens: &[u8]| objective.is_cached(tokens) || pending.iter().any(|p| p == tokens);
    if !taken(&candidate) {
        return (candidate, FreshOutcome::Direct);
    }
    for _ in 0..RESAMPLE_GUARD {
        candidate = match trust_region {
            Some((center, radius)) => space.sample_in_ball(center, radius.max(1), rng),
            None => space.sample(rng),
        };
        if !taken(&candidate) {
            return (candidate, FreshOutcome::Resampled);
        }
    }
    let mut cursor = candidate.clone();
    loop {
        space.advance(&mut cursor);
        if cursor == candidate {
            return (candidate, FreshOutcome::Exhausted);
        }
        if !taken(&cursor) {
            return (cursor, FreshOutcome::Swept);
        }
    }
}

/// The BOiLS optimiser (paper Algorithm 2).
///
/// ```no_run
/// use boils_circuits::{Benchmark, CircuitSpec};
/// use boils_core::{Boils, BoilsConfig, QorEvaluator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let aig = CircuitSpec::new(Benchmark::Adder).build();
/// let evaluator = QorEvaluator::new(&aig)?;
/// let mut boils = Boils::new(BoilsConfig {
///     max_evaluations: 40,
///     initial_samples: 10,
///     seed: 1,
///     ..BoilsConfig::default()
/// });
/// let result = boils.run(&evaluator)?;
/// println!(
///     "best QoR {:.4} ({:+.2}%) via {}",
///     result.best_qor,
///     result.best_point.improvement_percent(),
///     result.best_sequence
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Boils {
    config: BoilsConfig,
    diagnostics: RunDiagnostics,
}

impl Boils {
    /// Creates the optimiser.
    pub fn new(config: BoilsConfig) -> Boils {
        Boils {
            config,
            diagnostics: RunDiagnostics::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BoilsConfig {
        &self.config
    }

    /// Counters from the most recent [`Boils::run`] (empty before any run).
    pub fn diagnostics(&self) -> &RunDiagnostics {
        &self.diagnostics
    }

    /// Runs Algorithm 2 against any [`SequenceObjective`] (typically a
    /// [`QorEvaluator`](crate::QorEvaluator)).
    ///
    /// # Errors
    ///
    /// Fails if the budget is smaller than the initial design or if the GP
    /// cannot be fitted.
    pub fn run<O: SequenceObjective>(
        &mut self,
        objective: &O,
    ) -> Result<OptimizationResult, RunBoilsError> {
        self.run_with_control(objective, &RunControl::new())
    }

    /// [`Boils::run`] under a [`RunControl`]: the control is polled before
    /// every batch and every evaluation, so a cancel or deadline stops the
    /// run within one synthesis pass and returns best-so-far with the
    /// matching [`Termination`]. An interrupted run's history is an exact
    /// prefix of the uncancelled trajectory (values are pure functions of
    /// their tokens; only *where* the cut lands depends on timing).
    ///
    /// # Errors
    ///
    /// Additionally fails with [`RunBoilsError::Interrupted`] when the
    /// control fires before a single evaluation completes.
    pub fn run_with_control<O: SequenceObjective>(
        &mut self,
        objective: &O,
        control: &RunControl,
    ) -> Result<OptimizationResult, RunBoilsError> {
        let cfg = &self.config;
        let kernel = SskKernel::new(cfg.ssk_order);
        let kernel = if cfg.normalize_kernel {
            kernel
        } else {
            kernel.without_normalization()
        };
        let kernel = if cfg.incremental_surrogate {
            kernel.with_match_caching()
        } else {
            // Benchmarking baseline: reproduce the seed's cost model
            // (self-similarities recomputed inside every pair evaluation,
            // no match-structure cache). Bit-identical values either way.
            kernel.without_info_caching()
        };
        let region = Some(TrustRegion::new(cfg));
        let diagnostics = &mut self.diagnostics;
        if cfg.multi_objective {
            run_parego(cfg, &kernel, region, objective, control, diagnostics)
        } else {
            run_scalar(cfg, &kernel, region, objective, control, diagnostics)
        }
    }
}

/// What a BO loop's surrogate sees of a token sequence, and the kernel it
/// compares inputs with: BOiLS models the tokens themselves with the SSK,
/// SBO a one-hot embedding with a squared-exponential kernel. The kernel
/// value is the template every fit starts from.
pub(crate) trait SurrogateInput {
    /// The GP's input type.
    type X: Clone;
    /// The kernel over [`SurrogateInput::X`].
    type K: Kernel<Self::X> + Clone;

    /// The kernel template.
    fn kernel(&self) -> Self::K;

    /// The GP input for a sequence (a training point or a lie).
    fn embed(&self, tokens: &[u8]) -> Self::X;

    /// The posterior `(mean, variance)` at a sequence. The acquisition
    /// search calls this hundreds of times per iteration, so an input type
    /// that is the token vector itself predicts in place, without a copy
    /// (hence `&Vec<u8>`: the GP predicts at `&X`).
    #[allow(clippy::ptr_arg)]
    fn predict(&self, gp: &Gp<Self::K, Self::X>, tokens: &Vec<u8>) -> (f64, f64);
}

impl SurrogateInput for SskKernel {
    type X = Vec<u8>;
    type K = SskKernel;

    fn kernel(&self) -> SskKernel {
        self.clone()
    }

    fn embed(&self, tokens: &[u8]) -> Vec<u8> {
        tokens.to_vec()
    }

    fn predict(&self, gp: &Gp<SskKernel, Vec<u8>>, tokens: &Vec<u8>) -> (f64, f64) {
        gp.predict(tokens)
    }
}

/// The success/failure radius schedule of Algorithm 2 (lines 4 and 10).
///
/// BOiLS always runs it — with `use_trust_region: false` the radius only
/// stops restricting the acquisition search, while the schedule and its
/// random restarts still run. SBO runs without one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TrustRegion {
    radius: usize,
    successes: usize,
    failures: usize,
    success_tolerance: usize,
    fail_tolerance: usize,
    max_radius: usize,
}

impl TrustRegion {
    /// The schedule of `cfg`, its radius starting at `K`.
    fn new(cfg: &BoilsConfig) -> TrustRegion {
        TrustRegion {
            radius: cfg.space.length(),
            successes: 0,
            failures: 0,
            success_tolerance: cfg.success_tolerance,
            fail_tolerance: cfg.fail_tolerance,
            max_radius: cfg.space.length(),
        }
    }

    /// Advances the schedule by one acquisition decision. Returns `true`
    /// when the radius collapsed to zero and was reset to `K` (a restart).
    fn step(&mut self, improved: bool) -> bool {
        if improved {
            self.successes += 1;
            self.failures = 0;
            if self.successes >= self.success_tolerance {
                self.radius = (self.radius + 1).min(self.max_radius);
                self.successes = 0;
            }
        } else {
            self.successes = 0;
            self.failures += 1;
            if self.failures >= self.fail_tolerance {
                self.radius = self.radius.saturating_sub(1);
                self.failures = 0;
            }
        }
        if self.radius > 0 {
            return false;
        }
        self.radius = self.max_radius;
        self.successes = 0;
        self.failures = 0;
        true
    }
}

/// One BO run in progress, shared by the scalar and ParEGO loops: the
/// settings, the surrogate input, the evaluated history and the RNG.
struct BoRun<'a, I, O> {
    cfg: &'a BoilsConfig,
    input: &'a I,
    objective: &'a O,
    control: &'a RunControl,
    diagnostics: &'a mut RunDiagnostics,
    engine: BatchEvaluator,
    rng: StdRng,
    history: Vec<EvalRecord>,
    stop: Option<StopReason>,
}

impl<'a, I: SurrogateInput, O: SequenceObjective> BoRun<'a, I, O> {
    /// Resets `diagnostics`, checks the budget, and evaluates the initial
    /// design (Algorithm 2, line 3): a Latin hypercube over categories,
    /// deduplicated, evaluated as one prefix-aware parallel batch.
    fn start(
        cfg: &'a BoilsConfig,
        input: &'a I,
        warm_start: Option<&WarmStart>,
        objective: &'a O,
        control: &'a RunControl,
        diagnostics: &'a mut RunDiagnostics,
    ) -> Result<Self, RunBoilsError> {
        *diagnostics = RunDiagnostics::default();
        diagnostics.objective = objective.cost_name();
        if cfg.max_evaluations < cfg.initial_samples.max(2) {
            return Err(RunBoilsError::BudgetTooSmall {
                budget: cfg.max_evaluations,
                initial: cfg.initial_samples,
            });
        }
        let space = cfg.space;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut initial: Vec<Vec<u8>> = Vec::with_capacity(cfg.initial_samples);
        for tokens in space.latin_hypercube(cfg.initial_samples, &mut rng) {
            if initial.len() >= cfg.max_evaluations {
                break;
            }
            if initial.contains(&tokens) {
                continue;
            }
            initial.push(tokens);
        }
        // -- Warm start (opt-in): donor sequences overwrite the leading
        // design rows *after* the hypercube is drawn, so the RNG consumes
        // exactly the draws an unseeded run would — `warm_start: None`
        // stays bit-identical — and each seed is re-evaluated exactly on
        // this circuit by the very same batch below.
        if let Some(warm) = warm_start {
            let valid = |tokens: &[u8]| {
                tokens.len() == space.length()
                    && tokens.iter().all(|&t| usize::from(t) < space.alphabet())
            };
            let cap = initial.len().div_ceil(2);
            let mut slot = 0usize;
            for seed in &warm.seeds {
                if slot >= cap {
                    break;
                }
                if !valid(seed) || initial.contains(seed) {
                    continue;
                }
                initial[slot] = seed.clone();
                slot += 1;
            }
        }
        let mut run = BoRun {
            cfg,
            input,
            objective,
            control,
            diagnostics,
            engine: BatchEvaluator::new(cfg.threads),
            rng,
            history: Vec::with_capacity(cfg.max_evaluations),
            stop: None,
        };
        run.evaluate(&initial);
        if run.history.is_empty() {
            return Err(RunBoilsError::Interrupted(
                run.stop.unwrap_or(StopReason::Cancelled),
            ));
        }
        Ok(run)
    }

    /// Whether another BO iteration runs: budget left, and neither an
    /// earlier evaluation nor the control stopped the run.
    fn running(&mut self) -> bool {
        if self.stop.is_some() || self.history.len() >= self.cfg.max_evaluations {
            return false;
        }
        self.stop = self.control.stop_reason();
        self.stop.is_none()
    }

    /// Proposes one acquisition batch (Algorithm 2, line 8) of up to
    /// `batch_size` candidates via the constant-liar heuristic against
    /// `gp`. For `q == 1` no lie is ever told (the liar never clones the
    /// GP) and this reduces exactly to the sequential algorithm. The lies
    /// are discarded with the liar; `gp` itself is never touched.
    fn propose(
        &mut self,
        gp: &Gp<I::K, I::X>,
        incumbent: f64,
        tr: Option<(&[u8], usize)>,
    ) -> Vec<Vec<u8>> {
        let cfg = self.cfg;
        let input = self.input;
        let q = cfg
            .batch_size
            .max(1)
            .min(cfg.max_evaluations - self.history.len());
        let mut liar = ConstantLiar::new(gp, incumbent);
        let mut batch: Vec<Vec<u8>> = Vec::with_capacity(q);
        for proposed in 0..q {
            let model = liar.model();
            let score = |tokens: &Vec<u8>| {
                let (mean, var) = input.predict(model, tokens);
                match cfg.acquisition {
                    Acquisition::ExpectedImprovement => expected_improvement(mean, var, incumbent),
                    Acquisition::UpperConfidenceBound { beta } => mean + beta * var.max(0.0).sqrt(),
                }
            };
            let candidate = hill_climb(
                &cfg.space,
                tr,
                &score,
                cfg.acq_restarts,
                cfg.acq_steps,
                cfg.acq_neighbors,
                &mut self.rng,
            );
            // Never waste budget on an already-evaluated sequence (or a
            // within-batch duplicate).
            let (candidate, outcome) = fresh_candidate(
                self.objective,
                &cfg.space,
                tr,
                &batch,
                candidate,
                &mut self.rng,
            );
            match outcome {
                FreshOutcome::Swept => self.diagnostics.sweep_rescues += 1,
                FreshOutcome::Exhausted => self.diagnostics.duplicate_evals += 1,
                FreshOutcome::Direct | FreshOutcome::Resampled => {}
            }
            if proposed + 1 < q {
                // A failed lie leaves the scratch model at the base GP;
                // the freshness guard still keeps proposals distinct.
                let _ = liar.accept(input.embed(&candidate));
            }
            batch.push(candidate);
        }
        self.diagnostics.batches += 1;
        batch
    }

    /// Evaluates `batch` as one prefix-aware parallel batch (Algorithm 2,
    /// line 9), appends its resolved prefix to the history and records
    /// why the run stopped, if it did. Returns the index of the batch's
    /// first record.
    fn evaluate(&mut self, batch: &[Vec<u8>]) -> usize {
        let outcome = self
            .engine
            .evaluate_grouped_controlled(self.objective, batch, self.control);
        self.diagnostics
            .quarantined
            .extend(outcome.quarantined.iter().cloned());
        let batch_start = self.history.len();
        for (tokens, point) in outcome.resolved_prefix(batch) {
            self.history.push(EvalRecord { tokens, point });
        }
        self.stop = outcome.stopped;
        batch_start
    }

    /// A trust-region restart point: a random sequence, evaluated (so it
    /// counts against the budget, routed through the engine like every
    /// other evaluation) unless it is memoised already.
    fn restart_point(&mut self) -> Option<EvalRecord> {
        let tokens = self.cfg.space.sample(&mut self.rng);
        if self.objective.is_cached(&tokens) {
            return None;
        }
        let outcome = self.engine.evaluate_controlled(
            self.objective,
            std::slice::from_ref(&tokens),
            self.control,
        );
        self.diagnostics
            .quarantined
            .extend(outcome.quarantined.iter().cloned());
        let Some(point) = outcome.points[0] else {
            self.stop = outcome.stopped;
            return None;
        };
        self.history.push(EvalRecord { tokens, point });
        self.history.last().cloned()
    }

    /// The run's result, with the diagnostics mirroring its termination.
    fn finish(self) -> OptimizationResult {
        let termination = self.stop.map(Termination::from).unwrap_or_default();
        self.diagnostics.termination = termination;
        let mut result =
            OptimizationResult::from_history_terminated(&self.cfg.space, self.history, termination);
        result.quarantined = self.diagnostics.quarantined.clone();
        result.objective = self.diagnostics.objective.clone();
        result
    }
}

/// The scalar BO loop (Algorithm 2) shared by BOiLS and SBO: the
/// surrogate models `−cost` over `input`'s embedding, and `region` (BOiLS
/// only) runs the trust-region schedule.
pub(crate) fn run_scalar<I: SurrogateInput, O: SequenceObjective>(
    cfg: &BoilsConfig,
    input: &I,
    mut region: Option<TrustRegion>,
    objective: &O,
    control: &RunControl,
    diagnostics: &mut RunDiagnostics,
) -> Result<OptimizationResult, RunBoilsError> {
    let warm_start = cfg.warm_start.as_ref();
    let mut run = BoRun::start(cfg, input, warm_start, objective, control, diagnostics)?;
    // The TR centre is the best point since the last restart; the global
    // best is tracked through the history.
    let mut center = best_of(&run.history).clone();
    // The surrogate subsystem owns the whole fit → extend → retrain →
    // forget lifecycle: the evals-since-retrain cadence, the carried
    // kernel hyperparameters, the O(n²) factor extensions between
    // retrains, and (with `surrogate_window`) sliding-window eviction with
    // incumbent pinning. Retraining is paced by observations since the
    // last retrain, not by `history.len() % retrain_every`: a modulo test
    // silently skips retraining whenever an iteration appends more than
    // one record (a trust-region restart, or any `batch_size > 1` batch).
    let mut surrogate: Surrogate<I::K, I::X> = Surrogate::new(
        input.kernel(),
        SurrogateConfig {
            noise: cfg.noise,
            retrain_every: cfg.retrain_every,
            incremental: cfg.incremental_surrogate,
            window: cfg.surrogate_window,
            train: cfg.train.clone(),
        },
    );
    // Donor observations enter the GP first (prior shape only — they never
    // join the history or the incumbent). A sequence the design already
    // evaluated on *this* circuit is skipped: the exact target value is in
    // the history, and a conflicting donor value would only smear it.
    if let Some(warm) = warm_start {
        for (tokens, qor) in &warm.observations {
            if tokens.is_empty()
                || !qor.is_finite()
                || run.history.iter().any(|r| &r.tokens == tokens)
            {
                continue;
            }
            surrogate.seed(input.embed(tokens), -qor);
        }
    }
    for record in &run.history {
        surrogate.observe(input.embed(&record.tokens), -record.point.qor);
    }

    // -- Optimisation loop (lines 6-11).
    while run.running() {
        let incumbent = run
            .history
            .iter()
            .map(|r| -r.point.qor)
            .fold(f64::NEG_INFINITY, f64::max);
        let tr = match region {
            Some(region) if cfg.use_trust_region => Some((center.tokens.as_slice(), region.radius)),
            _ => None,
        };
        let gp = surrogate.maybe_retrain()?;
        let batch = run.propose(gp, incumbent, tr);
        let batch_start = run.evaluate(&batch);
        for record in &run.history[batch_start..] {
            surrogate.observe(input.embed(&record.tokens), -record.point.qor);
        }
        // On a stop, the (possibly partial) resolved prefix is already in
        // the history; the schedule below would never be read again.
        let Some(region) = region.as_mut().filter(|_| run.stop.is_none()) else {
            continue;
        };
        // -- Trust-region schedule (line 10): the batch is one acquisition
        // decision, so it advances the schedule by one step, judged on its
        // best point. A collapsed radius restarts the region around a
        // random point.
        let best_new = best_of(&run.history[batch_start..]).clone();
        if best_new.point.qor < center.point.qor {
            center = best_new;
            region.step(true);
        } else if region.step(false) && run.history.len() < cfg.max_evaluations {
            if let Some(record) = run.restart_point() {
                surrogate.observe(input.embed(&record.tokens), -record.point.qor);
                center = record;
            }
        }
    }
    run.diagnostics.retrains_at = surrogate.diagnostics().retrains_at.clone();
    run.diagnostics.surrogate = surrogate.diagnostics().clone();
    Ok(run.finish())
}

/// The multi-objective BO loop (ParEGO-style) shared by BOiLS and SBO:
/// each iteration draws a fresh random-weight augmented-Chebyshev
/// [`Scalarisation`] of the cost vectors, fits a GP on the scalarised
/// history, and proposes a constant-liar q-EI batch against it — across
/// iterations the weight ensemble sweeps the whole Pareto front, including
/// its non-convex regions. With a `region` (BOiLS), trust-region progress
/// is judged by 2-D hypervolume improvement of the evaluated front, and a
/// collapsed radius is simply reset. The result's
/// [`pareto_front`](OptimizationResult::pareto_front) is the nondominated
/// archive over every evaluation.
pub(crate) fn run_parego<I: SurrogateInput, O: SequenceObjective>(
    cfg: &BoilsConfig,
    input: &I,
    mut region: Option<TrustRegion>,
    objective: &O,
    control: &RunControl,
    diagnostics: &mut RunDiagnostics,
) -> Result<OptimizationResult, RunBoilsError> {
    let mut run = BoRun::start(cfg, input, None, objective, control, diagnostics)?;
    let mut vectors: Vec<Vec<f64>> = run
        .history
        .iter()
        .map(|record| mo_vector(objective, record))
        .collect();
    let dim = vectors
        .iter()
        .find(|v| v.first().copied().unwrap_or(QUARANTINE_QOR) < QUARANTINE_QOR)
        .map_or(2, Vec::len);
    let reference = mo_reference(&vectors);
    // Scalarised targets change every iteration, so the GP is refitted per
    // iteration rather than extended; a match-caching SSK keeps each
    // refit's Gram fill warm.
    let kernel = input.kernel();
    while run.running() {
        // One random scalarisation per acquisition decision (ParEGO).
        let scalarisation = Scalarisation::sample(dim, &mut run.rng);
        let ys: Vec<f64> = vectors
            .iter()
            .map(|v| -scalarisation.scalarise(v))
            .collect();
        let xs: Vec<I::X> = run.history.iter().map(|r| input.embed(&r.tokens)).collect();
        let gp = Gp::fit(kernel.clone(), xs, ys.clone(), cfg.noise)?;
        let incumbent = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // The trust region re-centres on the current scalarisation's best
        // point: each weight draw explores around a different part of the
        // front.
        let center = match region {
            Some(region) if cfg.use_trust_region => ys
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scalarised cost"))
                .map(|(i, _)| (run.history[i].tokens.clone(), region.radius)),
            _ => None,
        };
        let tr = center
            .as_ref()
            .map(|(tokens, radius)| (tokens.as_slice(), *radius));
        let batch = run.propose(&gp, incumbent, tr);
        drop(gp);
        let batch_start = run.evaluate(&batch);
        for record in &run.history[batch_start..] {
            vectors.push(mo_vector(objective, record));
        }
        let Some(region) = region.as_mut().filter(|_| run.stop.is_none()) else {
            continue;
        };
        // The batch counts as one acquisition decision; it succeeds if any
        // of its points grows the dominated hypervolume of the pre-batch
        // front.
        let front_before = mo_points(&vectors[..batch_start]);
        let improved = dim == 2
            && mo_points(&vectors[batch_start..])
                .into_iter()
                .any(|p| hypervolume_improvement_2d(&front_before, p, reference) > 0.0);
        region.step(improved);
    }
    Ok(run.finish())
}

fn best_of(history: &[EvalRecord]) -> &EvalRecord {
    history
        .iter()
        .min_by(|a, b| a.point.qor.partial_cmp(&b.point.qor).expect("finite QoR"))
        .expect("non-empty history")
}

/// First-improvement hill climbing on an acquisition function, optionally
/// restricted to a Hamming ball. Shared by BOiLS and SBO.
fn hill_climb<R: Rng>(
    space: &SequenceSpace,
    trust_region: Option<(&[u8], usize)>,
    acquisition: &dyn Fn(&Vec<u8>) -> f64,
    restarts: usize,
    steps: usize,
    neighbors: usize,
    rng: &mut R,
) -> Vec<u8> {
    let mut best: Option<(f64, Vec<u8>)> = None;
    // One scratch buffer for every neighbour probe: the inner loop used to
    // allocate a fresh candidate Vec per probe (restarts × steps ×
    // neighbors of them per BO iteration); now an accepted move just swaps
    // buffers.
    let mut scratch: Vec<u8> = Vec::with_capacity(space.length());
    for _ in 0..restarts.max(1) {
        let mut current = match trust_region {
            Some((center, radius)) => space.sample_in_ball(center, radius.max(1), rng),
            None => space.sample(rng),
        };
        let mut current_value = acquisition(&current);
        for _ in 0..steps {
            let mut improved = false;
            for _ in 0..neighbors {
                space.random_neighbor_into(&current, &mut scratch, rng);
                if let Some((center, radius)) = trust_region {
                    if space.hamming(center, &scratch) > radius {
                        continue;
                    }
                }
                let v = acquisition(&scratch);
                if v > current_value {
                    std::mem::swap(&mut current, &mut scratch);
                    current_value = v;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        if best.as_ref().is_none_or(|(v, _)| current_value > *v) {
            best = Some((current_value, current));
        }
    }
    best.expect("at least one restart").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qor::QorEvaluator;
    use boils_aig::random_aig;

    fn small_config(budget: usize) -> BoilsConfig {
        BoilsConfig {
            max_evaluations: budget,
            initial_samples: 6,
            space: SequenceSpace::new(6, 11),
            acq_restarts: 2,
            acq_steps: 4,
            acq_neighbors: 10,
            train: TrainConfig {
                steps: 5,
                ..TrainConfig::default()
            },
            seed: 7,
            ..BoilsConfig::default()
        }
    }

    #[test]
    fn runs_within_budget_and_returns_best() {
        let aig = random_aig(11, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("non-degenerate");
        let mut boils = Boils::new(small_config(12));
        let result = boils.run(&evaluator).expect("run succeeds");
        assert_eq!(result.num_evaluations(), 12);
        assert!(result.best_qor <= result.history[0].point.qor);
        // The best-so-far curve must be monotone non-increasing.
        let curve = result.best_so_far();
        assert!(curve.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn rejects_budget_below_initial_design() {
        let aig = random_aig(13, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("non-degenerate");
        let mut boils = Boils::new(small_config(3));
        assert!(matches!(
            boils.run(&evaluator),
            Err(RunBoilsError::BudgetTooSmall { .. })
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let aig = random_aig(17, 8, 300, 3);
        let e1 = QorEvaluator::new(&aig).expect("ok");
        let e2 = QorEvaluator::new(&aig).expect("ok");
        let r1 = Boils::new(small_config(10)).run(&e1).expect("run");
        let r2 = Boils::new(small_config(10)).run(&e2).expect("run");
        assert_eq!(r1.best_tokens, r2.best_tokens);
        assert_eq!(r1.best_qor, r2.best_qor);
    }

    #[test]
    fn pre_cancelled_control_reports_interrupted() {
        let aig = random_aig(23, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let control = RunControl::new();
        control.cancel();
        let mut boils = Boils::new(small_config(10));
        assert!(matches!(
            boils.run_with_control(&evaluator, &control),
            Err(RunBoilsError::Interrupted(StopReason::Cancelled))
        ));
        // Nothing was evaluated: the budget was never touched.
        assert_eq!(evaluator.num_evaluations(), 0);
    }

    #[test]
    fn uncontrolled_run_reports_budget_exhausted() {
        let aig = random_aig(11, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let mut boils = Boils::new(small_config(8));
        let result = boils.run(&evaluator).expect("run");
        assert_eq!(result.termination, Termination::BudgetExhausted);
        assert!(result.quarantined.is_empty());
        assert_eq!(
            boils.diagnostics().termination,
            Termination::BudgetExhausted
        );
    }

    #[test]
    fn multi_objective_run_maintains_a_nondominated_archive() {
        let aig = random_aig(29, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let mut boils = Boils::new(BoilsConfig {
            multi_objective: true,
            ..small_config(12)
        });
        let result = boils.run(&evaluator).expect("mo run");
        assert_eq!(result.num_evaluations(), 12);
        assert_eq!(result.objective, "qor");
        assert_eq!(boils.diagnostics().objective, "qor");
        assert!(!result.pareto_front.is_empty());
        // Every archive entry sits in the history and is nondominated.
        for kept in &result.pareto_front {
            assert!(result.history.iter().any(|r| r.tokens == kept.tokens));
            for seen in &result.history {
                let dominates = seen.point.area <= kept.point.area
                    && seen.point.delay <= kept.point.delay
                    && (seen.point.area < kept.point.area || seen.point.delay < kept.point.delay);
                assert!(!dominates, "archived point dominated by an evaluation");
            }
        }
    }

    #[test]
    fn multi_objective_run_is_deterministic_given_seed() {
        let aig = random_aig(31, 8, 300, 3);
        let e1 = QorEvaluator::new(&aig).expect("ok");
        let e2 = QorEvaluator::new(&aig).expect("ok");
        let config = BoilsConfig {
            multi_objective: true,
            ..small_config(10)
        };
        let r1 = Boils::new(config.clone()).run(&e1).expect("run");
        let r2 = Boils::new(config).run(&e2).expect("run");
        let t1: Vec<&[u8]> = r1.history.iter().map(|r| r.tokens.as_slice()).collect();
        let t2: Vec<&[u8]> = r2.history.iter().map(|r| r.tokens.as_slice()).collect();
        assert_eq!(t1, t2);
    }

    #[test]
    fn ucb_acquisition_runs_within_budget() {
        let aig = random_aig(19, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let mut boils = Boils::new(BoilsConfig {
            acquisition: Acquisition::UpperConfidenceBound { beta: 2.0 },
            ..small_config(10)
        });
        let r = boils.run(&evaluator).expect("run");
        assert_eq!(r.num_evaluations(), 10);
    }

    /// An objective whose memo cache claims to hold *everything* except a
    /// single needle sequence.
    struct AllButOne {
        needle: Vec<u8>,
    }

    impl crate::eval::SequenceObjective for AllButOne {
        fn evaluate_tokens(&self, tokens: &[u8]) -> crate::QorPoint {
            crate::QorPoint {
                qor: 2.0,
                area: tokens.len(),
                delay: 1,
            }
        }

        fn lookup(&self, tokens: &[u8]) -> Option<crate::QorPoint> {
            (tokens != self.needle.as_slice()).then(|| self.evaluate_tokens(tokens))
        }

        fn is_cached(&self, tokens: &[u8]) -> bool {
            tokens != self.needle.as_slice()
        }

        fn num_evaluations(&self) -> usize {
            0
        }
    }

    #[test]
    fn fresh_candidate_sweeps_to_the_only_uncached_sequence() {
        // One fresh sequence among 11^6 ≈ 1.8M: the 32 random resamples
        // cannot realistically find it, so only the deterministic
        // lexicographic sweep can — and must.
        let space = SequenceSpace::new(6, 11);
        let needle = vec![4u8, 9, 0, 2, 7, 1];
        let objective = AllButOne {
            needle: needle.clone(),
        };
        let mut rng = StdRng::seed_from_u64(8);
        let start = vec![10u8; 6];
        let (found, outcome) = fresh_candidate(&objective, &space, None, &[], start, &mut rng);
        assert_eq!(found, needle);
        assert_eq!(outcome, FreshOutcome::Swept);
    }

    #[test]
    fn fresh_candidate_reports_exhaustion_when_the_batch_holds_the_last_point() {
        // The needle is already pending in the current batch: nothing in
        // the space is available, so the guard concedes with `Exhausted`
        // and hands back the (duplicate) acquisition candidate.
        let space = SequenceSpace::new(2, 2);
        let needle = vec![1u8, 0];
        let objective = AllButOne {
            needle: needle.clone(),
        };
        let mut rng = StdRng::seed_from_u64(8);
        let pending = vec![needle];
        let (found, outcome) =
            fresh_candidate(&objective, &space, None, &pending, vec![0, 0], &mut rng);
        assert_eq!(outcome, FreshOutcome::Exhausted);
        assert!(objective.is_cached(&found) || pending.contains(&found));
    }

    #[test]
    fn fresh_candidate_accepts_a_fresh_argmax_without_touching_the_rng() {
        let space = SequenceSpace::new(6, 11);
        let needle = vec![4u8, 9, 0, 2, 7, 1];
        let objective = AllButOne {
            needle: needle.clone(),
        };
        let mut rng = StdRng::seed_from_u64(8);
        let (found, outcome) =
            fresh_candidate(&objective, &space, None, &[], needle.clone(), &mut rng);
        assert_eq!(found, needle);
        assert_eq!(outcome, FreshOutcome::Direct);
        let mut untouched = StdRng::seed_from_u64(8);
        assert_eq!(
            rng.gen_range(0..1_000_000usize),
            untouched.gen_range(0..1_000_000usize),
            "a fresh argmax must not consume RNG draws"
        );
    }

    #[test]
    fn hill_climb_finds_a_planted_optimum() {
        // Acquisition = number of zeros; optimum is the all-zero sequence.
        let space = SequenceSpace::new(8, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let acq = |t: &Vec<u8>| t.iter().filter(|&&x| x == 0).count() as f64;
        let found = hill_climb(&space, None, &acq, 4, 30, 24, &mut rng);
        assert!(
            found.iter().filter(|&&x| x == 0).count() >= 7,
            "hill climbing stalled at {found:?}"
        );
    }

    #[test]
    fn hill_climb_respects_trust_region() {
        let space = SequenceSpace::new(10, 11);
        let mut rng = StdRng::seed_from_u64(2);
        let center = vec![5u8; 10];
        let acq = |t: &Vec<u8>| t.iter().map(|&x| x as f64).sum();
        for radius in [1usize, 2, 3] {
            let found = hill_climb(&space, Some((&center, radius)), &acq, 3, 10, 20, &mut rng);
            assert!(space.hamming(&center, &found) <= radius);
        }
    }
}
