//! The `daemon_restart` workload: a daemon restarted on a primed cache.
//!
//! Set-up primes a fresh cache directory with one daemon session. Each
//! timed repetition restarts an in-process daemon (two workers) on a copy
//! of a primed directory and submits one burst of mixed jobs over one
//! connection: random search and small-budget BOiLS on adder(32) and
//! max(16), with `qor` and `lut` objectives, and with seeds both primed
//! (disk reads) and new (synthesis and disk writes). Every repetition gets
//! new seeds of its own, so a run averages over more sequences. The `lut`
//! twins run at low priority, after their `qor` twins, so they are served
//! from the shared value cache.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use boils_aig::Aig;
use boils_baselines::Method;
use boils_circuits::{Benchmark, CircuitSpec};
use boils_core::{Objective, PrefixStats, Priority, QorEvaluator};
use boils_daemon::{Client, DaemonConfig, JobRequest, Server, Value};
use boils_mapper::SynthStats;
use boils_synth::Transform;

use crate::metrics::median;
use crate::replay::{LayerSamples, Replay};
use crate::trace::Tracer;
use crate::{end_to_end, measure, out_dir, repetitions, sample_note, Measured, Outcome, Timing};

/// The circuits the jobs run on: `(benchmark, bits)`.
const CIRCUITS: [(Benchmark, usize); 2] = [(Benchmark::Adder, 32), (Benchmark::Max, 16)];
/// Random-search job budget.
const RS_BUDGET: usize = 8;
/// BOiLS job budget (4 initial samples, then 6 BO steps).
const BOILS_BUDGET: usize = 10;
/// About how long one repetition takes on two cores, in seconds.
const REP_SECONDS: f64 = 6.0;
/// Primed cache directories made by set-up; restarts cycle through copies.
const PRIMED_DIRS: usize = 3;
/// Daemon worker threads.
const WORKERS: usize = 2;
/// Stored sequences per circuit a traced run replays into a fresh store.
const STORE_REPLAY_SEQUENCES: usize = 4;

/// One job of the mix.
#[derive(Clone, Debug)]
struct Job {
    circuit: usize,
    method: Method,
    objective: Objective,
    seed: u64,
    priority: Priority,
}

impl Job {
    fn budget(&self) -> usize {
        match self.method {
            Method::Boils => BOILS_BUDGET,
            _ => RS_BUDGET,
        }
    }

    fn request(&self) -> JobRequest {
        let (circuit, bits) = CIRCUITS[self.circuit];
        JobRequest {
            circuit,
            bits: Some(bits),
            method: self.method,
            objective: self.objective,
            budget: self.budget(),
            seed: self.seed,
            sequence_length: 20,
            priority: self.priority,
            deadline_secs: None,
            multi_objective: false,
            transfer: false,
        }
    }
}

fn job(circuit: usize, method: Method, objective: Objective, seed: u64, priority: Priority) -> Job {
    Job {
        circuit,
        method,
        objective,
        seed,
        priority,
    }
}

/// The jobs the set-up session runs: seed `primed` on every circuit.
fn prime_jobs(primed: u64) -> Vec<Job> {
    (0..CIRCUITS.len())
        .flat_map(|c| {
            [
                job(c, Method::Rs, Objective::Qor, primed, Priority::Normal),
                job(c, Method::Boils, Objective::Qor, primed, Priority::Normal),
            ]
        })
        .collect()
}

/// The primed seed of a workload seed.
fn primed_seed(seed: u64) -> u64 {
    seed.wrapping_mul(1 << 10)
}

/// The burst the restarted daemon takes in repetition `rep`: per circuit,
/// rs and BOiLS on the primed seed, rs on two new seeds and BOiLS on one,
/// then the `lut` twins of the rs jobs on the primed and first new seed.
fn burst_jobs(seed: u64, rep: usize) -> Vec<Job> {
    let primed = primed_seed(seed);
    let new = primed.wrapping_add(1 + 2 * rep as u64);
    let mut jobs = Vec::new();
    for c in 0..CIRCUITS.len() {
        for (method, seed) in [
            (Method::Rs, primed),
            (Method::Boils, primed),
            (Method::Rs, new),
            (Method::Rs, new.wrapping_add(1)),
            (Method::Boils, new),
        ] {
            jobs.push(job(c, method, Objective::Qor, seed, Priority::Normal));
        }
    }
    for c in 0..CIRCUITS.len() {
        for seed in [primed, new] {
            jobs.push(job(c, Method::Rs, Objective::LutCount, seed, Priority::Low));
        }
    }
    jobs
}

/// A `finished` event's fields.
#[derive(Clone, Debug)]
struct Finished {
    termination: String,
    best_qor: f64,
    best_sequence: String,
    evaluations: usize,
    unique: usize,
    shared_hits: usize,
    quarantined: usize,
    tiers: PrefixStats,
}

/// One job's lifecycle as the client saw it (tracer clock, seconds).
#[derive(Clone, Debug, Default)]
struct JobLog {
    submitted: f64,
    started: Option<f64>,
    ended: Option<f64>,
    finished: Option<Finished>,
    rejected: Option<String>,
    failed: Option<String>,
}

/// One daemon session: its jobs and its wall time.
struct Session {
    jobs: Vec<JobLog>,
    run_s: f64,
}

fn count(event: &Value, key: &str) -> usize {
    event.get(key).and_then(Value::as_u64).unwrap_or(0) as usize
}

fn finished_of(event: &Value) -> Finished {
    Finished {
        termination: event
            .get("termination")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        best_qor: event
            .get("best_qor")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN),
        best_sequence: event
            .get("best_sequence")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        evaluations: count(event, "evaluations"),
        unique: count(event, "unique_evaluations"),
        shared_hits: count(event, "shared_hits"),
        quarantined: count(event, "quarantined"),
        tiers: PrefixStats {
            disk_hits: count(event, "disk_hits"),
            disk_writes: count(event, "disk_writes"),
            dedup_hits: count(event, "dedup_hits"),
            ..PrefixStats::default()
        },
    }
}

/// Starts a daemon on `dir`, submits `jobs` over one connection, waits for
/// every terminal event, and shuts the daemon down.
fn session(dir: &Path, jobs: &[Job], tracer: &Tracer, run: usize) -> Result<Session, String> {
    let start = tracer.now();
    let config = DaemonConfig {
        workers: WORKERS,
        queue_cap: 64,
        cache_dir: Some(dir.to_path_buf()),
    };
    let server = Server::bind(config, "127.0.0.1:0")?;
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    // Without a connection the daemon cannot be asked to shut down; its
    // thread then ends with the process, which reports this error and exits.
    let client = Client::connect(&addr)?;
    let driven = drive(client, jobs, tracer);
    let served = handle
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?;
    let (logs, end) = driven?;
    served?;
    let root = tracer.record(run, "daemon", "daemon.session", None, start, end);
    for log in &logs {
        if let (Some(started), Some(ended)) = (log.started, log.ended) {
            let job = tracer.record(
                run,
                "daemon",
                "daemon.job",
                Some(root),
                log.submitted,
                ended,
            );
            tracer.record(
                run,
                "daemon",
                "daemon.queue_wait",
                Some(job),
                log.submitted,
                started,
            );
            tracer.record(run, "daemon", "daemon.service", Some(job), started, ended);
        }
    }
    Ok(Session {
        jobs: logs,
        run_s: end - start,
    })
}

/// The client side of a session. Always asks the daemon to shut down, so
/// the server thread can be joined even when a job went wrong.
fn drive(mut client: Client, jobs: &[Job], tracer: &Tracer) -> Result<(Vec<JobLog>, f64), String> {
    let mut logs = vec![JobLog::default(); jobs.len()];
    let mut submitted = 0;
    let mut result = Ok(());
    for (log, job) in logs.iter_mut().zip(jobs) {
        log.submitted = tracer.now();
        result = client.submit(&job.request());
        if result.is_err() {
            break;
        }
        submitted += 1;
    }
    // Queued/rejected answers arrive in submission order; later events
    // name their job id.
    let mut answered = 0;
    let mut index_of: BTreeMap<u64, usize> = BTreeMap::new();
    let mut open = submitted;
    let mut end = tracer.now();
    while result.is_ok() && open > 0 {
        let event = match client.next_event() {
            Ok(Some(event)) => event,
            Ok(None) => {
                result = Err("daemon closed the connection early".to_string());
                break;
            }
            Err(e) => {
                result = Err(e);
                break;
            }
        };
        let now = tracer.now();
        let kind = event.get("event").and_then(Value::as_str).unwrap_or("");
        let id = event.get("job").and_then(Value::as_u64);
        let index = id.and_then(|id| index_of.get(&id).copied());
        match (kind, index) {
            ("queued", _) => {
                if let Some(id) = id {
                    index_of.insert(id, answered);
                }
                answered += 1;
            }
            ("rejected", _) => {
                let reason = event.get("reason").and_then(Value::as_str).unwrap_or("");
                if answered < submitted {
                    logs[answered].rejected = Some(reason.to_string());
                    answered += 1;
                    open -= 1;
                }
            }
            ("started", Some(i)) => logs[i].started = Some(now),
            ("finished", Some(i)) => {
                logs[i].finished = Some(finished_of(&event));
                logs[i].ended = Some(now);
                open -= 1;
                end = now;
            }
            ("failed", Some(i)) => {
                let reason = event.get("reason").and_then(Value::as_str).unwrap_or("");
                logs[i].failed = Some(reason.to_string());
                logs[i].ended = Some(now);
                open -= 1;
                end = now;
            }
            _ => {}
        }
    }
    let shutdown = client.shutdown();
    while let Ok(Some(_)) = client.next_event() {}
    result?;
    shutdown?;
    Ok((logs, end))
}

/// The circuits and their resyn2 references, built once per set-up.
#[derive(Clone)]
struct Circuits {
    aigs: Vec<Aig>,
    references: Vec<SynthStats>,
}

fn build_circuits() -> Result<Circuits, String> {
    let aigs: Vec<Aig> = CIRCUITS
        .iter()
        .map(|&(b, bits)| CircuitSpec::new(b).bits(bits).build())
        .collect();
    let references = aigs
        .iter()
        .map(|aig| {
            QorEvaluator::new(aig)
                .map(|e| e.reference_stats())
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(Circuits { aigs, references })
}

/// What set-up leaves behind: the circuits and a primed cache directory.
struct Primed {
    circuits: Circuits,
    dir: PathBuf,
}

impl Primed {
    /// A copy of this set-up on a fresh copy of its cache directory, so
    /// every restart starts from the same primed store.
    fn copy(&self, scratch: &mut Scratch) -> Result<Primed, String> {
        let dir = scratch.fresh()?;
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| format!("list {}: {e}", self.dir.display()))?;
        for entry in entries {
            let from = entry.map_err(|e| e.to_string())?.path();
            let to = dir.join(from.file_name().unwrap_or_default());
            std::fs::copy(&from, &to)
                .map_err(|e| format!("copy {} to {}: {e}", from.display(), to.display()))?;
        }
        Ok(Primed {
            circuits: self.circuits.clone(),
            dir,
        })
    }
}

/// One timed repetition.
struct Rep {
    primed: Primed,
    jobs: Vec<Job>,
    session: Session,
}

/// Scratch directories of one process, removed when dropped.
struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            root: out_dir().join(format!("daemon-{}", std::process::id())),
            next: 0,
        }
    }

    fn fresh(&mut self) -> Result<PathBuf, String> {
        self.next += 1;
        let dir = self.root.join(format!("cache{}", self.next));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Set-up: builds the circuits and primes a fresh cache directory with
/// one daemon session, returned for checking.
fn prime(scratch: &mut Scratch, jobs: &[Job], outcome: &mut Outcome) -> Result<Primed, String> {
    let circuits = build_circuits()?;
    let dir = scratch.fresh()?;
    let off = Tracer::new(false);
    let session = session(&dir, jobs, &off, 0)?;
    check_session("prime", jobs, &session, outcome);
    Ok(Primed { circuits, dir })
}

fn restart(primed: Primed, jobs: Vec<Job>, tracer: &Tracer) -> Result<Rep, String> {
    let run = tracer.begin_run("daemon_restart burst");
    let session = session(&primed.dir, &jobs, tracer, run)?;
    Ok(Rep {
        primed,
        jobs,
        session,
    })
}

/// Timings of a burst: per-evaluation latency is each job's service time
/// divided by its evaluations, counted once per evaluation.
fn timing(session: &Session) -> Timing {
    let mut timing = Timing {
        run_s: session.run_s,
        ..Timing::default()
    };
    for log in &session.jobs {
        if let (Some(f), Some(started), Some(ended)) = (&log.finished, log.started, log.ended) {
            timing.unique += f.unique;
            timing.job_s.push(ended - log.submitted);
            if f.evaluations > 0 {
                let ms = (ended - started) * 1e3 / f.evaluations as f64;
                timing
                    .eval_ms
                    .extend(std::iter::repeat_n(ms, f.evaluations));
            }
        }
    }
    timing
}

/// Parses a `best_sequence` (`Rw;Rz;...`) into tokens.
fn tokens_of(sequence: &str) -> Result<Vec<u8>, String> {
    sequence
        .split(';')
        .map(|code| {
            code.parse::<Transform>()
                .map(|t| t.index() as u8)
                .map_err(|_| format!("unknown transform {code:?} in {sequence:?}"))
        })
        .collect()
}

/// Checks every job of a session: finished, budget exhausted, nothing
/// quarantined. Counts attempted and failed jobs.
fn check_session(what: &str, jobs: &[Job], session: &Session, outcome: &mut Outcome) {
    for (job, log) in jobs.iter().zip(&session.jobs) {
        outcome.attempted += 1;
        let ok = match &log.finished {
            Some(f) => {
                f.termination == "budget-exhausted"
                    && f.evaluations == job.budget()
                    && f.quarantined == 0
            }
            None => false,
        };
        if !ok {
            outcome.failed += 1;
            outcome.problems.push(format!(
                "{what} job {job:?} did not finish with budget-exhausted: {:?}, rejected {:?}, failed {:?}",
                log.finished, log.rejected, log.failed
            ));
        }
    }
}

/// Cross-checks the bursts' results. Jobs on the primed seed give the same
/// result in every repetition. In the first repetition, each job's best
/// cost equals a fresh cache-free evaluation of its best sequence, and each
/// circuit's best sequence is equivalent to the circuit.
fn check_results(
    reps: &[Rep],
    tracer: &Tracer,
    run: usize,
    samples: &mut LayerSamples,
    outcome: &mut Outcome,
) {
    let first = &reps[0];
    let best = |rep: &Rep, i: usize| {
        rep.session.jobs[i]
            .finished
            .as_ref()
            .map(|f| (f.best_qor.to_bits(), f.best_sequence.clone()))
    };
    for rep in &reps[1..] {
        let same = (0..first.jobs.len())
            .filter(|&i| rep.jobs[i].seed == first.jobs[i].seed)
            .all(|i| best(rep, i) == best(first, i));
        outcome.check(same, || {
            "primed-seed jobs diverged between restarts".to_string()
        });
    }
    let circuits = &first.primed.circuits;
    let mut best_per_circuit: Vec<Option<(f64, Vec<u8>)>> = vec![None; CIRCUITS.len()];
    for (job, log) in first.jobs.iter().zip(&first.session.jobs) {
        let Some(f) = &log.finished else { continue };
        let tokens = match tokens_of(&f.best_sequence) {
            Ok(tokens) => tokens,
            Err(problem) => {
                outcome.problems.push(problem);
                continue;
            }
        };
        let fresh = QorEvaluator::new(&circuits.aigs[job.circuit])
            .map(|e| e.without_prefix_cache().with_objective(job.objective));
        match fresh {
            Ok(fresh) => {
                let again = fresh.evaluate_tokens(&tokens).qor;
                outcome.check(again.to_bits() == f.best_qor.to_bits(), || {
                    format!(
                        "job {job:?}: best_qor {} but a fresh evaluation gives {again}",
                        f.best_qor
                    )
                });
            }
            Err(e) => outcome.problems.push(e.to_string()),
        }
        let slot = &mut best_per_circuit[job.circuit];
        if job.objective == Objective::Qor && slot.as_ref().is_none_or(|(q, _)| f.best_qor < *q) {
            *slot = Some((f.best_qor, tokens));
        }
    }
    for (c, best) in best_per_circuit.iter().enumerate() {
        let Some((_, tokens)) = best else { continue };
        let replay = Replay::new(tracer, run, &circuits.aigs[c], circuits.references[c]);
        if let Err(problem) = replay.equivalence(tokens, samples) {
            outcome.problems.push(problem);
        }
    }
}

/// Geometric mean of the `qor`-objective jobs' best costs.
fn best_qor(reps: &[Rep]) -> f64 {
    let logs: Vec<f64> = reps
        .iter()
        .flat_map(|rep| rep.jobs.iter().zip(&rep.session.jobs))
        .filter(|(job, _)| job.objective == Objective::Qor)
        .filter_map(|(_, log)| log.finished.as_ref().map(|f| f.best_qor.ln()))
        .collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

/// The full-length sequences the store at `dir` holds for `aig`, sorted by
/// file name: everything the daemon evaluated on that circuit.
fn stored_sequences(dir: &Path, aig: &Aig) -> Result<Vec<Vec<u8>>, String> {
    let prefix = format!("{:016x}-", aig.content_hash());
    let entries = std::fs::read_dir(dir).map_err(|e| format!("list {}: {e}", dir.display()))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(&prefix) && n.ends_with(".aig"))
        .collect();
    names.sort();
    let mut sequences = Vec::new();
    for name in names {
        let hex = &name[prefix.len()..name.len() - ".aig".len()];
        if hex.len() != 40 {
            continue;
        }
        let tokens = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16))
            .collect::<Result<Vec<u8>, _>>()
            .map_err(|e| format!("pointer {name}: {e}"))?;
        sequences.push(tokens);
    }
    Ok(sequences)
}

/// Runs the workload (see [`crate::single::run`] for the two modes).
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(problem) = run_into(seed, seconds, trace, &mut outcome) {
        outcome.problems.push(problem);
    }
    outcome
}

fn run_into(seed: u64, seconds: f64, trace: bool, outcome: &mut Outcome) -> Result<(), String> {
    let prime_list = prime_jobs(primed_seed(seed));
    let mut scratch = Scratch::new();
    if !trace {
        let mut setups = Vec::new();
        let mut primed = Vec::new();
        for _ in 0..PRIMED_DIRS {
            let start = Instant::now();
            primed.push(prime(&mut scratch, &prime_list, outcome)?);
            setups.push(start.elapsed().as_secs_f64());
        }
        let off = Tracer::new(false);
        let mut next = 0;
        let Measured { reps, peaks_mb, .. } = measure(
            repetitions(seconds, REP_SECONDS),
            0,
            || {
                next += 1;
                primed[next % PRIMED_DIRS].copy(&mut scratch)
            },
            |i, p| restart(p, burst_jobs(seed, i), &off),
        )?;
        for rep in &reps {
            check_session("burst", &rep.jobs, &rep.session, outcome);
        }
        check_results(&reps, &off, 0, &mut LayerSamples::default(), outcome);
        let timings: Vec<Timing> = reps
            .iter()
            .zip(peaks_mb)
            .map(|(r, peak_rss_mb)| Timing {
                peak_rss_mb,
                ..timing(&r.session)
            })
            .collect();
        outcome.notes.push(sample_note(&setups, &timings));
        outcome.metrics = end_to_end(
            &setups,
            &timings,
            best_qor(&reps),
            outcome.attempted,
            outcome.failed,
        );
        return Ok(());
    }
    let tracer = Tracer::new(true);
    let primed = prime(&mut scratch, &prime_list, outcome)?;
    let reps = [restart(primed, burst_jobs(seed, 0), &tracer)?];
    let traced_s = reps[0].session.run_s;
    let overhead_s = tracer.overhead_s();
    check_session("burst", &reps[0].jobs, &reps[0].session, outcome);
    let run = tracer.begin_run(format!("daemon_restart seed {seed} replay"));
    let mut samples = LayerSamples::default();
    check_results(&reps, &tracer, run, &mut samples, outcome);
    let traced = &reps[0];

    // Replay what the restarted daemon's store holds through each layer.
    let circuits = &traced.primed.circuits;
    let mut replayed = 0;
    for (c, aig) in circuits.aigs.iter().enumerate() {
        let replay = Replay::new(&tracer, run, aig, circuits.references[c]);
        replay.open(&traced.primed.dir, None, &mut samples)?;
        let sequences = stored_sequences(&traced.primed.dir, aig)?;
        replayed += sequences.len();
        let stats = replay.synth_and_map(&sequences, &mut samples);
        let qors: Vec<f64> = stats.iter().map(|s| replay.qor(s)).collect();
        let dir = scratch.fresh()?;
        let stored = sequences.len().min(STORE_REPLAY_SEQUENCES);
        replay.store(&sequences[..stored], &dir, &mut samples)?;
        replay.gp(&sequences, &qors, &mut samples)?;
    }

    let m = &mut outcome.metrics;
    samples.finish(m);
    // The daemon's own store counters replace the replay's: per circuit,
    // the last `finished` event carries the session's cumulative totals.
    let mut last: BTreeMap<usize, PrefixStats> = BTreeMap::new();
    for (job, log) in traced.jobs.iter().zip(&traced.session.jobs) {
        if let Some(f) = &log.finished {
            last.insert(job.circuit, f.tiers);
        }
    }
    let finished: Vec<&Finished> = traced
        .session
        .jobs
        .iter()
        .filter_map(|l| l.finished.as_ref())
        .collect();
    let ran: Vec<(f64, f64, f64)> = traced
        .session
        .jobs
        .iter()
        .filter_map(|l| Some((l.submitted, l.started?, l.ended?)))
        .collect();
    let service: Vec<f64> = ran.iter().map(|(_, s, e)| e - s).collect();
    let waits: Vec<f64> = ran.iter().map(|(q, s, _)| s - q).collect();
    m.set("core.store.disk_hits", store_total(&last, |t| t.disk_hits));
    m.set(
        "core.store.disk_writes",
        store_total(&last, |t| t.disk_writes),
    );
    m.set(
        "core.store.dedup_hits",
        store_total(&last, |t| t.dedup_hits),
    );
    let evaluations: usize = finished.iter().map(|f| f.evaluations).sum();
    let unique: usize = finished.iter().map(|f| f.unique).sum();
    let shared: usize = finished.iter().map(|f| f.shared_hits).sum();
    m.set("core.eval.calls", evaluations as f64);
    m.set("core.eval.unique", unique as f64);
    m.set("core.eval.cache_hits", shared as f64);
    m.set("daemon.queue_wait_s.p50", median(&waits));
    m.set("daemon.service_s.p50", median(&service));
    m.set("daemon.shared_hits", shared as f64);
    m.set("daemon.unique_evals", unique as f64);
    let logs = &traced.session.jobs;
    m.set(
        "daemon.rejected",
        logs.iter().filter(|l| l.rejected.is_some()).count() as f64,
    );
    m.set(
        "daemon.failed",
        logs.iter().filter(|l| l.failed.is_some()).count() as f64,
    );
    m.set(
        "core.batch.parallel_efficiency",
        service.iter().sum::<f64>() / (WORKERS as f64 * traced_s),
    );
    m.set("trace.overhead_ratio", overhead_s / traced_s);
    outcome.notes.push(format!(
        "traced run_s {traced_s:.6}, {overhead_s:.6} s of it recording spans; {} jobs; replayed {replayed} stored sequences",
        traced.jobs.len()
    ));
    let path = out_dir().join(format!("trace-daemon_restart-seed{seed}.jsonl"));
    tracer
        .write_jsonl(
            &path,
            &format!("{{\"workload\":\"daemon_restart\",\"seed\":{seed}}}"),
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    outcome
        .notes
        .push(format!("spans written to {}", path.display()));
    Ok(())
}

fn store_total(last: &BTreeMap<usize, PrefixStats>, field: impl Fn(&PrefixStats) -> usize) -> f64 {
    last.values().map(field).sum::<usize>() as f64
}
