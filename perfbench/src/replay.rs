//! Per-layer replays of a workload's own recorded traffic.
//!
//! The end-to-end run only shows the `core.eval` boundary; the layers
//! below it (synthesis per transform, mapping, the persistent store) and
//! beside it (the surrogate) are measured by replaying the sequences the
//! run actually evaluated through each layer's public functions, one call
//! at a time, with a span around every call.

use std::collections::BTreeMap;
use std::path::Path;

use boils_aig::Aig;
use boils_core::{BoilsConfig, Objective, PersistentPrefixStore, PrefixStats, SequenceSpace};
use boils_gp::{Kernel, SskKernel, Surrogate, SurrogateConfig};
use boils_mapper::{synth_stats, MapperConfig, SynthStats};
use boils_sat::{check_equivalence, EquivResult};
use boils_synth::Transform;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::{median, Metrics, TRANSFORM_NAMES};
use crate::trace::Tracer;

/// Samples collected by the replays, possibly over several circuits.
#[derive(Default)]
pub struct LayerSamples {
    synth_ms: BTreeMap<usize, Vec<f64>>,
    ands_in: usize,
    ands_out: usize,
    map_ms: Vec<f64>,
    store_open_ms: Vec<f64>,
    store_write_ms: Vec<f64>,
    store_read_ms: Vec<f64>,
    store: PrefixStats,
    retrain_ms: Vec<f64>,
    extend_ms: Vec<f64>,
    predict_us: Vec<f64>,
    ssk_eval_us: Vec<f64>,
    sat_ms: Vec<f64>,
}

/// Replays evaluated sequences on one circuit.
pub struct Replay<'a> {
    /// The tracer every replay span goes to.
    pub tracer: &'a Tracer,
    /// The run id of the replay spans.
    pub run: usize,
    /// The unoptimised circuit the sequences start from.
    pub base: &'a Aig,
    /// The resyn2 reference statistics normalising Eq. 1.
    pub reference: SynthStats,
}

impl<'a> Replay<'a> {
    /// A replay of sequences on `base`, scored against its resyn2
    /// `reference`.
    pub fn new(tracer: &'a Tracer, run: usize, base: &'a Aig, reference: SynthStats) -> Self {
        Replay {
            tracer,
            run,
            base,
            reference,
        }
    }

    /// Applies each sequence one transform at a time and maps the result,
    /// timing every call. Returns each sequence's final AIG statistics.
    pub fn synth_and_map(&self, sequences: &[Vec<u8>], out: &mut LayerSamples) -> Vec<SynthStats> {
        let root = self.tracer.open(self.run, "replay", "replay.synth", None);
        let config = MapperConfig::default();
        let mut stats = Vec::with_capacity(sequences.len());
        for tokens in sequences {
            let mut aig = self.base.clone();
            for &token in tokens {
                let transform = Transform::from_index(usize::from(token));
                let start = self.tracer.now();
                let next = transform.apply(&aig);
                let end = self.tracer.now();
                let name = TRANSFORM_NAMES[usize::from(token)];
                self.tracer.record(
                    self.run,
                    "synth",
                    &format!("synth.{name}"),
                    Some(root),
                    start,
                    end,
                );
                out.synth_ms
                    .entry(usize::from(token))
                    .or_default()
                    .push((end - start) * 1e3);
                out.ands_in += aig.num_ands();
                out.ands_out += next.num_ands();
                aig = next;
            }
            let start = self.tracer.now();
            stats.push(synth_stats(&aig, &config));
            let end = self.tracer.now();
            self.tracer
                .record(self.run, "mapper", "mapper.map", Some(root), start, end);
            out.map_ms.push((end - start) * 1e3);
        }
        self.tracer.close(root);
        stats
    }

    /// Writes every intermediate AIG of `sequences` into a fresh store at
    /// `dir`, reopens it, and reads every entry back, timing each call.
    pub fn store(
        &self,
        sequences: &[Vec<u8>],
        dir: &Path,
        out: &mut LayerSamples,
    ) -> Result<(), String> {
        let root = self.tracer.open(self.run, "replay", "replay.store", None);
        let io = |e: std::io::Error| format!("store replay in {}: {e}", dir.display());
        let store = PersistentPrefixStore::open_for(dir, self.base).map_err(io)?;
        for tokens in sequences {
            let mut aig = self.base.clone();
            for (len, &token) in tokens.iter().enumerate() {
                aig = Transform::from_index(usize::from(token)).apply(&aig);
                let start = self.tracer.now();
                store.store(&tokens[..=len], &aig);
                let end = self.tracer.now();
                self.tracer.record(
                    self.run,
                    "core.store",
                    "core.store.write",
                    Some(root),
                    start,
                    end,
                );
                out.store_write_ms.push((end - start) * 1e3);
            }
        }
        let written = store.stats();
        drop(store);
        let reopened = self.open(dir, Some(root), out)?;
        for tokens in sequences {
            for len in 1..=tokens.len() {
                let start = self.tracer.now();
                let hit = reopened.longest_prefix(&tokens[..len], len - 1);
                let end = self.tracer.now();
                self.tracer.record(
                    self.run,
                    "core.store",
                    "core.store.read",
                    Some(root),
                    start,
                    end,
                );
                out.store_read_ms.push((end - start) * 1e3);
                if hit.is_none() {
                    return Err(format!("store replay lost prefix {:?}", &tokens[..len]));
                }
            }
        }
        let read = reopened.stats();
        out.store.disk_writes += written.disk_writes;
        out.store.dedup_hits += written.dedup_hits;
        out.store.disk_hits += read.disk_hits;
        out.store.disk_corrupt_dropped += written.disk_corrupt_dropped + read.disk_corrupt_dropped;
        self.tracer.close(root);
        Ok(())
    }

    /// Opens the store at `dir` for this circuit, timing the open.
    pub fn open(
        &self,
        dir: &Path,
        parent: Option<usize>,
        out: &mut LayerSamples,
    ) -> Result<PersistentPrefixStore, String> {
        let start = self.tracer.now();
        let store = PersistentPrefixStore::open_for(dir, self.base)
            .map_err(|e| format!("open store {}: {e}", dir.display()))?;
        let end = self.tracer.now();
        self.tracer.record(
            self.run,
            "core.store",
            "core.store.open",
            parent,
            start,
            end,
        );
        out.store_open_ms.push((end - start) * 1e3);
        Ok(store)
    }

    /// Feeds the history through the BOiLS surrogate as the BO loop does
    /// (the initial design, then one observation per step), then predicts
    /// over one default-sized acquisition neighbourhood of the best point
    /// and times single kernel evaluations on the same pairs.
    pub fn gp(
        &self,
        sequences: &[Vec<u8>],
        qors: &[f64],
        out: &mut LayerSamples,
    ) -> Result<(), String> {
        let cfg = BoilsConfig::default();
        if sequences.len() <= cfg.initial_samples {
            return Ok(());
        }
        let root = self.tracer.open(self.run, "replay", "replay.gp", None);
        let mut surrogate: Surrogate<SskKernel, Vec<u8>> = Surrogate::new(
            SskKernel::new(cfg.ssk_order).with_match_caching(),
            SurrogateConfig {
                noise: cfg.noise,
                retrain_every: cfg.retrain_every,
                incremental: cfg.incremental_surrogate,
                window: cfg.surrogate_window,
                train: cfg.train.clone(),
            },
        );
        for (i, (tokens, qor)) in sequences.iter().zip(qors).enumerate() {
            surrogate.observe(tokens.clone(), -qor);
            if i + 1 < cfg.initial_samples {
                continue;
            }
            let retrains = surrogate.diagnostics().retrains_at.len();
            let start = self.tracer.now();
            surrogate
                .maybe_retrain()
                .map_err(|e| format!("gp replay: {e}"))?;
            let end = self.tracer.now();
            let retrained = surrogate.diagnostics().retrains_at.len() > retrains;
            let name = if retrained { "gp.retrain" } else { "gp.extend" };
            self.tracer
                .record(self.run, "gp", name, Some(root), start, end);
            let ms = (end - start) * 1e3;
            if retrained {
                out.retrain_ms.push(ms);
            } else {
                out.extend_ms.push(ms);
            }
        }
        let gp = surrogate.gp().ok_or("gp replay fitted no model")?;
        let best = qors
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| &sequences[i])
            .ok_or("gp replay on an empty history")?;
        let space = SequenceSpace::paper();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let probes = cfg.acq_restarts * cfg.acq_steps * cfg.acq_neighbors;
        let neighbourhood: Vec<Vec<u8>> = (0..probes)
            .map(|_| space.random_neighbor(best, &mut rng))
            .collect();
        let predict = self.tracer.open(self.run, "gp", "gp.predict", Some(root));
        for x in &neighbourhood {
            let start = self.tracer.now();
            std::hint::black_box(gp.predict(std::hint::black_box(x)));
            out.predict_us.push((self.tracer.now() - start) * 1e6);
        }
        self.tracer.close(predict);
        let kernel = gp.kernel();
        let ssk = self.tracer.open(self.run, "gp", "gp.ssk_eval", Some(root));
        for (x, y) in neighbourhood.iter().zip(sequences.iter().cycle()) {
            let start = self.tracer.now();
            std::hint::black_box(kernel.eval(std::hint::black_box(x), y));
            out.ssk_eval_us.push((self.tracer.now() - start) * 1e6);
        }
        self.tracer.close(ssk);
        self.tracer.close(root);
        Ok(())
    }

    /// Checks that `tokens` leave the circuit's function unchanged, timing
    /// the SAT check.
    pub fn equivalence(&self, tokens: &[u8], out: &mut LayerSamples) -> Result<(), String> {
        let optimised = tokens.iter().fold(self.base.clone(), |aig, &t| {
            Transform::from_index(usize::from(t)).apply(&aig)
        });
        let start = self.tracer.now();
        let result = check_equivalence(self.base, &optimised, None);
        let end = self.tracer.now();
        self.tracer
            .record(self.run, "sat", "sat.equiv", None, start, end);
        out.sat_ms.push((end - start) * 1e3);
        match result {
            EquivResult::Equivalent => Ok(()),
            other => Err(format!(
                "best sequence changed the circuit's function: {other:?}"
            )),
        }
    }

    /// The paper's Eq. 1 for a replayed sequence's statistics.
    pub fn qor(&self, stats: &SynthStats) -> f64 {
        Objective::Qor.cost(stats, &self.reference)
    }
}

impl LayerSamples {
    /// Total synthesis plus mapping time of the replay, in seconds.
    pub fn synth_and_map_busy_s(&self) -> f64 {
        (self.synth_ms.values().flatten().sum::<f64>() + self.map_ms.iter().sum::<f64>()) / 1e3
    }

    /// Writes the per-layer metrics the samples support.
    pub fn finish(&self, metrics: &mut Metrics) {
        for (index, name) in TRANSFORM_NAMES.iter().enumerate() {
            let samples = self.synth_ms.get(&index).map_or(&[][..], Vec::as_slice);
            metrics.set(format!("synth.{name}.ms.p50"), median(samples));
            metrics.set(format!("synth.{name}.calls"), samples.len() as f64);
        }
        metrics.set(
            "synth.busy_s",
            self.synth_ms.values().flatten().sum::<f64>() / 1e3,
        );
        if self.ands_in > 0 {
            metrics.set(
                "synth.ands_ratio",
                self.ands_out as f64 / self.ands_in as f64,
            );
        }
        metrics.set("mapper.map_ms.p50", median(&self.map_ms));
        metrics.set("mapper.busy_s", self.map_ms.iter().sum::<f64>() / 1e3);
        metrics.set("core.store.open_ms", median(&self.store_open_ms));
        metrics.set("core.store.write_ms.p50", median(&self.store_write_ms));
        metrics.set("core.store.read_ms.p50", median(&self.store_read_ms));
        metrics.set("core.store.disk_hits", self.store.disk_hits as f64);
        metrics.set("core.store.disk_writes", self.store.disk_writes as f64);
        metrics.set("core.store.dedup_hits", self.store.dedup_hits as f64);
        metrics.set(
            "core.store.corrupt_dropped",
            self.store.disk_corrupt_dropped as f64,
        );
        metrics.set("gp.retrain_ms.p50", median(&self.retrain_ms));
        metrics.set("gp.extend_ms.p50", median(&self.extend_ms));
        metrics.set("gp.predict_us.p50", median(&self.predict_us));
        metrics.set("gp.ssk_eval_us.p50", median(&self.ssk_eval_us));
        metrics.set("sat.equiv_ms", median(&self.sat_ms));
    }
}
