//! Metric names, units, summary statistics and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("evals_per_s", "1/s"),
    ("eval_ms.p50", "ms"),
    ("eval_ms.p90", "ms"),
    ("best_qor", "qor"),
    ("job_s.p50", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// The synthesis transforms in `Transform::ALL` order, as metric names.
pub const TRANSFORM_NAMES: [&str; 11] = [
    "rewrite",
    "rewrite_z",
    "refactor",
    "refactor_z",
    "resub",
    "resub_z",
    "balance",
    "fraig",
    "sopb",
    "blut",
    "dsdb",
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("core.eval.calls", "count"),
        ("core.eval.busy_s", "s"),
        ("core.eval.unique", "count"),
        ("core.eval.cache_hits", "count"),
        ("core.prefix.passes_applied", "count"),
        ("core.prefix.passes_saved", "count"),
        ("core.prefix.reuse_ratio", "ratio"),
        ("core.boils.self_s", "s"),
        ("core.boils.step_ms.p50", "ms"),
        ("core.boils.step_ms.p90", "ms"),
        ("core.boils.retrains", "count"),
        ("core.boils.batches", "count"),
        ("gp.retrain_ms.p50", "ms"),
        ("gp.extend_ms.p50", "ms"),
        ("gp.predict_us.p50", "us"),
        ("gp.ssk_eval_us.p50", "us"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for t in TRANSFORM_NAMES {
        names.push((format!("synth.{t}.ms.p50"), "ms"));
        names.push((format!("synth.{t}.calls"), "count"));
    }
    names.extend(
        [
            ("synth.busy_s", "s"),
            ("synth.ands_ratio", "ratio"),
            ("mapper.map_ms.p50", "ms"),
            ("mapper.busy_s", "s"),
            ("core.batch.parallel_efficiency", "ratio"),
            ("core.store.open_ms", "ms"),
            ("core.store.write_ms.p50", "ms"),
            ("core.store.read_ms.p50", "ms"),
            ("core.store.disk_hits", "count"),
            ("core.store.disk_writes", "count"),
            ("core.store.dedup_hits", "count"),
            ("core.store.corrupt_dropped", "count"),
            ("daemon.queue_wait_s.p50", "s"),
            ("daemon.service_s.p50", "s"),
            ("daemon.shared_hits", "count"),
            ("daemon.unique_evals", "count"),
            ("daemon.rejected", "count"),
            ("daemon.failed", "count"),
            ("sat.equiv_ms", "ms"),
            ("attribution.replay_over_busy", "ratio"),
            ("trace.overhead_ratio", "ratio"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    names
}

/// Named metric values; the unit comes from the metric lists above.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Renders the metrics named in `list` as a JSON object. A metric the
    /// workload never set is a layer it bypasses and reads 0.
    pub fn to_json(&self, list: &[(String, &'static str)]) -> String {
        let fields: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    number(value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// One human-readable line per listed metric.
    pub fn table(&self, list: &[(String, &'static str)]) -> String {
        list.iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                format!("  {name:<34} {value:>14.6} {unit}\n")
            })
            .collect()
    }
}

/// `END_TO_END` in the owned form [`Metrics::to_json`] takes.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median (see [`quantile`]).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Returns the memory the allocator holds free to the system and restarts
/// the peak resident set size from the current one, so that the next
/// [`peak_rss_mb`] reads the peak of what runs in between. Without this,
/// freed memory that threads' allocator arenas happen to keep would count
/// towards every later peak.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be called
        // from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    // Writing 5 resets `VmHWM` (Linux ≥ 4.0); elsewhere the peak simply
    // stays the process's.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        all.extend(end_to_end().into_iter().map(|(n, _)| n));
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count);
    }
}
