//! What a run reports, and the one JSON line that reports it.

use crate::checks::Verdict;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-layer metrics of the traced run, with units. A layer a workload
/// does not call reads 0. `BENCHMARK.json` lists the same names.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("raster.render_s", "s"),
    ("raster.fragments", "count"),
    ("raster.requests", "count"),
    ("codec.encode_s", "s"),
    ("codec.decode_ns_per_request", "ns"),
    ("codec.bytes_per_frame", "B"),
    ("prep.ns_per_tap", "ns"),
    ("prep.taps", "count"),
    ("engine.ns_per_tap", "ns"),
    ("engine.scalar_ns_per_tap", "ns"),
    ("engine.traced_ns_per_tap", "ns"),
    ("l1.accesses", "count"),
    ("l1.hits", "count"),
    ("l1.misses", "count"),
    ("l2.accesses", "count"),
    ("l2.full_hits", "count"),
    ("l2.partial_hits", "count"),
    ("l2.misses", "count"),
    ("l2.clock_searches", "count"),
    ("l2.clock_entries_examined", "count"),
    ("l2.clock_max_search", "count"),
    ("tlb.hits", "count"),
    ("tlb.misses", "count"),
    ("host.transfers", "count"),
    ("host.bytes", "B"),
    ("timing.overlay_ns_per_tap", "ns"),
    ("timing.cycles", "cycles"),
    ("timing.stall_cycles", "cycles"),
    ("timing.issue_stall_cycles", "cycles"),
    ("timing.link_busy_cycles", "cycles"),
    ("timing.mshr_peak.l1", "count"),
    ("timing.mshr_peak.l2", "count"),
    ("timing.mshr_peak.fill", "count"),
    ("timing.prefetch.useful", "count"),
    ("timing.prefetch.late", "count"),
    ("timing.prefetch.useless", "count"),
    ("service.ns_per_tap", "ns"),
    ("service.frame_ms_p50", "ms"),
    ("service.wait_s", "s"),
    ("service.l2_lock_stalls", "count"),
    ("service.degraded_taps", "count"),
    ("service.shed_taps", "count"),
    ("telemetry.overlay_ns_per_tap", "ns"),
    ("attrib.compulsory", "count"),
    ("attrib.capacity", "count"),
    ("attrib.conflict", "count"),
    ("model.finalize_ms", "ms"),
    ("model.predict_us_per_point", "us"),
    ("model.grid_points", "count"),
    ("model.exact_points", "count"),
    ("model.mean_abs_err_pp", "pp"),
    ("run.cpu_s", "s"),
    ("run.wall_s", "s"),
    ("traced.replay_mtaps_s", "Mtaps/s"),
    ("traced.self_time_share", "ratio"),
];

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: frames replayed by an engine or client, and
    /// correctness checks.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Every check by name, with its verdict.
    pub checks: Vec<(String, Verdict)>,
    /// End-to-end metrics: name, value, unit.
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics by name (units from [`LAYER_METRICS`]).
    pub layers: BTreeMap<&'static str, f64>,
    /// Wall-clock figures printed beside the metrics, for reference.
    pub reference: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Records a check's verdict as one operation.
    pub fn check(&mut self, name: impl Into<String>, v: Verdict) {
        self.attempted += 1;
        if v.is_err() {
            self.failed += 1;
        }
        self.checks.push((name.into(), v));
    }

    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// On a name missing from [`LAYER_METRICS`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Adds to a per-layer metric (summing over scenes).
    pub fn add_layer(&mut self, name: &'static str, value: f64) {
        let sum = self.layers.get(name).copied().unwrap_or(0.0) + value;
        self.layer(name, sum);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// end-to-end metrics, or with `traced` the per-layer ones.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics: Vec<(&str, f64, &str)> = if traced {
            LAYER_METRICS
                .iter()
                .map(|&(n, u)| (n, self.layers.get(n).copied().unwrap_or(0.0), u))
                .collect()
        } else {
            self.end_to_end.clone()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&metrics)
        )
    }

    /// The reference line: wall-clock figures and every check's verdict.
    pub fn reference_json(&self) -> String {
        let mut checks = String::from("{");
        for (i, (name, v)) in self.checks.iter().enumerate() {
            let verdict = match v {
                Ok(()) => "ok".to_string(),
                Err(e) => e.replace('\\', "\\\\").replace('"', "'"),
            };
            let sep = if i > 0 { ", " } else { "" };
            write!(checks, "{sep}\"{name}\": \"{verdict}\"").expect("write to string");
        }
        checks.push('}');
        format!(
            "{{\"reference\": {}, \"checks\": {checks}}}",
            metrics_json(&self.reference)
        )
    }
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let sep = if i > 0 { ", " } else { "" };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to string");
    }
    out.push('}');
    out
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::LAYER_METRICS;
    use mltc_oracle::Json;

    /// `BENCHMARK.json` at the repository root declares the same per-layer
    /// metrics, in the same order and with the same units, as the traced
    /// run prints.
    #[test]
    fn layer_metrics_match_benchmark_json() {
        let bench =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let declared: Vec<(&str, &str)> = bench
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("a per_layer list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                (field("name"), field("unit"))
            })
            .collect();
        assert_eq!(declared, LAYER_METRICS);
    }
}
