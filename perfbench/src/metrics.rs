//! The metric catalogue and the result line.
//!
//! End-to-end metrics are printed by every workload with tracing off;
//! per-layer metrics by every workload with tracing on, 0 where the
//! workload never calls the layer. `perfbench/README.md` maps each
//! per-layer metric to the end-to-end metric and workload it should move.

use std::collections::BTreeMap;

/// (name, unit) of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("jain", "1"),
];

/// (name, unit) of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("min_ee", "bits/mJ"),
    ("sim_min_ee", "bits/mJ"),
    ("sim_events_per_s", "attempts/s"),
    ("serve_write_p50_ms", "ms"),
    ("serve_write_p99_ms", "ms"),
    ("serve_read_p99_ms", "ms"),
    ("serve_max_rps", "req/s"),
    ("scenario.compile_ms", "ms"),
    ("sim.attenuation_build_ms", "ms"),
    ("sim.build_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.attempts", "count"),
    ("sim.delivered_ratio", "1"),
    ("model.build_ms", "ms"),
    ("model.eval_ms", "ms"),
    ("model.eval_ns_per_device", "ns"),
    ("core.greedy_ms", "ms"),
    ("core.greedy_candidates", "count"),
    ("core.greedy_passes", "count"),
    ("core.greedy_moves", "count"),
    ("core.greedy_ns_per_candidate", "ns"),
    ("core.baseline_ms", "ms"),
    ("core.spatial_alloc_ms", "ms"),
    ("core.spatial_eval_ms", "ms"),
    ("core.spatial_candidates", "count"),
    ("core.spatial_cells", "count"),
    ("core.spatial_boundary_moves", "count"),
    ("core.spatial_tail_moves", "count"),
    ("parallel.scan_speedup", "x"),
    ("parallel.spatial_speedup", "x"),
    ("spatial.horizon_ms", "ms"),
    ("spatial.grid_build_ms", "ms"),
    ("spatial.tiled_build_ms", "ms"),
    ("spatial.tiled_mib", "MiB"),
    ("serve.boot_ms", "ms"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.journal_append_us", "us"),
    ("serve.journal_bytes_per_write", "B"),
    ("serve.journal_sync_ms", "ms"),
    ("serve.apply_churn_p50_us", "us"),
    ("serve.apply_churn_p99_us", "us"),
    ("serve.candidates_per_churn", "count"),
    ("serve.reconfigured_per_churn", "count"),
    ("serve.metrics_us", "us"),
    ("serve.device_us", "us"),
    ("serve.measure_ms", "ms"),
    ("serve.transport_us", "us"),
    ("serve.generator_late_ms", "ms"),
    ("serve.backlog_max", "count"),
    ("self.scenario_ms", "ms"),
    ("self.sim_ms", "ms"),
    ("self.model_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.spatial_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("self.bench_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_ms", "ms"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations (passes, or requests for serve-mixed).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Failed workload-level checks, in words.
    pub violations: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "uncatalogued metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Records a failed check of one operation.
    pub fn fail_op(&mut self, message: String) {
        self.failed += 1;
        self.violations.push(message);
    }

    /// Records a failed check of the workload as a whole.
    pub fn violate(&mut self, message: String) {
        self.violations.push(message);
    }

    /// The result line: the end-to-end metrics, or the per-layer ones
    /// when traced. An end-to-end metric that is missing, non-finite or
    /// not positive makes the run incorrect.
    pub fn into_json(mut self, traced: bool) -> String {
        if self.attempted == 0 {
            self.violations.push("no operation was attempted".into());
        }
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.values.get(name).copied() {
                Some(v) if v.is_finite() && (traced || v > 0.0) => v,
                Some(v) if traced && !v.is_finite() => {
                    self.violations.push(format!("{name} is {v}"));
                    0.0
                }
                None if traced => 0.0,
                other => {
                    self.violations
                        .push(format!("end-to-end metric {name} is {other:?}"));
                    0.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        for violation in &self.violations {
            eprintln!("check failed: {violation}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}
