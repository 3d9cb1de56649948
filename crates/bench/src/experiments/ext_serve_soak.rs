//! Extension experiment — soak test of the `ef-lora-serve` daemon.
//!
//! Boots the daemon in-process on an ephemeral loopback port once per
//! point of a population scaling curve, drives a seeded churn burst
//! through the JSON-lines protocol with the crate's own load generator,
//! and reports sustained throughput plus per-request repair-latency
//! percentiles in the perf-harness schema (`ef-lora-perf/v1`), so soak
//! numbers live next to the hot-path baselines and the same tooling can
//! diff them across runs.
//!
//! The curve scales the churn-heavy catalog scenario (200 devices at
//! factor 1.0) to 20, 200 and — beyond smoke scale — 1000 devices,
//! pinning how event throughput degrades with population. Four workload
//! rows are emitted per point: `serve_churn/<tag>` carries the p50/p95
//! repair latency (as `median_ms`/`p95_ms`) and the sustained
//! `events_per_sec`; `serve_churn/<tag>/p99` carries the p99/max tail —
//! [`crate::perf::WorkloadResult`] has no p99 field, so the tail gets
//! its own row rather than a schema fork. The `/journal` twins of both
//! repeat the point with a `--fsync batch` write-ahead journal enabled,
//! measuring the durability overhead; the gate bounds those rows against
//! the *plain* baseline rows, so journaling must stay within the same
//! regression tolerance as any other serve-path change.
//!
//! Like the hot-path matrix, the soak gates against a checked-in
//! baseline (`tests/golden/serve_perf_baseline.json`, recorded at smoke
//! scale) with the CI regression tolerance through the shared
//! [`crate::perf::gate`]; `EF_LORA_UPDATE_GOLDEN=1` rewrites it. Every
//! point is the best-of-`REPS_PER_POINT` envelope, and the gate
//! normalises by a fixed machine-speed probe ([`CALIBRATION_ID`]) so
//! shared-runner speed swings don't masquerade as serve-path regressions.

use std::net::TcpListener;
use std::path::PathBuf;

use ef_lora::EfLora;
use ef_lora_serve::journal::{FsyncPolicy, Journal, JournalRecord};
use ef_lora_serve::loadgen::{self, LoadReport};
use ef_lora_serve::{serve_journaled, ServeState, ServerOptions};
use lora_scenario::catalog;

use crate::harness::{Scale, ScaleKind};
use crate::output::{f2, print_table, write_json};
use crate::perf::{
    self, calibrate, calibration_row, compare, git_describe, golden_path, PerfIssue, PerfReport,
    ScaleMismatch, WorkloadResult, DEFAULT_TOLERANCE, SCHEMA,
};

/// Seed of the load-generator event stream.
pub const SOAK_SEED: u64 = 7;

/// The population scaling curve: (population factor over the 200-device
/// churn-heavy catalog scenario, churn events driven at that point).
/// Smoke keeps CI fast with the 20- and 200-device points; the larger
/// presets add the 1000-device point.
pub fn soak_points(scale: &Scale) -> Vec<(f64, usize)> {
    match scale.kind {
        ScaleKind::Smoke => vec![(0.1, 300), (1.0, 300)],
        ScaleKind::Small => vec![(0.1, 1_500), (1.0, 1_500), (5.0, 400)],
        ScaleKind::Paper => vec![(0.1, 5_000), (1.0, 5_000), (5.0, 1_000)],
    }
}

/// Path of the checked-in soak baseline
/// (`<repo>/tests/golden/serve_perf_baseline.json`).
pub fn baseline_path() -> PathBuf {
    golden_path("serve_perf_baseline.json")
}

/// Bursts per point: each rep boots a fresh daemon and replays the same
/// seeded stream, and the point keeps the best value per metric (minimum
/// latencies, maximum throughput). A single burst's p99 is its third-
/// worst sample, so one scheduler hiccup on a shared CI box would trip
/// the regression gate; the min-over-reps floor is stable.
const REPS_PER_POINT: usize = 3;

/// Identifier of the machine-speed calibration row.
pub const CALIBRATION_ID: &str = "serve_churn/calibration";

/// One point of the scaling curve: boots a fresh daemon per rep over the
/// scaled scenario, runs the burst, returns the two workload rows built
/// from the best-of-reps envelope. With `journaled`, every rep runs with
/// a `--fsync batch` write-ahead journal on the temp filesystem, and the
/// rows get a `/journal` id segment — the journal-overhead curve.
fn run_point(factor: f64, events: usize, journaled: bool) -> (Vec<WorkloadResult>, LoadReport) {
    let spec = catalog::scale_devices(&catalog::churn_heavy(), factor);
    let mut devices = 0;
    let mut gateways = 0;
    let mut best: Option<LoadReport> = None;
    for rep_index in 0..REPS_PER_POINT {
        let state =
            ServeState::new(spec.clone(), &EfLora::default()).expect("catalog scenario allocates");
        devices = state.device_count();
        gateways = state.gateway_count();

        let journal = journaled.then(|| {
            let dir = std::env::temp_dir().join(format!("ef-lora-soak-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("soak journal dir");
            let path = dir.join(format!("{devices}dev-{events}ev-{rep_index}.journal"));
            let base = JournalRecord::Genesis {
                strategy: "ef-lora".to_string(),
                spec: spec.clone(),
            };
            Journal::create(&path, FsyncPolicy::Batch, &base).expect("soak journal creates")
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address")
            .to_string();
        let server = std::thread::spawn(move || {
            serve_journaled(listener, state, journal, &ServerOptions::default())
        });
        let rep = loadgen::run_burst(&addr, SOAK_SEED, events, false, true)
            .expect("soak burst completes cleanly");
        server
            .join()
            .expect("server thread joins")
            .expect("server exits cleanly");
        best = Some(match best {
            None => rep,
            Some(mut acc) => {
                acc.events_per_sec = acc.events_per_sec.max(rep.events_per_sec);
                acc.latency.p50_us = acc.latency.p50_us.min(rep.latency.p50_us);
                acc.latency.p95_us = acc.latency.p95_us.min(rep.latency.p95_us);
                acc.latency.p99_us = acc.latency.p99_us.min(rep.latency.p99_us);
                acc.latency.max_us = acc.latency.max_us.min(rep.latency.max_us);
                acc
            }
        });
    }
    let report = best.expect("at least one rep ran");

    let tag = format!("{devices}dev_{gateways}gw");
    let suffix = if journaled { "/journal" } else { "" };
    let latency = report.latency;
    let row = |id: String, median_ms: f64, p95_ms: f64| WorkloadResult {
        id,
        devices,
        gateways,
        threads: 1,
        events: report.events as u64,
        median_ms,
        p95_ms,
        events_per_sec: report.events_per_sec,
        devices_per_sec: 0.0,
    };
    let rows = vec![
        row(
            format!("serve_churn/{tag}{suffix}"),
            latency.p50_us / 1_000.0,
            latency.p95_us / 1_000.0,
        ),
        row(
            format!("serve_churn/{tag}{suffix}/p99"),
            latency.p99_us / 1_000.0,
            latency.max_us / 1_000.0,
        ),
    ];
    (rows, report)
}

/// Runs the scaling curve, prints the throughput table and archives
/// `target/experiments/ext_serve_soak.json` (a [`PerfReport`]).
pub fn run(scale: &Scale) -> PerfReport {
    let mut workloads = Vec::new();
    let mut table = Vec::new();
    let mut overheads = Vec::new();
    for (factor, events) in soak_points(scale) {
        let (rows, report) = run_point(factor, events, false);
        let (journal_rows, journal_report) = run_point(factor, events, true);
        let devices = rows[0].devices;
        for (label, r) in [("", &report), (" +wal", &journal_report)] {
            let latency = r.latency;
            table.push(vec![
                format!("{devices}{label}"),
                r.events.to_string(),
                f2(r.events_per_sec),
                f2(latency.p50_us),
                f2(latency.p95_us),
                f2(latency.p99_us),
                f2(latency.max_us),
            ]);
        }
        if report.latency.p99_us > 0.0 {
            overheads.push((
                devices,
                (journal_report.latency.p99_us / report.latency.p99_us - 1.0) * 100.0,
            ));
        }
        workloads.extend(rows);
        workloads.extend(journal_rows);
    }
    workloads.push(calibration_row(CALIBRATION_ID));
    let perf = PerfReport {
        schema: SCHEMA.to_string(),
        git_describe: git_describe(),
        scale: format!("{:?}", scale.kind).to_lowercase(),
        reps: REPS_PER_POINT,
        workloads,
    };
    print_table(
        "ext_serve_soak: sustained daemon throughput vs population (incremental model state; \
         +wal = batch-fsync write-ahead journal)",
        &[
            "devices", "events", "events/s", "p50 (us)", "p95 (us)", "p99 (us)", "max (us)",
        ],
        &table,
    );
    for (devices, pct) in overheads {
        println!("ext_serve_soak: journal overhead at {devices} devices: p99 {pct:+.1}%");
    }
    write_json("ext_serve_soak", &perf);
    perf
}

/// Gates `perf` against `baseline`: every baseline row must be present
/// and within the tolerance after normalisation by the [`CALIBRATION_ID`]
/// machine-speed probe ([`perf::calibrate`]), and every journaled row
/// must stay within the tolerance of its *plain* baseline row. Pure —
/// [`gate`] wires it to [`baseline_path`].
///
/// # Errors
///
/// [`ScaleMismatch`] when the reports were recorded at different scales.
pub fn gate_against(
    perf: &PerfReport,
    baseline: &PerfReport,
    tolerance: f64,
) -> Result<Vec<PerfIssue>, ScaleMismatch> {
    let (scaled, baseline) = calibrate(perf, baseline, CALIBRATION_ID)?;
    let mut issues = compare(&scaled, &baseline, tolerance);
    // Journal-overhead rows (`serve_churn/<tag>/journal[...]`) have no
    // counterpart in pre-journal baselines, and `compare` ignores
    // current-only rows — so gate them explicitly against the *plain*
    // baseline rows: batch-fsync journaling must keep the daemon within
    // the same tolerance that bounds any other serve-path regression.
    let journal_view = PerfReport {
        workloads: scaled
            .workloads
            .iter()
            .filter(|w| w.id.contains("/journal"))
            .map(|w| {
                let mut plain = w.clone();
                plain.id = plain.id.replace("/journal", "");
                plain
            })
            .collect(),
        ..scaled.clone()
    };
    if !journal_view.workloads.is_empty() {
        issues.extend(
            compare(&journal_view, &baseline, tolerance)
                .into_iter()
                .filter_map(|issue| match issue {
                    PerfIssue::Slower {
                        id,
                        baseline_ms,
                        current_ms,
                        ratio,
                    } => Some(PerfIssue::Slower {
                        id: format!("{id} (journaled)"),
                        baseline_ms,
                        current_ms,
                        ratio,
                    }),
                    // Rows absent from the journal view (the probe, any
                    // point without a journaled twin) are not journal
                    // regressions; the plain pass already gates shape.
                    PerfIssue::Missing { .. } => None,
                }),
        );
    }
    Ok(issues)
}

/// Gates `perf` against [`baseline_path`] at [`DEFAULT_TOLERANCE`] with
/// [`gate_against`] (see [`perf::gate`]) and prints the outcome. Returns
/// whether the gate passed.
pub fn gate(perf: &PerfReport) -> bool {
    perf::gate(
        "ext_serve_soak",
        perf,
        &baseline_path(),
        DEFAULT_TOLERANCE,
        gate_against,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_emits_a_scaling_curve_with_p99_tails() {
        let perf = run(&Scale::smoke().with_threads(1));
        assert_eq!(perf.schema, SCHEMA);
        let points = soak_points(&Scale::smoke());
        // Four rows per curve point — plain and journaled, each with its
        // p99 twin — plus the machine-speed probe.
        assert_eq!(perf.workloads.len(), 4 * points.len() + 1);
        let calibration = perf.workloads.last().expect("probe row");
        assert_eq!(calibration.id, CALIBRATION_ID);
        assert!(calibration.median_ms > 0.0);
        let mut devices_seen = Vec::new();
        for (i, pair) in perf.workloads[..4 * points.len()].chunks(2).enumerate() {
            let [head, tail] = pair else { unreachable!() };
            assert!(head.id.starts_with("serve_churn/"));
            assert_eq!(tail.id, format!("{}/p99", head.id));
            // Rows alternate plain / journaled per point.
            assert_eq!(head.id.ends_with("/journal"), i % 2 == 1, "id: {}", head.id);
            assert!(head.events_per_sec > 0.0, "throughput must be measured");
            // Percentiles are ordered: p50 <= p95 <= p99 <= max.
            assert!(head.median_ms <= head.p95_ms);
            assert!(head.p95_ms <= tail.median_ms + 1e-12);
            assert!(tail.median_ms <= tail.p95_ms);
            devices_seen.push(head.devices);
        }
        // The smoke curve covers the 20- and 200-device points of the
        // churn-heavy scenario, each measured plain and journaled.
        assert_eq!(devices_seen, vec![20, 20, 200, 200]);
        assert_eq!(perf.workloads[0].events as usize, points[0].1);
    }

    #[test]
    fn gate_bounds_journal_overhead_against_the_plain_baseline_rows() {
        let row = |id: &str, median_ms: f64| WorkloadResult {
            id: id.into(),
            devices: 200,
            gateways: 2,
            threads: 1,
            events: 300,
            median_ms,
            p95_ms: median_ms,
            events_per_sec: 1000.0,
            devices_per_sec: 0.0,
        };
        let report = |rows: Vec<WorkloadResult>| PerfReport {
            schema: SCHEMA.to_string(),
            git_describe: "test".into(),
            scale: "smoke".into(),
            reps: 1,
            workloads: rows,
        };
        // The baseline predates the journal: plain rows only.
        let baseline = report(vec![
            row("serve_churn/200dev_2gw/p99", 10.0),
            row(CALIBRATION_ID, 2.0),
        ]);
        // Journaling within tolerance passes …
        let fine = report(vec![
            row("serve_churn/200dev_2gw/p99", 10.0),
            row("serve_churn/200dev_2gw/journal/p99", 12.0),
            row(CALIBRATION_ID, 2.0),
        ]);
        assert_eq!(gate_against(&fine, &baseline, 0.25), Ok(vec![]));
        // … but journal overhead past it is a regression of its own,
        // even when the plain row is healthy.
        let slow = report(vec![
            row("serve_churn/200dev_2gw/p99", 10.0),
            row("serve_churn/200dev_2gw/journal/p99", 20.0),
            row(CALIBRATION_ID, 2.0),
        ]);
        let issues = gate_against(&slow, &baseline, 0.25).expect("same scale");
        assert_eq!(issues.len(), 1);
        assert!(
            issues[0].to_string().contains("(journaled)"),
            "issue must name the journaled row: {}",
            issues[0]
        );
    }

    #[test]
    fn gate_ignores_mismatched_scales_and_flags_regressions() {
        let row = |id: &str, median_ms: f64| WorkloadResult {
            id: id.into(),
            devices: 200,
            gateways: 2,
            threads: 1,
            events: 300,
            median_ms,
            p95_ms: median_ms,
            events_per_sec: 1000.0,
            devices_per_sec: 0.0,
        };
        let report = |scale: &str, median_ms: f64, probe_ms: f64| PerfReport {
            schema: SCHEMA.to_string(),
            git_describe: "test".into(),
            scale: scale.into(),
            reps: 1,
            workloads: vec![
                row("serve_churn/200dev_2gw/p99", median_ms),
                row(CALIBRATION_ID, probe_ms),
            ],
        };
        let baseline = report("smoke", 10.0, 2.0);
        assert_eq!(
            gate_against(&report("smoke", 11.0, 2.0), &baseline, 0.25),
            Ok(vec![])
        );
        assert_eq!(
            gate_against(&report("smoke", 20.0, 2.0), &baseline, 0.25).map(|i| i.len()),
            Ok(1)
        );
        // A paper-scale run is not comparable to the smoke baseline.
        assert_eq!(
            gate_against(&report("paper", 20.0, 2.0), &baseline, 0.25),
            Err(ScaleMismatch {
                current: "paper".into(),
                baseline: "smoke".into(),
            })
        );
    }

    #[test]
    fn gate_normalises_by_the_machine_speed_probe() {
        let row = |id: &str, median_ms: f64| WorkloadResult {
            id: id.into(),
            devices: 200,
            gateways: 2,
            threads: 1,
            events: 300,
            median_ms,
            p95_ms: median_ms,
            events_per_sec: 1000.0,
            devices_per_sec: 0.0,
        };
        let report = |median_ms: f64, probe_ms: f64| PerfReport {
            schema: SCHEMA.to_string(),
            git_describe: "test".into(),
            scale: "smoke".into(),
            reps: 1,
            workloads: vec![
                row("serve_churn/200dev_2gw/p99", median_ms),
                row(CALIBRATION_ID, probe_ms),
            ],
        };
        let baseline = report(10.0, 2.0);
        // The whole box running 2x slower is not a serve regression …
        let issues = |current: &PerfReport| {
            gate_against(current, &baseline, 0.25)
                .expect("same scale")
                .len()
        };
        assert_eq!(issues(&report(20.0, 4.0)), 0);
        // … but a 3x latency on a 2x-slower box is a genuine 1.5x one.
        assert_eq!(issues(&report(30.0, 4.0)), 1);
        // A faster box must not mask a real regression: same wall-clock
        // on a 2x-faster machine is a 2x work-per-cycle regression.
        assert_eq!(issues(&report(10.0, 1.0)), 1);
    }
}
