//! Hot-path performance harness: runs the fixed workload matrix and
//! writes a machine-readable `BENCH_PERF.json`, optionally gating against
//! the checked-in baseline.
//!
//! ```text
//! perf [--output PATH] [--baseline PATH] [--tolerance FRAC] [--reps N]
//! ```
//!
//! * `--output` — where the report lands (default `BENCH_PERF.json`).
//! * `--baseline` — baseline to gate against (default
//!   `tests/golden/perf_baseline.json`; gating is skipped when the file
//!   does not exist or was recorded at another `EF_LORA_SCALE`).
//! * `--tolerance` — fractional regression tolerance (default 0.25).
//! * `--reps` — repetitions per workload (default 5).
//!
//! `EF_LORA_UPDATE_GOLDEN=1` rewrites the baseline from this run instead
//! of gating. Exits non-zero when any workload regresses.

use std::path::PathBuf;
use std::process::ExitCode;

use ef_lora_bench::experiments::ext_scale;
use ef_lora_bench::output::{f2, print_table};
use ef_lora_bench::perf::{
    baseline_path, gate, gate_against, run_workloads, to_json, PerfReport, DEFAULT_OUTPUT,
    DEFAULT_REPS, DEFAULT_TOLERANCE,
};
use ef_lora_bench::Scale;

struct Args {
    output: PathBuf,
    baseline: PathBuf,
    tolerance: f64,
    reps: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        output: PathBuf::from(DEFAULT_OUTPUT),
        baseline: baseline_path(),
        tolerance: DEFAULT_TOLERANCE,
        reps: DEFAULT_REPS,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--output" => args.output = PathBuf::from(value("--output")?),
            "--baseline" => args.baseline = PathBuf::from(value("--baseline")?),
            "--tolerance" => {
                let raw = value("--tolerance")?;
                args.tolerance = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| format!("--tolerance {raw:?} is not a non-negative number"))?;
            }
            "--reps" => {
                let raw = value("--reps")?;
                args.reps = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|r| *r > 0)
                    .ok_or_else(|| format!("--reps {raw:?} is not a positive integer"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn print_report(report: &PerfReport) {
    let rows: Vec<Vec<String>> = report
        .workloads
        .iter()
        .map(|w| {
            vec![
                w.id.clone(),
                w.threads.to_string(),
                w.events.to_string(),
                format!("{:.3}", w.median_ms),
                format!("{:.3}", w.p95_ms),
                f2(w.events_per_sec),
            ]
        })
        .collect();
    print_table(
        &format!("perf matrix (scale={}, reps={})", report.scale, report.reps),
        &[
            "workload",
            "threads",
            "events",
            "median ms",
            "p95 ms",
            "events/s",
        ],
        &rows,
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let scale = Scale::from_env();
    println!("{}", scale.banner());
    let mut report = run_workloads(&scale, args.reps);
    // The sharded-allocator scaling curve rides along in the same
    // report, so BENCH_PERF.json carries the scale-out rows next to the
    // hot-path ones, and its `ext_scale` probe is the calibration row the
    // gate normalises every latency by.
    report.workloads.extend(ext_scale::run(&scale).workloads);
    print_report(&report);

    if let Err(e) = std::fs::write(&args.output, to_json(&report)) {
        eprintln!("error: cannot write {}: {e}", args.output.display());
        return ExitCode::FAILURE;
    }
    println!("[wrote {}]", args.output.display());

    let passed = gate(
        "perf gate",
        &report,
        &args.baseline,
        args.tolerance,
        |current, baseline, tolerance| {
            gate_against(current, baseline, ext_scale::CALIBRATION_ID, tolerance)
        },
    );
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
