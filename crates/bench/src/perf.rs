//! Machine-readable performance harness (`ef-lora-bench --bin perf`), the
//! repository's one micro-benchmark harness.
//!
//! Runs a fixed, deterministic workload matrix — deployments of
//! (devices × gateways) crossed with worker-thread counts — over every
//! hot path, one row each: the EF-LoRa greedy candidate scan, incremental
//! repair vs a full re-run after growth, a full simulator epoch, the
//! analytical model (mean-field, Laplace/PPP reduction, exact θ, and the
//! greedy's single-device move), the attenuation-matrix build, the
//! fresh-vs-shared simulation construction, and the deployment-free
//! kernels: the time-on-air grid (recomputed vs [`lora_phy::ToaLut`],
//! plus the LUT build), the link budget, the capacity θ kernels and the
//! simulator medium. Kernels under 50 µs repeat a fixed number of times
//! per sample so each sample clears the timer-noise floor.
//!
//! Each workload is repeated `reps` times; the report records the median
//! and 95th-percentile wall-clock plus derived throughput
//! (events/second, devices/second). Reports serialise as
//! [`SCHEMA`]-tagged JSON (`BENCH_PERF.json`); everything except the
//! timing fields and the `git_describe` stamp is a pure function of the
//! scale preset and thread count, so [`normalized`] reports are
//! byte-stable across runs — a property the test-suite pins.
//!
//! The regression gate compares a fresh report against the checked-in
//! baseline `tests/golden/perf_baseline.json` with a fractional
//! tolerance (CI uses 25 %); `EF_LORA_UPDATE_GOLDEN=1` rewrites the
//! baseline, mirroring the conformance golden workflow.
//!
//! The gate itself ([`gate`]) is shared with the two experiments that
//! carry perf baselines (`ext_scale`, `ext_serve_soak`): one baseline
//! read/update workflow, one machine-speed probe ([`calibration_row`])
//! and one probe-normalised comparator ([`gate_against`]). A baseline
//! recorded at another scale preset is never compared row by row; the
//! gate reports a [`ScaleMismatch`] skip instead.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use ef_lora::{AllocationContext, EfLora, IncrementalAllocator, Strategy};
use lora_mac::collision::InterSfPolicy;
use lora_model::capacity::{poisson_at_most, poisson_binomial_at_most, OTHERS_BUDGET};
use lora_model::NetworkModel;
use lora_phy::link::{min_feasible_sf, noise_floor_dbm, received_power_dbm};
use lora_phy::toa::{ToaLut, ToaParams, MAX_PHY_PAYLOAD};
use lora_phy::{Bandwidth, SpreadingFactor, TxConfig, TxPowerDbm};
use lora_sim::medium::{ActiveTx, Medium};
use lora_sim::{Simulation, Topology};

use crate::harness::{paper_config_at, Scale, ScaleKind};

/// Schema tag carried by every report.
pub const SCHEMA: &str = "ef-lora-perf/v1";

/// Default output file name for the perf binary.
pub const DEFAULT_OUTPUT: &str = "BENCH_PERF.json";

/// Default fractional regression tolerance (25 %, the CI gate).
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Default repetitions per workload.
pub const DEFAULT_REPS: usize = 5;

/// Environment variable that rewrites the checked-in baseline instead of
/// gating against it (shared with the conformance goldens).
pub const UPDATE_ENV: &str = "EF_LORA_UPDATE_GOLDEN";

/// One measured workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Stable workload identifier, e.g. `alloc_scan/60dev_1gw_t4`.
    pub id: String,
    /// Devices in the deployment (0 when not applicable).
    pub devices: usize,
    /// Gateways in the deployment (0 when not applicable).
    pub gateways: usize,
    /// Worker threads the workload ran with.
    pub threads: usize,
    /// Deterministic count of work units processed per repetition
    /// (transmission attempts, candidate evaluations, matrix cells, …).
    pub events: u64,
    /// Median wall-clock over the repetitions, milliseconds.
    pub median_ms: f64,
    /// 95th-percentile wall-clock over the repetitions, milliseconds.
    pub p95_ms: f64,
    /// `events / median`, per second (0 when `events` is 0).
    pub events_per_sec: f64,
    /// `devices / median`, per second (0 when `devices` is 0).
    pub devices_per_sec: f64,
}

/// A full perf report (`BENCH_PERF.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// `git describe --always --dirty` of the working tree, or
    /// `"unknown"` outside a repository.
    pub git_describe: String,
    /// Scale preset the matrix was derived from.
    pub scale: String,
    /// Repetitions per workload.
    pub reps: usize,
    /// The measured workloads, in matrix order.
    pub workloads: Vec<WorkloadResult>,
}

/// One finding from the regression comparator.
#[derive(Debug, Clone, PartialEq)]
pub enum PerfIssue {
    /// A workload's median exceeded the baseline by more than the
    /// tolerance.
    Slower {
        /// Workload identifier.
        id: String,
        /// Baseline median, milliseconds.
        baseline_ms: f64,
        /// Current median, milliseconds.
        current_ms: f64,
        /// `current / baseline`.
        ratio: f64,
    },
    /// A baseline workload is absent from the current report — the
    /// matrix silently shrank.
    Missing {
        /// Workload identifier.
        id: String,
    },
}

impl std::fmt::Display for PerfIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfIssue::Slower {
                id,
                baseline_ms,
                current_ms,
                ratio,
            } => write!(
                f,
                "{id}: {current_ms:.3} ms vs baseline {baseline_ms:.3} ms ({ratio:.2}x)"
            ),
            PerfIssue::Missing { id } => {
                write!(f, "{id}: present in baseline but missing from this run")
            }
        }
    }
}

/// Compares `current` against `baseline`: flags any workload whose median
/// regressed by more than `tolerance` (fractional — 0.25 means 25 %
/// slower) and any baseline workload missing from `current`. Workloads
/// new in `current` pass silently (the next baseline refresh picks them
/// up).
pub fn compare(current: &PerfReport, baseline: &PerfReport, tolerance: f64) -> Vec<PerfIssue> {
    let mut issues = Vec::new();
    for base in &baseline.workloads {
        match current.workloads.iter().find(|w| w.id == base.id) {
            None => issues.push(PerfIssue::Missing {
                id: base.id.clone(),
            }),
            Some(cur) => {
                if base.median_ms > 0.0 && cur.median_ms > base.median_ms * (1.0 + tolerance) {
                    issues.push(PerfIssue::Slower {
                        id: base.id.clone(),
                        baseline_ms: base.median_ms,
                        current_ms: cur.median_ms,
                        ratio: cur.median_ms / base.median_ms,
                    });
                }
            }
        }
    }
    issues
}

/// Iterations of the machine-speed calibration kernel.
const CALIBRATION_ITERS: u64 = 400_000;

/// Raw machine speed: the fastest of three runs of a fixed floating-point
/// kernel, in milliseconds. The kernel is deliberately independent of
/// every crate code path, so a regression in the code under test cannot
/// leak into the probe and cancel itself out of the gate.
fn machine_probe_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut acc = 1.0f64;
        for i in 1..CALIBRATION_ITERS {
            acc = (acc + 1.0 / i as f64).sqrt() * 1.000_000_1;
        }
        black_box(acc);
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The machine-speed probe as a workload row named `id`, so a report
/// records the speed of the machine it was measured on and
/// [`gate_against`] can normalise by it.
pub fn calibration_row(id: &str) -> WorkloadResult {
    let ms = machine_probe_ms();
    WorkloadResult {
        id: id.to_string(),
        devices: 0,
        gateways: 0,
        threads: 1,
        events: CALIBRATION_ITERS,
        median_ms: ms,
        p95_ms: ms,
        events_per_sec: if ms > 0.0 {
            CALIBRATION_ITERS as f64 / (ms / 1_000.0)
        } else {
            0.0
        },
        devices_per_sec: 0.0,
    }
}

/// A baseline recorded at another scale preset than the current report.
/// Its rows measure other deployments, so the gate is skipped instead of
/// reporting every baseline row as missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleMismatch {
    /// Scale preset of the current report.
    pub current: String,
    /// Scale preset the baseline was recorded at.
    pub baseline: String,
}

impl std::fmt::Display for ScaleMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "baseline recorded at scale {}, this run is at scale {}",
            self.baseline, self.current
        )
    }
}

/// Machine-normalises `current` against `baseline` ahead of [`compare`],
/// returning the normalised current report and the baseline rows still
/// comparable with it.
///
/// When both reports carry a `calibration_id` row ([`calibration_row`]),
/// every latency in `current` is divided by the probe ratio
/// `current / baseline`, so a uniformly slower (or faster) machine
/// cancels out and only genuine regressions surface; without a probe on
/// both sides times compare raw. `/rss_mib/` rows are memory, which does
/// not scale with clock speed, so they are never normalised; a 0 reading
/// (no `/proc`) means "not measured" and drops the row from both sides.
///
/// # Errors
///
/// [`ScaleMismatch`] when the reports were recorded at different scales.
pub fn calibrate(
    current: &PerfReport,
    baseline: &PerfReport,
    calibration_id: &str,
) -> Result<(PerfReport, PerfReport), ScaleMismatch> {
    if baseline.scale != current.scale {
        return Err(ScaleMismatch {
            current: current.scale.clone(),
            baseline: baseline.scale.clone(),
        });
    }
    let probe_of = |report: &PerfReport| {
        report
            .workloads
            .iter()
            .find(|w| w.id == calibration_id)
            .map(|w| w.median_ms)
            .filter(|&ms| ms > 0.0)
    };
    let speed = match (probe_of(current), probe_of(baseline)) {
        (Some(cur), Some(base)) => cur / base,
        _ => 1.0,
    };
    let mut scaled = current.clone();
    scaled.workloads.retain_mut(|w| {
        if w.id.contains("/rss_mib/") {
            // An unmeasured RSS (non-Linux) must not read as "0 MiB used".
            w.median_ms > 0.0
        } else {
            w.median_ms /= speed;
            w.p95_ms /= speed;
            true
        }
    });
    let mut baseline = baseline.clone();
    baseline.workloads.retain(|w| {
        !w.id.contains("/rss_mib/")
            || (w.median_ms > 0.0 && scaled.workloads.iter().any(|c| c.id == w.id))
    });
    Ok((scaled, baseline))
}

/// [`calibrate`] by the `calibration_id` probe, then [`compare`] at
/// `tolerance`: the regression check of the `perf` binary and of
/// `ext_scale`.
///
/// # Errors
///
/// [`ScaleMismatch`] when the reports were recorded at different scales.
pub fn gate_against(
    current: &PerfReport,
    baseline: &PerfReport,
    calibration_id: &str,
    tolerance: f64,
) -> Result<Vec<PerfIssue>, ScaleMismatch> {
    let (scaled, baseline) = calibrate(current, baseline, calibration_id)?;
    Ok(compare(&scaled, &baseline, tolerance))
}

/// The golden-baseline workflow, printing its outcome under `label`:
/// with `EF_LORA_UPDATE_GOLDEN=1` ([`UPDATE_ENV`]) rewrites the baseline
/// at `path` from `report`; otherwise, when a baseline exists there, gates `report`
/// against it with `check(report, baseline, tolerance)`. Returns whether
/// the gate passed: only regressions and an unreadable or unwritable
/// baseline fail it, while a missing baseline or a [`ScaleMismatch`]
/// skips it.
pub fn gate(
    label: &str,
    report: &PerfReport,
    path: &Path,
    tolerance: f64,
    check: impl FnOnce(&PerfReport, &PerfReport, f64) -> Result<Vec<PerfIssue>, ScaleMismatch>,
) -> bool {
    let shown = path.display();
    if std::env::var(UPDATE_ENV).as_deref() == Ok("1") {
        return match std::fs::write(path, to_json(report)) {
            Ok(()) => {
                println!("{label}: baseline updated at {shown}");
                true
            }
            Err(e) => {
                eprintln!("{label}: error: cannot write {shown}: {e}");
                false
            }
        };
    }
    let Ok(body) = std::fs::read_to_string(path) else {
        println!("{label}: no baseline at {shown}; gate skipped (set {UPDATE_ENV}=1 to create it)");
        return true;
    };
    let baseline: PerfReport = match serde_json::from_str(&body) {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("{label}: error: {shown} is not a perf report: {e}");
            return false;
        }
    };
    match check(report, &baseline, tolerance) {
        Err(mismatch) => {
            println!("{label}: gate skipped: {shown}: {mismatch}");
            true
        }
        Ok(issues) if issues.is_empty() => {
            println!(
                "{label}: within {:.0}% of baseline {} ({shown})",
                tolerance * 100.0,
                baseline.git_describe
            );
            true
        }
        Ok(issues) => {
            eprintln!(
                "{label}: {} regression(s) beyond {:.0}%:",
                issues.len(),
                tolerance * 100.0
            );
            for issue in &issues {
                eprintln!("  {issue}");
            }
            eprintln!("(rerun with {UPDATE_ENV}=1 to accept the new baseline)");
            false
        }
    }
}

/// The report with every machine/run-dependent field zeroed: timings,
/// throughputs and the `git_describe` stamp. What remains — the schema,
/// the matrix shape and the deterministic event counts — must be
/// byte-stable across runs at a fixed scale and thread count.
#[must_use]
pub fn normalized(report: &PerfReport) -> PerfReport {
    let mut out = report.clone();
    out.git_describe = String::new();
    for w in &mut out.workloads {
        w.median_ms = 0.0;
        w.p95_ms = 0.0;
        w.events_per_sec = 0.0;
        w.devices_per_sec = 0.0;
    }
    out
}

/// Serialises a report the way the perf binary writes it: pretty JSON
/// plus a trailing newline.
pub fn to_json(report: &PerfReport) -> String {
    let mut body = serde_json::to_string_pretty(report).expect("report serialises");
    body.push('\n');
    body
}

/// Path of the checked-in golden file `file`
/// (`<repo>/tests/golden/<file>`), the layout the conformance goldens use.
pub fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("tests")
        .join("golden")
        .join(file)
}

/// Path of the checked-in perf baseline
/// (`<repo>/tests/golden/perf_baseline.json`).
pub fn baseline_path() -> PathBuf {
    golden_path("perf_baseline.json")
}

/// `git describe --always --dirty`, or `"unknown"` when git or the
/// repository is unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The (devices, gateways) deployments measured at each scale preset.
pub fn deployments(scale: &Scale) -> Vec<(usize, usize)> {
    match scale.kind {
        ScaleKind::Smoke => vec![(60, 1), (100, 2)],
        ScaleKind::Small => vec![(300, 2), (600, 3)],
        ScaleKind::Paper => vec![(1_500, 3), (3_000, 5)],
    }
}

/// Runs one closure `reps` times and reduces to (median ms, p95 ms,
/// events from the last repetition).
fn measure(reps: usize, mut f: impl FnMut() -> u64) -> (f64, f64, u64) {
    assert!(reps > 0, "at least one repetition");
    let mut times_ms = Vec::with_capacity(reps);
    let mut events = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        events = f();
        times_ms.push(t0.elapsed().as_secs_f64() * 1_000.0);
    }
    times_ms.sort_by(f64::total_cmp);
    let median = times_ms[times_ms.len() / 2];
    let p95_idx = ((times_ms.len() as f64 * 0.95).ceil() as usize).clamp(1, times_ms.len()) - 1;
    (median, times_ms[p95_idx], events)
}

fn result_from(
    id: String,
    devices: usize,
    gateways: usize,
    threads: usize,
    reps: usize,
    f: impl FnMut() -> u64,
) -> WorkloadResult {
    let (median_ms, p95_ms, events) = measure(reps, f);
    let per_sec = |count: f64| {
        if median_ms > 0.0 {
            count / (median_ms / 1_000.0)
        } else {
            0.0
        }
    };
    WorkloadResult {
        id,
        devices,
        gateways,
        threads,
        events,
        median_ms,
        p95_ms,
        events_per_sec: per_sec(events as f64),
        devices_per_sec: per_sec(devices as f64),
    }
}

/// Runs `kernel` `times` times inside one sample and sums its events.
/// Kernels that finish in under 50 µs repeat a fixed number of times, so
/// each sample clears the ~1 ms timer-noise floor while `events` stays
/// deterministic.
fn repeat(times: u64, mut kernel: impl FnMut() -> u64) -> u64 {
    (0..times).map(|_| kernel()).sum()
}

/// Full (SF × payload) time-on-air grid sweeps per `toa_grid` sample.
const TOA_SWEEPS: u64 = 500;
/// Cells of one (SF × payload) time-on-air grid.
const TOA_GRID: u64 = (SpreadingFactor::ALL.len() * (MAX_PHY_PAYLOAD + 1)) as u64;

/// Sums `toa` over [`TOA_SWEEPS`] full grids; returns the cells visited.
fn toa_sweeps(toa: impl Fn(SpreadingFactor, usize) -> f64) -> u64 {
    let mut acc = 0.0f64;
    for _ in 0..TOA_SWEEPS {
        for sf in SpreadingFactor::ALL {
            for len in 0..=MAX_PHY_PAYLOAD {
                acc += toa(sf, len);
            }
        }
    }
    black_box(acc);
    TOA_SWEEPS * TOA_GRID
}

/// Measures the workload matrix over the given deployments. The public
/// entry point is [`run_workloads`]; tests call this with a single tiny
/// deployment.
pub fn run_matrix(deps: &[(usize, usize)], scale: &Scale, reps: usize) -> PerfReport {
    let config = paper_config_at(scale);
    let mut thread_counts = vec![1usize];
    if scale.threads > 1 {
        thread_counts.push(scale.threads);
    }

    let mut workloads = Vec::new();
    for &(n_dev, n_gw) in deps {
        let topology = Topology::disc(n_dev, n_gw, 5_000.0, &config, 11);
        let model = NetworkModel::new(&config, &topology);
        let ctx = AllocationContext::new(&config, &topology, &model);
        let tag = format!("{n_dev}dev_{n_gw}gw");
        // A single-threaded row `{family}/{tag}` of this deployment.
        let row = |family: &str, kernel: &mut dyn FnMut() -> u64| {
            result_from(format!("{family}/{tag}"), n_dev, n_gw, 1, reps, kernel)
        };

        // EF-LoRa greedy candidate scan, serial and parallel.
        for &threads in &thread_counts {
            workloads.push(result_from(
                format!("alloc_scan/{tag}_t{threads}"),
                n_dev,
                n_gw,
                threads,
                reps,
                || {
                    let alloc = EfLora::default()
                        .with_threads(threads)
                        .allocate(&ctx)
                        .expect("allocates");
                    // Candidate evaluations per pass: every device scans
                    // the full (SF × channel × TP) grid.
                    black_box(alloc.as_slice().len() as u64) * ctx.candidate_count() as u64
                },
            ));
        }

        // One full simulator epoch under the EF-LoRa allocation.
        let alloc = EfLora::default()
            .with_threads(scale.threads)
            .allocate(&ctx)
            .expect("allocates");
        let alloc = alloc.as_slice();
        let mut sim_cfg = config.clone();
        sim_cfg.duration_s = scale.duration_s;
        let sim = Simulation::with_attenuation(
            sim_cfg.clone(),
            topology.clone(),
            alloc.to_vec(),
            model.shared_attenuation().clone(),
        )
        .expect("builds");
        workloads.push(row("sim_epoch", &mut || {
            let report = sim.run();
            report.devices.iter().map(|d| u64::from(d.attempts)).sum()
        }));

        // Analytical model evaluation of the allocation: the mean-field
        // path (Eq. 5–16), the paper's Laplace/PPP reduction (Eq. 17–20)
        // and the exact Poisson–binomial capacity θ (Eq. 12, O(N²·G)).
        const EVAL_REPEATS: u64 = 100;
        workloads.push(row("model_eval", &mut || {
            repeat(EVAL_REPEATS, || {
                black_box(model.evaluate(alloc)).len() as u64
            })
        }));
        workloads.push(row("model_eval_laplace", &mut || {
            repeat(EVAL_REPEATS, || {
                black_box(model.evaluate_laplace(alloc)).len() as u64
            })
        }));
        workloads.push(row("model_eval_exact_theta", &mut || {
            black_box(model.evaluate_exact_theta(alloc)).len() as u64
        }));

        // The greedy's incremental move: the network minimum if the
        // middle device moved, unpruned (−∞ floor) and pruned right after
        // the mover's own EE (+∞ floor).
        const MOVE_REPEATS: u64 = 20_000;
        let state = model.state(alloc.to_vec()).expect("valid allocation");
        let target = TxConfig::new(
            SpreadingFactor::Sf9,
            TxPowerDbm::new(8.0),
            2 % ctx.channel_count(),
        );
        for (family, floor) in [
            ("model_move", f64::NEG_INFINITY),
            ("model_move_pruned", f64::INFINITY),
        ] {
            workloads.push(row(family, &mut || {
                repeat(MOVE_REPEATS, || {
                    black_box(state.min_ee_if(n_dev / 2, target, floor));
                    1
                })
            }));
        }

        // Section III-E churn: the deployment grown by 5 %, its new
        // devices placed incrementally vs the whole network re-allocated.
        let grown = Topology::disc(n_dev + n_dev.div_ceil(20), n_gw, 5_000.0, &config, 11);
        let old = Topology::from_sites(
            grown.devices()[..n_dev].to_vec(),
            grown.gateways().to_vec(),
            grown.radius_m(),
        );
        let old_model = NetworkModel::new(&config, &old);
        let previous = EfLora::default()
            .allocate(&AllocationContext::new(&config, &old, &old_model))
            .expect("allocates");
        let grown_model = NetworkModel::new(&config, &grown);
        let grown_ctx = AllocationContext::new(&config, &grown, &grown_model);
        workloads.push(row("alloc_incremental", &mut || {
            IncrementalAllocator::default()
                .extend(&grown_ctx, previous.as_slice())
                .expect("extends")
                .candidates_evaluated
        }));
        workloads.push(row("alloc_full_rerun", &mut || {
            EfLora::default()
                .allocate_with_report(&grown_ctx)
                .expect("allocates")
                .candidates_evaluated
        }));

        // Path-loss grid build (the O(devices × gateways) powf sweep).
        const BUILD_REPEATS: u64 = 500;
        workloads.push(row("attenuation_build", &mut || {
            repeat(BUILD_REPEATS, || {
                let m = lora_sim::attenuation_matrix(&config, &topology);
                (m.device_count() * m.gateway_count()) as u64
            })
        }));

        // Simulation construction: from scratch vs reusing the model's
        // shared matrix (the optimization `run_strategy` relies on).
        workloads.push(row("sim_build/fresh", &mut || {
            repeat(BUILD_REPEATS, || {
                let sim = Simulation::new(sim_cfg.clone(), topology.clone(), alloc.to_vec())
                    .expect("builds");
                black_box(sim.topology().device_count() as u64)
            })
        }));
        workloads.push(row("sim_build/shared", &mut || {
            repeat(BUILD_REPEATS, || {
                let sim = Simulation::with_attenuation(
                    sim_cfg.clone(),
                    topology.clone(),
                    alloc.to_vec(),
                    model.shared_attenuation().clone(),
                )
                .expect("builds");
                black_box(sim.topology().device_count() as u64)
            })
        }));
    }

    // A deployment-independent kernel row.
    let fixed = |id: &str, kernel: &mut dyn FnMut() -> u64| {
        result_from(id.to_string(), 0, 0, 1, reps, kernel)
    };

    // Time-on-air over the full (SF × payload) grid: Eq. 4 recomputed
    // per call vs one ToaLut lookup (the cached-ToA optimization), and
    // the cost of building the LUT itself.
    workloads.push(fixed("toa_grid/raw", &mut || {
        toa_sweeps(|sf, len| {
            ToaParams::new(sf, Bandwidth::Bw125, Default::default())
                .time_on_air_s(len)
                .expect("in range")
        })
    }));
    let lut = ToaLut::new(Bandwidth::Bw125, Default::default());
    workloads.push(fixed("toa_grid/lut", &mut || {
        toa_sweeps(|sf, len| lut.time_on_air_s(sf, len).expect("in range"))
    }));
    workloads.push(fixed("toa_grid/lut_build", &mut || {
        repeat(TOA_SWEEPS, || {
            black_box(ToaLut::new(Bandwidth::Bw125, Default::default()));
            TOA_GRID
        })
    }));

    // The per-(device, gateway) reception chain the simulator evaluates
    // on every transmission: RX power, noise floor, feasible SF.
    const LINK_REPEATS: u64 = 500_000;
    workloads.push(fixed("link_budget", &mut || {
        repeat(LINK_REPEATS, || {
            let rx = received_power_dbm(black_box(14.0), 128.0, 1.0);
            let noise = noise_floor_dbm(Bandwidth::Bw125, 6.0);
            black_box(min_feasible_sf(rx, Bandwidth::Bw125, 6.0, 0.0).map(|sf| (sf, noise)));
            1
        })
    }));

    // Gateway capacity θ (Eq. 12): the exact Poisson–binomial DP over n
    // contenders and the Poisson tail the model approximates it with.
    const THETA_REPEATS: u64 = 1_000;
    for n in [100usize, 1_000, 5_000] {
        let probs = vec![0.003f64; n];
        workloads.push(fixed(
            &format!("capacity/poisson_binomial/{n}"),
            &mut || {
                repeat(THETA_REPEATS, || {
                    black_box(poisson_binomial_at_most(black_box(&probs), OTHERS_BUDGET));
                    n as u64
                })
            },
        ));
    }
    const TAIL_REPEATS: u64 = 100_000;
    workloads.push(fixed("capacity/poisson_tail", &mut || {
        repeat(TAIL_REPEATS, || {
            black_box(poisson_at_most(black_box(3.0), OTHERS_BUDGET));
            1
        })
    }));

    // The simulator medium's interference bookkeeping: start a batch of
    // overlapping co-channel transmissions, then end each one and read
    // the SINR its reception fate depends on.
    const MEDIUM_BATCH: usize = 64;
    const MEDIUM_REPEATS: u64 = 100;
    const MEDIUM_GATEWAYS: usize = 3;
    workloads.push(fixed(
        &format!("sim_medium/overlap_cycle_{MEDIUM_BATCH}"),
        &mut || {
            repeat(MEDIUM_REPEATS, || {
                let mut medium = Medium::new(InterSfPolicy::Orthogonal, MEDIUM_GATEWAYS);
                for i in 0..MEDIUM_BATCH {
                    medium.start(ActiveTx {
                        device: i,
                        seq: 0,
                        start_s: i as f64 * 0.01,
                        end_s: 2.0 + i as f64 * 0.01,
                        sf: SpreadingFactor::Sf9,
                        channel: 0,
                        rx_power_mw: vec![1e-9; MEDIUM_GATEWAYS],
                        interference_mw: vec![0.0; MEDIUM_GATEWAYS],
                        demod_locked: vec![true; MEDIUM_GATEWAYS],
                    });
                }
                let sinr: f64 = (0..MEDIUM_BATCH)
                    .map(|i| medium.end(i, 0).sinr_db(0, 1e-12))
                    .sum();
                black_box(sinr);
                MEDIUM_BATCH as u64
            })
        },
    ));

    PerfReport {
        schema: SCHEMA.to_string(),
        git_describe: git_describe(),
        scale: format!("{:?}", scale.kind).to_lowercase(),
        reps,
        workloads,
    }
}

/// Measures the full workload matrix for `scale`.
pub fn run_workloads(scale: &Scale, reps: usize) -> PerfReport {
    run_matrix(&deployments(scale), scale, reps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(id: &str, median_ms: f64) -> PerfReport {
        PerfReport {
            schema: SCHEMA.to_string(),
            git_describe: "test".to_string(),
            scale: "smoke".to_string(),
            reps: 1,
            workloads: vec![WorkloadResult {
                id: id.to_string(),
                devices: 10,
                gateways: 1,
                threads: 1,
                events: 100,
                median_ms,
                p95_ms: median_ms,
                events_per_sec: 0.0,
                devices_per_sec: 0.0,
            }],
        }
    }

    fn temp_baseline(name: &str, report: &PerfReport) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "ef-lora-perf-gate-{}-{name}.json",
            std::process::id()
        ));
        std::fs::write(&path, to_json(report)).expect("temp baseline writable");
        path
    }

    #[test]
    fn comparator_passes_identical_baseline() {
        let r = report_with("w", 10.0);
        assert!(compare(&r, &r, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn comparator_flags_synthetic_2x_slowdown() {
        let baseline = report_with("w", 10.0);
        let slow = report_with("w", 20.0);
        let issues = compare(&slow, &baseline, DEFAULT_TOLERANCE);
        assert_eq!(issues.len(), 1);
        match &issues[0] {
            PerfIssue::Slower { id, ratio, .. } => {
                assert_eq!(id, "w");
                assert!((ratio - 2.0).abs() < 1e-9);
            }
            other => panic!("expected Slower, got {other:?}"),
        }
        // The reverse direction — getting faster — is never an issue.
        assert!(compare(&baseline, &slow, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn comparator_flags_missing_workload() {
        let baseline = report_with("w", 10.0);
        let mut current = report_with("other", 10.0);
        let issues = compare(&current, &baseline, DEFAULT_TOLERANCE);
        assert_eq!(
            issues,
            vec![PerfIssue::Missing {
                id: "w".to_string()
            }]
        );
        // Within tolerance passes.
        current = report_with("w", 12.0);
        assert!(compare(&current, &baseline, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn baseline_at_another_scale_is_a_typed_skip_not_missing_rows() {
        // `perf` at its default (small) scale against the smoke baseline:
        // no row ids match, and a raw comparison reports every baseline
        // row as missing.
        let smoke = report_with("alloc_scan/60dev_1gw_t1", 10.0);
        let mut small = report_with("alloc_scan/300dev_2gw_t1", 90.0);
        small.scale = "small".to_string();
        assert!(matches!(
            compare(&small, &smoke, DEFAULT_TOLERANCE).as_slice(),
            [PerfIssue::Missing { .. }]
        ));
        let mismatch = ScaleMismatch {
            current: "small".to_string(),
            baseline: "smoke".to_string(),
        };
        assert_eq!(
            gate_against(&small, &smoke, "probe", DEFAULT_TOLERANCE),
            Err(mismatch.clone())
        );
        let message = mismatch.to_string();
        assert!(
            message.contains("small") && message.contains("smoke"),
            "{message}"
        );

        // The baseline workflow skips the gate rather than failing it.
        let path = temp_baseline("scale-skip", &smoke);
        let check = |c: &PerfReport, b: &PerfReport, t: f64| gate_against(c, b, "probe", t);
        assert!(gate("test", &small, &path, DEFAULT_TOLERANCE, check));
        std::fs::remove_file(&path).expect("temp baseline removable");
    }

    #[test]
    fn gate_workflow_fails_only_on_regressions_and_bad_baselines() {
        let check = |c: &PerfReport, b: &PerfReport, t: f64| gate_against(c, b, "probe", t);
        let baseline = report_with("w", 10.0);
        let path = temp_baseline("workflow", &baseline);
        assert!(gate("test", &report_with("w", 12.0), &path, 0.25, check));
        assert!(!gate("test", &report_with("w", 20.0), &path, 0.25, check));
        std::fs::write(&path, "not json").expect("temp baseline writable");
        assert!(!gate("test", &baseline, &path, 0.25, check));
        std::fs::remove_file(&path).expect("temp baseline removable");
        assert!(gate("test", &baseline, &path, 0.25, check), "no baseline");
    }

    #[test]
    fn normalized_report_serialization_is_byte_stable() {
        // Two independent measurement runs at a fixed scale must agree on
        // everything except wall-clock: same matrix, same ids, same
        // deterministic event counts. Timing fields are zeroed by
        // `normalized`, so the serialized bytes must match exactly.
        let scale = Scale::smoke().with_threads(2);
        let a = run_matrix(&[(20, 1)], &scale, 1);
        let b = run_matrix(&[(20, 1)], &scale, 1);
        assert_eq!(to_json(&normalized(&a)), to_json(&normalized(&b)));

        // Every row family is emitted, with work in it.
        let deployment_rows = [
            "alloc_scan/20dev_1gw_t1",
            "alloc_scan/20dev_1gw_t2",
            "sim_epoch/20dev_1gw",
            "model_eval/20dev_1gw",
            "model_eval_laplace/20dev_1gw",
            "model_eval_exact_theta/20dev_1gw",
            "model_move/20dev_1gw",
            "model_move_pruned/20dev_1gw",
            "alloc_incremental/20dev_1gw",
            "alloc_full_rerun/20dev_1gw",
            "attenuation_build/20dev_1gw",
            "sim_build/fresh/20dev_1gw",
            "sim_build/shared/20dev_1gw",
        ];
        let fixed_rows = [
            "toa_grid/raw",
            "toa_grid/lut",
            "toa_grid/lut_build",
            "link_budget",
            "capacity/poisson_binomial/100",
            "capacity/poisson_binomial/1000",
            "capacity/poisson_binomial/5000",
            "capacity/poisson_tail",
            "sim_medium/overlap_cycle_64",
        ];
        for id in deployment_rows.into_iter().chain(fixed_rows) {
            let row = a.workloads.iter().find(|w| w.id == id);
            assert!(row.is_some_and(|w| w.events > 0), "{id}: {row:?}");
        }
        // And the raw report round-trips through serde.
        let back: PerfReport = serde_json::from_str(&to_json(&a)).expect("parses");
        assert_eq!(back, a);
    }

    #[test]
    fn measure_orders_percentiles() {
        let mut calls = 0u64;
        let (median, p95, events) = measure(5, || {
            calls += 1;
            calls
        });
        assert_eq!(events, 5, "events come from the last repetition");
        assert!(median >= 0.0 && p95 >= median);
    }
}
