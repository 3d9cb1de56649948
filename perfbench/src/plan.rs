//! plan-paper (the dense pipeline: compile → attenuation → model →
//! greedy → evaluate → simulate) and plan-sharded (`SpatialEfLora`
//! allocation and its sharded evaluation at 5000 devices).
//!
//! Pass `k` plans instance `k mod N` of `N` deployments: instance 0 is
//! the deployment of the command-line seed, later ones derive their seeds
//! from it. Every instance is planned at least twice, so each run checks
//! that repeated passes plan the same allocation. Quality figures are the
//! median over the `N` instances.

use std::time::Instant;

use ef_lora::{AllocationContext, EfLora, GreedyReport, SpatialEfLora, SpatialReport};
use lora_model::NetworkModel;
use lora_phy::TxConfig;
use lora_scenario::{catalog, compile, ScenarioSpec};
use lora_sim::{attenuation_matrix, SimConfig, SimReport, Simulation, Topology};
use lora_spatial::{
    attenuation_horizon_m, cell_size_m, CellGrid, TiledAttenuation, DEFAULT_HORIZON_EPSILON,
};

use crate::metrics::Outcome;
use crate::passes::{
    disagreeing, per_group, report_trace, run_passes, scaled_median, span_ms, Timed,
};
use crate::stats::{digest, is_positive, median, mix, peak_rss_mib};
use crate::trace::Tracer;
use crate::{setup_probe, Args, THREADS};

/// Simulated seconds of plan-paper's validation run.
const PAPER_SIM_S: f64 = 6_000.0;

/// Deployments plan-paper cycles through.
const PAPER_INSTANCES: u64 = 6;

/// Scan threads of plan-paper's timed passes. The 2-thread scan is slower
/// than 1 thread on a 2-core box and its pass times swing up to 1.9×
/// when another tenant loads the host, so the timed pipeline scans on one
/// thread and the 2-thread scan runs once per run as a side call
/// (`parallel.scan_speedup`).
const PAPER_PIPELINE_THREADS: usize = 1;

/// Deployments plan-sharded cycles through.
const SHARDED_INSTANCES: u64 = 2;

/// Seed of instance `k`: the command-line seed itself for instance 0.
pub fn instance_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        seed
    } else {
        mix(seed, k)
    }
}

fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Relative agreement of two reported figures.
fn agrees(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-12)
}

/// (attempts, delivered) summed over devices.
pub fn attempts(report: &SimReport) -> (f64, f64) {
    report.devices.iter().fold((0.0, 0.0), |(a, d), dev| {
        (a + f64::from(dev.attempts), d + f64::from(dev.delivered))
    })
}

// ---------------------------------------------------------------- plan-paper

/// The `paper-uniform` spec at 600 devices, instance `k`.
pub fn paper_instance(seed: u64, k: u64) -> Result<ScenarioSpec, String> {
    let mut spec =
        catalog::override_devices(&catalog::paper_uniform(), 600).map_err(|e| e.to_string())?;
    spec.seed = instance_seed(seed, k);
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

pub struct PaperPass {
    alloc: Vec<TxConfig>,
    config: SimConfig,
    topology: Topology,
    greedy: GreedyReport,
    greedy_s: f64,
    ee: Vec<f64>,
    sim_config: SimConfig,
    sim: SimReport,
    sim_run_s: f64,
}

fn paper_pass(
    spec: &ScenarioSpec,
    tr: &mut Tracer,
    req: u64,
    threads: usize,
) -> Result<PaperPass, String> {
    let root = tr.begin("bench.pass", req);
    let compiled = tr
        .time("scenario.compile", req, || compile(spec))
        .map_err(|e| e.to_string())?;
    let (config, topology) = (compiled.config, compiled.topology);
    let attenuation = tr.time("sim.attenuation_build", req, || {
        attenuation_matrix(&config, &topology)
    });
    let model = tr
        .time("model.build", req, || {
            NetworkModel::try_new_with_attenuation(&config, &topology, attenuation)
        })
        .map_err(|e| e.to_string())?;
    let ctx = AllocationContext::new(&config, &topology, &model);
    let start = Instant::now();
    let greedy = tr
        .time("core.greedy", req, || {
            EfLora::default()
                .with_threads(threads)
                .allocate_with_report(&ctx)
        })
        .map_err(|e| e.to_string())?;
    let greedy_s = start.elapsed().as_secs_f64();
    let alloc = greedy.allocation.as_slice().to_vec();
    let ee = tr.time("model.eval", req, || model.evaluate(&alloc));
    let mut sim_config = config.clone();
    sim_config.duration_s = PAPER_SIM_S;
    let sim = tr
        .time("sim.build", req, || {
            Simulation::with_attenuation(
                sim_config.clone(),
                topology.clone(),
                alloc.clone(),
                model.shared_attenuation().clone(),
            )
        })
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    let report = tr.time("sim.run", req, || sim.run());
    let sim_run_s = start.elapsed().as_secs_f64();
    tr.end(root);
    Ok(PaperPass {
        alloc,
        config,
        topology,
        greedy,
        greedy_s,
        ee,
        sim_config,
        sim: report,
        sim_run_s,
    })
}

/// What a run keeps of one plan-paper pass: its checks' findings and the
/// figures its metrics need.
pub struct PaperSummary {
    problems: Vec<String>,
    digest: u64,
    greedy_s: f64,
    jain: f64,
    min_ee: f64,
    candidates: f64,
    greedy_passes: f64,
    moves: f64,
    attempts: f64,
    delivered: f64,
    sim_run_s: f64,
    sim_min_ee: f64,
}

fn summarize_paper(p: PaperPass, pass: u64) -> PaperSummary {
    let (tried, delivered) = attempts(&p.sim);
    PaperSummary {
        problems: check_paper(&p, pass),
        digest: digest(&p.alloc),
        greedy_s: p.greedy_s,
        jain: ef_lora::fairness::jain_index(&p.ee),
        min_ee: minimum(&p.ee),
        candidates: p.greedy.candidates_evaluated as f64,
        greedy_passes: p.greedy.passes as f64,
        moves: p.greedy.moves_applied as f64,
        attempts: tried,
        delivered,
        sim_run_s: p.sim_run_s,
        sim_min_ee: p.sim.min_energy_efficiency_bits_per_mj(),
    }
}

/// Checks of one plan-paper pass, outside its timing.
fn check_paper(p: &PaperPass, pass: u64) -> Vec<String> {
    let mut bad = Vec::new();
    let min_ee = minimum(&p.ee);
    if !is_positive(min_ee) {
        bad.push(format!("min-EE is {min_ee}: a saturated deployment"));
    }
    let independent = minimum(&NetworkModel::new(&p.config, &p.topology).evaluate(&p.alloc));
    if !agrees(independent, p.greedy.final_min_ee) || !agrees(min_ee, p.greedy.final_min_ee) {
        bad.push(format!(
            "greedy reports min-EE {} but evaluate gives {min_ee} and a fresh model {independent}",
            p.greedy.final_min_ee
        ));
    }
    bad.extend(conformance::oracle::check_invariants(
        &p.sim_config,
        &p.alloc,
        &p.sim,
        pass,
    ));
    bad
}

pub fn paper(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.set("setup_s", setup_probe(args)?);
    let specs: Vec<ScenarioSpec> = (0..PAPER_INSTANCES)
        .map(|k| paper_instance(args.seed, k))
        .collect::<Result<_, _>>()?;
    let mut tr = Tracer::new(false);
    let passes = run_passes(
        args,
        &mut tr,
        &mut out,
        2 * PAPER_INSTANCES,
        |k| Ok(&specs[(k % PAPER_INSTANCES) as usize]),
        |spec, tr, k| paper_pass(spec, tr, k, PAPER_PIPELINE_THREADS),
        summarize_paper,
    );
    for p in &passes {
        for problem in &p.out.problems {
            out.fail_op(format!("pass {}: {problem}", p.pass));
        }
    }
    let instance = |k: u64| k % PAPER_INSTANCES;
    for k in disagreeing(&passes, instance, |p| p.digest) {
        out.fail_op(format!(
            "instance {k} planned differently on a repeated pass"
        ));
    }
    let first: Vec<&Timed<PaperSummary>> =
        passes.iter().filter(|p| instance(p.pass) == 0).collect();
    let Some(reference) = first.first().map(|p| p.out.digest) else {
        out.violate("instance 0 never completed a pass".into());
        return Ok(out);
    };

    // Side call outside the pipeline: the 2-thread scan must plan the
    // same allocation; the 1-thread time over its time is the speed-up.
    let parallel = paper_pass(&specs[0], &mut Tracer::new(false), 0, THREADS)?;
    if digest(&parallel.alloc) != reference {
        out.violate("1-thread and 2-thread scans planned different allocations".into());
    }
    let one_thread: Vec<f64> = first.iter().map(|p| p.out.greedy_s).collect();

    out.set("pipeline_s", scaled_median(&passes));
    out.set("peak_rss_mib", peak_rss_mib("self")?);
    out.set("jain", per_group(&passes, PAPER_INSTANCES, |p| p.jain));
    out.set("min_ee", per_group(&passes, PAPER_INSTANCES, |p| p.min_ee));
    if args.trace {
        let per_pass = |f: &dyn Fn(&PaperSummary) -> f64| {
            median(&passes.iter().map(|p| f(&p.out)).collect::<Vec<_>>())
        };
        out.set("sim.attempts", per_pass(&|p| p.attempts));
        out.set(
            "sim.delivered_ratio",
            per_pass(&|p| p.delivered / p.attempts),
        );
        out.set("sim_events_per_s", per_pass(&|p| p.attempts / p.sim_run_s));
        out.set(
            "sim_min_ee",
            per_group(&passes, PAPER_INSTANCES, |p| p.sim_min_ee),
        );
        out.set("core.greedy_candidates", per_pass(&|p| p.candidates));
        out.set("core.greedy_passes", per_pass(&|p| p.greedy_passes));
        out.set("core.greedy_moves", per_pass(&|p| p.moves));
        out.set(
            "core.greedy_ns_per_candidate",
            per_pass(&|p| p.greedy_s * 1e9 / p.candidates.max(1.0)),
        );
        out.set(
            "model.eval_ns_per_device",
            span_ms(&tr, "model.eval") * 1e6 / parallel.alloc.len() as f64,
        );
        for (span, name) in [
            ("scenario.compile", "scenario.compile_ms"),
            ("sim.attenuation_build", "sim.attenuation_build_ms"),
            ("model.build", "model.build_ms"),
            ("core.greedy", "core.greedy_ms"),
            ("model.eval", "model.eval_ms"),
            ("sim.build", "sim.build_ms"),
            ("sim.run", "sim.run_ms"),
        ] {
            out.set(name, span_ms(&tr, span));
        }
        out.set(
            "parallel.scan_speedup",
            median(&one_thread) / parallel.greedy_s,
        );
        report_trace(&tr, &passes, &mut out);
        tr.dump(
            &args
                .work
                .join(format!("spans-plan-paper-{}.jsonl", std::process::id())),
        )?;
    }
    Ok(out)
}

// -------------------------------------------------------------- plan-sharded

/// Devices, gateways, disc radius (m) and reporting interval (s) of the
/// sharded deployment: enough devices for 25 cells and all four phases,
/// at a density the model does not rate as saturated.
const SHARDED: (usize, usize, f64, f64) = (5_000, 8, 8_000.0, 1_200.0);

/// `SpatialEfLora`'s default target devices per cell, which sizes the
/// grid the side calls rebuild.
const TARGET_OCCUPANCY: usize = 256;

/// `SpatialEfLora`'s default cap on gateways solved exactly per cell.
const MAX_CELL_GATEWAYS: usize = 16;

pub fn sharded_instance(seed: u64, k: u64) -> Result<(SimConfig, Topology), String> {
    let (devices, gateways, radius_m, interval_s) = SHARDED;
    let config = SimConfig {
        report_interval_s: interval_s,
        ..SimConfig::default()
    };
    let topology = Topology::try_disc(devices, gateways, radius_m, &config, instance_seed(seed, k))
        .map_err(|e| e.to_string())?;
    Ok((config, topology))
}

pub struct ShardedPass {
    report: SpatialReport,
    alloc_s: f64,
    ee: Vec<f64>,
}

fn sharded_pass(
    (config, topology): &(SimConfig, Topology),
    tr: &mut Tracer,
    req: u64,
    threads: usize,
) -> Result<ShardedPass, String> {
    let root = tr.begin("bench.pass", req);
    let solver = SpatialEfLora::default().with_threads(threads);
    let start = Instant::now();
    let report = tr
        .time("core.spatial_alloc", req, || {
            solver.allocate_with_report(config, topology)
        })
        .map_err(|e| e.to_string())?;
    let alloc_s = start.elapsed().as_secs_f64();
    let ee = tr
        .time("core.spatial_eval", req, || {
            solver.evaluate_sharded(config, topology, report.allocation.as_slice())
        })
        .map_err(|e| e.to_string())?;
    tr.end(root);
    Ok(ShardedPass {
        report,
        alloc_s,
        ee,
    })
}

/// What a run keeps of one plan-sharded pass.
pub struct ShardedSummary {
    problems: Vec<String>,
    digest: u64,
    alloc_s: f64,
    jain: f64,
    min_ee: f64,
    candidates: f64,
    cells: f64,
    boundary_moves: f64,
    tail_moves: f64,
}

fn summarize_sharded(p: ShardedPass, _pass: u64) -> ShardedSummary {
    ShardedSummary {
        problems: check_sharded(&p),
        digest: digest(p.report.allocation.as_slice()),
        alloc_s: p.alloc_s,
        jain: ef_lora::fairness::jain_index(&p.ee),
        min_ee: minimum(&p.ee),
        candidates: p.report.candidates_evaluated as f64,
        cells: p.report.cells as f64,
        boundary_moves: p.report.boundary_reconfigured as f64,
        tail_moves: p.report.tail_reconfigured as f64,
    }
}

fn check_sharded(p: &ShardedPass) -> Vec<String> {
    let mut bad = Vec::new();
    if !p.report.sharded {
        bad.push("the allocator fell back to the dense path".into());
    }
    let min_ee = minimum(&p.ee);
    if !is_positive(min_ee) {
        bad.push(format!("min-EE is {min_ee}: a saturated deployment"));
    }
    if !agrees(min_ee, p.report.min_ee) {
        bad.push(format!(
            "allocator reports min-EE {} but evaluate_sharded gives {min_ee}",
            p.report.min_ee
        ));
    }
    bad
}

/// The spatial substrate calls the allocator makes, repeated with its
/// arguments as side calls outside the pipeline spans.
fn spatial_side_calls(instance: &(SimConfig, Topology), tr: &mut Tracer, out: &mut Outcome) {
    let (config, topology) = instance;
    tr.set_enabled(true);
    let horizon = tr.time("spatial.horizon", 0, || {
        attenuation_horizon_m(config, DEFAULT_HORIZON_EPSILON)
    });
    let edge = cell_size_m(
        horizon,
        topology.radius_m(),
        topology.device_count(),
        TARGET_OCCUPANCY,
    );
    let grid = tr.time("spatial.grid_build", 0, || CellGrid::build(topology, edge));
    let reach = horizon + edge * std::f64::consts::FRAC_1_SQRT_2;
    let sets: Vec<Vec<u32>> = (0..grid.cell_count())
        .map(|cell| {
            if grid.members(cell).is_empty() {
                return Vec::new();
            }
            let (cx, cy) = grid.cell_center(cell);
            let centre = lora_sim::Position::new(cx, cy);
            let mut ranked: Vec<(f64, u32)> = topology
                .gateways()
                .iter()
                .enumerate()
                .map(|(g, gw)| (centre.distance_to(gw), g as u32))
                .collect();
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut set: Vec<u32> = ranked
                .iter()
                .enumerate()
                .filter(|&(rank, &(d, _))| rank == 0 || (d <= reach && rank < MAX_CELL_GATEWAYS))
                .map(|(_, &(_, g))| g)
                .collect();
            set.sort_unstable();
            set
        })
        .collect();
    let tiles = tr.time("spatial.tiled_build", 0, || {
        TiledAttenuation::build(config, topology, &grid, &sets, THREADS)
    });
    tr.set_enabled(false);
    out.set("spatial.horizon_ms", span_ms(tr, "spatial.horizon"));
    out.set("spatial.grid_build_ms", span_ms(tr, "spatial.grid_build"));
    out.set("spatial.tiled_build_ms", span_ms(tr, "spatial.tiled_build"));
    out.set(
        "spatial.tiled_mib",
        tiles.approx_bytes() as f64 / (1024.0 * 1024.0),
    );
    let side: f64 = [
        "spatial.horizon",
        "spatial.grid_build",
        "spatial.tiled_build",
    ]
    .iter()
    .map(|name| tr.durations_ms(name).iter().sum::<f64>())
    .sum();
    out.set("self.spatial_ms", side);
}

pub fn sharded(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.set("setup_s", setup_probe(args)?);
    let instances: Vec<(SimConfig, Topology)> = (0..SHARDED_INSTANCES)
        .map(|k| sharded_instance(args.seed, k))
        .collect::<Result<_, _>>()?;
    let mut tr = Tracer::new(false);
    let passes = run_passes(
        args,
        &mut tr,
        &mut out,
        2 * SHARDED_INSTANCES,
        |k| Ok(&instances[(k % SHARDED_INSTANCES) as usize]),
        |instance, tr, k| sharded_pass(instance, tr, k, THREADS),
        summarize_sharded,
    );
    for p in &passes {
        for problem in &p.out.problems {
            out.fail_op(format!("pass {}: {problem}", p.pass));
        }
    }
    let instance = |k: u64| k % SHARDED_INSTANCES;
    for k in disagreeing(&passes, instance, |p| p.digest) {
        out.fail_op(format!(
            "instance {k} planned differently on a repeated pass"
        ));
    }
    let first: Vec<&Timed<ShardedSummary>> =
        passes.iter().filter(|p| instance(p.pass) == 0).collect();
    let Some(reference) = first.first().map(|p| p.out.digest) else {
        out.violate("instance 0 never completed a pass".into());
        return Ok(out);
    };

    let single = sharded_pass(&instances[0], &mut Tracer::new(false), 0, 1)?;
    if digest(single.report.allocation.as_slice()) != reference {
        out.violate("1-thread and 2-thread sharded runs planned different allocations".into());
    }
    let two_thread: Vec<f64> = first.iter().map(|p| p.out.alloc_s).collect();

    out.set("pipeline_s", scaled_median(&passes));
    out.set("peak_rss_mib", peak_rss_mib("self")?);
    out.set("jain", per_group(&passes, SHARDED_INSTANCES, |p| p.jain));
    out.set(
        "min_ee",
        per_group(&passes, SHARDED_INSTANCES, |p| p.min_ee),
    );
    if args.trace {
        let per_pass = |f: &dyn Fn(&ShardedSummary) -> f64| {
            median(&passes.iter().map(|p| f(&p.out)).collect::<Vec<_>>())
        };
        out.set("core.spatial_candidates", per_pass(&|p| p.candidates));
        out.set("core.spatial_cells", per_pass(&|p| p.cells));
        out.set(
            "core.spatial_boundary_moves",
            per_pass(&|p| p.boundary_moves),
        );
        out.set("core.spatial_tail_moves", per_pass(&|p| p.tail_moves));
        out.set("core.spatial_alloc_ms", span_ms(&tr, "core.spatial_alloc"));
        out.set("core.spatial_eval_ms", span_ms(&tr, "core.spatial_eval"));
        out.set(
            "parallel.spatial_speedup",
            single.alloc_s / median(&two_thread),
        );
        report_trace(&tr, &passes, &mut out);
        spatial_side_calls(&instances[0], &mut tr, &mut out);
        tr.dump(
            &args
                .work
                .join(format!("spans-plan-sharded-{}.jsonl", std::process::id())),
        )?;
    }
    Ok(out)
}
