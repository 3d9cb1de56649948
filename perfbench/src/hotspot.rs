//! validate-hotspot: simulates a week of `urban-hotspot` deployments
//! (1000 devices requested, three traffic classes) under the RS-LoRa
//! baseline plan. Pass `k` runs the whole pipeline — compile, attenuation,
//! model, RS-LoRa, simulator — on deployment `k mod D` as its replication
//! `k div D`, with a simulator seed of its own. The fairness figures
//! average each device's EE over a deployment's first two replications:
//! one week of one replication leaves the worst RS-LoRa device too few
//! frames for a steady minimum.

use std::time::Instant;

use ef_lora::{AllocationContext, RsLora, Strategy};
use lora_model::NetworkModel;
use lora_phy::TxConfig;
use lora_scenario::spec::SimSection;
use lora_scenario::{catalog, compile, ScenarioSpec};
use lora_sim::{attenuation_matrix, SimConfig, SimReport, Simulation};

use crate::metrics::Outcome;
use crate::passes::{disagreeing, report_trace, run_passes, scaled_median, Timed};
use crate::plan::{attempts, instance_seed};
use crate::stats::{digest, is_positive, median, mix, peak_rss_mib};
use crate::trace::Tracer;
use crate::{setup_probe, Args};

/// Simulated time per replication: one week.
const SIM_S: f64 = 7.0 * 86_400.0;

/// Deployments a run cycles through.
const DEPLOYMENTS: u64 = 5;

/// Replications per deployment the fairness figures average.
const QUALITY_REPS: u64 = 2;

/// The deployment of `seed`.
pub fn deployment(seed: u64) -> Result<ScenarioSpec, String> {
    let mut spec =
        catalog::override_devices(&catalog::urban_hotspot(), 1000).map_err(|e| e.to_string())?;
    spec.seed = seed;
    spec.sim = Some(SimSection {
        duration_s: Some(SIM_S),
        ..spec.sim.unwrap_or_default()
    });
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

pub struct Replication {
    alloc: Vec<TxConfig>,
    config: SimConfig,
    report: SimReport,
    sim_run_s: f64,
}

fn replication(
    spec: &ScenarioSpec,
    tr: &mut Tracer,
    pass: u64,
    rep: u64,
) -> Result<Replication, String> {
    let root = tr.begin("bench.pass", pass);
    let compiled = tr
        .time("scenario.compile", pass, || compile(spec))
        .map_err(|e| e.to_string())?;
    let (mut config, topology) = (compiled.config, compiled.topology);
    config.seed = if rep == 0 {
        config.seed
    } else {
        mix(config.seed, rep)
    };
    let attenuation = tr.time("sim.attenuation_build", pass, || {
        attenuation_matrix(&config, &topology)
    });
    let model = tr
        .time("model.build", pass, || {
            NetworkModel::try_new_with_attenuation(&config, &topology, attenuation)
        })
        .map_err(|e| e.to_string())?;
    let ctx = AllocationContext::new(&config, &topology, &model);
    let alloc = tr
        .time("core.baseline", pass, || RsLora::default().allocate(&ctx))
        .map_err(|e| e.to_string())?
        .into_inner();
    let sim = tr
        .time("sim.build", pass, || {
            Simulation::with_attenuation(
                config.clone(),
                topology.clone(),
                alloc.clone(),
                model.shared_attenuation().clone(),
            )
        })
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    let report = tr.time("sim.run", pass, || sim.run());
    let sim_run_s = start.elapsed().as_secs_f64();
    tr.end(root);
    Ok(Replication {
        alloc,
        config,
        report,
        sim_run_s,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.set("setup_s", setup_probe(args)?);
    let specs: Vec<ScenarioSpec> = (0..DEPLOYMENTS)
        .map(|d| deployment(instance_seed(args.seed, d)))
        .collect::<Result<_, _>>()?;
    let mut tr = Tracer::new(false);
    let reps = run_passes(
        args,
        &mut tr,
        &mut out,
        QUALITY_REPS * DEPLOYMENTS,
        |k| Ok(&specs[(k % DEPLOYMENTS) as usize]),
        |spec, tr, k| replication(spec, tr, k, k / DEPLOYMENTS),
        // A replication is about 0.1 MiB against a peak of about 77 MiB:
        // kept whole.
        |rep, _| rep,
    );
    for r in &reps {
        let problems = conformance::oracle::check_invariants(
            &r.out.config,
            &r.out.alloc,
            &r.out.report,
            r.pass,
        );
        for problem in problems {
            out.fail_op(problem);
        }
    }
    for d in disagreeing(&reps, |k| k % DEPLOYMENTS, |r| digest(&r.alloc)) {
        out.fail_op(format!(
            "deployment {d}: RS-LoRa planned differently on a repeated pass"
        ));
    }
    for k in disagreeing(&reps, |k| k, |r| r.report.clone()) {
        out.fail_op(format!("pass {k} simulated differently when traced"));
    }

    // Per deployment, each device's EE averaged over its first
    // replications.
    let mut jains = Vec::new();
    let mut minima = Vec::new();
    for d in 0..DEPLOYMENTS {
        let runs: Vec<&Replication> = (0..QUALITY_REPS)
            .filter_map(|r| reps.iter().find(|t| t.pass == d + r * DEPLOYMENTS))
            .map(|t: &Timed<Replication>| &t.out)
            .collect();
        if runs.len() < QUALITY_REPS as usize {
            out.violate(format!("deployment {d} missed a replication"));
            continue;
        }
        let devices = runs[0].report.devices.len();
        let mean_ee: Vec<f64> = (0..devices)
            .map(|i| {
                runs.iter()
                    .map(|r| r.report.devices[i].ee_bits_per_mj)
                    .sum::<f64>()
                    / runs.len() as f64
            })
            .collect();
        let min_ee = mean_ee.iter().copied().fold(f64::INFINITY, f64::min);
        if !is_positive(min_ee) {
            out.violate(format!(
                "deployment {d}: simulated min-EE is {min_ee}, a device delivered nothing"
            ));
        }
        jains.push(ef_lora::fairness::jain_index(&mean_ee));
        minima.push(min_ee);
    }

    out.set("pipeline_s", scaled_median(&reps));
    out.set("peak_rss_mib", peak_rss_mib("self")?);
    out.set("jain", median(&jains));
    out.set("sim_min_ee", median(&minima));
    if args.trace {
        let rates: Vec<f64> = reps
            .iter()
            .map(|r| attempts(&r.out.report).0 / r.out.sim_run_s)
            .collect();
        out.set("sim_events_per_s", median(&rates));
        let tried: Vec<f64> = reps.iter().map(|r| attempts(&r.out.report).0).collect();
        let ratio: Vec<f64> = reps
            .iter()
            .map(|r| {
                let (tried, delivered) = attempts(&r.out.report);
                delivered / tried
            })
            .collect();
        out.set("sim.attempts", median(&tried));
        out.set("sim.delivered_ratio", median(&ratio));
        for (span, name) in [
            ("scenario.compile", "scenario.compile_ms"),
            ("sim.attenuation_build", "sim.attenuation_build_ms"),
            ("model.build", "model.build_ms"),
            ("core.baseline", "core.baseline_ms"),
            ("sim.build", "sim.build_ms"),
            ("sim.run", "sim.run_ms"),
        ] {
            out.set(name, median(&tr.durations_ms(span)));
        }
        report_trace(&tr, &reps, &mut out);
        tr.dump(&args.work.join(format!(
            "spans-validate-hotspot-{}.jsonl",
            std::process::id()
        )))?;
    }
    Ok(out)
}
