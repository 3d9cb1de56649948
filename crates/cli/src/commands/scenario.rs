//! `ef-lora-plan scenario` — the declarative workload engine.
//!
//! ```text
//! ef-lora-plan scenario validate --spec scenarios/urban-hotspot.json
//! ef-lora-plan scenario generate --name corridor --topology topo.json
//! ef-lora-plan scenario run      --spec scenarios/urban-hotspot.json --strategy ef-lora
//! ef-lora-plan scenario sweep    --spec scenarios/ppp-sparse.json --strategies ef-lora,legacy
//! ```
//!
//! Specs come from a JSON file (`--spec`) or the built-in catalog
//! (`--name`); `--scale F` multiplies device populations (smoke runs),
//! `--devices N` pins the (expected) population outright — the scale-out
//! knob that takes `ppp-sparse` to 10k/100k/1M devices — and `--seed N`
//! overrides the scenario seed.

use ef_lora::Strategy;
use lora_scenario::catalog;
use lora_scenario::{compile, run_scenario, CompiledScenario, RunOptions, ScenarioRunReport};

use crate::args::Options;
use crate::io::{write_json, write_text};

/// Dispatches a `scenario <action>` invocation.
pub fn run(action: &str, opts: &Options) -> Result<(), String> {
    match action {
        "validate" => validate(opts),
        "generate" => generate(opts),
        "run" => run_one(opts),
        "sweep" => sweep(opts),
        other => Err(format!(
            "unknown scenario action `{other}` (expected validate, generate, run or sweep)"
        )),
    }
}

/// Loads the spec selected by `--spec FILE` or `--name CATALOG`, applying
/// `--scale` and `--seed` overrides.
fn spec_from(opts: &Options) -> Result<lora_scenario::ScenarioSpec, String> {
    let mut spec = match (opts.optional("spec"), opts.optional("name")) {
        (Some(path), None) => {
            let body =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            lora_scenario::from_json(&body).map_err(|e| format!("{path}: {e}"))?
        }
        (None, Some(name)) => catalog::scenario(name).ok_or_else(|| {
            format!(
                "unknown catalog scenario `{name}` (available: {})",
                catalog::CATALOG.join(", ")
            )
        })?,
        (Some(_), Some(_)) => return Err("--spec and --name are mutually exclusive".into()),
        (None, None) => return Err("missing --spec FILE or --name CATALOG".into()),
    };
    if let Some(scale) = opts.optional("scale") {
        let factor: f64 = scale
            .parse()
            .map_err(|_| "flag --scale has an invalid value".to_string())?;
        if !factor.is_finite() || factor <= 0.0 {
            return Err("flag --scale must be a positive factor".into());
        }
        spec = catalog::scale_devices(&spec, factor);
    }
    if let Some(devices) = opts.optional("devices") {
        let n: usize = devices
            .parse()
            .map_err(|_| "flag --devices has an invalid value".to_string())?;
        spec = catalog::override_devices(&spec, n).map_err(|e| e.to_string())?;
    }
    if let Some(seed) = opts.optional("seed") {
        spec.seed = seed
            .parse()
            .map_err(|_| "flag --seed has an invalid value".to_string())?;
    }
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

fn compiled_from(opts: &Options) -> Result<CompiledScenario, String> {
    let spec = spec_from(opts)?;
    compile(&spec).map_err(|e| e.to_string())
}

fn print_summary(compiled: &CompiledScenario) {
    println!(
        "scenario {}: {} devices, {} gateways, {} epoch(s)",
        compiled.spec.name,
        compiled.device_count(),
        compiled.topology.gateway_count(),
        compiled.epoch_count()
    );
    for (name, count) in compiled.class_histogram() {
        println!("  class {name:<12} {count:>6} devices");
    }
}

/// `scenario validate` — parse, validate and compile, printing a summary.
fn validate(opts: &Options) -> Result<(), String> {
    let compiled = compiled_from(opts)?;
    print_summary(&compiled);
    println!("ok");
    Ok(())
}

/// `scenario generate` — compile and write artifacts: `-o FILE` archives
/// the full compiled scenario, `--topology FILE` just the topology (which
/// feeds the existing `allocate`/`simulate` subcommands), `--write-spec
/// FILE` the (scaled, reseeded) spec itself.
fn generate(opts: &Options) -> Result<(), String> {
    let compiled = compiled_from(opts)?;
    print_summary(&compiled);
    let mut wrote = false;
    if let Some(path) = opts.optional("output") {
        write_json(path, &compiled)?;
        println!("wrote {path}");
        wrote = true;
    }
    if let Some(path) = opts.optional("topology") {
        write_json(path, &compiled.topology)?;
        println!("wrote {path}");
        wrote = true;
    }
    if let Some(path) = opts.optional("write-spec") {
        write_text(path, &lora_scenario::to_json(&compiled.spec))?;
        println!("wrote {path}");
        wrote = true;
    }
    if !wrote {
        return Err("scenario generate needs -o, --topology or --write-spec".into());
    }
    Ok(())
}

fn run_options(opts: &Options) -> Result<RunOptions, String> {
    Ok(RunOptions {
        reps: opts.parse_or("reps", 3)?,
        threads: opts.parse_or("threads", 0)?,
        epoch_duration_s: opts
            .optional("epoch-duration")
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| "flag --epoch-duration has an invalid value".to_string())
            })
            .transpose()?,
    })
}

fn print_report(report: &ScenarioRunReport) {
    println!(
        "{} under {} ({} reps/epoch):",
        report.scenario, report.strategy, report.reps
    );
    println!(
        "{:>5} {:>8} {:>6} {:>5} {:>8} {:>7} {:>12} {:>12} {:>7} {:>7}",
        "epoch", "devices", "join", "left", "migrate", "reconf", "minEE", "meanEE", "jain", "PRR"
    );
    for e in &report.epochs {
        println!(
            "{:>5} {:>8} {:>6} {:>5} {:>8} {:>7} {:>12.2} {:>12.2} {:>7.3} {:>7.3}",
            e.epoch,
            e.devices,
            e.joined,
            e.left,
            e.migrated,
            e.reconfigured,
            e.min_ee,
            e.mean_ee,
            e.jain,
            e.mean_prr
        );
    }
}

/// `scenario run` — compile and play the scenario under one strategy.
fn run_one(opts: &Options) -> Result<(), String> {
    let compiled = compiled_from(opts)?;
    let strategy = ef_lora::strategy::by_name(opts.optional("strategy").unwrap_or("ef-lora"))?;
    let options = run_options(opts)?;
    let report = run_scenario(&compiled, strategy.as_ref(), &options).map_err(|e| e.to_string())?;
    print_report(&report);
    if let Some(path) = opts.optional("output") {
        write_json(path, &report)?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `scenario sweep` — run the scenario under several strategies
/// (`--strategies a,b,c`; default ef-lora,legacy,rs-lora) and compare
/// final-epoch metrics.
fn sweep(opts: &Options) -> Result<(), String> {
    let compiled = compiled_from(opts)?;
    let names = opts
        .optional("strategies")
        .unwrap_or("ef-lora,legacy,rs-lora");
    let options = run_options(opts)?;
    let mut reports = Vec::new();
    for name in names.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let strategy: Box<dyn Strategy> = ef_lora::strategy::by_name(name)?;
        let report =
            run_scenario(&compiled, strategy.as_ref(), &options).map_err(|e| e.to_string())?;
        reports.push(report);
    }
    if reports.is_empty() {
        return Err("flag --strategies names no strategies".into());
    }
    println!(
        "{} ({} devices, {} epochs, {} reps/epoch):",
        compiled.spec.name,
        compiled.device_count(),
        compiled.epoch_count(),
        options.reps
    );
    println!(
        "{:<16} {:>12} {:>12} {:>7} {:>7} {:>8}",
        "strategy", "minEE", "meanEE", "jain", "PRR", "reconf"
    );
    for r in &reports {
        let last = r.epochs.last().expect("a run always has epoch 0");
        println!(
            "{:<16} {:>12.2} {:>12.2} {:>7.3} {:>7.3} {:>8}",
            r.strategy,
            last.min_ee,
            last.mean_ee,
            last.jain,
            last.mean_prr,
            r.total_reconfigured()
        );
    }
    if let Some(path) = opts.optional("output") {
        write_json(path, &reports)?;
        println!("wrote {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(v: &[&str]) -> Options {
        Options::parse(&v.iter().map(|x| x.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn catalog_names_resolve_and_validate() {
        for name in catalog::CATALOG {
            let opts = o(&["--name", name, "--scale", "0.1"]);
            assert!(validate(&opts).is_ok(), "{name}");
        }
    }

    #[test]
    fn unknown_sources_error() {
        assert!(spec_from(&o(&[])).is_err());
        assert!(spec_from(&o(&["--name", "nope"]))
            .unwrap_err()
            .contains("available"));
        assert!(spec_from(&o(&["--name", "corridor", "--spec", "x.json"])).is_err());
        assert!(spec_from(&o(&["--spec", "/nonexistent/spec.json"])).is_err());
        assert!(spec_from(&o(&["--name", "corridor", "--scale", "-1"])).is_err());
    }

    #[test]
    fn unknown_action_errors() {
        assert!(run("frobnicate", &o(&[]))
            .unwrap_err()
            .contains("unknown scenario action"));
    }

    #[test]
    fn seed_override_applies() {
        let spec = spec_from(&o(&["--name", "corridor", "--seed", "99"])).unwrap();
        assert_eq!(spec.seed, 99);
    }

    #[test]
    fn devices_override_applies_and_rejects_bad_values() {
        let spec = spec_from(&o(&["--name", "ppp-sparse", "--devices", "10000"])).unwrap();
        let n = compile(&spec).unwrap().device_count() as f64;
        assert!((n - 10_000.0).abs() < 5.0 * 10_000.0f64.sqrt(), "{n}");
        assert!(spec_from(&o(&["--name", "ppp-sparse", "--devices", "0"])).is_err());
        assert!(spec_from(&o(&["--name", "ppp-sparse", "--devices", "many"])).is_err());
        // Too few devices for urban-hotspot's three-class mix.
        assert!(
            spec_from(&o(&["--name", "urban-hotspot", "--devices", "3"]))
                .unwrap_err()
                .contains("apportions zero")
        );
    }

    #[test]
    fn generate_without_outputs_errors() {
        let opts = o(&["--name", "paper-uniform", "--scale", "0.05"]);
        assert!(generate(&opts).unwrap_err().contains("needs -o"));
    }

    #[test]
    fn run_and_sweep_write_reports() {
        let dir = std::env::temp_dir().join(format!("ef-lora-scenario-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("run.json");
        let opts = o(&[
            "--name",
            "paper-uniform",
            "--scale",
            "0.06",
            "--reps",
            "1",
            "--epoch-duration",
            "600",
            "-o",
            out.to_str().unwrap(),
        ]);
        run_one(&opts).unwrap();
        let report: ScenarioRunReport = crate::io::read_json(out.to_str().unwrap()).unwrap();
        assert_eq!(report.scenario, "paper-uniform");
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.devices_initial, 30);

        let sweep_out = dir.join("sweep.json");
        let opts = o(&[
            "--name",
            "paper-uniform",
            "--scale",
            "0.06",
            "--reps",
            "1",
            "--epoch-duration",
            "600",
            "--strategies",
            "ef-lora,legacy",
            "-o",
            sweep_out.to_str().unwrap(),
        ]);
        sweep(&opts).unwrap();
        let reports: Vec<ScenarioRunReport> =
            crate::io::read_json(sweep_out.to_str().unwrap()).unwrap();
        assert_eq!(reports.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
