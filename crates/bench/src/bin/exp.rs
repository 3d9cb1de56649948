//! Runs the paper's tables and figures and the extension experiments.
//!
//! ```text
//! exp <name>   # one experiment from the registry
//! exp all      # every experiment in registry order, then the headline
//! ```
//!
//! The experiment list is [`ef_lora_bench::registry::EXPERIMENTS`].
//! `exp <name>` of an experiment with a checked-in perf baseline
//! (`ext_scale`, `ext_serve_soak`) also gates the run against it and
//! exits non-zero when the gate fails; `exp all` does not gate. The
//! headline numbers of `exp all` are computed from the JSON records each
//! experiment archives under `target/experiments/`.

use std::process::ExitCode;

use ef_lora_bench::output::read_json;
use ef_lora_bench::registry::{find, EXPERIMENTS};
use ef_lora_bench::Scale;
use serde::Value;

/// Pulls `value` out of a `[["name", value], …]` pair list at `field`.
fn strategy_value(point: &Value, field: &str, name: &str) -> Option<f64> {
    let (_, pairs) = point.as_object()?.iter().find(|(k, _)| k == field)?;
    pairs.as_array()?.iter().find_map(|pair| {
        let pair = pair.as_array()?;
        match pair.first()? {
            Value::Str(s) if s == name => pair.get(1)?.as_f64(),
            _ => None,
        }
    })
}

/// Mean percentage improvement of EF-LoRa over `baseline_of` across every
/// archived point of `record` at `field`.
fn mean_improvement(
    record: &Value,
    field: &str,
    baseline_of: impl Fn(&Value) -> Option<f64>,
) -> Option<f64> {
    let points = record.as_array()?;
    let gains: Vec<f64> = points
        .iter()
        .filter_map(|p| {
            let ef = strategy_value(p, field, "EF-LoRa")?;
            let base = baseline_of(p)?;
            Some(ef_lora::fairness::improvement_percent(ef, base))
        })
        .collect();
    if gains.is_empty() {
        return None;
    }
    Some(gains.iter().sum::<f64>() / gains.len() as f64)
}

/// Prints the headline numbers (paper: +177.8 % fairness vs. state of
/// the art at 3 GW / 3000 ED; +64 % lifetime vs. legacy), recomputed
/// from the archived Fig. 6 and Fig. 8 records.
fn print_headline() {
    let fairness = read_json("fig6_min_ee_vs_devices").and_then(|record| {
        mean_improvement(&record, "min_ee", |p| {
            let rs = strategy_value(p, "min_ee", "RS-LoRa")?;
            let legacy = strategy_value(p, "min_ee", "Legacy-LoRa")?;
            Some(rs.max(legacy))
        })
    });
    let lifetime = read_json("fig8_network_lifetime").and_then(|record| {
        mean_improvement(&record, "etx_lifetime_years", |p| {
            strategy_value(p, "etx_lifetime_years", "Legacy-LoRa")
        })
    });

    println!("\n== Headline ==");
    match fairness {
        Some(avg) => println!(
            "mean min-EE improvement over the best baseline across Fig. 6: {avg:+.1}% (paper: +177.8% at 3GW/3000ED)"
        ),
        None => println!("fig6 record unavailable; no fairness headline"),
    }
    match lifetime {
        Some(gain) => println!(
            "mean ETX lifetime improvement over legacy LoRa across Fig. 8: {gain:+.1}% (paper: +41.5%; +64% in the ICDCS version)"
        ),
        None => println!("fig8 record unavailable; no lifetime headline"),
    }
}

/// Prints the usage line and every registered experiment name to stderr.
fn usage() -> ExitCode {
    eprintln!("usage: exp <name>|all");
    eprintln!("experiments:");
    for experiment in EXPERIMENTS {
        eprintln!("  {}", experiment.name);
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [target] = args.as_slice() else {
        return usage();
    };
    let experiment = find(target);
    if experiment.is_none() && target != "all" {
        eprintln!("error: unknown experiment {target:?}");
        return usage();
    }

    let scale = Scale::from_env();
    println!("{}", scale.banner());
    let Some(experiment) = experiment else {
        for experiment in EXPERIMENTS {
            (experiment.run)(&scale);
        }
        print_headline();
        return ExitCode::SUCCESS;
    };
    let passed = match experiment.gated {
        Some(gated) => gated(&scale),
        None => {
            (experiment.run)(&scale);
            true
        }
    };
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
