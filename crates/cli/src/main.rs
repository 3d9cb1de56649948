//! `ef-lora-plan` — command-line planner for energy-fair LoRa allocations.
//!
//! ```text
//! ef-lora-plan generate --devices 500 --gateways 3 --radius 5000 --seed 7 -o topo.json
//! ef-lora-plan allocate --topology topo.json --strategy ef-lora -o alloc.json
//! ef-lora-plan simulate --topology topo.json --allocation alloc.json --duration 6000
//! ef-lora-plan compare  --topology topo.json
//! ef-lora-plan scenario run --spec scenarios/urban-hotspot.json --strategy ef-lora
//! ```
//!
//! Deployments, allocations and configurations are plain JSON, so the tool
//! slots into scripted planning pipelines; every subcommand prints a
//! human-readable summary to stdout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;
mod io;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Dispatches a parsed command line. Split out of `main` for testing.
pub(crate) fn run(argv: &[String]) -> Result<(), String> {
    let Some((command, rest)) = argv.split_first() else {
        print_usage();
        return Err("missing subcommand".into());
    };
    if command == "serve" {
        // The daemon parses its own flags (it is also a standalone
        // binary, `ef-lora-serve`); pass them through untouched.
        return ef_lora_serve::app::daemon_main(rest);
    }
    if command == "scenario" {
        // `scenario` takes an action word before the --flag options.
        let Some((action, rest)) = rest.split_first() else {
            print_usage();
            return Err("scenario needs an action: validate, generate, run or sweep".into());
        };
        let opts = args::Options::parse(rest)?;
        return commands::scenario::run(action, &opts);
    }
    let opts = args::Options::parse(rest)?;
    match command.as_str() {
        "generate" => commands::generate::run(&opts),
        "allocate" => commands::allocate::run(&opts),
        "simulate" => commands::simulate::run(&opts),
        "compare" => commands::compare::run(&opts),
        "grow" => commands::grow::run(&opts),
        "validate" => commands::validate::run(&opts),
        "faults" => commands::faults::run(&opts),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => {
            print_usage();
            Err(format!("unknown subcommand `{other}`"))
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: ef-lora-plan <subcommand> [options]\n\
         \n\
         subcommands:\n\
         \x20 generate  --devices N --gateways G [--radius M] [--seed S] [--p-los F] -o FILE\n\
         \x20 allocate  --topology FILE [--strategy S] [-o FILE]\n\
         \x20 simulate  --topology FILE --allocation FILE [--duration S] [--seed N] [--duty F]\n\
         \x20 compare   --topology FILE [--duration S] [--duty F]\n\
         \x20 grow      --topology FILE --allocation FILE [--repair true|false] [-o FILE]\n\
         \x20 validate  [--scale smoke|full] [--threads N] [--output FILE]\n\
         \x20 faults    [--topology FILE | --devices N --gateways G --radius M] [--gateway K]\n\
         \x20           [--mtbf S] [--mttr S] [--epochs N] [--epoch-duration S]\n\
         \x20           [--recovery static|reactive|oracle] [--threshold F] [--seed N] [-o FILE]\n\
         \x20 scenario  validate|generate|run|sweep (--spec FILE | --name CATALOG)\n\
         \x20           [--scale F] [--devices N] [--seed N] [--strategy S | --strategies A,B] [--reps N]\n\
         \x20           [--threads N] [--epoch-duration S] [--topology FILE] [-o FILE]\n\
         \x20 serve     (--spec FILE | --name CATALOG | --restore SNAPSHOT) [--scale F]\n\
         \x20           [--seed N] [--strategy S] [--port P] [--snapshot PATH]\n\
         \n\
         strategies: {}\n\
         all files are JSON; see the repository README for the schema",
        ef_lora::strategy::NAMES.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn missing_subcommand_errors() {
        assert!(run(&[]).is_err());
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&s(&["frobnicate"])).unwrap_err().contains("unknown"));
    }

    #[test]
    fn help_succeeds() {
        assert!(run(&s(&["help"])).is_ok());
    }

    #[test]
    fn scenario_without_action_errors() {
        assert!(run(&s(&["scenario"])).unwrap_err().contains("action"));
        assert!(run(&s(&["scenario", "explode"]))
            .unwrap_err()
            .contains("unknown scenario action"));
    }

    #[test]
    fn serve_without_a_scenario_errors() {
        assert!(run(&s(&["serve"])).unwrap_err().contains("--spec"));
        assert!(run(&s(&["serve", "--name", "nope"]))
            .unwrap_err()
            .contains("unknown catalog scenario"));
    }

    #[test]
    fn scenario_validate_resolves_catalog() {
        assert!(run(&s(&["scenario", "validate", "--name", "corridor"])).is_ok());
        assert!(run(&s(&["scenario", "validate", "--name", "nope"])).is_err());
    }

    #[test]
    fn full_pipeline_via_tempdir() {
        let dir = std::env::temp_dir().join(format!("ef-lora-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let topo = dir.join("topo.json");
        let alloc = dir.join("alloc.json");

        run(&s(&[
            "generate",
            "--devices",
            "30",
            "--gateways",
            "2",
            "--radius",
            "3000",
            "--seed",
            "9",
            "-o",
            topo.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(topo.exists());

        run(&s(&[
            "allocate",
            "--topology",
            topo.to_str().unwrap(),
            "--strategy",
            "ef-lora",
            "-o",
            alloc.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(alloc.exists());

        run(&s(&[
            "simulate",
            "--topology",
            topo.to_str().unwrap(),
            "--allocation",
            alloc.to_str().unwrap(),
            "--duration",
            "1200",
        ]))
        .unwrap();

        run(&s(&[
            "compare",
            "--topology",
            topo.to_str().unwrap(),
            "--duration",
            "1200",
        ]))
        .unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }
}
