//! The `exp` dispatcher's command line: anything but one registered
//! experiment name or `all` is refused with a non-zero exit and the list
//! of registered names.

use std::process::{Command, Output};

use ef_lora_bench::registry::EXPERIMENTS;

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("exp binary runs")
}

fn assert_refused_with_the_registry(args: &[&str]) {
    let out = exp(args);
    assert!(!out.status.success(), "exp {args:?} must fail");
    assert!(out.stdout.is_empty(), "exp {args:?} ran something");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("usage: exp <name>|all"), "{stderr}");
    for experiment in EXPERIMENTS {
        assert!(
            stderr.contains(experiment.name),
            "exp {args:?} must list {}: {stderr}",
            experiment.name
        );
    }
}

#[test]
fn anything_but_one_registered_name_or_all_is_refused() {
    for args in [
        &[][..],
        &["fig99_no_such_figure"],
        &["run_all"],
        &["table1_sf_motivation", "--reps"],
    ] {
        assert_refused_with_the_registry(args);
    }
}

#[test]
fn a_registered_name_runs_that_experiment() {
    let out = exp(&["table1_sf_motivation"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.starts_with("scale="), "banner first: {stdout}");
}
