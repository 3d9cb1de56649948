//! Pins the docs and CI to the experiment registry: every
//! `exp -- <name>` they run must resolve through [`find`], none may still
//! name an experiment as a binary of its own, and CI must run the whole
//! registry — so renaming or retiring an experiment without updating
//! them fails here.

use std::path::Path;

use ef_lora_bench::registry::{find, EXPERIMENTS};

/// The files that tell a reader (or CI) how to run an experiment,
/// relative to the repository root.
const SOURCES: &[&str] = &[
    ".github/workflows/ci.yml",
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
];

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The word following every occurrence of `marker` in `text`.
fn words_after<'a>(text: &'a str, marker: &'a str) -> impl Iterator<Item = &'a str> + 'a {
    text.split(marker).skip(1).map(|rest| {
        rest.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
            .next()
            .unwrap_or("")
    })
}

#[test]
fn every_documented_exp_command_resolves_through_the_registry() {
    let mut commands = 0;
    for source in SOURCES {
        let text = read(source);
        for name in words_after(&text, "--bin exp -- ") {
            commands += 1;
            assert!(
                name == "all" || find(name).is_some(),
                "{source}: `exp -- {name}` names no registered experiment"
            );
        }
        for bin in words_after(&text, "--bin ") {
            assert!(
                bin != "run_all" && find(bin).is_none(),
                "{source}: `--bin {bin}` is gone; run it as `--bin exp -- {bin}`"
            );
        }
    }
    assert!(commands > 0, "no `--bin exp -- <name>` command found");

    // CI runs the whole registry and both perf-gated experiments.
    let ci = read(SOURCES[0]);
    for command in [
        "--bin exp -- all",
        "--bin exp -- ext_serve_soak",
        "--bin exp -- ext_scale",
    ] {
        assert!(ci.contains(command), "ci.yml must run `{command}`");
    }
}

#[test]
fn registry_lookup_round_trips() {
    for experiment in EXPERIMENTS {
        let found = find(experiment.name).expect("registered name resolves");
        assert_eq!(found.name, experiment.name);
    }
    assert!(
        find("all").is_none(),
        "`all` is the dispatcher's, not an experiment"
    );
    assert!(find("no_such_experiment").is_none());
}
