//! Golden snapshots for the scenario engine.
//!
//! Pins the full compilation of one non-trivial catalog scenario —
//! spec, sampled topology, simulator config, class assignment and churn
//! timeline — so any drift in the spatial samplers, the class
//! apportionment, the k-means placement or the serde layout shows up as
//! a reviewed golden diff rather than a silent behaviour change. The
//! catalog files under `scenarios/` are pinned to their builders the
//! same way.
//!
//! Refresh with `EF_LORA_UPDATE_GOLDEN=1 cargo test -p conformance`.

use conformance::golden;
use lora_scenario::{catalog, compile, from_json, to_json};

/// The pinned scenario: urban-hotspot at a tenth of its authored
/// population. It exercises every new compilation path at once —
/// cluster sampling, k-means gateways and a three-class traffic mix —
/// while keeping the snapshot reviewably small.
fn pinned_spec() -> lora_scenario::ScenarioSpec {
    let spec = catalog::scenario("urban-hotspot").expect("urban-hotspot is in the catalog");
    catalog::scale_devices(&spec, 0.1)
}

#[test]
fn compiled_urban_hotspot_matches_golden() {
    let compiled = compile(&pinned_spec()).expect("the pinned scenario must compile");
    let mut json = serde_json::to_string_pretty(&compiled).expect("compiled scenario serializes");
    json.push('\n');
    golden::check_or_update("scenario_urban_hotspot", &json).unwrap();
}

#[test]
fn pinned_spec_round_trips_through_json() {
    let spec = pinned_spec();
    let text = to_json(&spec);
    let parsed = from_json(&text).expect("spec parses back");
    assert_eq!(spec, parsed);
    // And compilation of the round-tripped spec is byte-identical.
    let a = serde_json::to_string(&compile(&spec).unwrap()).unwrap();
    let b = serde_json::to_string(&compile(&parsed).unwrap()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn compilation_is_deterministic_across_processes_inputs() {
    // Same spec, two independent compile calls: byte-identical output.
    // Guards the per-component seed tags against accidental coupling to
    // ambient state (thread ids, iteration order, time).
    let spec = pinned_spec();
    let a = serde_json::to_string(&compile(&spec).unwrap()).unwrap();
    let b = serde_json::to_string(&compile(&spec).unwrap()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn catalog_files_match_the_builders() {
    // The JSON files under scenarios/ are what the CLI and CI consume;
    // they must stay in sync with these constructors. Refresh with
    // EF_LORA_UPDATE_GOLDEN=1.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("scenarios");
    let update = golden::update_mode();
    for spec in catalog::all() {
        let path = dir.join(format!("{}.json", spec.name));
        let expected = serde_json::to_string_pretty(&spec).expect("catalog spec must serialize");
        if update {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, format!("{expected}\n")).unwrap();
            continue;
        }
        let actual = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{} missing ({e}); run with EF_LORA_UPDATE_GOLDEN=1 to create it",
                path.display()
            )
        });
        assert_eq!(
            actual.trim_end(),
            expected,
            "{} drifted from the catalog builder; refresh with EF_LORA_UPDATE_GOLDEN=1",
            path.display()
        );
        // And the file round-trips to the same spec.
        let parsed: lora_scenario::ScenarioSpec = serde_json::from_str(&actual).unwrap();
        assert_eq!(parsed, spec);
    }
}
