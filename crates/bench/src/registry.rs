//! Single source of truth for the experiments.
//!
//! Every experiment is a library function under `experiments`; this
//! registry names them all once, and the `exp` binary dispatches on it
//! (`exp <name>` runs one, `exp all` runs every one in registry order),
//! so CI and the docs name experiments exactly as the registry does.

use crate::experiments::{
    ext_adr, ext_confirmed_traffic, ext_heterogeneous_rates, ext_incremental, ext_inter_sf,
    ext_scale, ext_scenarios, ext_serve_soak, fig10_convergence, fig4_ee_per_device, fig5_ee_cdf,
    fig6_min_ee_vs_devices, fig7_min_ee_vs_gateways, fig8_network_lifetime, fig9_decomposition,
    model_validation, resilience, table1_sf_motivation, table2_tp_motivation,
};
use crate::harness::Scale;

/// One registered experiment: its name and the library entry point it
/// runs.
pub struct Experiment {
    /// Experiment name, the argument of `exp <name>`.
    pub name: &'static str,
    /// Runs the experiment at the given scale, discarding its result
    /// (results are archived as JSON under `target/experiments/`).
    pub run: fn(&Scale),
    /// For an experiment with a checked-in perf baseline: runs it and
    /// gates the result against that baseline, returning whether the
    /// gate passed. `exp <name>` runs this instead of [`Self::run`];
    /// `exp all` does not gate.
    pub gated: Option<fn(&Scale) -> bool>,
}

const fn experiment(name: &'static str, run: fn(&Scale)) -> Experiment {
    Experiment {
        name,
        run,
        gated: None,
    }
}

/// Every experiment, in the order `exp all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    experiment("table1_sf_motivation", |_| {
        table1_sf_motivation::run();
    }),
    experiment("table2_tp_motivation", |_| {
        table2_tp_motivation::run();
    }),
    experiment("fig4_ee_per_device", |s| {
        fig4_ee_per_device::run(s);
    }),
    experiment("fig5_ee_cdf", |s| {
        fig5_ee_cdf::run(s);
    }),
    experiment("fig6_min_ee_vs_devices", |s| {
        fig6_min_ee_vs_devices::run(s);
    }),
    experiment("fig7_min_ee_vs_gateways", |s| {
        fig7_min_ee_vs_gateways::run(s);
    }),
    experiment("fig8_network_lifetime", |s| {
        fig8_network_lifetime::run(s);
    }),
    experiment("fig9_decomposition", |s| {
        fig9_decomposition::run(s);
    }),
    experiment("fig10_convergence", |s| {
        fig10_convergence::run(s);
    }),
    experiment("model_validation", |s| {
        model_validation::run(s);
    }),
    experiment("ext_inter_sf", |s| {
        ext_inter_sf::run(s);
    }),
    experiment("ext_heterogeneous_rates", |s| {
        ext_heterogeneous_rates::run(s);
    }),
    experiment("ext_incremental", |s| {
        ext_incremental::run(s);
    }),
    experiment("ext_confirmed_traffic", |s| {
        ext_confirmed_traffic::run(s);
    }),
    experiment("ext_adr", |s| {
        ext_adr::run(s);
    }),
    experiment("resilience", |s| {
        resilience::run(s);
    }),
    experiment("ext_scenarios", |s| {
        ext_scenarios::run(s);
    }),
    Experiment {
        name: "ext_serve_soak",
        run: |s| {
            ext_serve_soak::run(s);
        },
        gated: Some(|s| ext_serve_soak::gate(&ext_serve_soak::run(s))),
    },
    Experiment {
        name: "ext_scale",
        run: |s| {
            ext_scale::run(s);
        },
        gated: Some(|s| ext_scale::gate(&ext_scale::run(s))),
    },
];

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_unique_and_findable() {
        for e in EXPERIMENTS {
            assert!(find(e.name).is_some());
        }
        let mut names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate registry entries");
        assert!(find("all").is_none(), "`exp all` reserves the name");
    }

    #[test]
    fn exactly_the_baselined_experiments_are_gated() {
        let gated: Vec<_> = EXPERIMENTS
            .iter()
            .filter(|e| e.gated.is_some())
            .map(|e| e.name)
            .collect();
        assert_eq!(gated, ["ext_serve_soak", "ext_scale"]);
    }
}
