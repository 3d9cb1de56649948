//! Running a compiled scenario end to end: allocate, simulate, churn.
//!
//! [`run_scenario`] plays a [`CompiledScenario`] through its epochs:
//!
//! * epoch 0 allocates the initial deployment with the chosen
//!   [`ef_lora::Strategy`] and measures it over `reps` independent
//!   simulator repetitions;
//! * every later epoch applies its churn events — joins, leaves and class
//!   migrations — through [`crate::churn::apply_event`], so existing
//!   devices are reconfigured only when the change touches their
//!   contention groups (PR 3's bounded-repair path), then re-measures.
//!
//! Determinism: every random draw comes from a stream derived from the
//! scenario seed (per-epoch churn streams, per-`(epoch, rep)` simulation
//! seeds), and repetitions fan out through
//! [`lora_parallel::par_map_indexed`] with an index-order reduction — the
//! report is byte-identical for any worker count.

use serde::{Deserialize, Serialize};

use ef_lora::{AllocationContext, IncrementalAllocator, Strategy};
use lora_model::NetworkModel;
use lora_phy::TxConfig;
use lora_sim::{SimConfig, Simulation, Topology};

use crate::churn::{self, apply_event, refresh_intervals, ChurnContext, ChurnWarning, Population};
use crate::compile::CompiledScenario;
use crate::error::ScenarioError;

/// Options for [`run_scenario`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOptions {
    /// Independent simulator repetitions per epoch (channel randomness;
    /// the topology is fixed by the scenario seed).
    pub reps: usize,
    /// Worker threads for the repetition fan-out; `0` means the host's
    /// available parallelism. The report is byte-identical for every
    /// value.
    pub threads: usize,
    /// Simulated seconds per epoch; `None` keeps the compiled
    /// `config.duration_s`.
    pub epoch_duration_s: Option<f64>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            reps: 3,
            threads: 0,
            epoch_duration_s: None,
        }
    }
}

/// Measured and modelled outcome of one epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochOutcome {
    /// Epoch index (0 = initial deployment).
    pub epoch: u32,
    /// Devices alive during this epoch.
    pub devices: usize,
    /// Devices that joined at this epoch's start.
    pub joined: usize,
    /// Devices that left at this epoch's start.
    pub left: usize,
    /// Devices that migrated classes at this epoch's start.
    pub migrated: usize,
    /// Pre-existing devices whose configuration the incremental allocator
    /// changed — the over-the-air reconfiguration cost of the epoch.
    pub reconfigured: usize,
    /// Candidate configurations the incremental allocator examined.
    pub candidates_evaluated: u64,
    /// Analytical-model minimum EE after allocation, bits/mJ.
    pub model_min_ee: f64,
    /// Measured minimum EE, bits/mJ (mean over repetitions).
    pub min_ee: f64,
    /// Measured mean EE, bits/mJ (mean over repetitions).
    pub mean_ee: f64,
    /// Measured Jain fairness index of per-device EE (mean over reps).
    pub jain: f64,
    /// Measured mean packet reception ratio (mean over repetitions).
    pub mean_prr: f64,
}

/// Full report of a scenario run.
///
/// Serialization is hand-written to keep `warnings` out of the JSON when
/// empty: the common, warning-free report stays byte-identical to the
/// pre-warning format (goldens unchanged).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRunReport {
    /// Scenario name (from the spec).
    pub scenario: String,
    /// Allocation strategy name.
    pub strategy: String,
    /// Devices in the initial deployment.
    pub devices_initial: usize,
    /// Gateway count (fixed across epochs).
    pub gateways: usize,
    /// Simulator repetitions per epoch.
    pub reps: usize,
    /// Per-epoch outcomes, epoch 0 first.
    pub epochs: Vec<EpochOutcome>,
    /// Typed warnings raised while applying churn (e.g. a clamped
    /// `Leave`); empty for a clean run.
    pub warnings: Vec<ChurnWarning>,
}

impl Serialize for ScenarioRunReport {
    fn to_value(&self) -> serde::Value {
        let mut obj: Vec<(String, serde::Value)> = vec![
            ("scenario".to_string(), self.scenario.to_value()),
            ("strategy".to_string(), self.strategy.to_value()),
            (
                "devices_initial".to_string(),
                self.devices_initial.to_value(),
            ),
            ("gateways".to_string(), self.gateways.to_value()),
            ("reps".to_string(), self.reps.to_value()),
            ("epochs".to_string(), self.epochs.to_value()),
        ];
        if !self.warnings.is_empty() {
            obj.push(("warnings".to_string(), self.warnings.to_value()));
        }
        serde::Value::Object(obj)
    }
}

impl Deserialize for ScenarioRunReport {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let obj = value.as_object().ok_or_else(|| {
            serde::Error::custom(format!(
                "expected object for ScenarioRunReport, got {}",
                value.kind()
            ))
        })?;
        let field = |name: &str| obj.iter().find(|(k, _)| k.as_str() == name).map(|(_, v)| v);
        macro_rules! required {
            ($name:literal) => {
                match field($name) {
                    Some(v) => Deserialize::from_value(v).map_err(|e: serde::Error| {
                        e.contextualize(concat!("ScenarioRunReport.", $name))
                    })?,
                    None => {
                        return Err(serde::Error::custom(concat!(
                            "missing field `ScenarioRunReport.",
                            $name,
                            "`"
                        )))
                    }
                }
            };
        }
        Ok(ScenarioRunReport {
            scenario: required!("scenario"),
            strategy: required!("strategy"),
            devices_initial: required!("devices_initial"),
            gateways: required!("gateways"),
            reps: required!("reps"),
            epochs: required!("epochs"),
            warnings: match field("warnings") {
                Some(v) => Deserialize::from_value(v)
                    .map_err(|e: serde::Error| e.contextualize("ScenarioRunReport.warnings"))?,
                None => Vec::new(),
            },
        })
    }
}

impl ScenarioRunReport {
    /// The last epoch's measured minimum EE — the headline number.
    pub fn final_min_ee(&self) -> f64 {
        self.epochs.last().map(|e| e.min_ee).unwrap_or(0.0)
    }

    /// Total over-the-air reconfigurations across all churn epochs.
    pub fn total_reconfigured(&self) -> usize {
        self.epochs.iter().map(|e| e.reconfigured).sum()
    }
}

/// Runs a compiled scenario under one allocation strategy.
///
/// # Errors
///
/// Propagates simulator and allocator rejections ([`ScenarioError::Sim`],
/// [`ScenarioError::Alloc`]); [`ScenarioError::EmptyScenario`] if churn
/// drains the deployment.
pub fn run_scenario(
    compiled: &CompiledScenario,
    strategy: &dyn Strategy,
    options: &RunOptions,
) -> Result<ScenarioRunReport, ScenarioError> {
    let classes = compiled.spec.effective_classes();
    let gateways = compiled.topology.gateways().to_vec();
    let radius_m = compiled.topology.radius_m();
    let threads = if options.threads == 0 {
        lora_parallel::available_threads()
    } else {
        options.threads
    };

    let mut config = compiled.config.clone();
    if let Some(d) = options.epoch_duration_s {
        config.duration_s = d;
    }

    let mut pop = Population {
        sites: compiled.topology.devices().to_vec(),
        class_of: compiled.class_of.clone(),
        alloc: Vec::new(),
    };
    let churn_ctx = ChurnContext {
        classes: &classes,
        spatial: &compiled.spec.spatial,
        gateways: &gateways,
        radius_m,
    };

    let mut epochs = Vec::new();
    let mut warnings = Vec::new();
    let incremental = IncrementalAllocator::new();
    for epoch in 0..compiled.epoch_count() {
        let (joined, left, migrated, reconfigured, candidates) = if epoch == 0 {
            let topology = Topology::from_sites(pop.sites.clone(), gateways.clone(), radius_m);
            refresh_intervals(&mut config, &pop.class_of, &classes);
            let model = NetworkModel::new(&config, &topology);
            let ctx = AllocationContext::new(&config, &topology, &model);
            pop.alloc = strategy.allocate(&ctx)?.into_inner();
            (0, 0, 0, 0, 0)
        } else {
            apply_epoch_events(
                compiled,
                &churn_ctx,
                &mut config,
                &mut pop,
                &incremental,
                epoch,
                &mut warnings,
            )?
        };

        let topology = Topology::from_sites(pop.sites.clone(), gateways.clone(), radius_m);
        let model = NetworkModel::new(&config, &topology);
        let model_min_ee = ef_lora::fairness::min_ee(&model.evaluate(&pop.alloc));
        let measured = measure(&config, &topology, &pop.alloc, options.reps, threads, epoch)?;
        epochs.push(EpochOutcome {
            epoch,
            devices: pop.sites.len(),
            joined,
            left,
            migrated,
            reconfigured,
            candidates_evaluated: candidates,
            model_min_ee,
            min_ee: measured[0],
            mean_ee: measured[1],
            jain: measured[2],
            mean_prr: measured[3],
        });
    }

    Ok(ScenarioRunReport {
        scenario: compiled.spec.name.clone(),
        strategy: strategy.name().to_string(),
        devices_initial: compiled.device_count(),
        gateways: gateways.len(),
        reps: options.reps,
        epochs,
        warnings,
    })
}

/// Applies every churn event stamped with `epoch`, in timeline order,
/// each through [`apply_event`]. Returns
/// `(joined, left, migrated, reconfigured, candidates)` and appends any
/// typed warnings to `warnings`.
fn apply_epoch_events(
    compiled: &CompiledScenario,
    ctx: &ChurnContext<'_>,
    config: &mut SimConfig,
    pop: &mut Population,
    incremental: &IncrementalAllocator,
    epoch: u32,
    warnings: &mut Vec<ChurnWarning>,
) -> Result<(usize, usize, usize, usize, u64), ScenarioError> {
    let mut rng = churn::epoch_churn_rng(compiled.spec.seed, epoch);
    let mut joined = 0usize;
    let mut left = 0usize;
    let mut migrated = 0usize;
    let mut reconfigured = 0usize;
    let mut candidates = 0u64;

    for event in compiled.timeline.iter().filter(|e| e.epoch == epoch) {
        let join_seed = churn::epoch_join_seed(compiled.spec.seed, epoch, joined);
        let outcome = apply_event(ctx, config, pop, incremental, event, &mut rng, join_seed)?;
        joined += outcome.joined;
        left += outcome.left;
        migrated += outcome.migrated;
        reconfigured += outcome.reconfigured;
        candidates += outcome.candidates_evaluated;
        if let Some(w) = outcome.warning {
            warnings.push(w);
        }
    }
    Ok((joined, left, migrated, reconfigured, candidates))
}

/// The simulation seed of repetition `rep` in `epoch` — pre-derived so
/// repetitions are independent of scheduling order.
fn rep_seed(base: u64, epoch: u32, rep: usize) -> u64 {
    base ^ ((epoch as u64 + 1) << 32) ^ (rep as u64).wrapping_mul(0x9e37_79b9).wrapping_add(1)
}

/// Measures `[min_ee, mean_ee, jain, mean_prr]`, each averaged over
/// `reps` repetitions fanned out over `threads` workers and reduced in
/// repetition order (byte-identical for any worker count).
fn measure(
    config: &SimConfig,
    topology: &Topology,
    alloc: &[TxConfig],
    reps: usize,
    threads: usize,
    epoch: u32,
) -> Result<[f64; 4], ScenarioError> {
    let reps = reps.max(1);
    let results = lora_parallel::par_map_indexed(reps, threads, |rep| {
        let mut cfg = config.clone();
        cfg.seed = rep_seed(config.seed, epoch, rep);
        Simulation::new(cfg, topology.clone(), alloc.to_vec()).map(|sim| {
            let report = sim.run();
            [
                report.min_energy_efficiency_bits_per_mj(),
                report.mean_energy_efficiency_bits_per_mj(),
                report.jain_fairness(),
                report.mean_prr(),
            ]
        })
    });
    let mut sums = [0.0f64; 4];
    for r in results {
        let values = r?;
        for (s, v) in sums.iter_mut().zip(values) {
            *s += v;
        }
    }
    Ok(sums.map(|s| s / reps as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::spec::{ChurnKind, ClassSpec, GatewaySpec, ScenarioSpec, SimSection, SpatialSpec};
    use ef_lora::EfLora;

    fn class(name: &str, fraction: f64, interval: f64) -> ClassSpec {
        ClassSpec {
            name: name.into(),
            fraction,
            report_interval_s: interval,
            p_los: None,
            app_payload: None,
            confirmed: None,
        }
    }

    fn churn_spec() -> ScenarioSpec {
        let mut b = ScenarioSpec::builder("churny");
        b.seed(5)
            .spatial(SpatialSpec::UniformDisc { devices: 30 })
            .gateways(GatewaySpec::Grid { count: 1 })
            .class(class("slow", 0.5, 600.0))
            .class(class("fast", 0.5, 120.0))
            .sim(SimSection {
                duration_s: Some(1_200.0),
                ..SimSection::default()
            })
            .churn(
                1,
                ChurnKind::Join {
                    class: "fast".into(),
                    count: 5,
                },
            )
            .churn(2, ChurnKind::Leave { count: 8 })
            .churn(
                3,
                ChurnKind::Migrate {
                    from: "slow".into(),
                    to: "fast".into(),
                    count: 4,
                },
            );
        b.build().unwrap()
    }

    fn quick() -> RunOptions {
        RunOptions {
            reps: 2,
            threads: 1,
            epoch_duration_s: Some(600.0),
        }
    }

    #[test]
    fn churn_timeline_tracks_population() {
        let compiled = compile(&churn_spec()).unwrap();
        let report = run_scenario(&compiled, &EfLora::default(), &quick()).unwrap();
        assert_eq!(report.epochs.len(), 4);
        assert_eq!(report.epochs[0].devices, 30);
        assert_eq!(report.epochs[1].devices, 35);
        assert_eq!(report.epochs[1].joined, 5);
        assert_eq!(report.epochs[2].devices, 27);
        assert_eq!(report.epochs[2].left, 8);
        assert_eq!(report.epochs[3].devices, 27);
        assert_eq!(report.epochs[3].migrated, 4);
        assert!(report.warnings.is_empty());
        for e in &report.epochs {
            assert!(e.model_min_ee > 0.0, "epoch {}: model min EE", e.epoch);
            assert!(e.min_ee >= 0.0);
            assert!(e.jain > 0.0 && e.jain <= 1.0 + 1e-9, "jain {}", e.jain);
        }
    }

    #[test]
    fn run_is_deterministic_and_thread_invariant() {
        let compiled = compile(&churn_spec()).unwrap();
        let a = run_scenario(&compiled, &EfLora::default(), &quick()).unwrap();
        let b = run_scenario(&compiled, &EfLora::default(), &quick()).unwrap();
        assert_eq!(a, b);
        let wide = RunOptions {
            threads: 4,
            ..quick()
        };
        let c = run_scenario(&compiled, &EfLora::default(), &wide).unwrap();
        assert_eq!(a, c, "worker count must not change the report");
    }

    #[test]
    fn leave_never_drains_the_network() {
        let mut b = ScenarioSpec::builder("drain");
        b.seed(2)
            .spatial(SpatialSpec::UniformDisc { devices: 5 })
            .gateways(GatewaySpec::Grid { count: 1 })
            .sim(SimSection {
                duration_s: Some(600.0),
                ..SimSection::default()
            })
            .churn(1, ChurnKind::Leave { count: 50 });
        let compiled = compile(&b.build().unwrap()).unwrap();
        let report = run_scenario(&compiled, &EfLora::default(), &quick()).unwrap();
        assert_eq!(report.epochs[1].devices, 1);
        assert_eq!(report.epochs[1].left, 4);
    }

    #[test]
    fn clamped_leave_surfaces_a_typed_warning() {
        let mut b = ScenarioSpec::builder("drain");
        b.seed(2)
            .spatial(SpatialSpec::UniformDisc { devices: 5 })
            .gateways(GatewaySpec::Grid { count: 1 })
            .sim(SimSection {
                duration_s: Some(600.0),
                ..SimSection::default()
            })
            .churn(1, ChurnKind::Leave { count: 50 });
        let compiled = compile(&b.build().unwrap()).unwrap();
        let report = run_scenario(&compiled, &EfLora::default(), &quick()).unwrap();
        assert_eq!(
            report.warnings,
            vec![ChurnWarning::LeaveClamped {
                epoch: 1,
                requested: 50,
                applied: 4,
            }]
        );
        // The clamp survives a JSON round trip.
        let text = serde_json::to_string(&report).unwrap();
        assert!(text.contains("LeaveClamped"));
        let parsed: ScenarioRunReport = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn clean_report_serializes_without_a_warnings_key() {
        let compiled = compile(&churn_spec()).unwrap();
        let report = run_scenario(&compiled, &EfLora::default(), &quick()).unwrap();
        let text = serde_json::to_string(&report).unwrap();
        assert!(
            !text.contains("warnings"),
            "clean reports must stay byte-identical to the pre-warning format"
        );
        let parsed: ScenarioRunReport = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn single_epoch_scenario_has_one_outcome() {
        let spec = ScenarioSpec::builder("plain")
            .seed(1)
            .spatial(SpatialSpec::UniformDisc { devices: 20 })
            .sim(SimSection {
                duration_s: Some(600.0),
                ..SimSection::default()
            })
            .build()
            .unwrap();
        let compiled = compile(&spec).unwrap();
        let report = run_scenario(&compiled, &EfLora::default(), &quick()).unwrap();
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.final_min_ee(), report.epochs[0].min_ee);
        assert_eq!(report.total_reconfigured(), 0);
    }
}
