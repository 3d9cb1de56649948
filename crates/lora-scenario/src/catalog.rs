//! The built-in scenario catalog.
//!
//! Five reference workloads exercising every pillar of the engine. Each is
//! also shipped as JSON under `scenarios/` at the repo root (the CLI's
//! `scenario` subcommand consumes the files); a conformance test pins the
//! files to these constructors, refreshed with `EF_LORA_UPDATE_GOLDEN=1`.

use crate::error::ScenarioError;
use crate::spec::{
    ChurnKind, ClassSpec, GatewaySpec, HotspotSpec, ScenarioSpec, SimSection, SpatialSpec,
};
use lora_sim::Position;

/// Names of the catalog scenarios, in presentation order.
pub const CATALOG: [&str; 5] = [
    "paper-uniform",
    "urban-hotspot",
    "ppp-sparse",
    "corridor",
    "churn-heavy",
];

/// Builds a catalog scenario by name; `None` for names outside
/// [`CATALOG`].
pub fn scenario(name: &str) -> Option<ScenarioSpec> {
    match name {
        "paper-uniform" => Some(paper_uniform()),
        "urban-hotspot" => Some(urban_hotspot()),
        "ppp-sparse" => Some(ppp_sparse()),
        "corridor" => Some(corridor()),
        "churn-heavy" => Some(churn_heavy()),
        _ => None,
    }
}

/// Every catalog scenario, in [`CATALOG`] order.
pub fn all() -> Vec<ScenarioSpec> {
    CATALOG
        .iter()
        .map(|name| scenario(name).expect("catalog names are exhaustive"))
        .collect()
}

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

/// The paper's Section IV deployment verbatim: 500 devices uniform in a
/// 5 km disc, 3 grid gateways, one device class. Compiles byte-identical
/// to [`lora_sim::Topology::disc`].
pub fn paper_uniform() -> ScenarioSpec {
    ScenarioSpec::builder("paper-uniform")
        .seed(1)
        .spatial(SpatialSpec::UniformDisc { devices: 500 })
        .gateways(GatewaySpec::Grid { count: 3 })
        .build()
        .expect("catalog scenario must validate")
}

/// Three urban hotspots over a sparse background, k-means gateways, and a
/// device-class mix (slow sensors, chatty trackers, rare-but-regular
/// meters). The shape where uniform-disc assumptions fail hardest.
pub fn urban_hotspot() -> ScenarioSpec {
    let mut b = ScenarioSpec::builder("urban-hotspot");
    b.seed(2)
        .spatial(SpatialSpec::Clusters {
            hotspots: vec![
                HotspotSpec {
                    x_m: Some(-2_500.0),
                    y_m: Some(1_500.0),
                    radius_m: 500.0,
                    mean_devices: 150.0,
                },
                HotspotSpec {
                    x_m: Some(2_000.0),
                    y_m: Some(2_000.0),
                    radius_m: 400.0,
                    mean_devices: 100.0,
                },
                HotspotSpec {
                    x_m: Some(500.0),
                    y_m: Some(-3_000.0),
                    radius_m: 600.0,
                    mean_devices: 120.0,
                },
            ],
            background_devices: 80,
        })
        .gateways(GatewaySpec::KMeans {
            count: 3,
            iterations: 32,
        })
        .class(class("sensor", 0.6, 600.0))
        .class(class("tracker", 0.3, 120.0))
        .class(class("meter", 0.1, 3_600.0));
    b.build().expect("catalog scenario must validate")
}

/// A homogeneous Poisson point process at 4 devices/km² — rural coverage
/// where the device count itself is random.
pub fn ppp_sparse() -> ScenarioSpec {
    ScenarioSpec::builder("ppp-sparse")
        .seed(3)
        .spatial(SpatialSpec::Ppp {
            intensity_per_km2: 4.0,
        })
        .gateways(GatewaySpec::Grid { count: 2 })
        .build()
        .expect("catalog scenario must validate")
}

/// A 9 km road corridor crossing the region at 30°, with two hand-placed
/// gateways on the roadside — extreme anisotropy.
pub fn corridor() -> ScenarioSpec {
    let (sin, cos) = 30.0f64.to_radians().sin_cos();
    ScenarioSpec::builder("corridor")
        .seed(4)
        .spatial(SpatialSpec::Corridor {
            devices: 300,
            length_m: 9_000.0,
            width_m: 400.0,
            angle_deg: 30.0,
        })
        .gateways(GatewaySpec::Explicit {
            positions: vec![
                Position::new(-2_000.0 * cos, -2_000.0 * sin),
                Position::new(2_000.0 * cos, 2_000.0 * sin),
            ],
        })
        .build()
        .expect("catalog scenario must validate")
}

/// A two-class deployment under sustained churn: waves of joins, a mass
/// departure, and a firmware-style class migration — the
/// incremental-allocator stress scenario.
pub fn churn_heavy() -> ScenarioSpec {
    let mut b = ScenarioSpec::builder("churn-heavy");
    b.seed(5)
        .spatial(SpatialSpec::UniformDisc { devices: 200 })
        .gateways(GatewaySpec::Grid { count: 2 })
        .class(class("steady", 0.7, 600.0))
        .class(class("bursty", 0.3, 120.0))
        .sim(SimSection {
            duration_s: Some(3_000.0),
            ..SimSection::default()
        })
        .churn(
            1,
            ChurnKind::Join {
                class: "bursty".into(),
                count: 30,
            },
        )
        .churn(
            2,
            ChurnKind::Join {
                class: "steady".into(),
                count: 20,
            },
        )
        .churn(2, ChurnKind::Leave { count: 25 })
        .churn(
            3,
            ChurnKind::Migrate {
                from: "steady".into(),
                to: "bursty".into(),
                count: 40,
            },
        )
        .churn(4, ChurnKind::Leave { count: 50 });
    b.build().expect("catalog scenario must validate")
}

/// Scales a scenario's device population by `factor` (smoke-scale runs):
/// fixed counts, cluster means, background and PPP intensity all scale;
/// churn counts scale too, with a floor of one.
pub fn scale_devices(spec: &ScenarioSpec, factor: f64) -> ScenarioSpec {
    let scale = |n: usize| ((n as f64 * factor).round() as usize).max(1);
    let mut out = spec.clone();
    out.spatial = match &spec.spatial {
        SpatialSpec::UniformDisc { devices } => SpatialSpec::UniformDisc {
            devices: scale(*devices),
        },
        SpatialSpec::Ppp { intensity_per_km2 } => SpatialSpec::Ppp {
            intensity_per_km2: intensity_per_km2 * factor,
        },
        SpatialSpec::Clusters {
            hotspots,
            background_devices,
        } => SpatialSpec::Clusters {
            hotspots: hotspots
                .iter()
                .map(|h| HotspotSpec {
                    mean_devices: (h.mean_devices * factor).max(1.0),
                    ..h.clone()
                })
                .collect(),
            background_devices: scale(*background_devices),
        },
        SpatialSpec::Annulus {
            devices,
            inner_m,
            outer_m,
        } => SpatialSpec::Annulus {
            devices: scale(*devices),
            inner_m: *inner_m,
            outer_m: *outer_m,
        },
        SpatialSpec::Corridor {
            devices,
            length_m,
            width_m,
            angle_deg,
        } => SpatialSpec::Corridor {
            devices: scale(*devices),
            length_m: *length_m,
            width_m: *width_m,
            angle_deg: *angle_deg,
        },
    };
    if let Some(churn) = &mut out.churn {
        for event in churn {
            event.event = match &event.event {
                ChurnKind::Join { class, count } => ChurnKind::Join {
                    class: class.clone(),
                    count: scale(*count),
                },
                ChurnKind::Leave { count } => ChurnKind::Leave {
                    count: scale(*count),
                },
                ChurnKind::Migrate { from, to, count } => ChurnKind::Migrate {
                    from: from.clone(),
                    to: to.clone(),
                    count: scale(*count),
                },
            };
        }
    }
    out
}

/// Pins a scenario's device population to exactly `devices` (expected
/// count for stochastic spatial processes) — the scale-out knob behind
/// `ef-lora-plan scenario generate --devices N`.
///
/// Fixed-count shapes (`UniformDisc`, `Annulus`, `Corridor`) take the
/// count verbatim; a `Ppp` has its intensity set to `devices / area`, so
/// the *expected* draw matches; `Clusters` scale hotspot means and the
/// background proportionally.
///
/// # Errors
///
/// [`ScenarioError::InvalidSpec`] when `devices` is zero, or when the
/// override is too small for the spec's class mix — a declared class
/// with a nonzero fraction that would be apportioned zero devices would
/// silently vanish from the deployment.
pub fn override_devices(
    spec: &ScenarioSpec,
    devices: usize,
) -> Result<ScenarioSpec, ScenarioError> {
    if devices == 0 {
        return Err(ScenarioError::InvalidSpec {
            field: "spatial.devices".into(),
            reason: "device override must be positive".into(),
        });
    }
    if let Some(classes) = &spec.classes {
        let fractions: Vec<f64> = classes.iter().map(|c| c.fraction).collect();
        let counts = crate::compile::apportion(devices, &fractions);
        for (class, &count) in classes.iter().zip(&counts) {
            if class.fraction > 0.0 && count == 0 {
                return Err(ScenarioError::InvalidSpec {
                    field: format!("classes[{}].fraction", class.name),
                    reason: format!(
                        "override of {devices} devices apportions zero to class `{}` \
                         (fraction {}); raise the override or drop the class",
                        class.name, class.fraction
                    ),
                });
            }
        }
    }
    let mut out = spec.clone();
    out.spatial = match &spec.spatial {
        SpatialSpec::UniformDisc { .. } => SpatialSpec::UniformDisc { devices },
        SpatialSpec::Ppp { .. } => {
            let area_km2 = std::f64::consts::PI * (spec.radius_m / 1_000.0).powi(2);
            SpatialSpec::Ppp {
                intensity_per_km2: devices as f64 / area_km2,
            }
        }
        SpatialSpec::Clusters {
            hotspots,
            background_devices,
        } => {
            let expected: f64 =
                hotspots.iter().map(|h| h.mean_devices).sum::<f64>() + *background_devices as f64;
            let factor = devices as f64 / expected;
            SpatialSpec::Clusters {
                hotspots: hotspots
                    .iter()
                    .map(|h| HotspotSpec {
                        mean_devices: (h.mean_devices * factor).max(1.0),
                        ..h.clone()
                    })
                    .collect(),
                background_devices: ((*background_devices as f64 * factor).round() as usize).max(1),
            }
        }
        SpatialSpec::Annulus {
            inner_m, outer_m, ..
        } => SpatialSpec::Annulus {
            devices,
            inner_m: *inner_m,
            outer_m: *outer_m,
        },
        SpatialSpec::Corridor {
            length_m,
            width_m,
            angle_deg,
            ..
        } => SpatialSpec::Corridor {
            devices,
            length_m: *length_m,
            width_m: *width_m,
            angle_deg: *angle_deg,
        },
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    #[test]
    fn every_catalog_scenario_validates_and_compiles() {
        for spec in all() {
            assert!(spec.validate().is_ok(), "{} must validate", spec.name);
            let compiled = compile(&spec).unwrap();
            assert!(compiled.device_count() > 0, "{}", spec.name);
            assert!(compiled.topology.gateway_count() > 0, "{}", spec.name);
        }
    }

    #[test]
    fn paper_uniform_is_the_legacy_shape() {
        assert!(paper_uniform().is_legacy_uniform());
        assert!(!urban_hotspot().is_legacy_uniform());
    }

    #[test]
    fn scale_devices_shrinks_the_population() {
        for spec in all() {
            let small = scale_devices(&spec, 0.1);
            assert!(
                small.validate().is_ok(),
                "{} scaled must validate",
                spec.name
            );
            let full = compile(&spec).unwrap().device_count();
            let smoke = compile(&small).unwrap().device_count();
            assert!(
                smoke < full,
                "{}: smoke {smoke} must be below full {full}",
                spec.name
            );
            assert!(smoke > 0, "{}", spec.name);
        }
    }

    #[test]
    fn override_devices_pins_fixed_counts_and_ppp_expectations() {
        let uniform = override_devices(&paper_uniform(), 10_000).unwrap();
        assert_eq!(
            uniform.spatial,
            SpatialSpec::UniformDisc { devices: 10_000 }
        );
        assert!(uniform.validate().is_ok());

        let ppp = override_devices(&ppp_sparse(), 50_000).unwrap();
        let SpatialSpec::Ppp { intensity_per_km2 } = ppp.spatial else {
            panic!("ppp override must stay a ppp");
        };
        let area_km2 = std::f64::consts::PI * (ppp.radius_m / 1_000.0).powi(2);
        assert!((intensity_per_km2 * area_km2 - 50_000.0).abs() < 1e-6);
        // The compiled draw lands near the expectation (Poisson, ±5 σ).
        let n = compile(&ppp).unwrap().device_count() as f64;
        assert!((n - 50_000.0).abs() < 5.0 * 50_000.0f64.sqrt(), "{n}");

        let clusters = override_devices(&urban_hotspot(), 4_500).unwrap();
        let n = compile(&clusters).unwrap().device_count() as f64;
        assert!((n - 4_500.0).abs() < 5.0 * 4_500.0f64.sqrt(), "{n}");
    }

    #[test]
    fn override_devices_rejects_zero_and_vanishing_classes() {
        assert!(matches!(
            override_devices(&paper_uniform(), 0),
            Err(ScenarioError::InvalidSpec { field, .. }) if field == "spatial.devices"
        ));
        // urban-hotspot's rarest class holds 10% of devices; 3 devices
        // apportion it zero.
        assert!(matches!(
            override_devices(&urban_hotspot(), 3),
            Err(ScenarioError::InvalidSpec { field, .. }) if field.contains("meter")
        ));
        // 10 devices give every class at least one.
        assert!(override_devices(&urban_hotspot(), 10).is_ok());
    }
}
