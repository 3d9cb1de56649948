//! End-to-end integration tests: topology → model → allocation →
//! simulation → metrics, across all workspace crates.

use ef_lora_repro::prelude::*;

fn pipeline(n: usize, gws: usize, seed: u64, strategy: &dyn Strategy) -> (SimReport, Vec<f64>) {
    let config = SimConfig::builder().seed(seed).duration_s(6_000.0).build();
    let topo = Topology::disc(n, gws, 4_000.0, &config, seed);
    let model = NetworkModel::new(&config, &topo);
    let ctx = AllocationContext::new(&config, &topo, &model);
    let alloc = strategy.allocate(&ctx).expect("allocation");
    let model_ee = model.evaluate(alloc.as_slice());
    let report = Simulation::new(config, topo, alloc.into_inner())
        .expect("simulation")
        .run();
    (report, model_ee)
}

#[test]
fn every_strategy_survives_the_full_pipeline() {
    let legacy = LegacyLora::default();
    let rs = RsLora::default();
    let ef = EfLora::default();
    let fixed = EfLoraFixedTp::default();
    let strategies: [&dyn Strategy; 4] = [&legacy, &rs, &ef, &fixed];
    for strategy in strategies {
        let (report, model_ee) = pipeline(80, 2, 3, strategy);
        assert_eq!(report.devices.len(), 80, "{}", strategy.name());
        assert_eq!(model_ee.len(), 80, "{}", strategy.name());
        assert!(
            report.mean_prr() > 0.0,
            "{} delivered nothing",
            strategy.name()
        );
        for d in &report.devices {
            assert!(d.attempts > 0, "{}", strategy.name());
            assert!(d.energy_j > 0.0, "{}", strategy.name());
        }
    }
}

#[test]
fn model_and_simulator_rank_strategies_consistently() {
    // The model drives the allocator; the simulator measures. They need
    // not agree numerically, but the mean-EE ranking between a sane and a
    // deliberately bad allocation must match.
    let config = SimConfig::builder().seed(5).duration_s(9_000.0).build();
    let topo = Topology::disc(100, 2, 3_000.0, &config, 5);
    let model = NetworkModel::new(&config, &topo);
    let ctx = AllocationContext::new(&config, &topo, &model);

    let good = EfLora::default().allocate(&ctx).unwrap();
    // Bad: everyone on SF12, max power, one channel — maximum airtime and
    // contention.
    let bad =
        vec![TxConfig::new(SpreadingFactor::Sf12, TxPowerDbm::new(14.0), 0); topo.device_count()];

    let model_good = lora_sim::metrics::mean(&model.evaluate(good.as_slice()));
    let model_bad = lora_sim::metrics::mean(&model.evaluate(&bad));
    assert!(model_good > model_bad, "model: {model_good} vs {model_bad}");

    let sim_good = Simulation::new(config.clone(), topo.clone(), good.into_inner())
        .unwrap()
        .run()
        .mean_energy_efficiency_bits_per_mj();
    let sim_bad = Simulation::new(config, topo, bad)
        .unwrap()
        .run()
        .mean_energy_efficiency_bits_per_mj();
    assert!(sim_good > sim_bad, "simulator: {sim_good} vs {sim_bad}");
}

#[test]
fn model_prr_tracks_simulated_prr_per_device() {
    // Per-device agreement between the analytical PRR structure and the
    // measured one: correlation must be clearly positive on a deployment
    // spanning good and bad links.
    let config = SimConfig::builder().seed(9).duration_s(30_000.0).build();
    let topo = Topology::disc(60, 2, 5_000.0, &config, 9);
    let model = NetworkModel::new(&config, &topo);
    let ctx = AllocationContext::new(&config, &topo, &model);
    let alloc = LegacyLora::default().allocate(&ctx).unwrap();

    let model_ee = model.evaluate(alloc.as_slice());
    let report = Simulation::new(config, topo, alloc.into_inner())
        .unwrap()
        .run();
    let sim_ee: Vec<f64> = report.devices.iter().map(|d| d.ee_bits_per_mj).collect();

    let corr = pearson(&model_ee, &sim_ee);
    assert!(
        corr > 0.6,
        "model/simulator EE correlation too weak: {corr}"
    );
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
    cov / (va.sqrt() * vb.sqrt())
}

#[test]
fn capacity_limit_binds_end_to_end() {
    // 40 devices on distinct (SF, channel) pairs all transmitting within
    // one second would decode on a 48-signal gateway, but the SX1301 model
    // caps concurrency at 8.
    let mut config = SimConfig::builder()
        .seed(1)
        .duration_s(1.0)
        .report_interval_s(1.0)
        .build();
    config.fading = lora_phy::Fading::None;
    let sites = (0..40)
        .map(|i| lora_sim::DeviceSite {
            position: lora_sim::Position::new(100.0 + i as f64, 0.0),
            environment: lora_phy::path_loss::LinkEnvironment::LineOfSight,
        })
        .collect();
    let topo = Topology::from_sites(sites, vec![lora_sim::Position::new(0.0, 0.0)], 1_000.0);
    let alloc: Vec<TxConfig> = (0..40)
        .map(|i| {
            TxConfig::new(
                SpreadingFactor::from_u8(7 + (i % 5) as u8).unwrap(),
                TxPowerDbm::new(14.0),
                i % 8,
            )
        })
        .collect();
    let report = Simulation::new(config, topo, alloc).unwrap().run();
    let refused: u64 = report.gateways.iter().map(|g| g.demod_refused).sum();
    assert!(
        refused > 0,
        "the 8-path limit should have refused receptions"
    );
    assert!(report.frames_delivered < 40);
}

#[test]
fn multi_gateway_diversity_improves_delivery_end_to_end() {
    let legacy = LegacyLora::default();
    let (one_gw, _) = pipeline(60, 1, 13, &legacy);
    let (five_gw, _) = pipeline(60, 5, 13, &legacy);
    assert!(
        five_gw.mean_prr() > one_gw.mean_prr(),
        "five gateways must beat one: {} vs {}",
        five_gw.mean_prr(),
        one_gw.mean_prr()
    );
    // The server actually de-duplicates multi-gateway copies.
    assert!(five_gw.duplicate_copies > 0);
}

#[test]
fn duty_cycle_is_respected_by_default_config() {
    let config = SimConfig::default();
    for sf in SpreadingFactor::ALL {
        let toa = lora_phy::toa::ToaParams::new(sf, Bandwidth::Bw125, config.coding_rate)
            .time_on_air_s(config.phy_payload_len())
            .unwrap();
        assert!(
            toa / config.report_interval_s <= config.region.duty_cycle_cap(),
            "{sf} breaks the 1% duty cycle at T_g = {}",
            config.report_interval_s
        );
    }
}
