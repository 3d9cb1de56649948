//! `ef-lora-plan allocate` — compute an allocation for a deployment.

use ef_lora::AllocationContext;
use lora_model::NetworkModel;
use lora_sim::Topology;

use crate::args::Options;
use crate::commands::config_from;
use crate::io::{read_json, write_json};

/// Allocates the topology in `--topology` with `--strategy` (default
/// `ef-lora`), printing a summary and optionally writing `--output`.
pub fn run(opts: &Options) -> Result<(), String> {
    let topology: Topology = read_json(opts.required("topology")?)?;
    let strategy = ef_lora::strategy::by_name(opts.optional("strategy").unwrap_or("ef-lora"))?;
    let config = config_from(opts)?;

    let model = NetworkModel::new(&config, &topology);
    let ctx = AllocationContext::new(&config, &topology, &model);
    let allocation = strategy.allocate(&ctx).map_err(|e| e.to_string())?;

    let ee = model.evaluate(allocation.as_slice());
    println!("{}: {allocation}", strategy.name());
    println!(
        "model prediction: min EE {:.3} bits/mJ, mean {:.3}, Jain {:.3}",
        ef_lora::fairness::min_ee(&ee),
        ef_lora::fairness::mean(&ee),
        ef_lora::fairness::jain_index(&ee),
    );

    if let Some(output) = opts.optional("output") {
        write_json(output, &allocation)?;
        println!("wrote {output}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_sim::SimConfig;

    #[test]
    fn allocates_each_strategy() -> Result<(), String> {
        let dir = std::env::temp_dir();
        let topo_path = dir
            .join(format!("ef-lora-alloc-topo-{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let topo = Topology::disc(15, 1, 2_000.0, &SimConfig::default(), 4);
        write_json(&topo_path, &topo)?;
        for strategy in ["ef-lora", "legacy", "rs-lora", "ef-lora-14dbm"] {
            let opts = Options::parse(&[
                "--topology".into(),
                topo_path.clone(),
                "--strategy".into(),
                strategy.into(),
            ])?;
            run(&opts).map_err(|e| format!("{strategy}: {e}"))?;
        }
        std::fs::remove_file(&topo_path).ok();
        Ok(())
    }

    #[test]
    fn missing_topology_propagates_an_error() {
        let opts = Options::parse(&[
            "--topology".into(),
            "/nonexistent/ef-lora-no-such-topo.json".into(),
        ])
        .unwrap();
        let err = run(&opts).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }
}
