//! Timed passes of the in-process workloads, their repeat checks, and the
//! per-layer figures every traced pipeline shares.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::metrics::Outcome;
use crate::probe::Scaler;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Args;

/// One timed pass.
pub struct Timed<P> {
    pub pass: u64,
    pub secs: f64,
    /// `secs` at the reference machine's speed (see [`Scaler`]).
    pub scaled_s: f64,
    /// Index of the pass's root span when the pass was traced.
    pub root: Option<usize>,
    pub out: P,
}

/// Times passes 0, 1, 2, … until `--seconds` have passed and at least
/// `min_passes` ran, probing the machine's speed between passes.
/// `make(k)` builds the input of pass `k` outside the timing, and
/// `keep(out, k)` cuts its output down to what the run needs, also
/// outside the timing, so that the run's peak memory does not grow with
/// the number of passes that fit into it. A traced run makes every pass twice, once traced and once
/// not, alternating which goes first, so the tracing overhead is a
/// paired difference.
pub fn run_passes<I, P, S>(
    args: &Args,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    min_passes: u64,
    mut make: impl FnMut(u64) -> Result<I, String>,
    mut pass: impl FnMut(&I, &mut Tracer, u64) -> Result<P, String>,
    mut keep: impl FnMut(P, u64) -> S,
) -> Vec<Timed<S>> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut scaler = Scaler::new();
    let mut done = Vec::new();
    let mut k = 0;
    while k < min_passes || Instant::now() < deadline {
        let input = match make(k) {
            Ok(input) => input,
            Err(e) => {
                outcome.attempted += 1;
                outcome.fail_op(format!("pass {k}: {e}"));
                k += 1;
                continue;
            }
        };
        let modes: &[bool] = match (args.trace, k % 2) {
            (false, _) => &[false],
            (true, 0) => &[true, false],
            (true, _) => &[false, true],
        };
        for &traced in modes {
            tracer.set_enabled(traced);
            let root = tracer.spans().len();
            let start = Instant::now();
            let result = pass(&input, tracer, k);
            let secs = start.elapsed().as_secs_f64();
            let scaled_s = scaler.scale(secs);
            outcome.attempted += 1;
            match result {
                Ok(out) => done.push(Timed {
                    pass: k,
                    secs,
                    scaled_s,
                    root: traced.then_some(root),
                    out: keep(out, k),
                }),
                Err(e) => outcome.fail_op(format!("pass {k}: {e}")),
            }
        }
        k += 1;
    }
    tracer.set_enabled(false);
    done
}

/// The run's `pipeline_s`: the median pass at the reference machine's
/// speed.
pub fn scaled_median<P>(passes: &[Timed<P>]) -> f64 {
    median(&passes.iter().map(|p| p.scaled_s).collect::<Vec<_>>())
}

/// Groups (by `group(pass)`) whose passes did not all produce the same
/// `key`.
pub fn disagreeing<P, D: PartialEq>(
    passes: &[Timed<P>],
    group: impl Fn(u64) -> u64,
    key: impl Fn(&P) -> D,
) -> Vec<u64> {
    let mut bad = Vec::new();
    for p in passes {
        let g = group(p.pass);
        let first = passes
            .iter()
            .find(|q| group(q.pass) == g)
            .expect("p is in its own group");
        if key(&first.out) != key(&p.out) && !bad.contains(&g) {
            bad.push(g);
        }
    }
    bad
}

/// Median of `f` over the first pass of each of `groups` groups.
pub fn per_group<P>(passes: &[Timed<P>], groups: u64, f: impl Fn(&P) -> f64) -> f64 {
    let values: Vec<f64> = (0..groups)
        .filter_map(|g| passes.iter().find(|p| p.pass == g).map(|p| f(&p.out)))
        .collect();
    median(&values)
}

/// Median duration (ms) of the spans named `name`.
pub fn span_ms(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.durations_ms(name))
}

/// Layer self times per traced pass, the share of the pass the layer
/// spans cover (which must reach 90 %), and the tracing overhead.
pub fn report_trace<P>(tracer: &Tracer, passes: &[Timed<P>], outcome: &mut Outcome) {
    const LAYERS: [(&str, &str); 5] = [
        ("scenario", "self.scenario_ms"),
        ("sim", "self.sim_ms"),
        ("model", "self.model_ms"),
        ("core", "self.core_ms"),
        ("bench", "self.bench_ms"),
    ];
    let by_root = tracer.layer_self_by_root();
    let mut self_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut coverage = Vec::new();
    for root in passes.iter().filter_map(|p| p.root) {
        let layers = &by_root[&root];
        let total = tracer.spans()[root].duration_ns() as f64;
        let glue = layers.get("bench").copied().unwrap_or(0) as f64;
        coverage.push(100.0 * (total - glue) / total);
        for (layer, _) in LAYERS {
            let ns = layers.get(layer).copied().unwrap_or(0) as f64;
            self_ms.entry(layer).or_default().push(ns / 1e6);
        }
    }
    for (layer, name) in LAYERS {
        outcome.set(name, median(&self_ms[layer]));
    }
    let coverage = median(&coverage);
    outcome.set("trace.coverage_pct", coverage);
    if coverage < 90.0 {
        outcome.violate(format!(
            "layer spans cover {coverage:.1}% of the traced pass, below 90%"
        ));
    }
    let overhead: Vec<f64> = passes
        .iter()
        .filter(|p| p.root.is_some())
        .filter_map(|traced| {
            passes
                .iter()
                .find(|p| p.root.is_none() && p.pass == traced.pass)
                .map(|plain| (traced.secs - plain.secs) * 1e3)
        })
        .collect();
    outcome.set("trace.overhead_ms", median(&overhead));
}
