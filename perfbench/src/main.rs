//! The repository's benchmark: four workloads, each timed end to end with
//! tracing off, or decomposed into per-layer spans with `--trace 1`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--daemon PATH] [--work DIR]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `perfbench/run.py` builds this binary and the `ef-lora-serve` daemon
//! and forwards its arguments here.

mod hotspot;
mod metrics;
mod passes;
mod plan;
mod probe;
mod serve;
mod stats;
mod trace;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use metrics::Outcome;
use probe::Scaler;

/// Fresh processes the set-up time is measured over; `setup_s` is their
/// median.
pub const SETUP_REPS: usize = 21;

/// Worker threads every workload may use (the parallel scan, the sharded
/// fan-out and the attenuation builder).
pub const THREADS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `ef-lora-serve` binary (serve-mixed only).
    pub daemon: Option<PathBuf>,
    /// Scratch directory for journals and span dumps.
    pub work: PathBuf,
    /// Child mode of the set-up probe: build the inputs, print `ready`,
    /// exit.
    pub ready: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut daemon = None;
    let mut work = PathBuf::from(".bench_build/perfbench-work");
    let mut ready = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--ready" {
            ready = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            "--work" => work = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        // The set-up probe's child only builds inputs; it times nothing.
        seconds: if ready {
            0.0
        } else {
            seconds.ok_or("missing --seconds")?
        },
        trace,
        daemon,
        work,
        ready,
    })
}

/// Median wall time, over [`SETUP_REPS`] fresh processes, from spawning
/// this binary in `--ready` mode until it reports its inputs built, at
/// the reference machine's speed.
pub fn setup_probe(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut scaler = Scaler::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--ready", "--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn set-up probe: {e}"))?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("stdout is piped"))
            .read_line(&mut line)
            .map_err(|e| format!("read set-up probe: {e}"));
        let elapsed = start.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("wait set-up probe: {e}"))?;
        read?;
        if line.trim() != "ready" || !status.success() {
            return Err(format!("set-up probe failed: {status}, said {line:?}"));
        }
        times.push(scaler.scale(elapsed));
    }
    Ok(stats::median(&times))
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "plan-paper" => plan::paper(args),
        "plan-sharded" => plan::sharded(args),
        "validate-hotspot" => hotspot::run(args),
        "serve-mixed" => serve::run(args),
        other => Err(format!(
            "unknown workload `{other}` (plan-paper, validate-hotspot, plan-sharded, serve-mixed)"
        )),
    }
}

fn ready(args: &Args) -> Result<(), String> {
    match args.workload.as_str() {
        "plan-paper" => drop(plan::paper_instance(args.seed, 0)?),
        "plan-sharded" => drop(plan::sharded_instance(args.seed, 0)?),
        "validate-hotspot" => drop(hotspot::deployment(args.seed)?),
        other => return Err(format!("no in-process set-up for `{other}`")),
    }
    println!("ready");
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|args| {
        if args.ready {
            return ready(&args).map(|()| None);
        }
        std::fs::create_dir_all(&args.work)
            .map_err(|e| format!("create {}: {e}", args.work.display()))?;
        run(&args).map(|outcome| Some(outcome.into_json(args.trace)))
    });
    match result {
        Ok(Some(line)) => println!("{line}"),
        Ok(None) => {}
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}
