//! serve-mixed: the `ef-lora-serve` daemon serving `churn-heavy` with a
//! batch-fsynced journal, over one loopback connection.
//!
//! The request stream is generated from the seed up front, in blocks of
//! 500 requests with the same mix in a seeded order: 55 % `Churn` (the
//! load generator's event stream, kept inside a population band so the
//! run holds a steady state), 30 % `Device`, 10 % `Metrics`, 5 % `Status`,
//! and a `Measure` closing the block; then a final `Metrics`. Its head is
//! sent open-loop at 400 req/s with Poisson arrivals (latency is
//! timed from each request's due time); its tail closed-loop in passes of
//! 500 requests. The daemon's responses must match, byte for byte, an
//! in-process replay of the same stream through the daemon's own
//! dispatcher.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ef_lora::EfLora;
use ef_lora_serve::journal::{FsyncPolicy, Journal, JournalRecord};
use ef_lora_serve::loadgen::generate_events;
use ef_lora_serve::protocol::{decode, encode, Request, Response};
use ef_lora_serve::server::{respond, ServerOptions};
use ef_lora_serve::ServeState;
use lora_scenario::spec::ChurnKind;
use lora_scenario::{catalog, compile, ScenarioSpec};

use crate::metrics::Outcome;
use crate::probe::Scaler;
use crate::stats::{is_positive, median, mix, peak_rss_mib, percentile, SplitMix};
use crate::trace::Tracer;
use crate::{Args, SETUP_REPS};

const SCENARIO: &str = "churn-heavy";
/// Open-loop arrival rate, requests per second.
const OPEN_RATE: f64 = 400.0;
/// Requests per closed-loop pass.
const PASS_REQUESTS: usize = 500;
/// Requests of each kind in every block of [`PASS_REQUESTS`], in a
/// seeded order: 55 % `Churn`, 30 % `Device`, 10 % `Metrics`, the rest
/// `Status` but for the block's last request, a `Measure`. Every
/// closed-loop pass is one block, so every pass asks for the same work.
const BLOCK_MIX: [(Kind, usize); 4] = [
    (Kind::Churn, 275),
    (Kind::Device, 150),
    (Kind::Metrics, 50),
    (Kind::Status, 24),
];
/// Closed-loop write p99 above this fails the run, ms.
const WRITE_P99_LIMIT_MS: f64 = 10.0;
/// Churn events that would take the population outside this band are
/// skipped, so joins and leaves balance over the run.
const POPULATION_BAND: (usize, usize) = (190, 210);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Churn,
    Measure,
    Device,
    Metrics,
    Status,
}

impl Kind {
    fn is_write(self) -> bool {
        matches!(self, Kind::Churn | Kind::Measure)
    }

    fn span(self) -> &'static str {
        match self {
            Kind::Churn => "serve.apply_churn",
            Kind::Measure => "serve.measure",
            Kind::Device => "serve.device",
            Kind::Metrics => "serve.metrics",
            Kind::Status => "serve.status",
        }
    }
}

/// The generated request stream.
struct Stream {
    lines: Vec<String>,
    kinds: Vec<Kind>,
    /// Due times of the open-loop head, seconds from its start.
    due_s: Vec<f64>,
    /// Closed-loop passes after the head (then one final `Metrics`).
    passes: usize,
}

fn spec_of(seed: u64) -> Result<ScenarioSpec, String> {
    let mut spec = catalog::scenario(SCENARIO).ok_or("churn-heavy left the catalog")?;
    spec.seed = seed;
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

fn generate(seed: u64, seconds: f64) -> Result<Stream, String> {
    let spec = spec_of(seed)?;
    let classes: Vec<String> = spec
        .effective_classes()
        .into_iter()
        .map(|c| c.name)
        .collect();
    let mut population = compile(&spec).map_err(|e| e.to_string())?.device_count();
    let blocks = |requests: f64| ((requests / PASS_REQUESTS as f64).round() as usize).max(1);
    let n_open = blocks(OPEN_RATE * seconds / 4.0) * PASS_REQUESTS;
    let passes = ((2.0 * seconds).round() as usize).max(2);
    let total = n_open + passes * PASS_REQUESTS + 1;

    let mut rng = SplitMix::new(mix(seed, 2));
    let mut kinds = Vec::with_capacity(total);
    while kinds.len() + 1 < total {
        let start = kinds.len();
        for &(kind, count) in &BLOCK_MIX {
            kinds.extend(std::iter::repeat_n(kind, count));
        }
        for i in (start + 1..kinds.len()).rev() {
            let j = start + rng.below(i - start + 1);
            kinds.swap(i, j);
        }
        kinds.push(Kind::Measure);
    }
    kinds.push(Kind::Metrics);

    let mut events = generate_events(mix(seed, 1), 4 * total, &classes).into_iter();
    let mut stream = Stream {
        lines: Vec::with_capacity(total),
        kinds,
        due_s: Vec::with_capacity(n_open),
        passes,
    };
    let mut clock = 0.0;
    for i in 0..total {
        let request = match stream.kinds[i] {
            Kind::Churn => {
                let event = loop {
                    let event = events.next().ok_or("the churn stream ran dry")?;
                    let next = match &event.event {
                        ChurnKind::Join { count, .. } => population + count,
                        ChurnKind::Leave { count } => population.saturating_sub(*count),
                        ChurnKind::Migrate { .. } => population,
                    };
                    if (POPULATION_BAND.0..=POPULATION_BAND.1).contains(&next) {
                        population = next;
                        break event;
                    }
                };
                Request::Churn(event)
            }
            Kind::Device => Request::Device {
                index: rng.below(population),
            },
            Kind::Metrics => Request::Metrics,
            Kind::Status => Request::Status,
            Kind::Measure => Request::Measure,
        };
        stream.lines.push(encode(&request));
        if i < n_open {
            clock += -(1.0 - rng.unit()).ln() / OPEN_RATE;
            stream.due_s.push(clock);
        }
    }
    Ok(stream)
}

/// A running daemon; killed and reaped if dropped before a clean
/// shutdown.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    conn: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Daemon {
    /// Spawns the daemon and waits for its first `Pong`; returns it with
    /// the seconds that took.
    fn start(bin: &Path, seed: u64, journal: &Path) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_file(journal);
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(["--name", SCENARIO, "--seed", &seed.to_string()])
            .arg("--journal")
            .arg(journal)
            .args(["--fsync", "batch"])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = match (read, banner.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not come up: {banner:?}"));
            }
        };
        let connected = TcpStream::connect(&addr).and_then(|conn| {
            conn.set_nodelay(true)?;
            let reader = BufReader::new(conn.try_clone()?);
            Ok((conn, reader))
        });
        let (conn, reader) = match connected {
            Ok(pair) => pair,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("connect {addr}: {e}"));
            }
        };
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            conn,
            reader,
        };
        let pong = daemon.call("\"Ping\"")?;
        let secs = start.elapsed().as_secs_f64();
        if pong != "\"Pong\"" {
            return Err(format!("Ping answered {pong}"));
        }
        Ok((daemon, secs))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(line.trim_end_matches('\n').to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.conn
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.recv()
    }

    fn shutdown(mut self) -> Result<(), String> {
        let reply = self.call("\"Shutdown\"")?;
        if reply != "\"ShuttingDown\"" {
            return Err(format!("Shutdown answered {reply}"));
        }
        let status = self.child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What the TCP phases observed.
struct Wire {
    transcript: Vec<String>,
    /// Open-loop latency from due time, ms, with the request's kind.
    open_ms: Vec<(Kind, f64)>,
    late_ms: Vec<f64>,
    backlog_max: usize,
    /// Closed-loop round trips, ms.
    closed_ms: Vec<(Kind, f64)>,
    /// Closed-loop pass times at the reference machine's speed.
    scaled_s: Vec<f64>,
    closed_s: f64,
}

fn open_loop(daemon: &mut Daemon, stream: &Stream, wire: &mut Wire) -> Result<(), String> {
    let n = stream.due_s.len();
    let mut writer = daemon.conn.try_clone().map_err(|e| e.to_string())?;
    let received = AtomicUsize::new(0);
    let origin = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| origin + Duration::from_secs_f64(stream.due_s[i]);
    let mut arrivals = Vec::with_capacity(n);
    let sent = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> Result<(Vec<f64>, usize), String> {
            let mut late = Vec::with_capacity(n);
            let mut backlog_max = 0;
            for i in 0..n {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                late.push(at.elapsed().as_secs_f64() * 1e3);
                writer
                    .write_all(format!("{}\n", stream.lines[i]).as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
                backlog_max = backlog_max.max(i + 1 - received.load(Ordering::SeqCst));
            }
            Ok((late, backlog_max))
        });
        for i in 0..n {
            match daemon.recv() {
                Ok(line) => {
                    arrivals.push(Instant::now());
                    wire.transcript.push(line);
                    received.store(i + 1, Ordering::SeqCst);
                }
                Err(e) => {
                    // Unblock the sender before reporting.
                    let _ = daemon.conn.shutdown(std::net::Shutdown::Both);
                    let _ = sender.join();
                    return Err(e);
                }
            }
        }
        sender
            .join()
            .map_err(|_| "sender thread panicked".to_string())?
    })?;
    (wire.late_ms, wire.backlog_max) = sent;
    for (i, at) in arrivals.iter().enumerate() {
        let ms = at.saturating_duration_since(due(i)).as_secs_f64() * 1e3;
        wire.open_ms.push((stream.kinds[i], ms));
    }
    Ok(())
}

fn closed_loop(daemon: &mut Daemon, stream: &Stream, wire: &mut Wire) -> Result<(), String> {
    let head = stream.due_s.len();
    let mut scaler = Scaler::new();
    let mut busy = 0.0;
    for pass in 0..stream.passes {
        let pass_start = Instant::now();
        for i in head + pass * PASS_REQUESTS..head + (pass + 1) * PASS_REQUESTS {
            let t = Instant::now();
            let reply = daemon.call(&stream.lines[i])?;
            wire.closed_ms
                .push((stream.kinds[i], t.elapsed().as_secs_f64() * 1e3));
            wire.transcript.push(reply);
        }
        let secs = pass_start.elapsed().as_secs_f64();
        busy += secs;
        wire.scaled_s.push(scaler.scale(secs));
    }
    wire.closed_s = busy;
    Ok(())
}

/// What the in-process replay produced.
struct Replay {
    transcript: Vec<String>,
    secs: f64,
    /// (candidates evaluated, devices reconfigured) of every churn.
    churn_work: Vec<(f64, f64)>,
    journal_bytes: u64,
    appends: u64,
}

/// Replays `lines` through the daemon's dispatcher with the daemon's
/// write-ahead discipline, spanning each public call.
fn replay(
    spec: &ScenarioSpec,
    stream: &Stream,
    journal_path: &Path,
    tr: &mut Tracer,
) -> Result<Replay, String> {
    let _ = std::fs::remove_file(journal_path);
    let start = Instant::now();
    let mut state = tr
        .time("serve.boot", 0, || {
            ServeState::new(spec.clone(), &EfLora::default())
        })
        .map_err(|e| e.to_string())?;
    let genesis = JournalRecord::Genesis {
        strategy: "ef-lora".into(),
        spec: spec.clone(),
    };
    let mut journal =
        Journal::create(journal_path, FsyncPolicy::Batch, &genesis).map_err(|e| e.to_string())?;
    let base_bytes = journal.bytes();
    let options = ServerOptions::default();
    let mut out = Replay {
        transcript: Vec::with_capacity(stream.lines.len()),
        secs: 0.0,
        churn_work: Vec::new(),
        journal_bytes: 0,
        appends: 0,
    };
    for (i, (line, &kind)) in stream.lines.iter().zip(&stream.kinds).enumerate() {
        let req = i as u64;
        let root = tr.begin("bench.request", req);
        let request: Request = tr.time("serve.decode", req, || decode(line))?;
        if kind.is_write() {
            let record = JournalRecord::Mutation {
                applied: state.mutations_applied(),
                request: request.clone(),
            };
            tr.time("serve.journal_append", req, || journal.append(&record))
                .map_err(|e| e.to_string())?;
            out.appends += 1;
        }
        let (response, _) = tr.time(kind.span(), req, || respond(&mut state, &options, request));
        if let Response::Churned {
            candidates_evaluated,
            reconfigured,
            ..
        } = &response
        {
            out.churn_work
                .push((*candidates_evaluated as f64, *reconfigured as f64));
        }
        out.transcript
            .push(tr.time("serve.encode", req, || encode(&response)));
        tr.end(root);
    }
    tr.time("serve.journal_sync", 0, || journal.sync())
        .map_err(|e| e.to_string())?;
    out.secs = start.elapsed().as_secs_f64();
    out.journal_bytes = journal.bytes() - base_bytes;
    let _ = std::fs::remove_file(journal_path);
    Ok(out)
}

fn ms_of(samples: &[(Kind, f64)], pick: impl Fn(Kind) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|(k, _)| pick(*k))
        .map(|&(_, ms)| ms)
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin: PathBuf = args
        .daemon
        .clone()
        .ok_or("serve-mixed needs --daemon PATH")?;
    let mut out = Outcome::default();
    let spec = spec_of(args.seed)?;
    let stream = generate(args.seed, args.seconds)?;
    let tag = std::process::id();
    let journal = |name: &str| args.work.join(format!("serve-{tag}-{name}.journal"));

    // Set-up: fresh daemons from spawn to first Pong, at the reference
    // machine's speed; the last one serves the run.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut scaler = Scaler::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let (d, secs) = Daemon::start(&bin, args.seed, &journal(&rep.to_string()))?;
        setup.push(scaler.scale(secs));
        if rep + 1 < SETUP_REPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("SETUP_REPS is positive");
    out.set("setup_s", median(&setup));

    let mut wire = Wire {
        transcript: Vec::with_capacity(stream.lines.len()),
        open_ms: Vec::new(),
        late_ms: Vec::new(),
        backlog_max: 0,
        closed_ms: Vec::new(),
        scaled_s: Vec::new(),
        closed_s: 0.0,
    };
    open_loop(&mut daemon, &stream, &mut wire)?;
    closed_loop(&mut daemon, &stream, &mut wire)?;
    let last = stream.lines.last().expect("the stream ends with Metrics");
    wire.transcript.push(daemon.call(last)?);
    out.set(
        "peak_rss_mib",
        peak_rss_mib(&daemon.child.id().to_string())?,
    );
    daemon.shutdown()?;
    for rep in 0..SETUP_REPS {
        let _ = std::fs::remove_file(journal(&rep.to_string()));
    }

    // Correctness: the wire transcript against the in-process replay.
    let mut tr = Tracer::new(false);
    let plain = replay(&spec, &stream, &journal("replay"), &mut tr)?;
    out.attempted = stream.lines.len() as u64;
    for (i, (tcp, local)) in wire.transcript.iter().zip(&plain.transcript).enumerate() {
        if tcp != local {
            out.fail_op(format!(
                "request {i}: daemon answered {tcp}, replay {local}"
            ));
        } else if tcp.starts_with("{\"Error\"") {
            out.fail_op(format!("request {i}: {tcp}"));
        }
    }
    if wire.transcript.len() != plain.transcript.len() {
        out.violate(format!(
            "daemon answered {} requests, replay {}",
            wire.transcript.len(),
            plain.transcript.len()
        ));
    }
    // Fairness over the run: the median of every `Metrics` answer.
    let (mut min_ees, mut jains) = (Vec::new(), Vec::new());
    for (line, &kind) in wire.transcript.iter().zip(&stream.kinds) {
        if kind == Kind::Metrics {
            if let Ok(Response::Metrics { min_ee, jain, .. }) = decode::<Response>(line) {
                min_ees.push(min_ee);
                jains.push(jain);
            }
        }
    }
    let (min_ee, jain) = (median(&min_ees), median(&jains));
    if let Some(zero) = min_ees.iter().find(|&&m| !is_positive(m)) {
        out.violate(format!(
            "a Metrics answer rates min-EE {zero}: a saturated deployment"
        ));
    }
    let closed_write_p99 = percentile(&ms_of(&wire.closed_ms, Kind::is_write), 0.99);
    if closed_write_p99 > WRITE_P99_LIMIT_MS {
        out.violate(format!(
            "closed-loop write p99 {closed_write_p99:.2} ms exceeds {WRITE_P99_LIMIT_MS} ms"
        ));
    }

    out.set("pipeline_s", median(&wire.scaled_s));
    out.set("jain", jain);
    out.set("min_ee", min_ee);
    let open_writes = ms_of(&wire.open_ms, Kind::is_write);
    let open_reads = ms_of(&wire.open_ms, |k| !k.is_write());
    out.set("serve_write_p50_ms", percentile(&open_writes, 0.5));
    out.set("serve_write_p99_ms", percentile(&open_writes, 0.99));
    out.set("serve_read_p99_ms", percentile(&open_reads, 0.99));
    out.set(
        "serve_max_rps",
        (stream.passes * PASS_REQUESTS) as f64 / wire.closed_s,
    );
    if args.trace {
        tr.set_enabled(true);
        let compiled = tr
            .time("scenario.compile", 0, || compile(&spec))
            .map_err(|e| e.to_string())?;
        tr.time("sim.attenuation_build", 0, || {
            lora_sim::attenuation_matrix(&compiled.config, &compiled.topology)
        });
        let traced = replay(&spec, &stream, &journal("traced"), &mut tr)?;
        tr.set_enabled(false);
        if traced.transcript != plain.transcript {
            out.violate("the traced replay answered differently".into());
        }
        report_serve_trace(&tr, &wire, &plain, &traced, &mut out);
        tr.dump(&args.work.join(format!("spans-serve-mixed-{tag}.jsonl")))?;
    }
    Ok(out)
}

fn report_serve_trace(
    tr: &Tracer,
    wire: &Wire,
    plain: &Replay,
    traced: &Replay,
    out: &mut Outcome,
) {
    let us = |name: &str| median(&tr.durations_ms(name)) * 1e3;
    out.set(
        "scenario.compile_ms",
        median(&tr.durations_ms("scenario.compile")),
    );
    out.set(
        "sim.attenuation_build_ms",
        median(&tr.durations_ms("sim.attenuation_build")),
    );
    out.set("serve.boot_ms", median(&tr.durations_ms("serve.boot")));
    out.set("serve.decode_us", us("serve.decode"));
    out.set("serve.encode_us", us("serve.encode"));
    out.set("serve.journal_append_us", us("serve.journal_append"));
    out.set(
        "serve.journal_bytes_per_write",
        traced.journal_bytes as f64 / traced.appends.max(1) as f64,
    );
    out.set(
        "serve.journal_sync_ms",
        median(&tr.durations_ms("serve.journal_sync")),
    );
    let churn_us: Vec<f64> = tr
        .durations_ms("serve.apply_churn")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    out.set("serve.apply_churn_p50_us", percentile(&churn_us, 0.5));
    out.set("serve.apply_churn_p99_us", percentile(&churn_us, 0.99));
    let churns = traced.churn_work.len().max(1) as f64;
    out.set(
        "serve.candidates_per_churn",
        traced.churn_work.iter().map(|w| w.0).sum::<f64>() / churns,
    );
    out.set(
        "serve.reconfigured_per_churn",
        traced.churn_work.iter().map(|w| w.1).sum::<f64>() / churns,
    );
    out.set("serve.metrics_us", us("serve.metrics"));
    out.set("serve.device_us", us("serve.device"));
    out.set(
        "serve.measure_ms",
        median(&tr.durations_ms("serve.measure")),
    );
    let in_process_us = median(&tr.durations_ms("bench.request")) * 1e3;
    let tcp_us = median(
        &wire
            .closed_ms
            .iter()
            .map(|&(_, ms)| ms * 1e3)
            .collect::<Vec<_>>(),
    );
    out.set("serve.transport_us", tcp_us - in_process_us);
    out.set("serve.generator_late_ms", percentile(&wire.late_ms, 0.99));
    out.set("serve.backlog_max", wire.backlog_max as f64);

    // Self time per request, and the tracing overhead per closed-loop
    // pass of requests.
    let roots = tr.roots("bench.request");
    let mut serve_ms = Vec::with_capacity(roots.len());
    let mut bench_ms = Vec::with_capacity(roots.len());
    let by_root = tr.layer_self_by_root();
    for &root in &roots {
        let layers = &by_root[&root];
        serve_ms.push(layers.get("serve").copied().unwrap_or(0) as f64 / 1e6);
        bench_ms.push(layers.get("bench").copied().unwrap_or(0) as f64 / 1e6);
    }
    out.set("self.serve_ms", median(&serve_ms));
    out.set("self.bench_ms", median(&bench_ms));
    let requests = plain.transcript.len().max(1) as f64;
    out.set(
        "trace.overhead_ms",
        (traced.secs - plain.secs) * 1e3 * PASS_REQUESTS as f64 / requests,
    );
}
