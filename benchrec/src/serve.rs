//! `serve-mix`: the `equitls-serve` daemon under a closed loop.
//!
//! The daemon runs with workers = nproc and its default shared
//! normal-form cache. Clients each hold one Unix-socket connection and
//! send their next request only after the reply to the previous one.
//! The requests are the seeded mix of `mix.rs`. Layers: serve (admission,
//! queue, workers), lint, and — inside each job — core, rewrite and mc.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use equitls_obs::event::{Event, TimedEvent};
use equitls_obs::json::{self, JsonValue};

use crate::mix::{self, Request, SplitMix64};
use crate::oracle;
use crate::spans::SpanTable;
use crate::stats::{describe_ms, mean, median, percentile};
use crate::{jobs_n, ms, out_dir, peak_rss_mb, repo_root, write_trace, Args, Outcome, Window};

/// Daemon start-ups in set-up; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The property each start-up warms once per model.
const WARM_UP_PROPERTY: &str = "inv1";

/// How long a fresh daemon may take to answer its first ping.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// Build the daemon from source (a no-op when it is up to date) and
/// return its path. Build output goes to the same target directory as
/// the benchmark's own build.
fn build_daemon() -> Result<PathBuf, String> {
    let root = repo_root();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "equitls-serve",
            "--bin",
            "equitls-serve",
        ])
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building equitls-serve failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("equitls-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no daemon binary at {}", bin.display()))
    }
}

/// A running daemon; killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(bin: &Path, socket: &Path, workers: usize) -> Result<Daemon, String> {
        std::fs::remove_file(socket).ok();
        let child = Command::new(bin)
            .arg("--socket")
            .arg(socket)
            .args(["--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        Ok(Daemon {
            child,
            socket: socket.to_path_buf(),
        })
    }

    /// Connect, retrying while the daemon starts.
    fn connect(&mut self) -> Result<Conn, String> {
        let start = Instant::now();
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(stream) => return Conn::new(stream),
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("daemon exited during start-up ({status})"));
                    }
                    if start.elapsed() > START_TIMEOUT {
                        return Err(format!("daemon did not accept connections: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    fn stats(&mut self) -> Result<JsonValue, String> {
        let reply = self.connect()?.call(r#"{"id":"stats","kind":"stats"}"#)?;
        reply
            .get("stats")
            .cloned()
            .ok_or_else(|| "stats reply without stats".to_string())
    }

    /// Ask for a clean shutdown and reap the process.
    fn shutdown(mut self) {
        if let Ok(mut conn) = self.connect() {
            conn.call(r#"{"id":"bye","kind":"shutdown"}"#).ok();
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Drop kills what did not exit.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
            self.child.wait().ok();
        }
        std::fs::remove_file(&self.socket).ok();
    }
}

/// One client connection: a line out, a line back.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Conn, String> {
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    fn call(&mut self, line: &str) -> Result<JsonValue, String> {
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => json::parse(reply.trim()).map_err(|e| format!("unparsable reply: {e}")),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }
}

/// Start a daemon, wait for its first ping, warm one proof per model.
fn start(bin: &Path, socket: &Path, out: &mut Outcome) -> Result<(Daemon, Duration), String> {
    let t = Instant::now();
    let mut daemon = Daemon::spawn(bin, socket, jobs_n())?;
    let mut conn = daemon.connect()?;
    let ping = conn.call(r#"{"id":"ping","kind":"ping"}"#)?;
    if ping.get("status").and_then(JsonValue::as_str) != Some("ok") {
        return Err(format!("bad ping reply {ping}"));
    }
    for variant in [false, true] {
        let request = Request::Prove {
            property: WARM_UP_PROPERTY,
            variant,
        };
        let reply = conn.call(&request.to_line("warm-up", false))?;
        out.record(judge(&request, &reply));
    }
    Ok((daemon, t.elapsed()))
}

/// One request's outcome as the client saw it.
struct Sample {
    kind: &'static str,
    latency: Duration,
    /// The daemon's own execution time (`volatile.duration_ms`).
    exec_ms: f64,
    busy: bool,
    refused: bool,
    verdict: Result<(), String>,
    events: Vec<TimedEvent>,
    /// Returned events that did not parse back.
    lost_events: usize,
    /// Position in the phase's request list.
    index: usize,
}

/// Check a reply against the oracle.
fn judge(request: &Request, reply: &JsonValue) -> Result<(), String> {
    let status = reply
        .get("status")
        .and_then(JsonValue::as_str)
        .unwrap_or("");
    if status != "ok" {
        return Err(format!(
            "{} request answered `{status}`: {reply}",
            request.kind()
        ));
    }
    let result = reply
        .get("result")
        .ok_or_else(|| format!("reply without result: {reply}"))?;
    let num = |key: &str| result.get(key).and_then(JsonValue::as_f64).unwrap_or(-1.0);
    match request {
        Request::Prove { property, .. } => {
            let faults = match result.get("obligations") {
                Some(JsonValue::Array(obligations)) => obligations
                    .iter()
                    .filter(|o| o.get("outcome").and_then(JsonValue::as_str) == Some("fault"))
                    .count(),
                _ => 0,
            };
            let proved = matches!(result.get("proved"), Some(JsonValue::Bool(true)));
            oracle::check_proof(property, proved, faults)
        }
        Request::Check { bound } => {
            let case = oracle::counterexample(*bound)
                .ok_or_else(|| format!("no oracle entry for bound {bound}"))?;
            let violated: Vec<String> = match result.get("violations") {
                Some(JsonValue::Array(vs)) => vs
                    .iter()
                    .filter_map(|v| v.get("property").and_then(JsonValue::as_str))
                    .map(str::to_string)
                    .collect(),
                _ => Vec::new(),
            };
            let complete = matches!(result.get("complete"), Some(JsonValue::Bool(true)));
            oracle::check_scope(case, num("states") as usize, complete, |name| {
                violated.iter().any(|v| v == name)
            })
        }
        Request::Lint { variant } => {
            if num("deny") == 0.0 {
                Ok(())
            } else {
                Err(format!(
                    "lint (variant {variant}): {} deny findings",
                    num("deny")
                ))
            }
        }
    }
}

/// What a closed-loop phase produced.
struct Phase {
    wall: Duration,
    samples: Vec<Sample>,
}

/// Send `requests` through `clients` closed-loop connections that share
/// one queue of work; returns when every reply has arrived.
fn phase(
    daemon: &mut Daemon,
    clients: usize,
    requests: &[Request],
    trace: bool,
    tag: &str,
) -> Result<Phase, String> {
    let next = Mutex::new(0usize);
    let mut conns = Vec::with_capacity(clients);
    for _ in 0..clients {
        conns.push(daemon.connect()?);
    }
    let start = Instant::now();
    let pick = || {
        let mut next = next.lock().unwrap_or_else(PoisonError::into_inner);
        (*next < requests.len()).then(|| {
            *next += 1;
            *next - 1
        })
    };
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let pick = &pick;
                s.spawn(move || {
                    let mut samples = Vec::new();
                    while let Some(i) = pick() {
                        let request = &requests[i];
                        let line = request.to_line(&format!("{tag}-{c}-{i}"), trace);
                        let t = Instant::now();
                        let reply = conn.call(&line)?;
                        let mut one = sample(request, &reply, t.elapsed());
                        one.index = i;
                        samples.push(one);
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed();
    let mut samples = Vec::new();
    for r in per_client {
        samples.extend(r?);
    }
    samples.sort_by_key(|s| s.index);
    Ok(Phase { wall, samples })
}

fn sample(request: &Request, reply: &JsonValue, latency: Duration) -> Sample {
    let status = reply
        .get("status")
        .and_then(JsonValue::as_str)
        .unwrap_or("");
    let volatile = reply.get("volatile");
    let exec_ms = volatile
        .and_then(|v| v.get("duration_ms"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    let items: &[JsonValue] = match volatile.and_then(|v| v.get("events")) {
        Some(JsonValue::Array(items)) => items,
        _ => &[],
    };
    let events: Vec<TimedEvent> = items.iter().filter_map(TimedEvent::from_json).collect();
    Sample {
        kind: request.kind(),
        latency,
        exec_ms,
        busy: status == "busy",
        refused: matches!(status, "busy" | "shed"),
        verdict: judge(request, reply),
        lost_events: items.len() - events.len(),
        events,
        index: 0,
    }
}

/// Client latencies in ms. A refused request counts as over any
/// limit: it is charged the whole phase.
fn latencies_ms(samples: &[Sample], wall: Duration) -> Vec<f64> {
    samples
        .iter()
        .map(|s| if s.refused { ms(wall) } else { ms(s.latency) })
        .collect()
}

/// A client-side stream for one traced request: the request span, the
/// daemon's execution span inside it, and the job's own events inside
/// that (their thread ids folded onto the request's: a `jobs: 1` job
/// runs its spans one after another).
fn request_stream(index: usize, s: &Sample) -> Vec<TimedEvent> {
    let tid = index as u64 + 1;
    let wait_us = (s.latency.as_micros() as u64).saturating_sub((s.exec_ms * 1e3) as u64);
    let at = |t_us: u64, event: Event| TimedEvent { t_us, tid, event };
    let mut events = vec![
        at(
            0,
            Event::SpanEnter {
                name: format!("bench.request:{}", s.kind),
            },
        ),
        at(
            wait_us,
            Event::SpanEnter {
                name: format!("serve.exec:{}", s.kind),
            },
        ),
    ];
    events.extend(
        s.events
            .iter()
            .map(|e| at(wait_us + e.t_us, e.event.clone())),
    );
    events.push(at(
        wait_us + (s.exec_ms * 1e3) as u64,
        Event::SpanExit {
            name: format!("serve.exec:{}", s.kind),
            dur: Duration::from_secs_f64(s.exec_ms / 1e3),
        },
    ));
    events.push(at(
        s.latency.as_micros() as u64,
        Event::SpanExit {
            name: format!("bench.request:{}", s.kind),
            dur: s.latency,
        },
    ));
    events
}

fn record_all(samples: &mut [Sample], out: &mut Outcome) {
    for s in samples {
        out.record(std::mem::replace(&mut s.verdict, Ok(())));
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let bin = match build_daemon() {
        Ok(bin) => bin,
        Err(e) => {
            out.record(Err(e));
            return out;
        }
    };
    // Socket paths are short-limited: work from the output directory and
    // use a relative socket name.
    if let Err(e) = std::env::set_current_dir(out_dir()) {
        out.record(Err(format!("cannot enter the output directory: {e}")));
        return out;
    }
    let socket = PathBuf::from(format!("serve-{}.sock", std::process::id()));
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    let mut daemon = None;
    for rep in 0..reps {
        match start(&bin, &socket, &mut out) {
            Ok((d, took)) => {
                setup.push(took.as_secs_f64());
                out.probe();
                if rep + 1 < reps {
                    d.shutdown();
                } else {
                    daemon = Some(d);
                }
            }
            Err(e) => {
                out.record(Err(format!("daemon start-up: {e}")));
                return out;
            }
        }
    }
    let mut daemon = daemon.expect("at least one start-up");
    out.metrics.set("setup_s", median(&setup));
    out.note(format!(
        "setup: daemon spawn to first ping plus one warm-up prove per model, median {:.1} ms of {reps}",
        median(&setup) * 1e3
    ));
    let result = if args.trace {
        traced(args, &mut daemon, &mut out)
    } else {
        untraced(args, &mut daemon, &mut out)
    };
    if let Err(e) = result {
        out.record(Err(e));
    }
    daemon.shutdown();
    out
}

/// One untimed cycle on all clients, so every measured request runs
/// against the daemon's warm steady state (models built, NF cache
/// populated).
fn warm_up(daemon: &mut Daemon, rng: &mut SplitMix64, out: &mut Outcome) -> Result<(), String> {
    let mut warm = phase(daemon, jobs_n(), &mix::cycle(rng), false, "warm")?;
    record_all(&mut warm.samples, out);
    Ok(())
}

/// The end-to-end run. Half-cycles sent by one client alternate with
/// whole cycles sent by nproc clients until the window is spent, so
/// both see the host over the same span. A host probe follows every
/// one-client reply and every nproc-client cycle, while the daemon is
/// idle.
///
/// Every number comes from per-request mean latencies, one mean for each
/// of the cycle's 22 distinct requests and each client count: the
/// one-client cycle time is their sum; the nproc-client cycle time is
/// their sum over nproc, the time a cycle takes when the clients never
/// idle (by Little's law), so the order-dependent tail of a cycle, where
/// one client waits for the other's last reply, does not count.
fn untraced(args: &Args, daemon: &mut Daemon, out: &mut Outcome) -> Result<(), String> {
    let n = jobs_n();
    let half = mix::CYCLE_LEN / 2;
    let mut rng = SplitMix64::new(args.seed);
    warm_up(daemon, &mut rng, out)?;
    let window = Window::new(args.seconds as f64);
    let mut pending: Vec<Request> = Vec::new();
    let (mut j1, mut jn): (Latencies, Latencies) = Default::default();
    let (mut j1_walls, mut jn_walls) = (Vec::new(), Vec::new());
    for step in 0.. {
        let one_client = step % 2 == 0;
        let estimate = mean(if one_client { &j1_walls } else { &jn_walls });
        let enough = j1_walls.len() * half >= mix::CYCLE_LEN && !jn_walls.is_empty();
        if enough && !window.fits(Duration::from_secs_f64(estimate)) {
            break;
        }
        if one_client {
            if pending.len() < half {
                pending.extend(mix::cycle(&mut rng));
            }
            let started = Instant::now();
            // One request at a time, with a host probe after each reply.
            for (i, request) in pending.drain(..half).enumerate() {
                let tag = format!("j1.{step}.{i}");
                let mut p = phase(daemon, 1, &[request], false, &tag)?;
                out.probe();
                record_all(&mut p.samples, out);
                j1.add(&[request], &p);
            }
            j1_walls.push(started.elapsed().as_secs_f64());
        } else {
            let cycle = mix::cycle(&mut rng);
            let mut p = phase(daemon, n, &cycle, false, &format!("jN.{step}"))?;
            out.probe();
            record_all(&mut p.samples, out);
            jn.add(&cycle, &p);
            jn_walls.push(p.wall.as_secs_f64());
        }
    }
    for (latencies, clients) in [(&j1, 1), (&jn, n)] {
        out.require(
            latencies.0.len() == mix::CYCLE_LEN,
            format!(
                "{clients} client(s) saw {} distinct requests, not a whole cycle",
                latencies.0.len()
            ),
        );
    }
    let jn_ms: Vec<f64> = jn.means().iter().map(|s| s * 1e3).collect();
    let jn_cycle = jn.means().iter().sum::<f64>() / n as f64;
    let m = &mut out.metrics;
    m.set("wall_s.j1", j1.means().iter().sum::<f64>());
    m.set("wall_s.jN", jn_cycle);
    m.set("latency_p50_ms", median(&jn_ms));
    m.set("latency_p90_ms", percentile(&jn_ms, 90.0));
    m.set("req_per_s", mix::CYCLE_LEN as f64 / jn_cycle);
    m.set("peak_rss_mb", peak_rss_mb(Some(daemon.child.id())));
    out.note(format!(
        "1 client: {} half-cycle(s); {n} clients: {} cycle(s), mean wall {:.3} s",
        j1_walls.len(),
        jn_walls.len(),
        mean(&jn_walls)
    ));
    out.note(format!(
        "per-request mean latency on {n} clients: p50 {:.2} ms, p90 {:.2} ms over {} requests",
        median(&jn_ms),
        percentile(&jn_ms, 90.0),
        jn_ms.len()
    ));
    Ok(())
}

/// Latency samples, seconds, by distinct request.
#[derive(Default)]
struct Latencies(HashMap<Request, Vec<f64>>);

impl Latencies {
    /// Add a phase's samples; `requests` is the list the phase sent.
    fn add(&mut self, requests: &[Request], phase: &Phase) {
        for (s, ms) in phase
            .samples
            .iter()
            .zip(latencies_ms(&phase.samples, phase.wall))
        {
            self.0.entry(requests[s.index]).or_default().push(ms / 1e3);
        }
    }

    /// Each distinct request's mean latency.
    fn means(&self) -> Vec<f64> {
        self.0.values().map(|v| mean(v)).collect()
    }
}

/// Per-layer run: untraced and traced (`trace: true` on every request,
/// so each reply carries the job's events) cycles on nproc clients
/// alternate until the window is spent.
fn traced(args: &Args, daemon: &mut Daemon, out: &mut Outcome) -> Result<(), String> {
    let n = jobs_n();
    let mut rng = SplitMix64::new(args.seed);
    warm_up(daemon, &mut rng, out)?;
    let window = Window::new(args.seconds as f64);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    for step in 0.. {
        let trace = step % 2 == 1;
        let estimate = mean(if trace { &traced_walls } else { &plain_walls });
        if !traced_walls.is_empty() && !window.fits(Duration::from_secs_f64(estimate)) {
            break;
        }
        let tag = format!("{}.{step}", if trace { "traced" } else { "plain" });
        let mut p = phase(daemon, n, &mix::cycle(&mut rng), trace, &tag)?;
        out.probe();
        record_all(&mut p.samples, out);
        if trace {
            traced_walls.push(p.wall.as_secs_f64());
            traced.extend(p.samples);
        } else {
            plain_walls.push(p.wall.as_secs_f64());
            plain.extend(p.samples);
        }
    }
    let (plain, traced) = (&plain, &traced);

    let mut table = SpanTable::default();
    let streams: Vec<Vec<TimedEvent>> = traced
        .iter()
        .enumerate()
        .map(|(i, s)| request_stream(i, s))
        .collect();
    for stream in &streams {
        table.add_stream(stream);
    }
    let stats = daemon.stats()?;
    let stat = |key: &str| stats.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let m = &mut out.metrics;
    let wait: Vec<f64> = plain
        .iter()
        .filter(|s| !s.refused)
        .map(|s| (ms(s.latency) - s.exec_ms).max(0.0))
        .collect();
    m.set("serve.queue_wait_ms.p50", median(&wait));
    for kind in ["prove", "check", "lint"] {
        let exec: Vec<f64> = plain
            .iter()
            .filter(|s| s.kind == kind && !s.refused)
            .map(|s| s.exec_ms)
            .collect();
        m.set(format!("serve.exec_ms.{kind}.p50"), median(&exec));
    }
    let busy = plain.iter().chain(traced).filter(|s| s.busy).count();
    m.set("serve.busy", busy as f64);
    m.set("serve.model_builds", stat("model_builds"));
    m.set("serve.model_reuses", stat("model_reuses"));
    m.set("serve.worker_restarts", stat("worker_restarts"));
    m.set("serve.shared_nf_hits", stat("shared_nf_hits"));
    m.set("serve.shared_nf_published", stat("shared_nf_published"));
    m.set(
        "obs.overhead_frac",
        mean(&traced_walls) / mean(&plain_walls) - 1.0,
    );
    m.set("obs.events", table.events as f64);
    // Events lost between the daemon's per-job sinks and this table.
    let lost: usize = traced.iter().map(|s| s.lost_events).sum();
    m.set("obs.dropped_events", lost as f64);
    out.zero_layers(&["spec.", "core.", "rewrite.", "mc.", "persist."]);
    out.require(lost == 0, "trace void: daemon events were lost");
    out.note(format!(
        "{n} clients: untraced {} cycle(s), mean {:.3} s; traced {} cycle(s), mean {:.3} s",
        plain_walls.len(),
        mean(&plain_walls),
        traced_walls.len(),
        mean(&traced_walls)
    ));
    out.note(format!("queue wait: {}", describe_ms(&wait)));
    out.note(table.render(12));
    if let Some(path) = write_trace(
        &format!("serve-mix-seed{}.trace.jsonl", args.seed),
        &streams,
    ) {
        out.note(format!("trace written to {}", path.display()));
    }
    Ok(())
}
