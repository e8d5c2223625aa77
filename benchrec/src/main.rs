//! `benchrec`: the EquiTLS benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path benchrec/Cargo.toml -- \
//!     --workload prove-campaign --seed 1 --seconds 38 --trace 0
//! ```
//!
//! Workloads: `prove-campaign`, `explore`, `serve-mix`, or `all` (each
//! in turn). `--trace 0` measures the end-to-end metrics with tracing
//! off, scaled to a reference host speed (`host.rs`); `--trace 1` is the
//! separate traced run that splits the time by layer. Every verdict is
//! checked against the hand-written oracle in `oracle.rs`. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every operation matched the oracle.

mod explore;
mod host;
mod metrics;
mod mix;
mod oracle;
mod prove;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use equitls_obs::event::TimedEvent;
use metrics::Metrics;

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 3] = ["prove-campaign", "explore", "serve-mix"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (or `all`).
    pub workload: String,
    /// Seed for the generated inputs (the serve mix).
    pub seed: u64,
    /// Measurement window per run.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload wants one of {} or all, got `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (proofs, scope checks, requests).
    pub attempted: u64,
    /// Operations that failed or disagreed with the oracle.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub errors: Vec<String>,
    /// Measured values.
    pub metrics: Metrics,
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Host-speed probe times, seconds (see `host.rs`).
    pub probes: Vec<f64>,
}

impl Outcome {
    /// Count one operation, failed when `result` is an error.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// A check that is not an operation of its own (a workload set-up
    /// invariant): it fails the run without counting as attempted work.
    pub fn require(&mut self, ok: bool, message: impl Into<String>) {
        if !ok {
            self.failed += 1;
            self.errors.push(message.into());
        }
    }

    /// Report 0 for every per-layer metric under `prefixes`: the layers
    /// this workload does not exercise.
    pub fn zero_layers(&mut self, prefixes: &[&str]) {
        for (name, _) in metrics::per_layer() {
            if prefixes.iter().any(|p| name.starts_with(p)) && self.metrics.get(&name).is_none() {
                self.metrics.set(name, 0.0);
            }
        }
    }

    /// Time one host-speed probe.
    pub fn probe(&mut self) {
        self.probes.push(host::probe().as_secs_f64());
    }

    /// Append a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.report.push(line.into());
    }
}

/// The measurement window of one run.
pub struct Window {
    start: Instant,
    budget: Duration,
}

impl Window {
    /// A window of `seconds`, starting now.
    pub fn new(seconds: f64) -> Self {
        Window {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds),
        }
    }

    /// Whether work estimated at `estimate` still ends inside the window.
    pub fn fits(&self, estimate: Duration) -> bool {
        self.start.elapsed() + estimate <= self.budget
    }

    /// Run `items` operations round-robin — item 0, 1, …, `items - 1`,
    /// then again — until the window is spent, and return each item's
    /// timings in seconds. The first round always runs in full; after it
    /// an item runs only while its mean so far still fits in the window.
    ///
    /// Spreading every item's samples over the whole window, rather than
    /// timing one item in one stretch, makes each item's mean average the
    /// host's speed over the same span: on a shared host that speed
    /// wanders by tens of percent within seconds.
    pub fn round_robin(
        &self,
        items: usize,
        mut run: impl FnMut(usize) -> Duration,
    ) -> Vec<Vec<f64>> {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); items];
        for round in 0.. {
            for (item, times) in samples.iter_mut().enumerate() {
                if round > 0 && !self.fits(Duration::from_secs_f64(stats::mean(times))) {
                    return samples;
                }
                times.push(run(item).as_secs_f64());
            }
        }
        samples
    }
}

/// The repository root (the benchmark package sits one level below).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Scratch and trace output directory, inside the checkout.
pub fn out_dir() -> PathBuf {
    let dir = repo_root().join(".bench_out");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Worker count for the `jN` legs: the machine's available parallelism.
pub fn jobs_n() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `VmHWM` of a process (`None` = this one), MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Write recorded events as JSONL (the trace of a traced run is kept in
/// memory until the run ends, then written here).
pub fn write_trace(name: &str, streams: &[Vec<TimedEvent>]) -> Option<PathBuf> {
    use std::io::Write as _;
    let path = out_dir().join(name);
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).ok()?);
    for (stream, events) in streams.iter().enumerate() {
        for e in events {
            let mut obj = e.to_json();
            if let equitls_obs::json::JsonValue::Object(fields) = &mut obj {
                fields.push((
                    "stream".into(),
                    equitls_obs::json::JsonValue::Number(stream as f64),
                ));
            }
            writeln!(file, "{obj}").ok()?;
        }
    }
    file.flush().ok()?;
    Some(path)
}

fn run_workload(name: &str, args: &Args) -> Outcome {
    let mut outcome = match name {
        "prove-campaign" => prove::run(args),
        "explore" => explore::run(args),
        "serve-mix" => serve::run(args),
        _ => unreachable!("validated by parse_args"),
    };
    let probe_ms = stats::median(&outcome.probes) * 1e3;
    if args.trace {
        outcome.metrics.set("host.probe_ms", probe_ms);
    } else {
        let factor = host::time_factor(&outcome.probes);
        for (name, unit, raw) in outcome.metrics.scale_times(factor) {
            outcome.note(format!("raw {name} = {raw} {unit}"));
        }
        outcome.note(format!(
            "host probe: median {probe_ms:.4} ms of {}; end-to-end times scaled by {factor:.4} to the reference host ({:.1} ms)",
            outcome.probes.len(),
            host::REFERENCE_PROBE_S * 1e3
        ));
    }
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.note(format!(
        "fail_frac = {fail_frac} ({} of {} operations failed)",
        outcome.failed, outcome.attempted
    ));
    outcome
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchrec: {e}");
            std::process::exit(2);
        }
    };
    // Deep proofs recurse far: run everything on a big stack, as the
    // program's own binaries do.
    let worker = std::thread::Builder::new()
        .name("benchrec".into())
        .stack_size(512 * 1024 * 1024)
        .spawn(move || main_inner(&args))
        .expect("spawn the benchmark thread");
    let code = worker.join().unwrap_or(1);
    std::process::exit(code);
}

fn main_inner(args: &Args) -> i32 {
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    println!(
        "benchrec rev {} nproc {} seed {} (held-out seed {}) seconds {} trace {}",
        env!("BENCHREC_REV"),
        jobs_n(),
        args.seed,
        mix::HELD_OUT_SEED,
        args.seconds,
        u8::from(args.trace)
    );
    let (mut attempted, mut failed) = (0, 0);
    let mut all_metrics = Vec::new();
    let mut complete = true;
    for name in &names {
        let outcome = run_workload(name, args);
        println!("== {name} (seed {}) ==", args.seed);
        for line in &outcome.report {
            println!("{line}");
        }
        for e in outcome.errors.iter().take(20) {
            println!("MISMATCH {e}");
        }
        attempted += outcome.attempted;
        failed += outcome.failed;
        match outcome.metrics.select(args.trace) {
            Ok(selected) => {
                for (metric, unit, value) in selected {
                    println!("metric {metric} = {value} {unit}");
                    let key = if names.len() > 1 {
                        format!("{name}/{metric}")
                    } else {
                        metric
                    };
                    all_metrics.push((key, unit, value));
                }
            }
            Err(missing) => {
                complete = false;
                println!("NOT MEASURED {}", missing.join(", "));
            }
        }
    }
    if !complete || attempted == 0 {
        eprintln!("benchrec: the run did not measure every metric");
        return 1;
    }
    let correct = failed == 0;
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, &all_metrics)
    );
    if correct {
        0
    } else {
        1
    }
}
