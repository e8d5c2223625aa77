//! `explore`: the counterexample scope at bounds 1–3 and the Mitchell
//! scope at bound 2, each checked twice — with every visited shard
//! resident, and with the resident shards capped so every bound-3 level
//! barrier writes shards to disk and reloads them — at jobs 1 and at
//! jobs = nproc.
//!
//! Layers: mc (successor generation, visited-set merge) and, in the
//! capped checks, persist (shard writes and reloads). Nothing rewrites.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use equitls_mc::check::check_scope_config_obs_sym;
use equitls_mc::explorer::{Exploration, ExploreConfig, Limits};
use equitls_obs::event::TimedEvent;
use equitls_obs::sink::{EventSink, Obs, RecordingSink};
use equitls_tls::concrete::{Scope, State};

use crate::oracle::{self, Family, ScopeCase, SCOPES};
use crate::spans::SpanTable;
use crate::stats::{means, median, percentile};
use crate::{jobs_n, ms, out_dir, peak_rss_mb, write_trace, Args, Outcome, Window};

/// Resident visited shards (of 64) in the spill workload: low enough
/// that every bound-3 level barrier spills.
pub const SPILL_RESIDENT_SHARDS: usize = 8;

/// Warm-up repetitions in set-up; `setup_s` is their median.
const SETUP_REPS: usize = 50;

/// The scope and search limits of one case.
pub fn scope_of(case: &ScopeCase) -> (Scope, Limits) {
    let mut scope = match case.family {
        Family::Counterexample => Scope::counterexample(),
        Family::Mitchell => Scope::mitchell(),
    };
    scope.max_messages = case.bound;
    let limits = Limits {
        max_states: oracle::MAX_STATES,
        max_depth: case.bound + 1,
    };
    (scope, limits)
}

/// Where spilled shards go; one subdirectory per check, removed after.
struct SpillRoot {
    dir: PathBuf,
    next: usize,
}

impl SpillRoot {
    fn new() -> Self {
        let dir = out_dir().join(format!("spill-{}", std::process::id()));
        SpillRoot { dir, next: 0 }
    }

    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.dir.join(format!("check{}", self.next))
    }
}

impl Drop for SpillRoot {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// One bounded check: its wall time and result, verified against the
/// oracle.
fn check(
    case: &ScopeCase,
    jobs: usize,
    spill: Option<&mut SpillRoot>,
    obs: &Obs,
    out: &mut Outcome,
) -> (Duration, Exploration<State>) {
    let (scope, limits) = scope_of(case);
    let spill_dir = spill.map(SpillRoot::fresh);
    let config = ExploreConfig {
        spill_dir: spill_dir.clone(),
        max_resident_shards: if spill_dir.is_some() {
            SPILL_RESIDENT_SHARDS
        } else {
            0
        },
        ..ExploreConfig::default()
    };
    let t = Instant::now();
    let result = {
        let _span = obs.span(&format!("bench.check:{}:j{jobs}", case.id));
        check_scope_config_obs_sym(&scope, &limits, jobs, &config, obs, true)
    };
    let took = t.elapsed();
    out.record(oracle::check_scope(
        case,
        result.states,
        result.complete,
        |name| result.violation(name).is_some(),
    ));
    if let Some(dir) = &spill_dir {
        if case.bound == 3 {
            out.require(
                result.spill_shards > 0 && result.spill_reloads > 0,
                format!("{}: the spill workload did not spill", case.id),
            );
        }
        remove(dir);
    }
    (took, result)
}

fn remove(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
}

/// How a check keeps its visited set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Every shard resident.
    Resident,
    /// At most [`SPILL_RESIDENT_SHARDS`] resident; the rest spill.
    Spill,
}

const MODES: [Mode; 2] = [Mode::Resident, Mode::Spill];

/// Run one check in `mode`.
fn check_in(
    case: &ScopeCase,
    jobs: usize,
    mode: Mode,
    root: &mut SpillRoot,
    obs: &Obs,
    out: &mut Outcome,
) -> (Duration, Exploration<State>) {
    let spill = (mode == Mode::Spill).then_some(root);
    check(case, jobs, spill, obs, out)
}

/// One pass: all scopes in every mode at one jobs value; returns its
/// wall time.
fn pass(jobs: usize, root: &mut SpillRoot, obs: &Obs, out: &mut Outcome) -> Duration {
    let start = Instant::now();
    for mode in MODES {
        for case in &SCOPES {
            check_in(case, jobs, mode, root, obs, out);
        }
    }
    start.elapsed()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut root = SpillRoot::new();
    // Set-up: warm the explorer on the two small bounds (machine and
    // monitor construction, first allocations); not part of the window.
    // All resident: spill I/O is measured, not part of the set-up.
    let mut setup_s = Vec::new();
    let noop = Obs::noop();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        for case in &SCOPES[..2] {
            check(case, 1, None, &noop, &mut out);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        out.probe();
    }
    out.metrics.set("setup_s", median(&setup_s));
    out.note(format!(
        "setup: resident warm-up checks of bounds 1-2, median {:.2} ms of {SETUP_REPS}",
        median(&setup_s) * 1e3
    ));
    if args.trace {
        traced(args, &mut root, &mut out);
    } else {
        untraced(args, &mut root, &mut out);
    }
    out
}

/// The end-to-end run. Each of the 16 checks (4 scopes × 2 modes × jobs
/// 1 and nproc) is an item of a round-robin over the window. A pass —
/// the four scopes resident, then spilled, as `model_check` would run
/// them — takes the sum of its 8 checks' mean times; latency and
/// throughput are per check, at jobs = nproc.
fn untraced(args: &Args, root: &mut SpillRoot, out: &mut Outcome) {
    let n = jobs_n();
    let window = Window::new(args.seconds as f64);
    let noop = Obs::noop();
    // Item `i`: scope `i / 4`, mode `(i / 2) % 2`, jobs 1 when `i` is even.
    let samples = window.round_robin(SCOPES.len() * 4, |item| {
        let jobs = if item % 2 == 0 { 1 } else { n };
        let mode = MODES[(item / 2) % 2];
        let took = check_in(&SCOPES[item / 4], jobs, mode, root, &noop, out).0;
        out.probe();
        took
    });
    let item_means = means(&samples);
    let sum_where = |keep: &dyn Fn(usize) -> bool| -> f64 {
        item_means
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, s)| s)
            .sum()
    };
    let j1 = sum_where(&|i| i % 2 == 0);
    let jn = sum_where(&|i| i % 2 == 1);
    let jn_ms: Vec<f64> = item_means
        .iter()
        .skip(1)
        .step_by(2)
        .map(|s| s * 1e3)
        .collect();
    let m = &mut out.metrics;
    m.set("wall_s.j1", j1);
    m.set("wall_s.jN", jn);
    m.set("latency_p50_ms", median(&jn_ms));
    m.set("latency_p90_ms", percentile(&jn_ms, 90.0));
    m.set("req_per_s", jn_ms.len() as f64 / jn);
    m.set("peak_rss_mb", peak_rss_mb(None));
    out.note(format!(
        "pass at jobs 1: resident {:.3} s + spilled {:.3} s; at jobs {n}: resident {:.3} s + spilled {:.3} s ({}-{} runs per check)",
        sum_where(&|i| i % 4 == 0),
        sum_where(&|i| i % 4 == 2),
        sum_where(&|i| i % 4 == 1),
        sum_where(&|i| i % 4 == 3),
        samples.iter().map(Vec::len).min().unwrap_or(0),
        samples.iter().map(Vec::len).max().unwrap_or(0),
    ));
    out.note(format!(
        "per-check mean latency at jobs {n}: p50 {:.2} ms, p90 {:.2} ms over {} checks",
        median(&jn_ms),
        percentile(&jn_ms, 90.0),
        jn_ms.len()
    ));
}

/// A traced check on its own recording sink.
fn traced_check(
    case: &ScopeCase,
    jobs: usize,
    mode: Mode,
    root: &mut SpillRoot,
    out: &mut Outcome,
) -> (Duration, Exploration<State>, Vec<TimedEvent>, u64) {
    let sink = Arc::new(RecordingSink::new());
    let obs = Obs::new(Arc::clone(&sink) as Arc<dyn EventSink>);
    let (took, result) = check_in(case, jobs, mode, root, &obs, out);
    (took, result, sink.timed_events(), sink.dropped_events())
}

/// Per-layer run: untraced and traced passes alternate until the window
/// is spent. Exact counts come from the first traced round, times are
/// medians over traced rounds, the overhead compares medians. The mc
/// numbers come from the resident checks, the persist numbers from the
/// spilled ones.
fn traced(args: &Args, root: &mut SpillRoot, out: &mut Outcome) {
    let n = jobs_n();
    let window = Window::new(args.seconds as f64);
    let noop = Obs::noop();
    let (mut plain_j1, mut traced_j1) = (Vec::new(), Vec::new());
    let (mut succ_j1, mut succ_jn, mut dedup_j1, mut dedup_jn) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut merge_frac, mut write_ms, mut load_ms) = (Vec::new(), Vec::new(), Vec::new());
    // The first traced round's jobs-1 explorations, per mode.
    let mut first: Option<[Vec<Exploration<State>>; 2]> = None;
    let mut streams: Vec<Vec<TimedEvent>> = Vec::new();
    let mut table = SpanTable::default();
    let mut dropped = 0;
    let mut last = Duration::ZERO;
    while first.is_none() || window.fits(last) {
        let round = Instant::now();
        plain_j1.push(pass(1, root, &noop, out).as_secs_f64());
        let mut results: [Vec<Exploration<State>>; 2] = Default::default();
        for jobs in [1, n] {
            let mut wall = Duration::ZERO;
            for (m, mode) in MODES.into_iter().enumerate() {
                let mut leg = SpanTable::default();
                for case in &SCOPES {
                    let (took, result, events, lost) = traced_check(case, jobs, mode, root, out);
                    wall += took;
                    dropped += lost;
                    leg.add_stream(&events);
                    table.add_stream(&events);
                    if mode == Mode::Resident && case.bound == 3 && jobs == n {
                        let mut own = SpanTable::default();
                        own.add_stream(&events);
                        merge_frac.push(own.counter_sum("mc.dedup_us:") as f64 / 1e3 / ms(took));
                    }
                    if first.is_none() && jobs == 1 {
                        streams.push(events);
                        results[m].push(result);
                    }
                }
                let succ = leg.counter_sum("mc.succ_us:") as f64 / 1e3;
                let dedup = leg.counter_sum("mc.dedup_us:") as f64 / 1e3;
                match (mode, jobs == 1) {
                    (Mode::Resident, true) => {
                        succ_j1.push(succ);
                        dedup_j1.push(dedup);
                    }
                    (Mode::Resident, false) => {
                        succ_jn.push(succ);
                        dedup_jn.push(dedup);
                    }
                    (Mode::Spill, true) => {
                        write_ms.push(leg.span_total_us("persist.write") as f64 / 1e3);
                        load_ms.push(leg.span_total_us("persist.load") as f64 / 1e3);
                    }
                    (Mode::Spill, false) => {}
                }
            }
            if jobs == 1 {
                traced_j1.push(wall.as_secs_f64());
            }
        }
        if first.is_none() {
            first = Some(results);
        }
        last = round.elapsed();
    }
    let [resident, spilled] = first.unwrap_or_default();
    let m = &mut out.metrics;
    let states: usize = resident.iter().map(|r| r.states).sum();
    let hits: usize = resident.iter().map(|r| r.dedup_hits).sum();
    let generated: usize = resident
        .iter()
        .map(|r| r.dedup_hits + r.states.saturating_sub(1))
        .sum();
    m.set("mc.states", states as f64);
    m.set("mc.dedup_hits", hits as f64);
    m.set("mc.dedup_hit_rate", hits as f64 / generated.max(1) as f64);
    m.set("mc.succ_ms.j1", median(&succ_j1));
    m.set("mc.succ_ms.jN", median(&succ_jn));
    m.set("mc.dedup_ms.j1", median(&dedup_j1));
    m.set("mc.dedup_ms.jN", median(&dedup_jn));
    m.set("mc.merge_frac.jN", median(&merge_frac));
    m.set(
        "mc.spill_shards",
        spilled.iter().map(|r| r.spill_shards).sum::<u64>() as f64,
    );
    m.set(
        "mc.spill_bytes",
        spilled.iter().map(|r| r.spill_bytes).sum::<u64>() as f64,
    );
    m.set(
        "mc.spill_reloads",
        spilled.iter().map(|r| r.spill_reloads).sum::<u64>() as f64,
    );
    m.set("persist.write_ms", median(&write_ms));
    m.set("persist.load_ms", median(&load_ms));
    m.set(
        "obs.overhead_frac",
        median(&traced_j1) / median(&plain_j1) - 1.0,
    );
    m.set("obs.events", table.events as f64);
    m.set("obs.dropped_events", dropped as f64);
    out.zero_layers(&["spec.", "core.", "rewrite.", "serve."]);
    out.require(
        dropped == 0,
        "trace void: the recording sink dropped events",
    );
    out.note(format!(
        "{} traced round(s); jobs-1 pass traced {:.3} s vs untraced {:.3} s (medians)",
        traced_j1.len(),
        median(&traced_j1),
        median(&plain_j1)
    ));
    out.note(table.render(12));
    if let Some(path) = write_trace(&format!("explore-seed{}.trace.jsonl", args.seed), &streams) {
        out.note(format!(
            "trace of the first traced round's jobs-1 checks written to {}",
            path.display()
        ));
    }
}
