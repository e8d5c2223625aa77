//! `prove-campaign`: all eighteen proof scores on the standard and the
//! variant model, at jobs 1 and at jobs = nproc.
//!
//! Layers: spec (model build, in set-up), core (obligations, splits),
//! rewrite (normalization). The model checker is not touched.

use std::sync::Arc;
use std::time::{Duration, Instant};

use equitls_core::prelude::ProofReport;
use equitls_obs::sink::{EventSink, Obs, RecordingSink};
use equitls_rewrite::engine::RewriteStats;
use equitls_tls::verify::{self, VerifyOptions};
use equitls_tls::TlsModel;

use crate::spans::SpanTable;
use crate::stats::{means, median, percentile};
use crate::{jobs_n, ms, oracle, peak_rss_mb, write_trace, Args, Outcome, Window};

/// Model builds in set-up; `setup_s` is their median.
const SETUP_REPS: usize = 50;

/// One campaign leg: every plan on one model at one jobs value.
struct Leg {
    wall: Duration,
    /// `(property, time to its verdict, report)` in campaign order.
    properties: Vec<(&'static str, Duration, ProofReport)>,
}

fn campaign(
    model: &TlsModel,
    jobs: usize,
    obs: &Obs,
    profile_rules: bool,
    out: &mut Outcome,
) -> Leg {
    let mut model = model.clone();
    let opts = VerifyOptions {
        jobs,
        profile_rules,
        ..VerifyOptions::default()
    };
    let mut properties = Vec::with_capacity(verify::PLANS.len());
    let start = Instant::now();
    for plan in &verify::PLANS {
        let _span = obs.span(&format!("bench.property:{}", plan.name));
        let t = Instant::now();
        let result = verify::verify_property_opts(&mut model, plan.name, &opts, obs);
        let took = t.elapsed();
        match result {
            Ok(report) => {
                out.record(oracle::check_proof(
                    plan.name,
                    report.is_proved(),
                    report.faults().len(),
                ));
                properties.push((plan.name, took, report));
            }
            Err(e) => out.record(Err(format!("{}: engine error: {e}", plan.name))),
        }
    }
    let wall = start.elapsed();
    let proved: Vec<&str> = properties.iter().map(|p| p.0).collect();
    for name in oracle::PROPERTIES {
        out.require(
            proved.contains(&name),
            format!("{name}: no verdict (missing from the campaign)"),
        );
    }
    Leg { wall, properties }
}

/// Build the discrimination-tree rule index on a pristine model, as the
/// daemon's warm state does: every campaign clone then shares it.
fn index(model: &TlsModel) {
    model.spec.rules().path_index(model.spec.store());
}

/// Build both models (spec compile plus rule index) `SETUP_REPS` times;
/// returns the last pair and the per-model build times.
fn setup(out: &mut Outcome) -> Option<(TlsModel, TlsModel, Vec<f64>, Vec<f64>)> {
    let (mut std_ms, mut var_ms) = (Vec::new(), Vec::new());
    let mut models = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let standard = TlsModel::standard().inspect(index);
        std_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let variant = TlsModel::variant().inspect(index);
        var_ms.push(ms(t.elapsed()));
        out.probe();
        match (standard, variant) {
            (Ok(s), Ok(v)) => models = Some((s, v)),
            (s, v) => {
                out.require(
                    false,
                    format!("model build failed: {:?} {:?}", s.err(), v.err()),
                );
                return None;
            }
        }
    }
    let (s, v) = models?;
    Some((s, v, std_ms, var_ms))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let Some((standard, variant, std_ms, var_ms)) = setup(&mut out) else {
        return out;
    };
    let setup_ms: Vec<f64> = std_ms.iter().zip(&var_ms).map(|(a, b)| a + b).collect();
    out.metrics.set("setup_s", median(&setup_ms) / 1e3);
    out.metrics.set("spec.build_ms.standard", median(&std_ms));
    out.metrics.set("spec.build_ms.variant", median(&var_ms));
    out.note(format!(
        "setup: build standard {:.1} ms + variant {:.1} ms (median of {SETUP_REPS})",
        median(&std_ms),
        median(&var_ms)
    ));
    if args.trace {
        traced(args, &standard, &variant, &mut out);
    } else {
        untraced(args, &standard, &variant, &mut out);
    }
    out
}

/// One proof on a fresh clone of a pristine model, checked against the
/// oracle; returns the time to its verdict.
fn prove_one(model: &TlsModel, property: &str, jobs: usize, out: &mut Outcome) -> Duration {
    let mut model = model.clone();
    let opts = VerifyOptions {
        jobs,
        ..VerifyOptions::default()
    };
    let t = Instant::now();
    let result = verify::verify_property_opts(&mut model, property, &opts, &Obs::noop());
    let took = t.elapsed();
    out.record(match result {
        Ok(report) => oracle::check_proof(property, report.is_proved(), report.faults().len()),
        Err(e) => Err(format!("{property}: engine error: {e}")),
    });
    took
}

/// The end-to-end run. Each of the 72 proofs (18 plans × two models ×
/// jobs 1 and nproc) is an item of a round-robin over the window; a
/// campaign's wall time is the sum of its 18 proofs' mean times.
fn untraced(args: &Args, standard: &TlsModel, variant: &TlsModel, out: &mut Outcome) {
    let n = jobs_n();
    let legs: [(&str, &TlsModel, usize); 4] = [
        ("standard", standard, 1),
        ("variant", variant, 1),
        ("standard", standard, n),
        ("variant", variant, n),
    ];
    let plans = verify::PLANS.len();
    let window = Window::new(args.seconds as f64);
    let items = plans * legs.len();
    let mut rss = None;
    // Plan-major order: the four legs of one plan run back to back.
    let samples = window.round_robin(items, |item| {
        let (_, model, jobs) = legs[item % legs.len()];
        let took = prove_one(model, verify::PLANS[item / legs.len()].name, jobs, out);
        out.probe();
        // The high-water mark after the first round, a fixed point of the
        // schedule: later rounds, as many as the host's speed allows, let
        // the allocator's per-thread arenas fragment further.
        if item + 1 == items && rss.is_none() {
            rss = Some(peak_rss_mb(None));
        }
        took
    });
    let leg_means = |leg: usize| -> Vec<f64> {
        means(
            &samples[leg..]
                .iter()
                .step_by(legs.len())
                .cloned()
                .collect::<Vec<_>>(),
        )
    };
    let j1: f64 = leg_means(0).iter().chain(&leg_means(1)).sum();
    let jn_means: Vec<f64> = leg_means(2).into_iter().chain(leg_means(3)).collect();
    let jn: f64 = jn_means.iter().sum();
    let jn_ms: Vec<f64> = jn_means.iter().map(|s| s * 1e3).collect();
    let m = &mut out.metrics;
    m.set("wall_s.j1", j1);
    m.set("wall_s.jN", jn);
    m.set("latency_p50_ms", median(&jn_ms));
    m.set("latency_p90_ms", percentile(&jn_ms, 90.0));
    m.set("req_per_s", jn_means.len() as f64 / jn);
    m.set("peak_rss_mb", rss.unwrap_or_default());
    for (i, (model, _, jobs)) in legs.iter().enumerate() {
        let runs: Vec<usize> = samples[i..]
            .iter()
            .step_by(legs.len())
            .map(Vec::len)
            .collect();
        out.note(format!(
            "leg {model} jobs {jobs}: campaign {:.3} s (sum of {plans} per-proof means; {}-{} runs per proof)",
            leg_means(i).iter().sum::<f64>(),
            runs.iter().min().unwrap_or(&0),
            runs.iter().max().unwrap_or(&0),
        ));
    }
    out.note(format!(
        "per-proof mean latency at jobs {n}: p50 {:.2} ms, p90 {:.2} ms over {} proofs",
        median(&jn_ms),
        percentile(&jn_ms, 90.0),
        jn_ms.len()
    ));
}

/// The traced run: untraced j1 and jN legs for the report-derived
/// numbers and the overhead baseline, then traced j1 legs with rule
/// profiling on a recording sink.
fn traced(args: &Args, standard: &TlsModel, variant: &TlsModel, out: &mut Outcome) {
    let n = jobs_n();
    let noop = Obs::noop();
    let plain_std = campaign(standard, 1, &noop, false, out);
    let plain_var = campaign(variant, 1, &noop, false, out);
    let par_std = campaign(standard, n, &noop, false, out);
    let par_var = campaign(variant, n, &noop, false, out);

    let sink = Arc::new(RecordingSink::new());
    let obs = Obs::new(Arc::clone(&sink) as Arc<dyn EventSink>);
    let traced_std = campaign(standard, 1, &obs, true, out);
    let traced_var = campaign(variant, 1, &obs, true, out);
    let events = sink.timed_events();
    let mut table = SpanTable::default();
    table.add_stream(&events);

    let m = &mut out.metrics;
    for (name, took, _) in &plain_std.properties {
        m.set(format!("core.property_ms.{name}"), ms(*took));
    }
    let reports: Vec<&ProofReport> = plain_std
        .properties
        .iter()
        .chain(&plain_var.properties)
        .map(|p| &p.2)
        .collect();
    let steps: Vec<_> = reports
        .iter()
        .flat_map(|r| std::iter::once(&r.base).chain(&r.steps))
        .collect();
    let step_ms: Vec<f64> = steps.iter().map(|s| ms(s.duration)).collect();
    m.set("core.obligations", steps.len() as f64);
    m.set(
        "core.passages",
        steps.iter().map(|s| s.metrics.passages).sum::<usize>() as f64,
    );
    m.set(
        "core.splits",
        steps.iter().map(|s| s.metrics.splits).sum::<usize>() as f64,
    );
    m.set(
        "core.max_depth",
        steps.iter().map(|s| s.metrics.max_depth).max().unwrap_or(0) as f64,
    );
    m.set("core.obligation_p50_ms", median(&step_ms));
    m.set("core.obligation_p98_ms", percentile(&step_ms, 98.0));
    let par_busy: f64 = par_std
        .properties
        .iter()
        .chain(&par_var.properties)
        .flat_map(|p| std::iter::once(&p.2.base).chain(&p.2.steps))
        .map(|s| s.duration.as_secs_f64())
        .sum();
    let par_wall = (par_std.wall + par_var.wall).as_secs_f64();
    m.set("core.busy_frac.jN", par_busy / (n as f64 * par_wall));

    let rw = reports
        .iter()
        .map(|r| r.total_rewrite_stats())
        .fold(RewriteStats::default(), RewriteStats::merged);
    m.set("rewrite.rewrites", rw.rewrites as f64);
    m.set("rewrite.cache_hits", rw.cache_hits as f64);
    m.set("rewrite.cache_misses", rw.cache_misses as f64);
    m.set(
        "rewrite.cache_hit_rate",
        rw.cache_hits as f64 / (rw.cache_hits + rw.cache_misses).max(1) as f64,
    );
    m.set("rewrite.bool_normalizations", rw.bool_normalizations as f64);
    m.set("rewrite.eq_decisions", rw.eq_decisions as f64);
    m.set("rewrite.blocked_conditions", rw.blocked_conditions as f64);
    m.set("rewrite.cache_evictions", rw.cache_evictions as f64);
    for name in [
        "rewrite.index_lookups",
        "rewrite.index_candidates",
        "rewrite.index_pruned",
    ] {
        m.set(name, table.counter_sum(name) as f64);
    }
    m.set(
        "rewrite.rule_attempts",
        table.counter_sum("rule.attempts:") as f64,
    );
    let normalize_us = table.span_total_us("prover.normalize");
    m.set("rewrite.normalize_ms", normalize_us as f64 / 1e3);
    let rule_us = table.counter_sum("rule.time_us:");
    m.set(
        "rewrite.normalize_unattributed_frac",
        1.0 - (rule_us as f64 / normalize_us.max(1) as f64).min(1.0),
    );
    let plain = (plain_std.wall + plain_var.wall).as_secs_f64();
    let traced = (traced_std.wall + traced_var.wall).as_secs_f64();
    m.set("obs.overhead_frac", traced / plain - 1.0);
    m.set("obs.events", events.len() as f64);
    m.set("obs.dropped_events", sink.dropped_events() as f64);
    out.zero_layers(&["mc.", "persist.", "serve."]);
    out.require(
        sink.dropped_events() == 0,
        "trace void: the recording sink dropped events",
    );
    out.note(format!(
        "traced jobs-1 campaign: {traced:.3} s vs {plain:.3} s untraced; {} events",
        events.len()
    ));
    out.note(table.render(12));
    if let Some(path) = write_trace(
        &format!("prove-campaign-seed{}.trace.jsonl", args.seed),
        &[events],
    ) {
        out.note(format!("trace written to {}", path.display()));
    }
}
