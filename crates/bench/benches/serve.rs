//! Experiment E20 (machine-readable `BENCH_serve.json`): the daemon's
//! warm-path win.
//!
//! A one-shot `tls-prove` run pays the cold-start stack on every
//! invocation: spec compilation, LPO precedence, discrimination-tree
//! and index build. The daemon pays it once. This bench drives an in-process [`ServeEngine`] (the
//! same code path `equitls-serve` serves from, minus the socket) and
//! measures one prove request end to end — admission, journaling,
//! execution, stable-response rendering:
//!
//! * **cold** — the first request on a fresh engine (includes the model
//!   build and index construction);
//! * **warm** — the same request repeated on the now-resident engine
//!   (clones share the pre-built index), best of `BENCH_SAMPLES`.
//!
//! Compare against the `campaign` legs of `BENCH_rewriting.json` (E19):
//! that file times the same inv1 campaign cold-per-sample; the gap
//! between its indexed leg and this file's warm leg is the residency
//! win. Stable payloads are byte-identical across both legs (pinned in
//! `tests/serve_determinism.rs`); only latency moves.
//!
//! Environment knobs (as the other benches):
//!
//! * `BENCH_SAMPLES` — warm repetitions (default 5; best-of-N);
//! * `BENCH_OUT`     — output path (default `<repo>/BENCH_serve.json`);
//! * `BENCH_SMOKE=1` — tiny run, temp-dir output (CI smoke);
//! * `BENCH_GIT_REV`, `BENCH_HOSTNAME` — provenance stamps. `cores` is
//!   always measured from the machine, never claimed.

use equitls_obs::json::JsonValue;
use equitls_obs::sink::Obs;
use equitls_rewrite::par::resolve_jobs;
use equitls_serve::engine::{Admission, ServeConfig, ServeEngine};
use equitls_serve::proto::{JobKind, JobRequest};
use std::time::{Duration, Instant};

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(v: f64) -> JsonValue {
    JsonValue::Number(v)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn prove_request(id: &str, property: &str) -> JobRequest {
    let mut req = JobRequest::new(id, JobKind::Prove);
    req.property = property.to_string();
    req
}

/// Submit one request and time it to completion (stable response ready).
fn timed_request(engine: &ServeEngine, request: JobRequest) -> (Duration, String) {
    let started = Instant::now();
    let seq = match engine.submit(request) {
        Admission::Accepted { seq } => seq,
        other => panic!("bench job must be admitted, got {other:?}"),
    };
    engine.wait_response(seq);
    let wall = started.elapsed();
    (wall, engine.stable_response(seq).expect("job completed"))
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    let samples: usize = std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 2 } else { 5 });
    let out_path = std::env::var("BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| {
            if smoke {
                std::env::temp_dir().join("BENCH_serve_smoke.json")
            } else {
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json")
            }
        });
    // The full inv1 campaign in the real run; a cheap lemma in smoke.
    let property = if smoke { "lem-src-honest" } else { "inv1" };

    let engine = ServeEngine::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        Obs::noop(),
    )
    .expect("engine starts");

    println!("== serve latency ({property}, best of {samples})");
    let (cold, cold_line) = timed_request(&engine, prove_request("cold", property));
    println!("serve/cold                 {cold:>12.2?}");

    let mut warm = Duration::MAX;
    for i in 0..samples.max(1) {
        let (wall, _) = timed_request(&engine, prove_request(&format!("warm{i}"), property));
        warm = warm.min(wall);
    }
    println!("serve/warm                 {warm:>12.2?}");

    // The warm and cold stable results must agree exactly (the envelope
    // differs only in request id and admission seq) — residency is a
    // latency lever, not a result lever.
    let (_, warm_line) = timed_request(&engine, prove_request("cold", property));
    let result_of = |line: &str| {
        equitls_obs::json::parse(line)
            .expect("stable line parses")
            .get("result")
            .expect("ok response carries a result")
            .to_string()
    };
    assert_eq!(
        result_of(&cold_line),
        result_of(&warm_line),
        "warm and cold runs produce identical stable results"
    );

    let warm_stats = engine.warm().stats();
    engine.shutdown();

    let stamp =
        |var: &str| JsonValue::String(std::env::var(var).unwrap_or_else(|_| "unknown".to_string()));
    let doc = obj(vec![
        ("experiment", JsonValue::String("E20-serve".to_string())),
        ("git_rev", stamp("BENCH_GIT_REV")),
        ("hostname", stamp("BENCH_HOSTNAME")),
        ("cores", num(resolve_jobs(0) as f64)),
        ("samples", num(samples as f64)),
        ("smoke", JsonValue::Bool(smoke)),
        ("property", JsonValue::String(property.to_string())),
        ("cold_ms", num(ms(cold))),
        ("warm_ms", num(ms(warm))),
        (
            "speedup_cold_over_warm",
            num(cold.as_secs_f64() / warm.as_secs_f64().max(1e-9)),
        ),
        ("model_builds", num(warm_stats.model_builds as f64)),
        ("model_reuses", num(warm_stats.model_reuses as f64)),
    ]);
    std::fs::write(&out_path, format!("{doc}\n")).expect("write BENCH_serve.json");
    println!("wrote {}", out_path.display());
}
