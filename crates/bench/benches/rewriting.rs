//! Rewriting-engine performance: experiments E12 and E19.
//!
//! **E12** (printed tables):
//!
//! * Boolean-ring tautology decision throughput, by formula size;
//! * the ablation DESIGN.md calls out: ring normal form vs. naive
//!   truth-table enumeration, by atom count;
//! * protocol-term normalization: reducing gleaning collections over
//!   growing concrete networks (the inner loop of every proof passage).
//!
//! **E19** (machine-readable `BENCH_rewriting.json`): rule indexing, on
//! the full inv1 proof campaign (init + 27 transition obligations, case
//! splits and all) through `verify_property_opts`, exactly what
//! `tls-prove inv1` runs. Two legs in the same process:
//!
//! * **linear** — candidate rules by scanning per-operator rule lists
//!   (the engine before discrimination-tree indexing);
//! * **indexed** — discrimination-tree candidate selection (default).
//!
//! Both legs are bit-identical in every rewrite statistic. Wall time per
//! leg; the index's win is bounded by how much of the campaign is
//! matching cost (see EXPERIMENTS E17/E19 — the expensive fires are
//! not). `index_pruned` comes from one extra untimed run per leg with a
//! recording sink, so observing never enters the timed samples.
//! Throughput rates are omitted when a leg finishes below the 1 ms
//! measurement floor (same guard as `tls-prove --metrics`).
//!
//! Environment knobs (as `benches/parallel.rs`):
//!
//! * `BENCH_SAMPLES`  — timed repetitions per E19 leg (default 5; best-of-N);
//! * `BENCH_OUT`      — output path (default `<repo>/BENCH_rewriting.json`);
//! * `BENCH_SMOKE=1`  — E19 only, tiny workload, temp-dir output (CI smoke);
//! * `BENCH_GIT_REV`, `BENCH_HOSTNAME` — provenance stamps.

use equitls_bench::harness::bench;
use equitls_bench::{bool_world, random_formula, truth_table_tautology};
use equitls_obs::json::JsonValue;
use equitls_obs::sink::{Obs, RecordingSink};
use equitls_obs::summary::{rate_per_sec, MetricsSummary};
use equitls_rewrite::par::{on_big_stack, resolve_jobs};
use equitls_rewrite::prelude::*;
use equitls_tls::verify::{self, VerifyOptions};
use equitls_tls::TlsModel;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn bench_ring_throughput() {
    println!("== boolring-normalize");
    for &size in &[16usize, 64, 256] {
        let (mut store, alg, atoms) = bool_world(8);
        let formulas: Vec<_> = (0..16)
            .map(|seed| random_formula(&mut store, &alg, &atoms, size, seed))
            .collect();
        bench(&format!("boolring-normalize/{size}"), 20, || {
            let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
            for &f in &formulas {
                black_box(norm.proves(&mut store, f).expect("normalizes"));
            }
        });
    }
}

fn bench_ring_vs_truth_table() {
    println!("== tautology-ablation");
    for &atoms_n in &[8usize, 12, 16] {
        let (mut store, alg, atoms) = bool_world(atoms_n);
        let formulas: Vec<_> = (0..8)
            .map(|seed| random_formula(&mut store, &alg, &atoms, 48, seed))
            .collect();
        bench(
            &format!("tautology-ablation/boolean-ring/{atoms_n}"),
            10,
            || {
                let mut norm = Normalizer::new(alg.clone(), RuleSet::new());
                for &f in &formulas {
                    black_box(norm.proves(&mut store, f).expect("normalizes"));
                }
            },
        );
        bench(
            &format!("tautology-ablation/truth-table/{atoms_n}"),
            10,
            || {
                for &f in &formulas {
                    black_box(
                        truth_table_tautology(&store, &alg, &atoms, f)
                            .expect("random formulas use only evaluated connectives"),
                    );
                }
            },
        );
    }
}

fn bench_gleaning_reduction() {
    // Normalize `PMS \in cpms(<n-message network>)` — the workhorse
    // reduction of the secrecy proofs.
    println!("== gleaning-normalize");
    for &n in &[4usize, 16, 64] {
        let mut model = equitls_tls::TlsModel::standard().expect("model builds");
        let spec = &mut model.spec;
        let prin = spec.sort_id("Prin").unwrap();
        let secret = spec.sort_id("Secret").unwrap();
        let rand = spec.sort_id("Rand").unwrap();
        let loc = spec.sort_id("ListOfChoices").unwrap();
        let a = spec.store_mut().fresh_constant("a", prin);
        let b = spec.store_mut().fresh_constant("b", prin);
        let s = spec.store_mut().fresh_constant("s", secret);
        let l = spec.store_mut().fresh_constant("l", loc);
        let intruder = spec.const_term("intruder").unwrap();
        let pm = spec.app("pms", &[a, b, s]).unwrap();
        // Build a network of n ch messages plus one kx to the intruder.
        let mut nw = spec.const_term("void").unwrap();
        for i in 0..n {
            let r = spec.store_mut().fresh_constant(&format!("r{i}"), rand);
            let m = spec.app("ch", &[a, a, b, r, l]).unwrap();
            nw = spec.app("_,_", &[m, nw]).unwrap();
        }
        let ki = spec.app("k", &[intruder]).unwrap();
        let ep = spec.app("epms", &[ki, pm]).unwrap();
        let kx = spec.app("kx", &[a, a, intruder, ep]).unwrap();
        nw = spec.app("_,_", &[kx, nw]).unwrap();
        let cp = spec.app("cpms", &[nw]).unwrap();
        let member = spec.app("_\\in_", &[pm, cp]).unwrap();
        let alg = spec.alg().clone();
        bench(&format!("gleaning-normalize/{n}"), 20, || {
            let mut norm = model.spec.normalizer();
            let out = norm
                .normalize(model.spec.store_mut(), member)
                .expect("reduces");
            assert_eq!(alg.as_constant(model.spec.store(), out), Some(true));
            black_box(out)
        });
    }
}

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

/// Engine configuration for one leg.
#[derive(Clone, Copy, PartialEq)]
enum Leg {
    Linear,
    Indexed,
}

const LEGS: [Leg; 2] = [Leg::Linear, Leg::Indexed];

impl Leg {
    fn label(self) -> &'static str {
        match self {
            Leg::Linear => "linear",
            Leg::Indexed => "indexed",
        }
    }
}

/// The full inv1 proof campaign, once per leg, best-of-`samples`.
fn bench_campaign(samples: usize, smoke: bool) -> Vec<JsonValue> {
    // Smoke proves a cheap lemma instead of the full inv1 score.
    let property = if smoke { "lem-src-honest" } else { "inv1" };
    println!("== campaign (full {property} proof)");
    let mut rows = Vec::new();
    let mut linear_wall = None;
    for leg in LEGS {
        let opts = VerifyOptions {
            linear_scan: leg == Leg::Linear,
            ..VerifyOptions::default()
        };
        let mut best = Duration::MAX;
        let mut obligations = 0usize;
        let mut rewrites = 0u64;
        for _ in 0..=samples.max(1) {
            let mut model = TlsModel::standard().expect("model builds");
            let t0 = Instant::now();
            let report = verify::verify_property_opts(&mut model, property, &opts, &Obs::noop())
                .expect("engine");
            let elapsed = t0.elapsed();
            assert!(report.is_proved(), "{property} should prove");
            obligations = report.steps.len() + 1;
            rewrites = report.total_rewrite_stats().rewrites;
            best = best.min(elapsed);
        }
        let recorder = Arc::new(RecordingSink::new());
        let mut model = TlsModel::standard().expect("model builds");
        verify::verify_property_opts(&mut model, property, &opts, &Obs::new(recorder.clone()))
            .expect("engine");
        let index_pruned =
            MetricsSummary::from_events(&recorder.events()).counter_total("rewrite.index_pruned");
        println!(
            "campaign/{:<24} {best:>12.2?}  (best of {samples})",
            leg.label()
        );
        let base = *linear_wall.get_or_insert(best);
        let mut fields = vec![
            ("leg", JsonValue::String(leg.label().to_string())),
            ("property", JsonValue::String(property.to_string())),
            ("obligations", num(obligations as f64)),
            ("rewrites", num(rewrites as f64)),
            ("index_pruned", num(index_pruned as f64)),
            ("wall_ms", num(ms(best))),
            (
                "speedup_vs_linear",
                num(base.as_secs_f64() / best.as_secs_f64().max(1e-9)),
            ),
        ];
        if let Some(rate) = rate_per_sec(obligations as u64, best) {
            fields.push(("obligations_per_sec", num(rate)));
        }
        rows.push(obj(fields));
    }
    rows
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    let samples: usize = std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 1 } else { 5 });
    let out_path = std::env::var("BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| {
            if smoke {
                std::env::temp_dir().join("BENCH_rewriting_smoke.json")
            } else {
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_rewriting.json")
            }
        });

    // Proof search and gleaning recurse deeply; run on a big stack.
    on_big_stack(move || {
        if !smoke {
            bench_ring_throughput();
            bench_ring_vs_truth_table();
            bench_gleaning_reduction();
        }
        let campaign = bench_campaign(samples, smoke);
        let stamp = |var: &str| {
            JsonValue::String(std::env::var(var).unwrap_or_else(|_| "unknown".to_string()))
        };
        let doc = obj(vec![
            ("experiment", JsonValue::String("E19-rewriting".to_string())),
            ("git_rev", stamp("BENCH_GIT_REV")),
            ("hostname", stamp("BENCH_HOSTNAME")),
            ("cores", num(resolve_jobs(0) as f64)),
            ("samples", num(samples as f64)),
            ("smoke", JsonValue::Bool(smoke)),
            ("campaign", JsonValue::Array(campaign)),
        ]);
        std::fs::write(&out_path, format!("{doc}\n")).expect("write BENCH_rewriting.json");
        println!("wrote {}", out_path.display());
    });
}
