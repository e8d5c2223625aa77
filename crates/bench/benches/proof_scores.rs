//! Experiments E1–E5, E8, E9: proof-score verification time.
//!
//! One series per representative property on the standard protocol, the
//! same series on the §5.3 variant (E8), and the witness-map ablation
//! DESIGN.md calls out (constructor-completeness splitting on vs. off;
//! without witnesses several lemmas stop proving, so the ablation
//! measures time-to-verdict, not time-to-proof).

use equitls_bench::harness::bench;
use equitls_core::prelude::*;
use equitls_obs::sink::Obs;
use equitls_tls::verify::VerifyOptions;
use equitls_tls::{verify, TlsModel};
use std::hint::black_box;

const REPRESENTATIVES: [&str; 6] = [
    "inv1",
    "inv2",
    "inv4",
    "lem-cepms-cpms",
    "lem-esfin-origin",
    "lem-sf-session",
];

fn with_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("join")
}

fn bench_standard() {
    println!("== prove-standard");
    for name in REPRESENTATIVES {
        bench(&format!("prove-standard/{name}"), 3, move || {
            let name = name.to_string();
            with_big_stack(move || {
                let mut model = TlsModel::standard().expect("model builds");
                let report = verify::verify_property_opts(
                    &mut model,
                    &name,
                    &VerifyOptions::default(),
                    &Obs::noop(),
                )
                .expect("prover runs");
                assert!(report.is_proved(), "{name} must prove");
                black_box(report.total_passages())
            })
        });
    }
}

fn bench_variant() {
    println!("== prove-variant");
    for name in ["inv1", "inv2", "inv3"] {
        bench(&format!("prove-variant/{name}"), 3, move || {
            let name = name.to_string();
            with_big_stack(move || {
                let mut model = TlsModel::variant().expect("model builds");
                let report = verify::verify_property_opts(
                    &mut model,
                    &name,
                    &VerifyOptions::default(),
                    &Obs::noop(),
                )
                .expect("prover runs");
                assert!(report.is_proved(), "{name} must prove on the variant");
                black_box(report.total_passages())
            })
        });
    }
}

fn bench_witness_ablation() {
    println!("== witness-ablation");
    for witnesses in [true, false] {
        let label = if witnesses {
            "with-witnesses"
        } else {
            "without"
        };
        bench(&format!("witness-ablation/{label}"), 3, move || {
            with_big_stack(move || {
                let mut model = TlsModel::standard().expect("model builds");
                let config = if witnesses {
                    verify::prover_config(&model)
                } else {
                    ProverConfig::default()
                };
                let mut prover =
                    Prover::new(&mut model.spec, &model.ots, &model.invariants).with_config(config);
                let report = prover
                    .prove_inductive("lem-sf-session", &Hints::new())
                    .expect("prover runs");
                // With witnesses the lemma proves; without them the
                // message structure stays opaque and cases stay open.
                assert_eq!(report.is_proved(), witnesses);
                black_box(report.total_passages())
            })
        });
    }
}

fn main() {
    bench_standard();
    bench_variant();
    bench_witness_ablation();
}
