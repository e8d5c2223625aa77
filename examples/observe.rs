//! Experiment E9: observing a proof — tracing and effort metrics.
//!
//! The paper reports its verification effort in human terms (about a
//! week, §1/§7); the machine-checked analogue is the event stream the
//! prover emits. This example proves the PMS-secrecy property (inv1)
//! twice:
//!
//! 1. with a recording sink, to fold the events into summary tables
//!    (hot rewrite rules, wall-clock per proof obligation);
//! 2. with a JSONL sink, to stream the same events to
//!    `target/observe-trace.jsonl` for offline analysis.
//!
//! ```text
//! cargo run --release --example observe [-- --profile <out.json>]
//! ```
//!
//! `--profile <out.json>` additionally converts the recorded events to a
//! Chrome trace (open in Perfetto or `about://tracing`).

use equitls::obs::sink::{JsonlSink, Obs, RecordingSink};
use equitls::obs::summary::{Align, MetricsSummary, Table};
use equitls::obs::trace::Trace;
use equitls::tls::verify::VerifyOptions;
use equitls::tls::{verify, TlsModel};
use std::sync::Arc;

fn main() {
    // Deep proof searches recurse heavily; run on a large stack.
    let child = std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(run)
        .expect("spawn prover thread");
    child.join().expect("prover thread panicked");
}

fn run() {
    let mut args = std::env::args().skip(1);
    let mut profile: Option<std::path::PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--profile needs a file path");
                    std::process::exit(2);
                });
                profile = Some(path.into());
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    println!("== proving inv1 (PMS secrecy) with a recording sink ==\n");
    let recorder = Arc::new(RecordingSink::new());
    let obs = Obs::new(recorder.clone());
    let mut model = TlsModel::standard().expect("model builds");
    let report = verify::verify_property_opts(
        &mut model,
        "inv1",
        &VerifyOptions {
            profile_rules: true,
            ..VerifyOptions::default()
        },
        &obs,
    )
    .expect("prover runs");
    assert!(report.is_proved());

    let summary = MetricsSummary::from_events(&recorder.events());

    println!("proof effort (the report's own totals):");
    let totals = report.total_metrics();
    println!(
        "  passages {}  splits {}  rewrites {}  max-depth {}  wall-clock {:.2?}",
        totals.passages, totals.splits, totals.rewrites, totals.max_depth, report.duration
    );
    println!(
        "  cache hit rate {:.1}%\n",
        report.total_rewrite_stats().cache_hit_rate() * 100.0
    );

    println!("hottest rewrite rules (by cumulative match+fire time):");
    let mut table = Table::new(
        &["rule", "attempts", "fires"],
        &[Align::Left, Align::Right, Align::Right],
    );
    for (label, _) in summary.counters_with_prefix("rule.time_us:").iter().take(8) {
        table.row(vec![
            label.clone(),
            summary
                .counter_total(&format!("rule.attempts:{label}"))
                .to_string(),
            summary
                .counter_total(&format!("rule.fires:{label}"))
                .to_string(),
        ]);
    }
    println!("{}", table.render());

    println!("slowest proof obligations:");
    let mut spans = Table::new(&["obligation", "time"], &[Align::Left, Align::Right]);
    for (name, agg) in summary.spans_by_total().into_iter().take(8) {
        spans.row(vec![name, format!("{:.2?}", agg.total)]);
    }
    println!("{}", spans.render());

    if let Some(path) = &profile {
        let chrome = Trace::from_events(recorder.timed_events()).chrome_trace();
        match std::fs::write(path, chrome.to_string()) {
            Ok(()) => eprintln!(
                "Chrome trace written to {} (open in Perfetto)",
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write profile {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }

    // Second run: stream the same events as JSONL for offline analysis.
    let path = std::path::Path::new("target/observe-trace.jsonl");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let jsonl = JsonlSink::create(path).expect("trace file opens");
    let obs = Obs::new(Arc::new(jsonl));
    let mut model = TlsModel::standard().expect("model builds");
    let report = verify::verify_property_opts(
        &mut model,
        "inv1",
        &VerifyOptions {
            profile_rules: true,
            ..VerifyOptions::default()
        },
        &obs,
    )
    .expect("prover runs");
    obs.flush();
    assert!(report.is_proved());
    let lines = std::fs::read_to_string(path)
        .map(|s| s.lines().count())
        .unwrap_or(0);
    println!(
        "== JSONL trace: {lines} events written to {} ==",
        path.display()
    );
}
