//! The traced-run reporter: span self time, layer attribution, counter
//! sums and the coverage line, computed from recorded events.
//!
//! A span's *self time* is its duration minus the part of it that its
//! child spans cover. Spans nest per thread (the `Obs` guards are RAII),
//! so each `(stream, tid)` pair is replayed on its own stack. The
//! benchmark's own `bench.*` spans wrap each call into the program;
//! whatever of them no program span covers is time the trace cannot
//! attribute to a layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use equitls_obs::event::{Event, TimedEvent};

/// Aggregate figures for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed spans.
    pub count: u64,
    /// Summed duration, µs.
    pub total_us: u64,
    /// Summed duration minus what child spans cover, µs.
    pub self_us: u64,
}

/// Everything a traced run recorded, folded.
#[derive(Debug, Default)]
pub struct SpanTable {
    /// Per span name.
    pub spans: BTreeMap<String, SpanStat>,
    /// Counter totals per name.
    pub counters: BTreeMap<String, u64>,
    /// Events folded in.
    pub events: u64,
    /// Summed duration of top-level `bench.*` spans, µs.
    pub bench_root_us: u64,
}

/// The layer a span belongs to, by name.
pub fn layer_of(span: &str) -> &'static str {
    if span.starts_with("bench.") {
        "bench (unattributed)"
    } else if span == "prover.normalize" {
        "rewrite"
    } else if span.starts_with("prover.") {
        "core"
    } else if span.starts_with("mc.") {
        "mc"
    } else if span.starts_with("persist.") {
        "persist"
    } else if span.starts_with("serve.") {
        "serve"
    } else {
        "other"
    }
}

struct Frame {
    name: String,
    child_us: u64,
}

impl SpanTable {
    /// Fold one stream of events (one sink, possibly many threads).
    pub fn add_stream(&mut self, events: &[TimedEvent]) {
        let mut stacks: BTreeMap<u64, Vec<Frame>> = BTreeMap::new();
        for timed in events {
            self.events += 1;
            match &timed.event {
                Event::SpanEnter { name } => stacks.entry(timed.tid).or_default().push(Frame {
                    name: name.clone(),
                    child_us: 0,
                }),
                Event::SpanExit { name, dur } => {
                    let stack = stacks.entry(timed.tid).or_default();
                    if stack.last().map(|f| &f.name) != Some(name) {
                        continue; // an exit whose enter was not recorded
                    }
                    let frame = stack.pop().expect("checked above");
                    let dur_us = dur.as_micros() as u64;
                    let stat = self.spans.entry(name.clone()).or_default();
                    stat.count += 1;
                    stat.total_us += dur_us;
                    stat.self_us += dur_us.saturating_sub(frame.child_us);
                    match stack.last_mut() {
                        Some(parent) => parent.child_us += dur_us,
                        None if name.starts_with("bench.") => self.bench_root_us += dur_us,
                        None => {}
                    }
                }
                Event::Counter { name, delta } => {
                    *self.counters.entry(name.clone()).or_default() += delta;
                }
                Event::Gauge { .. } => {}
            }
        }
    }

    /// Sum of counters whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Summed duration of spans named exactly `name`, µs.
    pub fn span_total_us(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.total_us)
    }

    /// Self time per layer, µs.
    pub fn layer_self_us(&self) -> BTreeMap<&'static str, u64> {
        let mut layers = BTreeMap::new();
        for (name, stat) in &self.spans {
            *layers.entry(layer_of(name)).or_default() += stat.self_us;
        }
        layers
    }

    /// The share of the benchmark's own top-level spans that program
    /// spans cover, or `None` when the run recorded none.
    pub fn coverage(&self) -> Option<f64> {
        if self.bench_root_us == 0 {
            return None;
        }
        let unattributed: u64 = self
            .spans
            .iter()
            .filter(|(name, _)| name.starts_with("bench."))
            .map(|(_, s)| s.self_us)
            .sum();
        Some(1.0 - unattributed as f64 / self.bench_root_us as f64)
    }

    /// The layer table, the coverage line and the `top` spans by self
    /// time, as text.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        let wall = self.bench_root_us.max(1) as f64;
        let _ = writeln!(out, "{:<28} {:>12} {:>8}", "layer", "self ms", "share");
        for (layer, us) in self.layer_self_us() {
            let _ = writeln!(
                out,
                "{layer:<28} {:>12.2} {:>7.1}%",
                us as f64 / 1e3,
                100.0 * us as f64 / wall
            );
        }
        match self.coverage() {
            Some(c) => {
                let _ = writeln!(
                    out,
                    "attributed {:.1}% of wall ({:.2} ms under bench spans)",
                    100.0 * c,
                    wall / 1e3
                );
            }
            None => {
                let _ = writeln!(out, "attributed n/a (no bench spans recorded)");
            }
        }
        let mut by_self: Vec<(&String, &SpanStat)> = self.spans.iter().collect();
        by_self.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));
        let _ = writeln!(
            out,
            "{:<40} {:>8} {:>12} {:>12}",
            "top self time", "count", "self ms", "total ms"
        );
        for (name, stat) in by_self.into_iter().take(top) {
            let _ = writeln!(
                out,
                "{name:<40} {:>8} {:>12.2} {:>12.2}",
                stat.count,
                stat.self_us as f64 / 1e3,
                stat.total_us as f64 / 1e3
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn enter(t_us: u64, tid: u64, name: &str) -> TimedEvent {
        TimedEvent {
            t_us,
            tid,
            event: Event::SpanEnter { name: name.into() },
        }
    }

    fn exit(t_us: u64, tid: u64, name: &str, dur_us: u64) -> TimedEvent {
        TimedEvent {
            t_us,
            tid,
            event: Event::SpanExit {
                name: name.into(),
                dur: Duration::from_micros(dur_us),
            },
        }
    }

    /// bench.op [0,1000) ⊃ prover.obligation:a [100,700) ⊃
    /// prover.normalize [200,500) and [550,650); a second thread runs
    /// prover.obligation:b [0,400) with no parent.
    #[test]
    fn self_time_subtracts_exactly_the_children() {
        let events = vec![
            enter(0, 1, "bench.op"),
            enter(0, 2, "prover.obligation:b"),
            enter(100, 1, "prover.obligation:a"),
            enter(200, 1, "prover.normalize"),
            exit(500, 1, "prover.normalize", 300),
            exit(400, 2, "prover.obligation:b", 400),
            enter(550, 1, "prover.normalize"),
            TimedEvent {
                t_us: 600,
                tid: 1,
                event: Event::Counter {
                    name: "rule.time_us:x".into(),
                    delta: 7,
                },
            },
            exit(650, 1, "prover.normalize", 100),
            exit(700, 1, "prover.obligation:a", 600),
            exit(1000, 1, "bench.op", 1000),
        ];
        let mut table = SpanTable::default();
        table.add_stream(&events);
        let stat = |n: &str| table.spans[n];
        assert_eq!(
            stat("prover.normalize"),
            SpanStat {
                count: 2,
                total_us: 400,
                self_us: 400
            }
        );
        assert_eq!(stat("prover.obligation:a").self_us, 200);
        assert_eq!(stat("prover.obligation:b").self_us, 400);
        assert_eq!(stat("bench.op").self_us, 400);
        assert_eq!(table.bench_root_us, 1000);
        assert_eq!(table.coverage(), Some(0.6));
        let layers = table.layer_self_us();
        assert_eq!(layers["rewrite"], 400);
        assert_eq!(layers["core"], 600);
        assert_eq!(layers["bench (unattributed)"], 400);
        assert_eq!(table.counter_sum("rule.time_us:"), 7);
        assert_eq!(table.events, 11);
        assert!(table.render(3).contains("attributed 60.0% of wall"));
    }

    #[test]
    fn unmatched_exits_are_ignored() {
        let mut table = SpanTable::default();
        table.add_stream(&[exit(5, 1, "bench.op", 5)]);
        assert!(table.spans.is_empty());
        assert_eq!(table.coverage(), None);
    }
}
