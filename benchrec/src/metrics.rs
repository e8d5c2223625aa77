//! The metric registry: every name the benchmark reports, with its unit,
//! and the final result line.

use std::collections::BTreeMap;

use crate::oracle::PROPERTIES;

/// End-to-end metrics, reported by every untraced run: name, unit, and
/// the power of time in the unit (how the metric scales with the host's
/// speed, see `host.rs`).
pub const END_TO_END: [(&str, &str, i32); 7] = [
    ("setup_s", "s", 1),
    ("wall_s.j1", "s", 1),
    ("wall_s.jN", "s", 1),
    ("peak_rss_mb", "MB", 0),
    ("latency_p50_ms", "ms", 1),
    ("latency_p90_ms", "ms", 1),
    ("req_per_s", "1/s", -1),
];

/// Per-layer metrics, reported by every traced run. A layer the workload
/// does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    push("spec.build_ms.standard", "ms");
    push("spec.build_ms.variant", "ms");
    for property in PROPERTIES {
        push(&format!("core.property_ms.{property}"), "ms");
    }
    for name in [
        "core.obligations",
        "core.passages",
        "core.splits",
        "core.max_depth",
    ] {
        push(name, "count");
    }
    push("core.obligation_p50_ms", "ms");
    push("core.obligation_p98_ms", "ms");
    push("core.busy_frac.jN", "frac");
    for name in [
        "rewrite.rewrites",
        "rewrite.cache_hits",
        "rewrite.cache_misses",
    ] {
        push(name, "count");
    }
    push("rewrite.cache_hit_rate", "frac");
    for name in [
        "rewrite.bool_normalizations",
        "rewrite.eq_decisions",
        "rewrite.blocked_conditions",
        "rewrite.cache_evictions",
        "rewrite.index_lookups",
        "rewrite.index_candidates",
        "rewrite.index_pruned",
        "rewrite.rule_attempts",
    ] {
        push(name, "count");
    }
    push("rewrite.normalize_ms", "ms");
    push("rewrite.normalize_unattributed_frac", "frac");
    push("mc.states", "count");
    push("mc.dedup_hits", "count");
    push("mc.dedup_hit_rate", "frac");
    for name in [
        "mc.succ_ms.j1",
        "mc.succ_ms.jN",
        "mc.dedup_ms.j1",
        "mc.dedup_ms.jN",
    ] {
        push(name, "ms");
    }
    push("mc.merge_frac.jN", "frac");
    push("mc.spill_shards", "count");
    push("mc.spill_bytes", "bytes");
    push("mc.spill_reloads", "count");
    push("persist.write_ms", "ms");
    push("persist.load_ms", "ms");
    push("serve.queue_wait_ms.p50", "ms");
    push("serve.exec_ms.prove.p50", "ms");
    push("serve.exec_ms.check.p50", "ms");
    push("serve.exec_ms.lint.p50", "ms");
    for name in [
        "serve.busy",
        "serve.model_builds",
        "serve.model_reuses",
        "serve.worker_restarts",
        "serve.shared_nf_hits",
        "serve.shared_nf_published",
    ] {
        push(name, "count");
    }
    push("obs.overhead_frac", "frac");
    push("obs.events", "count");
    push("obs.dropped_events", "count");
    push("host.probe_ms", "ms");
    out
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Record `value` under `name` (the last write wins).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Scale every end-to-end timing by `factor` (rates by its
    /// inverse) and return the raw values as `(name, unit, raw)`.
    pub fn scale_times(&mut self, factor: f64) -> Vec<(&'static str, &'static str, f64)> {
        let mut raw = Vec::new();
        for (name, unit, power) in END_TO_END {
            if power == 0 {
                continue;
            }
            if let Some(value) = self.values.get_mut(name) {
                raw.push((name, unit, *value));
                *value *= factor.powi(power);
            }
        }
        raw
    }

    /// The metric set a run reports: `(name, unit, value)` for every
    /// registered name, or the names the workload failed to measure.
    pub fn select(&self, trace: bool) -> Result<Vec<(String, &'static str, f64)>, Vec<String>> {
        let registry: Vec<(String, &'static str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u, _)| (n.to_string(), *u))
                .collect()
        };
        let mut missing = Vec::new();
        let mut out = Vec::new();
        for (name, unit) in registry {
            match self.get(&name) {
                Some(v) if v.is_finite() => out.push((name, unit, v)),
                _ => missing.push(name),
            }
        }
        if missing.is_empty() {
            Ok(out)
        } else {
            Err(missing)
        }
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &'static str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use equitls_obs::json::{self, JsonValue};

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let Some(JsonValue::Array(items)) = doc.get(section) else {
            panic!("BENCHMARK.json has no `{section}` list");
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_metric_names_match_the_benchmark_file() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn result_line_parses_and_carries_every_value() {
        let mut m = Metrics::default();
        for (name, _, _) in END_TO_END {
            m.set(name, 1.25);
        }
        let selected = m.select(false).expect("all set");
        let line = result_line(true, 3, 0, &selected);
        let doc = json::parse(&line).expect("parses");
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_f64), Some(3.0));
        let v = doc
            .get("metrics")
            .and_then(|m| m.get("wall_s.jN"))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64);
        assert_eq!(v, Some(1.25));
        assert_eq!(m.select(true).unwrap_err().len(), per_layer().len());
    }

    #[test]
    fn scaling_to_the_reference_host_spares_memory_and_inverts_rates() {
        let mut m = Metrics::default();
        for (name, _, _) in END_TO_END {
            m.set(name, 4.0);
        }
        let raw = m.scale_times(0.5);
        assert_eq!(raw.len(), END_TO_END.len() - 1);
        assert!(raw.iter().all(|r| r.2 == 4.0));
        assert_eq!(m.get("wall_s.j1"), Some(2.0));
        assert_eq!(m.get("setup_s"), Some(2.0));
        assert_eq!(m.get("req_per_s"), Some(8.0));
        assert_eq!(m.get("peak_rss_mb"), Some(4.0));
    }
}
