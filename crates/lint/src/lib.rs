//! `equitls-lint` — whole-spec static analysis of rewrite systems.
//!
//! The OTS/CafeOBJ method reads equations as left-to-right rewrite rules
//! and trusts `red` to decide equality. That trust rests on properties of
//! the rule set that the prover itself never checks: **termination** (every
//! reduction halts), **local confluence** (the normal form does not depend
//! on rule order), and **sufficient completeness** (defined operators
//! reduce on every constructor input). This crate checks them statically —
//! along with whole-spec semantic properties — and reports findings as
//! structured diagnostics:
//!
//! * [`termination`] — direct-loop detection plus a searched
//!   lexicographic-path-order precedence that orients every rule;
//! * [`confluence`] — Knuth–Bendix critical pairs, joined through the
//!   workspace's own rewrite engine, with mutually-exclusive conditional
//!   pairs pruned through the GF(2) ring; joinability parallelizes across
//!   worker threads with a jobs-invariant report;
//! * [`coverage`] — Maranget-style pattern-matrix completeness of each
//!   rule-defined operator over its constructor generators;
//! * [`style`] — duplicate and shadowed rules, non-linear left-hand
//!   sides, unused declarations, trivially true/false conditions;
//! * [`deps`] — the operator/rule dependency graph: SCC condensation,
//!   stratification layers, and dead rules unreachable from the analysis
//!   roots (observers, actions, `{root}`-marked operators), exportable as
//!   Graphviz DOT;
//! * [`vars`] — variable and sort discipline: quarantined non-executable
//!   equations, collapsing rules, unused declared variables.
//!
//! Findings carry stable [`LintCode`]s and [`Severity`] levels
//! (`deny`/`warn`/`allow`), overridable per code — with a recorded
//! justification — through [`LintConfig`], and render to SARIF 2.1.0
//! through [`sarif`]. Analyses never mutate the caller's store: the
//! drivers clone it into a scratch arena first.
//!
//! The pass drivers are **incremental**: with a [`cache::LintCache`]
//! attached, each pass's inputs are fingerprinted (content hashes of the
//! canonical rule and signature renderings, never store indices) and
//! passes whose inputs are bit-identical to a cached run replay their
//! stored results instead of re-analyzing. [`analyze_system`] covers a
//! raw signature-plus-rules pair; [`analyze_spec`] covers a loaded
//! specification, attaching source spans before results are cached so
//! replays are byte-identical. [`lint_system`] / [`lint_spec`] are the
//! uncached convenience forms. The `tls-lint` binary (in `equitls-tls`)
//! drives everything over every shipped equation set.

pub mod cache;
pub mod confluence;
pub mod coverage;
pub mod deps;
pub mod diagnostics;
pub mod sarif;
pub mod style;
pub mod termination;
pub mod vars;

pub use crate::diagnostics::{Diagnostic, LintCode, LintConfig, LintReport, Severity};

use crate::cache::{
    fingerprint_config, fingerprint_roots, fingerprint_rules, fingerprint_signature,
    fingerprint_vars_input, pass_input_hash, CacheEntry, LintCache,
};
use crate::vars::VarsInput;
use equitls_kernel::prelude::OpId;
use equitls_kernel::term::TermStore;
use equitls_rewrite::bool_alg::BoolAlg;
use equitls_rewrite::rule::RuleSet;
use equitls_spec::spec::Spec;

/// The analysis passes, in the order they run and report.
pub const PASSES: [&str; 6] = [
    "termination",
    "confluence",
    "coverage",
    "style",
    "deps",
    "vars",
];

/// Knobs for the pass drivers.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Worker threads for critical-pair joinability, `0` = all cores (the
    /// report is identical at every level; see
    /// [`confluence::check_confluence`]).
    pub jobs: usize,
    /// Additional dependency-analysis roots, merged with the spec's
    /// `{root}`-marked operators.
    pub roots: Vec<OpId>,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            jobs: 1,
            roots: Vec::new(),
        }
    }
}

/// What a driver run did: the report plus the cold/warm split.
#[derive(Debug)]
pub struct AnalysisOutcome {
    /// The merged report of every pass.
    pub report: LintReport,
    /// Passes that actually ran.
    pub passes_analyzed: usize,
    /// Passes replayed from the cache.
    pub passes_reused: usize,
}

/// The shared pass loop. `scratch` is already a private clone; `spans`
/// carries the spec whose source spans get attached to findings *before*
/// they are cached, so cache replays are byte-identical to cold runs.
#[allow(clippy::too_many_arguments)]
fn run_analysis(
    scratch: &mut TermStore,
    alg: &BoolAlg,
    rules: &RuleSet,
    target: &str,
    config: &LintConfig,
    jobs: usize,
    roots: &[OpId],
    vars_input: &VarsInput<'_>,
    spans: Option<&Spec>,
    mut cache: Option<&mut LintCache>,
) -> AnalysisOutcome {
    let rules_h = fingerprint_rules(scratch, rules);
    let sig_h = fingerprint_signature(scratch);
    let config_h = fingerprint_config(config);
    let roots_h = fingerprint_roots(scratch, roots);
    let vars_h = fingerprint_vars_input(vars_input.quarantined, &vars_input.module_vars);

    let mut report = LintReport::new(target);
    let mut analyzed = 0usize;
    let mut reused = 0usize;
    for pass in PASSES {
        // `jobs` is deliberately absent from every fingerprint: the
        // determinism contract makes the report jobs-invariant.
        let components: &[u64] = match pass {
            "deps" => &[rules_h, sig_h, config_h, roots_h],
            "vars" => &[rules_h, sig_h, config_h, vars_h],
            _ => &[rules_h, sig_h, config_h],
        };
        let input_hash = pass_input_hash(pass, components);
        let key = format!("{target}/{pass}");
        if let Some(entry) = cache.as_deref().and_then(|c| c.lookup(&key, input_hash)) {
            LintCache::replay(entry, &mut report);
            reused += 1;
            continue;
        }
        let mut sub = LintReport::new(target);
        match pass {
            "termination" => {
                termination::check_termination(scratch, rules, config, &mut sub);
            }
            "confluence" => {
                confluence::check_confluence(scratch, alg, rules, config, &mut sub, jobs);
            }
            "coverage" => {
                coverage::check_coverage(scratch, rules, config, &mut sub);
            }
            "style" => {
                style::check_style(scratch, alg, rules, config, &mut sub);
            }
            "deps" => {
                deps::check_deps(scratch, rules, roots, config, &mut sub);
            }
            "vars" => vars::check_vars(scratch, rules, vars_input, config, &mut sub),
            _ => unreachable!("pass list is exhaustive"),
        }
        if let Some(spec) = spans {
            for d in &mut sub.diagnostics {
                if d.span.is_none() {
                    if let Some(label) = &d.rule {
                        d.span = spec.equation_span(label);
                    }
                }
            }
        }
        if let Some(c) = cache.as_deref_mut() {
            c.insert(
                key,
                CacheEntry {
                    input_hash,
                    diagnostics: sub.diagnostics.clone(),
                    notes: sub.notes.clone(),
                },
            );
        }
        report.diagnostics.extend(sub.diagnostics);
        report.notes.extend(sub.notes);
        analyzed += 1;
    }
    AnalysisOutcome {
        report,
        passes_analyzed: analyzed,
        passes_reused: reused,
    }
}

/// Run every analysis pass over `rules` in `store`, labeling the report
/// with `target`. The caller's store is cloned, never mutated.
pub fn analyze_system(
    store: &TermStore,
    alg: &BoolAlg,
    rules: &RuleSet,
    target: &str,
    config: &LintConfig,
    options: &AnalysisOptions,
    cache: Option<&mut LintCache>,
) -> AnalysisOutcome {
    let mut scratch = store.clone();
    run_analysis(
        &mut scratch,
        alg,
        rules,
        target,
        config,
        options.jobs,
        &options.roots,
        &VarsInput::default(),
        None,
        cache,
    )
}

/// Analyze a loaded specification: every installed equation plus the
/// loader's quarantine, with source spans attached to findings about
/// parsed equations. The spec's `{root}`-marked operators join
/// `options.roots` as dependency-analysis roots.
pub fn analyze_spec(
    spec: &Spec,
    target: &str,
    config: &LintConfig,
    options: &AnalysisOptions,
    cache: Option<&mut LintCache>,
) -> AnalysisOutcome {
    let mut scratch = spec.store().clone();
    let mut roots = options.roots.clone();
    for &r in spec.root_ops() {
        if !roots.contains(&r) {
            roots.push(r);
        }
    }
    let module_vars: Vec<(&str, &[String])> = spec
        .modules()
        .iter()
        .map(|m| (m.name.as_str(), m.vars.as_slice()))
        .collect();
    let vars_input = VarsInput {
        quarantined: spec.quarantined(),
        module_vars,
    };
    run_analysis(
        &mut scratch,
        &spec.alg().clone(),
        spec.rules(),
        target,
        config,
        options.jobs,
        &roots,
        &vars_input,
        Some(spec),
        cache,
    )
}

/// Uncached [`analyze_system`], returning just the report.
pub fn lint_system(
    store: &TermStore,
    alg: &BoolAlg,
    rules: &RuleSet,
    target: &str,
    config: &LintConfig,
) -> LintReport {
    analyze_system(
        store,
        alg,
        rules,
        target,
        config,
        &AnalysisOptions::default(),
        None,
    )
    .report
}

/// Uncached [`analyze_spec`], returning just the report.
pub fn lint_spec(spec: &Spec, target: &str, config: &LintConfig) -> LintReport {
    analyze_spec(spec, target, config, &AnalysisOptions::default(), None).report
}

#[cfg(test)]
mod tests {
    use super::*;
    use equitls_kernel::signature::Signature;
    use equitls_rewrite::bool_rules::hd_bool_rules;

    #[test]
    fn full_lint_of_hd_bool_has_no_warnings_or_errors() {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let mut store = TermStore::new(sig);
        let rules = hd_bool_rules(&mut store, &alg).unwrap();
        let config = LintConfig::new();
        let report = lint_system(&store, &alg, &rules, "BOOL", &config);
        assert_eq!(report.count(Severity::Deny), 0, "{report}");
        assert_eq!(report.count(Severity::Warn), 0, "{report}");
        // Termination, confluence, coverage, deps, and vars each leave a
        // proof/census note.
        assert_eq!(report.notes.len(), 5, "{report}");
        assert!(!report.has_deny());
        let json = report.to_json();
        assert_eq!(json.get("deny").and_then(|v| v.as_f64()), Some(0.0));
    }

    #[test]
    fn analysis_never_mutates_the_callers_store() {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let mut store = TermStore::new(sig);
        let rules = hd_bool_rules(&mut store, &alg).unwrap();
        let before = store.term_count();
        let config = LintConfig::new();
        let _ = lint_system(&store, &alg, &rules, "BOOL", &config);
        assert_eq!(
            store.term_count(),
            before,
            "lint must work on a scratch clone, not the caller's arena"
        );

        let mut spec = Spec::new().unwrap();
        spec.load_module(
            r#"
            mod! FROZEN {
              [ F ]
              op z : -> F {constr} .
              op s : F -> F {constr} .
              op dbl : F -> F .
              var X : F .
              eq [dbl-z] : dbl(z) = z .
              eq [dbl-s] : dbl(s(X)) = s(s(dbl(X))) .
            }
            "#,
        )
        .unwrap();
        let before = spec.store().term_count();
        let _ = lint_spec(&spec, "FROZEN", &config);
        assert_eq!(spec.store().term_count(), before);
    }

    #[test]
    fn warm_cache_reuses_every_pass_with_an_identical_report() {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let mut store = TermStore::new(sig);
        let rules = hd_bool_rules(&mut store, &alg).unwrap();
        let config = LintConfig::new();
        let options = AnalysisOptions::default();
        let mut cache = LintCache::new();
        let cold = analyze_system(
            &store,
            &alg,
            &rules,
            "BOOL",
            &config,
            &options,
            Some(&mut cache),
        );
        assert_eq!(cold.passes_analyzed, PASSES.len());
        assert_eq!(cold.passes_reused, 0);
        assert_eq!(cache.len(), PASSES.len());
        let warm = analyze_system(
            &store,
            &alg,
            &rules,
            "BOOL",
            &config,
            &options,
            Some(&mut cache),
        );
        assert_eq!(warm.passes_analyzed, 0);
        assert_eq!(warm.passes_reused, PASSES.len());
        assert_eq!(format!("{}", cold.report), format!("{}", warm.report));
        // Touching the configuration invalidates every pass.
        let mut strict = LintConfig::new();
        strict.set_severity(LintCode::CollapsingRule, Severity::Warn, "audit");
        let cold2 = analyze_system(
            &store,
            &alg,
            &rules,
            "BOOL",
            &strict,
            &options,
            Some(&mut cache),
        );
        assert_eq!(cold2.passes_reused, 0);
    }

    #[test]
    fn config_overrides_downgrade_and_record_justification() {
        let mut sig = Signature::new();
        let alg = BoolAlg::install(&mut sig).unwrap();
        let mut store = TermStore::new(sig);
        let tt = alg.tt(&mut store);
        let looped = store.app(alg.not_op(), &[tt]).unwrap();
        let mut rules = RuleSet::new();
        rules.add(&store, "loop", tt, looped, None, None).unwrap();
        let mut config = LintConfig::new();
        config.allow(LintCode::TerminationLoop, "fixture exercises the loop lint");
        let report = lint_system(&store, &alg, &rules, "fixture", &config);
        let loops = report.with_code(LintCode::TerminationLoop);
        assert!(!loops.is_empty());
        assert!(loops.iter().all(|d| d.severity == Severity::Allow));
        assert!(loops[0]
            .justification
            .as_deref()
            .is_some_and(|j| j.contains("fixture")));
        assert!(!report.has_deny());
    }

    #[test]
    fn lint_spec_attaches_source_spans() {
        let mut spec = Spec::new().unwrap();
        spec.load_module(
            r#"
            mod! SPANT {
              [ S ]
              op a : -> S {constr} .
              op b : -> S {constr} .
              op f : S -> S .
              var X : S .
              eq [first] : f(X) = a .
              eq [copy] : f(X) = a .
            }
            "#,
        )
        .unwrap();
        let config = LintConfig::new();
        let report = lint_spec(&spec, "SPANT", &config);
        let dups = report.with_code(LintCode::DuplicateRule);
        assert_eq!(dups.len(), 1, "{report}");
        assert_eq!(dups[0].rule.as_deref(), Some("copy"));
        let span = dups[0].span.expect("parsed equations carry spans");
        assert!(span.line > 0 && span.column > 0);
        // The span must survive into the JSON rendering.
        let json = report.to_json();
        assert!(json.to_string().contains("\"span\""));
    }

    #[test]
    fn cached_spec_findings_replay_with_their_spans() {
        let mut spec = Spec::new().unwrap();
        spec.load_module(
            r#"
            mod! SPANC {
              [ S ]
              op a : -> S {constr} .
              op f : S -> S .
              var X : S .
              eq [first] : f(X) = a .
              eq [copy] : f(X) = a .
            }
            "#,
        )
        .unwrap();
        let config = LintConfig::new();
        let options = AnalysisOptions::default();
        let mut cache = LintCache::new();
        let cold = analyze_spec(&spec, "SPANC", &config, &options, Some(&mut cache));
        let warm = analyze_spec(&spec, "SPANC", &config, &options, Some(&mut cache));
        assert_eq!(warm.passes_reused, PASSES.len());
        let warm_dups = warm.report.with_code(LintCode::DuplicateRule);
        assert!(warm_dups[0].span.is_some(), "spans survive the cache");
        assert_eq!(format!("{}", cold.report), format!("{}", warm.report));
    }
}
