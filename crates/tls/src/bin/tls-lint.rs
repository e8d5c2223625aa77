//! Static-analysis gate: lint every shipped equation set.
//!
//! ```text
//! cargo run --release -p equitls-tls --bin tls-lint
//! cargo run --release -p equitls-tls --bin tls-lint -- --json
//! cargo run --release -p equitls-tls --bin tls-lint -- bool fixtures
//! cargo run --release -p equitls-tls --bin tls-lint -- --jobs 4 --cache lint.snap
//! cargo run --release -p equitls-tls --bin tls-lint -- --sarif out.sarif --graph deps.dot
//! ```
//!
//! Targets (all by default; name them to filter):
//!
//! * `bool` — the Hsiang–Dershowitz `BOOL` rewrite system;
//! * `eq` — the constructor-equality decision procedure;
//! * `standard` / `variant` — the two symbolic TLS models;
//! * `fixtures` — the deliberately broken systems from
//!   `equitls_tls::mutants::LintFixture`, which must come back *denied*
//!   (the gate fails if the linter misses a seeded flaw).
//!
//! Flags:
//!
//! * `--jobs N` — worker threads for critical-pair joinability (default 1,
//!   `0` = all cores). The report is identical at every level (each pair
//!   is judged independently).
//! * `--cache PATH` — incremental analysis: load a pass-result snapshot,
//!   skip passes whose fingerprinted inputs are unchanged, save back.
//!   Stats go to stderr so stdout is byte-identical cold vs. warm; a
//!   corrupt cache is reported on stderr and the run continues cold.
//! * `--sarif PATH` — write every report as one SARIF 2.1.0 log.
//! * `--graph PATH` — write the first spec target's operator dependency
//!   graph as Graphviz DOT (for the TLS models the reachability roots are
//!   the observers, the transitions, and every operator an invariant
//!   mentions).
//!
//! Exit status: `0` when every shipped set is deny-free **and** every
//! fixture is denied for its seeded reason; `1` otherwise; `2` on usage
//! errors. `--json` prints one JSON object with per-target reports
//! (rendered by `equitls-obs`, no external dependencies).

use equitls_core::prelude::InvariantSet;
use equitls_kernel::op::OpKind;
use equitls_kernel::prelude::OpId;
use equitls_kernel::signature::Signature;
use equitls_kernel::term::{Term, TermStore};
use equitls_lint::cache::LintCache;
use equitls_lint::{
    analyze_spec, analyze_system, deps, sarif, AnalysisOptions, AnalysisOutcome, LintCode,
    LintConfig, LintReport, Severity,
};
use equitls_obs::json::JsonValue;
use equitls_obs::sink::Obs;
use equitls_rewrite::bool_alg::BoolAlg;
use equitls_rewrite::bool_rules::hd_bool_rules;
use equitls_rewrite::par::on_big_stack;
use equitls_spec::spec::Spec;
use equitls_tls::mutants::LintFixture;
use equitls_tls::TlsModel;
use std::path::PathBuf;

fn main() {
    on_big_stack(run);
}

/// The constructor-equality decision procedure as a rewrite system: the
/// shape every `_=_` in the TLS data modules follows (reflexivity by a
/// non-linear rule, clashes between distinct constructors, injectivity
/// of compound constructors).
const EQ_PROCEDURE: &str = r#"
mod! EQPROC {
  [ Data ]
  op na : -> Data {constr} .
  op nb : -> Data {constr} .
  op pair : Data Data -> Data {constr} .
  vars X Y Z W : Data .
  eq [eq-refl] : (X = X) = true .
  eq [eq-na-nb] : (na = nb) = false .
  eq [eq-nb-na] : (nb = na) = false .
  eq [eq-pair] : (pair(X, Y) = pair(Z, W)) = (X = Z) and (Y = W) .
  eq [eq-na-pair] : (na = pair(X, Y)) = false .
  eq [eq-pair-na] : (pair(X, Y) = na) = false .
  eq [eq-nb-pair] : (nb = pair(X, Y)) = false .
  eq [eq-pair-nb] : (pair(X, Y) = nb) = false .
}
"#;

/// What a target's report must look like for the gate to pass.
enum Expectation {
    /// No deny-level findings.
    Clean,
    /// At least one deny-level finding with this code (fixture self-test).
    DeniedWith(LintCode),
}

struct TargetOutcome {
    report: LintReport,
    expectation: Expectation,
    /// DOT rendering of the dependency graph, for `--graph`.
    dot: Option<String>,
    passes_analyzed: usize,
    passes_reused: usize,
}

impl TargetOutcome {
    fn passed(&self) -> bool {
        match self.expectation {
            Expectation::Clean => !self.report.has_deny(),
            Expectation::DeniedWith(code) => self
                .report
                .with_code(code)
                .iter()
                .any(|d| d.severity == Severity::Deny),
        }
    }

    fn from_analysis(outcome: AnalysisOutcome, expectation: Expectation) -> Self {
        TargetOutcome {
            report: outcome.report,
            expectation,
            dot: None,
            passes_analyzed: outcome.passes_analyzed,
            passes_reused: outcome.passes_reused,
        }
    }
}

/// Dependency-analysis roots of a TLS model: every observer and action in
/// the signature, plus every operator an invariant body mentions — the
/// terms `red` is actually asked to reduce during the proof scores.
fn model_roots(spec: &Spec, invariants: &InvariantSet) -> Vec<OpId> {
    let store = spec.store();
    let mut roots: Vec<OpId> = Vec::new();
    for (id, decl) in store.signature().ops() {
        if matches!(decl.attrs.kind, OpKind::Observer | OpKind::Action) {
            roots.push(id);
        }
    }
    for inv in invariants.iter() {
        for t in store.subterms(inv.body) {
            if let Term::App { op, .. } = store.node(t) {
                if !roots.contains(op) {
                    roots.push(*op);
                }
            }
        }
    }
    roots
}

fn spec_dot(spec: &Spec, roots: &[OpId], name: &str) -> String {
    let graph = deps::build_graph(spec.store(), spec.rules(), roots);
    deps::to_dot(spec.store(), &graph, name)
}

fn lint_bool(options: &AnalysisOptions, cache: Option<&mut LintCache>) -> TargetOutcome {
    let mut sig = Signature::new();
    let alg = BoolAlg::install(&mut sig).expect("fresh signature");
    let mut store = TermStore::new(sig);
    let rules = hd_bool_rules(&mut store, &alg).expect("HD BOOL builds");
    let outcome = analyze_system(
        &store,
        &alg,
        &rules,
        "BOOL (Hsiang-Dershowitz)",
        &LintConfig::new(),
        options,
        cache,
    );
    TargetOutcome::from_analysis(outcome, Expectation::Clean)
}

fn lint_eq_procedure(options: &AnalysisOptions, cache: Option<&mut LintCache>) -> TargetOutcome {
    let mut spec = Spec::new().expect("fresh spec");
    spec.load_module(EQ_PROCEDURE).expect("EQPROC parses");
    let outcome = analyze_spec(
        &spec,
        "equality procedure (EQPROC)",
        &LintConfig::new(),
        options,
        cache,
    );
    let mut outcome = TargetOutcome::from_analysis(outcome, Expectation::Clean);
    outcome.dot = Some(spec_dot(&spec, &[], "EQPROC"));
    outcome
}

fn lint_model(
    variant: bool,
    options: &AnalysisOptions,
    cache: Option<&mut LintCache>,
) -> TargetOutcome {
    let (model, label) = if variant {
        (TlsModel::variant().expect("variant model"), "TLS (variant)")
    } else {
        (
            TlsModel::standard().expect("standard model"),
            "TLS (standard)",
        )
    };
    // Triaged: the model's data selectors are deliberately partial
    // functions. `rand`/`sid`/... project only the message constructor
    // they belong to, the session observers are undefined on `noSession`,
    // and the gleaning membership `_\in_` is defined only for the payload
    // sorts the proofs query. Stuck selector terms never arise in
    // reachable proof terms, so the missing cases are design, not gaps.
    let mut config = LintConfig::new();
    config.allow(
        LintCode::MissingCase,
        "selectors in the OTS model are partial by design; \
         they are only ever applied to their own constructors",
    );
    // Triaged: the data modules ship every projection of every compound
    // constructor for symmetry (`hk`, `owner`, `fi`, ...), but the proof
    // scores only query a subset, so the rest are unreachable from the
    // invariant/observer/action roots. Keep them visible in the census,
    // not as warnings.
    config.allow(
        LintCode::DeadRule,
        "unqueried data selectors are shipped for symmetry with the paper's \
         DATA modules; the proofs never reduce them",
    );
    let roots = model_roots(&model.spec, &model.invariants);
    let model_options = AnalysisOptions {
        jobs: options.jobs,
        roots: roots.clone(),
    };
    let outcome = analyze_spec(&model.spec, label, &config, &model_options, cache);
    let mut outcome = TargetOutcome::from_analysis(outcome, Expectation::Clean);
    outcome.dot = Some(spec_dot(&model.spec, &roots, label));
    outcome
}

fn lint_fixtures(
    options: &AnalysisOptions,
    mut cache: Option<&mut LintCache>,
) -> Vec<TargetOutcome> {
    LintFixture::all()
        .into_iter()
        .map(|fixture| {
            let spec = fixture.load().expect("fixture loads");
            let outcome = analyze_spec(
                &spec,
                fixture.name(),
                &fixture.config(),
                options,
                cache.as_deref_mut(),
            );
            TargetOutcome::from_analysis(outcome, Expectation::DeniedWith(fixture.expected_code()))
        })
        .collect()
}

const TARGET_NAMES: [&str; 5] = ["bool", "eq", "standard", "variant", "fixtures"];

const USAGE: &str = "usage: tls-lint [--json] [--jobs N] [--cache PATH] [--sarif PATH] \
                     [--graph PATH] [TARGET...]";

struct Cli {
    json: bool,
    jobs: usize,
    cache: Option<PathBuf>,
    sarif: Option<PathBuf>,
    graph: Option<PathBuf>,
    selected: Vec<String>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        json: false,
        jobs: 1,
        cache: None,
        sarif: None,
        graph: None,
        selected: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let path_flag =
            |name: &str, slot: &mut Option<PathBuf>, args: &mut dyn Iterator<Item = String>| {
                match args.next() {
                    Some(v) => *slot = Some(PathBuf::from(v)),
                    None => {
                        eprintln!("{name} needs a path\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            };
        match arg.as_str() {
            "--json" => cli.json = true,
            "--jobs" => {
                cli.jobs = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| {
                        eprintln!(
                            "--jobs needs a thread count (e.g. --jobs 4; 0 = all cores)\n{USAGE}"
                        );
                        std::process::exit(2);
                    });
            }
            "--cache" => path_flag("--cache", &mut cli.cache, &mut args),
            "--sarif" => path_flag("--sarif", &mut cli.sarif, &mut args),
            "--graph" => path_flag("--graph", &mut cli.graph, &mut args),
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
            name if TARGET_NAMES.contains(&name) => cli.selected.push(name.to_string()),
            other => {
                eprintln!(
                    "unknown target `{other}` (expected one of: {})",
                    TARGET_NAMES.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    cli
}

fn run() {
    let cli = parse_cli();
    let want = |name: &str| cli.selected.is_empty() || cli.selected.iter().any(|s| s == name);
    let options = AnalysisOptions {
        jobs: cli.jobs,
        roots: Vec::new(),
    };
    let obs = Obs::noop();

    // A corrupt or unreadable cache must never take the gate down: warn
    // on stderr and run cold.
    let mut cache = match &cli.cache {
        None => None,
        Some(path) if path.exists() => match LintCache::load(path, &obs) {
            Ok(cache) => Some(cache),
            Err(err) => {
                eprintln!(
                    "tls-lint: warning: lint cache {} is unusable ({err}); running cold",
                    path.display()
                );
                Some(LintCache::new())
            }
        },
        Some(_) => Some(LintCache::new()),
    };

    let mut outcomes = Vec::new();
    if want("bool") {
        outcomes.push(lint_bool(&options, cache.as_mut()));
    }
    if want("eq") {
        outcomes.push(lint_eq_procedure(&options, cache.as_mut()));
    }
    if want("standard") {
        outcomes.push(lint_model(false, &options, cache.as_mut()));
    }
    if want("variant") {
        outcomes.push(lint_model(true, &options, cache.as_mut()));
    }
    if want("fixtures") {
        outcomes.extend(lint_fixtures(&options, cache.as_mut()));
    }

    if let (Some(cache), Some(path)) = (&cache, &cli.cache) {
        let analyzed: usize = outcomes.iter().map(|o| o.passes_analyzed).sum();
        let reused: usize = outcomes.iter().map(|o| o.passes_reused).sum();
        eprintln!("tls-lint: lint cache: {reused} passes reused, {analyzed} analyzed");
        // A failed cache write degrades the *next* run to cold — this
        // run's findings are already complete, so warn and continue
        // rather than abort the campaign.
        if let Err(err) = cache.save(path, &obs) {
            obs.counter("persist.snapshot_failed", 1);
            eprintln!(
                "tls-lint: warning: cannot write lint cache {} ({err}); next run starts cold",
                path.display()
            );
        }
    }

    if let Some(path) = &cli.sarif {
        let reports: Vec<&LintReport> = outcomes.iter().map(|o| &o.report).collect();
        let log = sarif::to_sarif(&reports).to_string();
        if let Err(err) = std::fs::write(path, log) {
            eprintln!("tls-lint: cannot write SARIF log {}: {err}", path.display());
            std::process::exit(2);
        }
    }

    if let Some(path) = &cli.graph {
        let Some(dot) = outcomes.iter().find_map(|o| o.dot.as_ref()) else {
            eprintln!("tls-lint: --graph needs a spec target (eq, standard, or variant)");
            std::process::exit(2);
        };
        if let Err(err) = std::fs::write(path, dot) {
            eprintln!("tls-lint: cannot write graph {}: {err}", path.display());
            std::process::exit(2);
        }
    }

    let all_passed = outcomes.iter().all(TargetOutcome::passed);
    if cli.json {
        let targets = outcomes
            .iter()
            .map(|o| {
                let mut obj = match o.report.to_json() {
                    JsonValue::Object(fields) => fields,
                    _ => unreachable!("reports render as objects"),
                };
                let expectation = match o.expectation {
                    Expectation::Clean => "clean".to_string(),
                    Expectation::DeniedWith(code) => format!("denied-with:{code}"),
                };
                obj.push(("expectation".to_string(), JsonValue::String(expectation)));
                obj.push(("passed".to_string(), JsonValue::Bool(o.passed())));
                JsonValue::Object(obj)
            })
            .collect();
        let doc = JsonValue::Object(vec![
            ("targets".to_string(), JsonValue::Array(targets)),
            ("passed".to_string(), JsonValue::Bool(all_passed)),
        ]);
        println!("{doc}");
    } else {
        for o in &outcomes {
            print!("{}", o.report);
            let verdict = if o.passed() { "PASS" } else { "FAIL" };
            let expect = match o.expectation {
                Expectation::Clean => "expected deny-free".to_string(),
                Expectation::DeniedWith(code) => {
                    format!("expected deny-level `{code}`")
                }
            };
            println!("  -> {verdict} ({expect})");
            println!();
        }
        let summary = if all_passed { "clean" } else { "FAILED" };
        println!("tls-lint: {} target(s), gate {summary}", outcomes.len());
    }
    std::process::exit(if all_passed { 0 } else { 1 });
}
