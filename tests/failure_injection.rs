//! Failure injection: flawed protocol variants must make specific
//! properties fail (see `equitls::tls::mutants`).
//!
//! For every mutant: the expected properties stop proving, the failure
//! localizes to the injected transition, and a control property still
//! proves. A verifier that proves everything is worthless; this is the
//! soundness smoke test.

use equitls::core::prelude::{Hints, Prover};
use equitls::rewrite::par::on_big_stack;
use equitls::tls::mutants::Mutant;
use equitls::tls::{verify, TlsModel};

fn hints_for(name: &str) -> Hints {
    let mut hints = Hints::new();
    if let Some(plan) = verify::plan(name) {
        for lemma in plan.lemmas {
            hints = hints.lemma(name, lemma);
        }
    }
    hints
}

#[test]
fn every_mutant_breaks_its_expected_properties_and_nothing_more() {
    on_big_stack(|| {
        for mutant in Mutant::all() {
            let mut model = TlsModel::standard().unwrap();
            let ots = mutant.inject(&mut model).unwrap();
            let config = verify::prover_config(&model);
            let mut prover =
                Prover::new(&mut model.spec, &ots, &model.invariants).with_config(config);

            for name in mutant.expected_failures() {
                let report = prover.prove_inductive(name, &hints_for(name)).unwrap();
                assert!(!report.is_proved(), "{mutant:?}: {name} must fail");
                let open = report.open_cases();
                assert!(
                    open.iter()
                        .any(|(action, _)| action == mutant.transition_name()),
                    "{mutant:?}: {name}'s failure must localize to {}: {open:?}",
                    mutant.transition_name()
                );
            }

            let control = mutant.control_property();
            let report = prover
                .prove_inductive(control, &hints_for(control))
                .unwrap();
            assert!(
                report.is_proved(),
                "{mutant:?}: control property {control} must still prove; open: {:#?}",
                report.open_cases()
            );
        }
    });
}
