//! The hand-written oracle every verdict is checked against.
//!
//! The numbers come from the paper and from the bounded-check tables the
//! reproduction documents — never from the code under test (no
//! `expected_outcomes()`, no `PLANS`): a regression that changed a
//! verdict and its own expectation together would still be caught here.
//!
//! * §5: all eighteen proof scores — the five main properties and the
//!   thirteen auxiliary lemmas — are PROVED, on the standard protocol and
//!   on the §5.3 variant alike.
//! * §5.3/§6: in every bounded scope, properties 1–5 hold and 2′/3′ are
//!   violated. The symmetry-reduced state counts of the scopes are pinned
//!   exactly.

/// The eighteen properties the campaign proves, in campaign order.
pub const PROPERTIES: [&str; 18] = [
    "lem-src-honest",
    "lem-cepms-cpms",
    "lem-kx-shape",
    "lem-cf-shape",
    "lem-sf-shape",
    "lem-secret-us",
    "lem-rand-ur",
    "inv1",
    "lem-esfin-origin",
    "lem-esfin2-origin",
    "lem-ecfin-origin",
    "lem-ecfin2-origin",
    "lem-sf-session",
    "lem-sf2-session",
    "inv2",
    "inv3",
    "inv4",
    "inv5",
];

/// Monitors of properties 1–5, which hold in every scope.
pub const HOLD: [&str; 5] = [
    "prop1-pms-secrecy",
    "prop2-sf-authentic",
    "prop3-sf2-authentic",
    "prop4-sh-ct-authentic",
    "prop5-sh2-authentic",
];

/// Monitors of properties 2′ and 3′, violated in every scope.
pub const VIOLATED: [&str; 2] = ["prop2p-cf-authentic", "prop3p-cf2-authentic"];

/// Which concrete scope a bounded check explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// One client, one server, the intruder as a second client (§5.3).
    Counterexample,
    /// Two clients, one server: the Murφ configuration of §6.
    Mitchell,
}

/// One bounded check and its exact symmetry-reduced state count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeCase {
    /// Short name used in metric and span names.
    pub id: &'static str,
    /// The scope family.
    pub family: Family,
    /// Network-size bound; the BFS depth bound is one more.
    pub bound: usize,
    /// States the complete search visits.
    pub states: usize,
}

/// The scopes of the explore workloads, in run order.
pub const SCOPES: [ScopeCase; 4] = [
    ScopeCase {
        id: "ce-b1",
        family: Family::Counterexample,
        bound: 1,
        states: 55,
    },
    ScopeCase {
        id: "ce-b2",
        family: Family::Counterexample,
        bound: 2,
        states: 2_443,
    },
    ScopeCase {
        id: "ce-b3",
        family: Family::Counterexample,
        bound: 3,
        states: 79_422,
    },
    ScopeCase {
        id: "mitchell-b2",
        family: Family::Mitchell,
        bound: 2,
        states: 70_249,
    },
];

/// State cap for every bounded check: well above the largest scope, so
/// a complete search never touches it.
pub const MAX_STATES: usize = 150_000;

/// The counterexample scope at `bound` (the serve mix's `check` jobs).
pub fn counterexample(bound: usize) -> Option<&'static ScopeCase> {
    SCOPES
        .iter()
        .find(|c| c.family == Family::Counterexample && c.bound == bound)
}

/// Check one proof outcome: the property must be one of the eighteen
/// and come back PROVED with no faulted obligation.
pub fn check_proof(property: &str, proved: bool, faults: usize) -> Result<(), String> {
    if !PROPERTIES.contains(&property) {
        return Err(format!("{property}: not one of the paper's eighteen"));
    }
    if faults > 0 {
        return Err(format!("{property}: {faults} faulted obligation(s)"));
    }
    if !proved {
        return Err(format!("{property}: expected PROVED, got open obligations"));
    }
    Ok(())
}

/// Check one bounded search: complete, with exactly the pinned state
/// count, properties 1–5 holding and 2′/3′ violated.
pub fn check_scope(
    case: &ScopeCase,
    states: usize,
    complete: bool,
    violated: impl Fn(&str) -> bool,
) -> Result<(), String> {
    let mut errors = Vec::new();
    if !complete {
        errors.push("search incomplete".to_string());
    }
    if states != case.states {
        errors.push(format!("{states} states, expected {}", case.states));
    }
    for name in HOLD {
        if violated(name) {
            errors.push(format!("{name} violated, expected to hold"));
        }
    }
    for name in VIOLATED {
        if !violated(name) {
            errors.push(format!("{name} holds, expected a violation"));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!("{}: {}", case.id, errors.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighteen_distinct_properties_five_main_thirteen_lemmas() {
        let mut names = PROPERTIES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18);
        assert_eq!(
            PROPERTIES.iter().filter(|n| n.starts_with("inv")).count(),
            5
        );
        assert_eq!(
            PROPERTIES.iter().filter(|n| n.starts_with("lem-")).count(),
            13
        );
    }

    #[test]
    fn scope_table_pins_the_documented_state_counts() {
        let counts: Vec<(&str, usize, usize)> =
            SCOPES.iter().map(|c| (c.id, c.bound, c.states)).collect();
        assert_eq!(
            counts,
            [
                ("ce-b1", 1, 55),
                ("ce-b2", 2, 2_443),
                ("ce-b3", 3, 79_422),
                ("mitchell-b2", 2, 70_249),
            ]
        );
        assert_eq!(SCOPES.iter().map(|c| c.states).sum::<usize>(), 152_169);
        assert!(SCOPES.iter().all(|c| c.states < MAX_STATES));
        assert_eq!(counterexample(3).map(|c| c.states), Some(79_422));
        assert_eq!(counterexample(4), None);
    }

    #[test]
    fn verdict_checks_accept_the_paper_and_reject_deviations() {
        let case = &SCOPES[2];
        let paper = |name: &str| VIOLATED.contains(&name);
        assert!(check_scope(case, 79_422, true, paper).is_ok());
        assert!(check_scope(case, 79_421, true, paper).is_err());
        assert!(check_scope(case, 79_422, false, paper).is_err());
        assert!(check_scope(case, 79_422, true, |_| false).is_err());
        assert!(check_scope(case, 79_422, true, |_| true).is_err());
        assert!(check_proof("inv1", true, 0).is_ok());
        assert!(check_proof("inv1", false, 0).is_err());
        assert!(check_proof("inv1", true, 1).is_err());
        assert!(check_proof("inv6", true, 0).is_err());
    }
}
