//! `tls-lint --jobs`: every worker count, `0` (all cores) included, prints
//! the default report, and a malformed count is a usage error. The small
//! targets keep the debug-build runs fast; the fixtures' non-confluent
//! pair must still come back in order.

use std::process::{Command, Output};

fn run_tls_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tls-lint"))
        .args(args)
        .output()
        .expect("tls-lint runs")
}

#[test]
fn every_job_count_prints_the_default_report() {
    let default = run_tls_lint(&["bool", "eq", "fixtures"]);
    assert_eq!(default.status.code(), Some(0), "the gate passes");
    assert!(String::from_utf8_lossy(&default.stdout).contains("critical pairs"));
    for jobs in ["0", "2"] {
        let run = run_tls_lint(&["--jobs", jobs, "bool", "eq", "fixtures"]);
        assert_eq!(run.status.code(), Some(0), "--jobs {jobs}");
        assert_eq!(run.stdout, default.stdout, "--jobs {jobs}");
    }
}

#[test]
fn a_malformed_job_count_is_a_usage_error() {
    let run = run_tls_lint(&["--jobs", "abc", "bool"]);
    assert_eq!(run.status.code(), Some(2), "usage error exits 2");
    assert!(String::from_utf8_lossy(&run.stderr).contains("usage: tls-lint"));
    assert!(run.stdout.is_empty(), "no report on a usage error");
}
