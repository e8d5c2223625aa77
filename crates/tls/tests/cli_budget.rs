//! `tls-prove` budget flags end-to-end: a starved run must exit nonzero
//! with a message naming the limit and the offending term — never die
//! with a panic or report success. An unknown engine flag is a usage
//! error, never silently ignored.

use std::process::Command;

fn run_tls_prove(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tls-prove"))
        .args(args)
        .output()
        .expect("tls-prove runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code(), text)
}

#[test]
fn fuel_exhaustion_names_the_term_and_limit_and_exits_one() {
    let (code, text) = run_tls_prove(&["lem-src-honest", "--fuel", "64", "--jobs", "2"]);
    assert_eq!(code, Some(1), "starved campaign must fail; output:\n{text}");
    assert!(
        text.contains("fuel exhausted (limit 64)"),
        "message names the exhausted limit:\n{text}"
    );
    assert!(
        text.contains("while normalizing `"),
        "message names the offending term:\n{text}"
    );
    assert!(
        text.contains("OPEN"),
        "obligations are open, not absent:\n{text}"
    );
}

#[test]
fn expired_deadline_skips_obligations_and_exits_one() {
    let (code, text) = run_tls_prove(&["lem-src-honest", "--deadline-ms", "1"]);
    assert_eq!(code, Some(1), "expired deadline must fail; output:\n{text}");
    assert!(
        text.contains("deadline exceeded"),
        "message names the deadline stop:\n{text}"
    );
}

#[test]
fn unknown_engine_flag_is_a_usage_error() {
    let (code, text) = run_tls_prove(&["lem-src-honest", "--shared-cache"]);
    assert_eq!(code, Some(2), "usage error exits 2; output:\n{text}");
    assert!(
        text.contains("unknown flag --shared-cache"),
        "message names the flag:\n{text}"
    );
}
