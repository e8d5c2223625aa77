//! Stamp the git revision into the binary for the provenance line
//! (`unknown` when the repository is not a git checkout).

use std::path::PathBuf;
use std::process::Command;

fn git(root: &PathBuf, args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    let text = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .expect("inside the repository")
        .to_path_buf();
    // Only trust a revision of this repository, not of one enclosing it.
    let own = git(&root, &["rev-parse", "--show-toplevel"])
        .map(PathBuf::from)
        .and_then(|top| top.canonicalize().ok())
        == root.canonicalize().ok();
    let rev = own
        .then(|| git(&root, &["rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=BENCHREC_REV={rev}");
    println!("cargo:rerun-if-changed=../.git/HEAD");
    println!("cargo:rerun-if-changed=../.git/refs");
}
