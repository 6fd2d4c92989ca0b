//! Repo-wide self-test: the checked-in tree satisfies its own static
//! invariants (`analysis.toml`). This is the same pass CI runs via
//! `cargo run -p nistream-analysis -- check`; having it as a test means
//! `cargo test` alone catches a regression.

use std::path::Path;

#[test]
fn repository_satisfies_its_static_invariants() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = nistream_analysis::check_root(root).expect("analysis.toml is well-formed");
    assert!(
        findings.is_empty(),
        "static-analysis violations:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}

/// The `ni-bounds` ledger (`nistream-analysis bounds`) is pinned: a change
/// that silently drops hot-path obligations, or leaves one unproven,
/// fails here rather than only in the CI report.
#[test]
fn ni_bounds_ledger_is_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("analysis.toml")).expect("analysis.toml is readable");
    let cfg = nistream_analysis::Config::parse(&text).expect("analysis.toml is well-formed");
    let (sites, findings) = nistream_analysis::bounds_report(root, &cfg).expect("the ni-bounds file set loads");
    let proven = sites.iter().filter(|s| s.proven).count();
    let waived = sites.iter().filter(|s| !s.proven && s.exempt).count();
    let unproven = sites.len() - proven - waived;
    assert_eq!(
        (sites.len(), proven, waived, unproven),
        (47, 43, 4, 0),
        "ni-bounds ledger moved (obligations, proven, waived, unproven)"
    );
    assert!(findings.is_empty());
}
