//! Integration tests: the lint against fixture workspaces with seeded
//! violations (one per rule, including the PR2 regression shape and the
//! PR8 cross-file dodges), a clean fixture that must produce zero
//! findings, and the one failure rule since the baseline went: whatever
//! survives suppression fails the check, in every scoped crate.

use alias_lint::scan_workspace;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn every_rule_catches_its_seeded_fixture_violation() {
    let report = scan_workspace(&fixture("violations")).expect("fixture scans");
    assert_eq!(report.problems, Vec::<String>::new());
    let counts = report.counts();
    let expected: BTreeMap<String, usize> = [
        // Crate root missing both hygiene attributes.
        ("crates/core/src/lib.rs::crate-hygiene", 2),
        // IpAddr-keyed containers spelled out in scoped crates.
        ("crates/core/src/lib.rs::id-space", 2),
        // The laundering re-export: `pub use … AddrSet as GroupSet`
        // counts in midar and keeps the taint flowing.
        ("crates/midar/src/lib.rs::id-space", 1),
        // The PR2 regression: HashMap iterated (and a HashSet drained)
        // while a shared RNG is consumed.
        ("crates/netsim/src/lib.rs::det-hash-iter", 2),
        ("crates/resolve/src/lib.rs::id-space", 1),
        // The alias dodge inside a hard crate: the import line plus one
        // use of `AddrSet`, one use of the re-exported `GroupSet`.
        ("crates/scan/src/dodge.rs::id-space", 3),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    assert_eq!(counts, expected);
}

#[test]
fn alias_dodges_are_seen_through_renames_and_reexports() {
    // Neither `AddrSet` nor `GroupSet` mentions an address-keyed
    // container by name; both must resolve through the workspace index.
    let report = scan_workspace(&fixture("violations")).expect("fixture scans");
    let dodge: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.file == "crates/scan/src/dodge.rs")
        .collect();
    assert_eq!(dodge.len(), 3, "{dodge:?}");
    assert!(dodge
        .iter()
        .all(|v| v.rule == "id-space" && v.message.contains("resolves to")));
    assert!(
        dodge.iter().any(|v| v.message.contains("GroupSet")),
        "the re-export chain must be followed: {dodge:?}"
    );
}

#[test]
fn id_space_violations_fail_the_check_in_every_scoped_crate() {
    // The finished migration's acceptance property: there is nothing to
    // grandfather a finding with, in the pipeline crates or in midar.
    let report = scan_workspace(&fixture("violations")).expect("fixture scans");
    assert!(!report.is_clean());
    let id_space: Vec<_> = (report.violations.iter())
        .filter(|v| v.rule == "id-space")
        .collect();
    // The dodged uses in scan are among them: aliases and re-exports do
    // not soften the failure.
    assert!(id_space
        .iter()
        .any(|v| v.file == "crates/scan/src/dodge.rs"));
    // midar is in scope like any pipeline crate.
    assert!(id_space.iter().any(|v| v.file.starts_with("crates/midar/")));
}

#[test]
fn reintroducing_the_pr2_pattern_in_netsim_fails_the_check() {
    // The acceptance property: the netsim HashMap-under-RNG fixture is a
    // violation on its own — take every other finding away and the check
    // still fails on it.
    let mut report = scan_workspace(&fixture("violations")).expect("fixture scans");
    report
        .violations
        .retain(|v| v.rule == "det-hash-iter" && v.file == "crates/netsim/src/lib.rs");
    assert_eq!(report.violations.len(), 2);
    assert!(!report.is_clean());
}

#[test]
fn suppressed_violations_are_not_reported() {
    // resolve/src/lib.rs holds two IpAddr-keyed containers; the render
    // boundary one carries a lint:allow and must not be counted.
    let report = scan_workspace(&fixture("violations")).expect("fixture scans");
    let resolve_id_space: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.file == "crates/resolve/src/lib.rs" && v.rule == "id-space")
        .collect();
    assert_eq!(resolve_id_space.len(), 1);
    assert!(resolve_id_space[0].message.contains("BTreeSet"));
}

#[test]
fn clean_fixture_produces_no_findings() {
    // The clean twin: a hard crate in id space.
    let report = scan_workspace(&fixture("clean")).expect("fixture scans");
    assert_eq!(report.problems, Vec::<String>::new());
    assert_eq!(
        report.violations.len(),
        0,
        "false positives: {:?}",
        report.violations
    );
    assert!(report.is_clean());
}

#[test]
fn a_malformed_suppression_fails_an_otherwise_clean_check() {
    let mut report = scan_workspace(&fixture("clean")).expect("fixture scans");
    report
        .problems
        .push("crates/core/src/lib.rs:3: lint:allow without a reason".to_owned());
    assert!(!report.is_clean());
}
