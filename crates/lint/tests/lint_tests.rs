//! Integration tests: the lint against fixture workspaces with seeded
//! violations (one per rule, including the PR2 regression shape and the
//! PR8 cross-file dodges), a clean fixture that must produce zero
//! findings, the hard-fail semantics of the finished id-space migration,
//! and the baseline ratchet round trips — including the shrink to zero.

use alias_lint::{baselinable_counts, check_workspace, is_hard, scan_workspace, Baseline};
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
        // Wall-clock reads outside the alias-obs observability layer.
        ("crates/core/src/timing.rs::det-wallclock", 2),
        // The laundering re-export: `pub use … AddrSet as GroupSet`
        // counts in midar (ratchet scope) and keeps the taint flowing.
        ("crates/midar/src/lib.rs::id-space", 1),
        // The PR2 regression: HashMap iterated (and a HashSet drained)
        // while a shared RNG is consumed.
        ("crates/netsim/src/lib.rs::det-hash-iter", 2),
        // The transitive helper chain ends in thread_rng — also ambient
        // entropy in its own right.
        ("crates/netsim/src/shards.rs::det-rng", 1),
        // A captured `let mut` and a sink reached two calls away.
        ("crates/netsim/src/shards.rs::shard-purity", 2),
        ("crates/resolve/src/lib.rs::id-space", 1),
        // The alias dodge inside a hard crate: the import line plus one
        // use of `AddrSet`, one use of the re-exported `GroupSet`.
        ("crates/scan/src/dodge.rs::id-space", 3),
        // A raw Instant::now in scan pacing — the post-PR10 regression
        // shape, now that resolver/bench carve-outs are gone.
        ("crates/scan/src/pacing.rs::det-wallclock", 1),
        // Ambient entropy: thread_rng / from_entropy / from_os_rng.
        ("crates/scan/src/lib.rs::det-rng", 3),
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
fn hard_id_space_violations_fail_even_when_fully_baselined() {
    // The migration acceptance property: grandfather *everything* the
    // scan found and the check still fails — id-space findings inside
    // core/resolve/store/scan are hard, baselines cannot cover them.
    let root = fixture("violations");
    let report = scan_workspace(&root).expect("fixture scans");
    let everything = Baseline::from_counts(report.counts());
    let outcome = check_workspace(&root, &everything).expect("fixture checks");
    assert!(!outcome.is_clean());

    let hard = outcome.hard_violations();
    assert!(!hard.is_empty());
    assert!(hard.iter().all(|v| v.rule == "id-space"));
    // The dodged uses in scan are among them: aliases and re-exports do
    // not soften the failure.
    assert!(hard.iter().any(|v| v.file == "crates/scan/src/dodge.rs"));
    // midar stays ratchet scope: its id-space finding is not hard, and
    // with a covering baseline it does not fail the check.
    assert!(!hard.iter().any(|v| v.file.starts_with("crates/midar/")));
    let failing = outcome.failing_violations();
    assert!(!failing.iter().any(|v| v.file.starts_with("crates/midar/")));
    // And a regenerated baseline refuses to absorb hard findings.
    for key in baselinable_counts(&report).keys() {
        assert!(!key.contains("dodge.rs"), "hard key baselined: {key}");
    }
}

#[test]
fn transitive_shard_impurity_carries_the_call_trail() {
    let report = scan_workspace(&fixture("violations")).expect("fixture scans");
    let purity: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "shard-purity")
        .collect();
    assert_eq!(purity.len(), 2, "{purity:?}");
    assert!(purity.iter().any(|v| v.message.contains("`totals`")));
    let trail = purity
        .iter()
        .find(|v| v.message.contains("through"))
        .expect("transitive finding");
    assert!(
        trail.message.contains("helper → deep_helper → thread_rng"),
        "trail should name the whole chain: {}",
        trail.message
    );
}

#[test]
fn reintroducing_the_pr2_pattern_in_netsim_fails_the_check() {
    // The acceptance property: with an id-space-only baseline (like the
    // committed one — det-hash-iter is never grandfathered), the netsim
    // HashMap-under-RNG fixture is a *new* violation and the check fails.
    let mut id_space_only = BTreeMap::new();
    for (key, count) in scan_workspace(&fixture("violations"))
        .expect("fixture scans")
        .counts()
    {
        if key.ends_with("::id-space") {
            id_space_only.insert(key, count);
        }
    }
    let baseline = Baseline::from_counts(id_space_only);
    let outcome = check_workspace(&fixture("violations"), &baseline).expect("fixture checks");
    assert!(!outcome.is_clean());
    assert!(outcome
        .new_violations()
        .iter()
        .any(|v| { v.rule == "det-hash-iter" && v.file == "crates/netsim/src/lib.rs" }));
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
    // The clean twins: a hard crate in id space and pure shard closures
    // (shard-local state and the freeze idiom).
    let report = scan_workspace(&fixture("clean")).expect("fixture scans");
    assert_eq!(report.problems, Vec::<String>::new());
    assert_eq!(
        report.violations.len(),
        0,
        "false positives: {:?}",
        report.violations
    );
    let outcome = check_workspace(&fixture("clean"), &Baseline::empty()).expect("fixture checks");
    assert!(outcome.is_clean());
    assert!(outcome.new_violations().is_empty());
}

#[test]
fn baseline_ratchet_round_trips_and_only_falls() {
    let root = fixture("violations");
    let report = scan_workspace(&root).expect("fixture scans");
    // What --update-baseline grandfathers: everything except hard
    // findings, which never enter a baseline.
    let baseline = Baseline::from_counts(baselinable_counts(&report));

    // Store/load round trip through a real file (what --update-baseline
    // writes is what --check reads).
    let path = std::env::temp_dir().join("alias-lint-ratchet-roundtrip.json");
    baseline.store(&path).expect("baseline stores");
    let loaded = Baseline::load(&path).expect("baseline loads");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, baseline);

    // Exactly-baselined ratchetable debt: nothing shrunk, and the only
    // failures left are the hard id-space findings.
    let outcome = check_workspace(&root, &loaded).expect("checks");
    assert!(outcome.shrunk_keys().is_empty());
    assert!(outcome.new_violations().iter().all(|v| is_hard(v)));
    assert!(outcome.failing_violations().iter().all(|v| is_hard(v)));

    // Against an empty baseline every violation is new: the ratchet
    // never grows silently.
    let outcome = check_workspace(&root, &Baseline::empty()).expect("checks");
    assert!(!outcome.is_clean());
    assert_eq!(outcome.new_violations().len(), report.violations.len());

    // A baseline above the live counts reports ratchet progress instead
    // — on a ratcheted key (midar), where the baseline is the authority.
    let mut inflated = loaded.entries().clone();
    let key = "crates/midar/src/lib.rs::id-space".to_owned();
    *inflated.get_mut(&key).expect("key exists") += 3;
    let outcome = check_workspace(&root, &Baseline::from_counts(inflated)).expect("checks");
    let shrunk = outcome.shrunk_keys();
    assert_eq!(shrunk.len(), 1);
    assert_eq!(shrunk[0].key, key);
    assert_eq!((shrunk[0].found, shrunk[0].baselined), (1, 4));
}

#[test]
fn ratchet_shrink_round_trips_at_zero() {
    // A stale baseline entry over a now-clean workspace: the check stays
    // green and reports the key as shrinkable down to zero …
    let root = fixture("clean");
    let stale = Baseline::from_counts(
        [("crates/pipeline/src/lib.rs::det-rng".to_owned(), 2)]
            .into_iter()
            .collect(),
    );
    let outcome = check_workspace(&root, &stale).expect("checks");
    assert!(outcome.is_clean());
    let shrunk = outcome.shrunk_keys();
    assert_eq!(shrunk.len(), 1);
    assert_eq!((shrunk[0].found, shrunk[0].baselined), (0, 2));

    // … regenerating drops the key entirely (the ratchet reaches 0) …
    let report = scan_workspace(&root).expect("fixture scans");
    let regenerated = Baseline::from_counts(baselinable_counts(&report));
    assert!(regenerated.entries().is_empty());

    // … and the zero baseline round-trips through disk and stays clean
    // with nothing left to shrink.
    let path = std::env::temp_dir().join("alias-lint-ratchet-zero.json");
    regenerated.store(&path).expect("baseline stores");
    let loaded = Baseline::load(&path).expect("baseline loads");
    std::fs::remove_file(&path).ok();
    let outcome = check_workspace(&root, &loaded).expect("checks");
    assert!(outcome.is_clean());
    assert!(outcome.shrunk_keys().is_empty());
}
