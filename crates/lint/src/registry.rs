//! The rule registry and the two-phase workspace check driver.
//!
//! Phase 1 parses every lintable file and builds the
//! [`WorkspaceIndex`]; phase 2 runs the
//! per-file [`Rule`]s and the workspace-aware [`CrossRule`]s over it.
//! The driver applies the explicit `lint:allow` suppressions, then
//! compares what remains against the committed baseline ratchet — except
//! for **hard** rules (`id-space` inside the migrated pipeline crates),
//! whose violations fail the check regardless of any baseline entry.

use crate::baseline::Baseline;
use crate::index::WorkspaceIndex;
use crate::rules::{
    crate_hygiene::CrateHygiene, det_hash_iter::DetHashIter, det_rng::DetRng,
    det_wallclock::DetWallclock, id_space, id_space::IdSpace, shard_purity::ShardPurity, CrossRule,
    Rule, Violation,
};
use crate::source::{self, SourceFile};
use std::collections::BTreeMap;
use std::path::Path;

/// Every registered per-file rule, in report order.
pub fn rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(DetHashIter),
        Box::new(DetWallclock),
        Box::new(DetRng),
        Box::new(CrateHygiene),
    ]
}

/// Every registered cross-file rule (phase 2), in report order.
pub fn cross_rules() -> Vec<Box<dyn CrossRule>> {
    vec![Box::new(IdSpace), Box::new(ShardPurity)]
}

/// The registered rule names (what `lint:allow` may refer to).
pub fn rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = rules().iter().map(|r| r.name()).collect();
    names.extend(cross_rules().iter().map(|r| r.name()));
    names
}

/// Everything one check run produced, before baseline comparison.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Violations that survived `lint:allow` suppression, sorted.
    pub violations: Vec<Violation>,
    /// Malformed suppression comments (always failures).
    pub problems: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl ScanReport {
    /// Live violation counts per `file::rule` baseline key.
    pub fn counts(&self) -> BTreeMap<String, usize> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for violation in &self.violations {
            *counts.entry(violation.key()).or_default() += 1;
        }
        counts
    }

    /// Live violation counts per rule (for the per-rule summary table).
    pub fn counts_per_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for violation in &self.violations {
            *counts.entry(violation.rule).or_default() += 1;
        }
        counts
    }
}

/// Run every rule over every lintable file under `root`.
pub fn scan_workspace(root: &Path) -> Result<ScanReport, String> {
    let rules = rules();
    let cross = cross_rules();
    let names = rule_names();
    let paths = source::workspace_files(root).map_err(|err| err.to_string())?;
    // Phase 1: parse everything, then index the workspace symbols.
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = source::relative(root, path);
        let raw = std::fs::read_to_string(path)
            .map_err(|err| format!("could not read {}: {err}", path.display()))?;
        files.push(SourceFile::parse(&rel, &raw, &names));
    }
    let index = WorkspaceIndex::build(&files);

    // Phase 2: per-file rules, then the workspace-aware ones.
    let mut report = ScanReport {
        files_scanned: files.len(),
        ..ScanReport::default()
    };
    let by_path: BTreeMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel_path.as_str(), f)).collect();
    for file in &files {
        report.problems.extend(file.problems.iter().cloned());
        for rule in &rules {
            for violation in rule.check(file) {
                if !file.is_allowed(violation.rule, violation.line) {
                    report.violations.push(violation);
                }
            }
        }
    }
    for rule in &cross {
        for violation in rule.check(&files, &index) {
            let allowed = by_path
                .get(violation.file.as_str())
                .is_some_and(|f| f.is_allowed(violation.rule, violation.line));
            if !allowed {
                report.violations.push(violation);
            }
        }
    }
    report.violations.sort();
    Ok(report)
}

/// One row of the check outcome: a baseline key with its live vs
/// grandfathered counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyOutcome {
    /// The `file::rule` key.
    pub key: String,
    /// Live violations found.
    pub found: usize,
    /// Violations the baseline grandfathers.
    pub baselined: usize,
}

impl KeyOutcome {
    /// Whether the key has violations beyond its baseline.
    pub fn grew(&self) -> bool {
        self.found > self.baselined
    }

    /// Whether the key fell below its baseline (ratchet progress).
    pub fn shrank(&self) -> bool {
        self.found < self.baselined
    }
}

/// Whether a violation is **hard**: it fails the check even when a
/// baseline entry would cover it.  Currently: `id-space` inside the
/// migrated pipeline crates (the migration is finished; there is nothing
/// left to grandfather).
pub fn is_hard(violation: &Violation) -> bool {
    violation.rule == "id-space" && id_space::is_hard(&source::crate_of(&violation.file))
}

/// The verdict of a `--check` run.
#[derive(Debug)]
pub struct CheckOutcome {
    /// The underlying scan.
    pub report: ScanReport,
    /// Per-key live/baselined counts, sorted by key — every key that has
    /// either live violations or a baseline entry appears exactly once.
    pub keys: Vec<KeyOutcome>,
}

impl CheckOutcome {
    /// The violations not covered by the baseline: for each grown key, the
    /// last `found - baselined` sorted violations (lines later in the file
    /// are the ones most recently added; the exact attribution does not
    /// matter — any growth fails).
    pub fn new_violations(&self) -> Vec<&Violation> {
        let mut fresh = Vec::new();
        for key in self.keys.iter().filter(|k| k.grew()) {
            let of_key: Vec<&Violation> = self
                .report
                .violations
                .iter()
                .filter(|v| v.key() == key.key)
                .collect();
            fresh.extend(of_key.into_iter().skip(key.baselined));
        }
        fresh
    }

    /// Violations of hard rules — failures regardless of the baseline.
    pub fn hard_violations(&self) -> Vec<&Violation> {
        self.report
            .violations
            .iter()
            .filter(|v| is_hard(v))
            .collect()
    }

    /// Everything that fails the check: hard violations plus growth
    /// beyond the baseline, deduplicated, in report order.
    pub fn failing_violations(&self) -> Vec<&Violation> {
        let mut failing = self.hard_violations();
        for violation in self.new_violations() {
            if !failing.iter().any(|v| std::ptr::eq(*v, violation)) {
                failing.push(violation);
            }
        }
        failing.sort();
        failing
    }

    /// Whether the check passes: no hard violations, no growth, no
    /// malformed suppressions.
    pub fn is_clean(&self) -> bool {
        self.report.problems.is_empty()
            && self.hard_violations().is_empty()
            && self.keys.iter().all(|k| !k.grew())
    }

    /// Keys that fell below their baseline (the ratchet can be tightened).
    pub fn shrunk_keys(&self) -> Vec<&KeyOutcome> {
        self.keys.iter().filter(|k| k.shrank()).collect()
    }
}

/// Scan `root` and compare against `baseline`.
pub fn check_workspace(root: &Path, baseline: &Baseline) -> Result<CheckOutcome, String> {
    let report = scan_workspace(root)?;
    let counts = report.counts();
    let mut keys: BTreeMap<String, KeyOutcome> = BTreeMap::new();
    for (key, &found) in &counts {
        keys.insert(
            key.clone(),
            KeyOutcome {
                key: key.clone(),
                found,
                baselined: baseline.allowed(key),
            },
        );
    }
    for (key, &baselined) in baseline.entries() {
        keys.entry(key.clone()).or_insert_with(|| KeyOutcome {
            key: key.clone(),
            found: 0,
            baselined,
        });
    }
    Ok(CheckOutcome {
        report,
        keys: keys.into_values().collect(),
    })
}

/// The counts a regenerated baseline may grandfather: everything except
/// hard-rule violations, which can never be baselined.
pub fn baselinable_counts(report: &ScanReport) -> BTreeMap<String, usize> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for violation in &report.violations {
        if !is_hard(violation) {
            *counts.entry(violation.key()).or_default() += 1;
        }
    }
    counts
}
