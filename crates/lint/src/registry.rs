//! The rule registry and the two-phase workspace check driver.
//!
//! Phase 1 parses every lintable file and builds the
//! [`WorkspaceIndex`]; phase 2 runs the
//! per-file [`Rule`]s and the workspace-aware [`CrossRule`]s over it.
//! The driver applies the explicit `lint:allow` suppressions; whatever
//! remains fails the check.  There is no baseline: the last grandfathered
//! debt (`id-space` in `alias-midar`) was ported in PR 22, so a
//! `lint:allow` with a reason is the only way a finding stays in the tree.

use crate::index::WorkspaceIndex;
use crate::rules::{
    crate_hygiene::CrateHygiene, det_hash_iter::DetHashIter, id_space::IdSpace, CrossRule, Rule,
    Violation,
};
use crate::source::{self, SourceFile};
use std::collections::BTreeMap;
use std::path::Path;

/// Every registered per-file rule, in report order.
pub fn rules() -> Vec<Box<dyn Rule>> {
    vec![Box::new(DetHashIter), Box::new(CrateHygiene)]
}

/// Every registered cross-file rule (phase 2), in report order.
pub fn cross_rules() -> Vec<Box<dyn CrossRule>> {
    vec![Box::new(IdSpace)]
}

/// The registered rule names (what `lint:allow` may refer to).
pub fn rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = rules().iter().map(|r| r.name()).collect();
    names.extend(cross_rules().iter().map(|r| r.name()));
    names
}

/// Everything one check run produced.
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
    /// Whether the check passes: no violation survived suppression and no
    /// suppression comment is malformed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.problems.is_empty()
    }

    /// Live violation counts per `file::rule` key.
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
