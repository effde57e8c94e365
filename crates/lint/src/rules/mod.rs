//! The lint rules.
//!
//! Rules come in two shapes.  A [`Rule`] scans one tokenized
//! [`SourceFile`] at a time; a [`CrossRule`] runs in phase 2 against the
//! whole file list plus the [`WorkspaceIndex`], so it can see aliasing
//! introduced through names (re-exports, type aliases).  Rules are
//! registered in [`crate::registry`]; suppression (`lint:allow`) is
//! handled by the driver, not the rules — a rule always reports
//! everything it sees.

pub mod crate_hygiene;
pub mod det_hash_iter;
pub mod id_space;

use crate::index::WorkspaceIndex;
use crate::source::SourceFile;

/// One reported rule violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Name of the rule that fired.
    pub rule: &'static str,
    /// What was found, concretely.
    pub message: String,
}

impl Violation {
    /// The key the violation is counted under in reports (`file::rule`).
    pub fn key(&self) -> String {
        format!("{}::{}", self.file, self.rule)
    }
}

/// A lint rule: a named, documented scan over one source file.
pub trait Rule {
    /// The rule's name — what `lint:allow(...)` refers to.
    fn name(&self) -> &'static str;

    /// One-line description for `--list` and the README table.
    fn summary(&self) -> &'static str;

    /// Scan `file`, reporting every violation (the driver applies
    /// suppressions afterwards).
    fn check(&self, file: &SourceFile) -> Vec<Violation>;
}

/// A workspace-aware lint rule: phase 2 of the two-phase analyzer.
///
/// Cross rules receive every scanned file plus the symbol index built
/// over them, so they can resolve names across files — the per-file
/// [`Rule`] shape cannot express "this container was renamed two crates
/// away".
pub trait CrossRule {
    /// The rule's name — what `lint:allow(...)` refers to.
    fn name(&self) -> &'static str;

    /// One-line description for `--list` and the README table.
    fn summary(&self) -> &'static str;

    /// Scan the workspace, reporting every violation (the driver applies
    /// suppressions afterwards).
    fn check(&self, files: &[SourceFile], index: &WorkspaceIndex) -> Vec<Violation>;
}
