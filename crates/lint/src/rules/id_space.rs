//! `id-space`: address-keyed containers on the hot path.
//!
//! PRs 4–5 moved the resolution pipeline onto dense interned ids
//! (`AddrId`/`CompactAliasSet`/`ObservationStore` columns); materialised
//! `BTreeSet<IpAddr>` and `IpAddr`-keyed maps are only supposed to exist
//! at the report/rendering boundary.  PR 8 finished that migration for
//! the pipeline crates and PR 22 for the `midar` baselines, so the rule
//! has one scope — `core`, `resolve`, `store`, `scan`, `midar` — and no
//! grandfathered debt: any finding fails the check, and
//! `lint:allow(id-space): <why>` with a documented reason is the only
//! escape hatch.
//!
//! Since PR 8 the rule is workspace-aware (v2): phase 1's
//! [`WorkspaceIndex`] resolves `use … as` renames, `pub use` re-exports
//! and `type` aliases, so `type AddrSet = BTreeSet<IpAddr>` defined in
//! *any* crate taints every use of `AddrSet` (or any re-export of it)
//! inside the scoped crates.  The per-expression v1 window — flag
//! `C<IpAddr, …>` for the four std containers — could be dodged by a
//! one-line rename; v2 cannot.

use super::{CrossRule, Violation};
use crate::index::WorkspaceIndex;
use crate::source::SourceFile;
use crate::tokenizer::TokenKind;

/// The rule (see the module docs).
pub struct IdSpace;

const NAME: &str = "id-space";

/// The crates the rule applies to: the pipeline's hot path and the
/// baselines that probe from it.
const SCOPED_CRATES: &[&str] = &["core", "resolve", "store", "scan", "midar"];

/// Whether the rule applies to `crate_name` at all.
fn in_scope(crate_name: &str) -> bool {
    SCOPED_CRATES.contains(&crate_name)
}

impl CrossRule for IdSpace {
    fn name(&self) -> &'static str {
        NAME
    }

    fn summary(&self) -> &'static str {
        "IpAddr-keyed containers in core/resolve/store/scan/midar, \
         seen through renames, re-exports and type aliases"
    }

    fn check(&self, files: &[SourceFile], index: &WorkspaceIndex) -> Vec<Violation> {
        let mut violations = Vec::new();
        for file in files {
            if !in_scope(&file.crate_name) {
                continue;
            }
            check_file(file, index, &mut violations);
        }
        violations.sort();
        violations
    }
}

fn check_file(file: &SourceFile, index: &WorkspaceIndex, violations: &mut Vec<Violation>) {
    let tokens = &file.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if token.kind != TokenKind::Ident {
            continue;
        }
        // `C<IpAddr, …>` for any name denoting a tracked container —
        // the v1 window, widened over import renames.
        if index.container_names.contains(&token.text)
            && tokens.get(i + 1).is_some_and(|t| t.is_punct("<"))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("IpAddr"))
        {
            violations.push(Violation {
                file: file.rel_path.clone(),
                line: token.line,
                rule: NAME,
                message: format!(
                    "`{}<IpAddr, …>` — hot-path state should stay in AddrId space",
                    token.text
                ),
            });
            continue;
        }
        // Any use of a type name that resolves to an IpAddr-keyed
        // container (the v2 alias/re-export dodge).  The definition's own
        // left-hand side is skipped: the right-hand-side window above
        // already covers in-scope definitions, and out-of-scope
        // definitions are only debt where they are *used*.
        if let Some(origin) = index.tainted_types.get(&token.text) {
            let is_alias_lhs = i > 0
                && tokens[i - 1].is_ident("type")
                && tokens.get(i + 1).is_some_and(|t| t.is_punct("="));
            // A `… as Name` rename binds the name; the imported source
            // ident on the same line already carries the violation.
            let is_rename_target = i > 0 && tokens[i - 1].is_ident("as");
            if !is_alias_lhs && !is_rename_target {
                violations.push(Violation {
                    file: file.rel_path.clone(),
                    line: token.line,
                    rule: NAME,
                    message: format!(
                        "`{}` resolves to an IpAddr-keyed container via {origin}",
                        token.text
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::WorkspaceIndex;
    use crate::source::SourceFile;

    fn check(sources: &[(&str, &str)]) -> Vec<Violation> {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(path, src)| SourceFile::parse(path, src, &[NAME]))
            .collect();
        let index = WorkspaceIndex::build(&files);
        IdSpace.check(&files, &index)
    }

    #[test]
    fn flags_address_keyed_containers_in_scoped_crates() {
        let violations = check(&[(
            "crates/core/src/x.rs",
            "fn f(sets: &[BTreeSet<IpAddr>], idx: HashMap<IpAddr, usize>) {}",
        )]);
        assert_eq!(violations.len(), 2);
    }

    #[test]
    fn other_crates_and_other_keys_are_out_of_scope() {
        let out_of_scope = check(&[("crates/netsim/src/x.rs", "fn f(sets: &BTreeSet<IpAddr>) {}")]);
        assert!(out_of_scope.is_empty());
        let id_keyed = check(&[(
            "crates/core/src/x.rs",
            "fn f(sets: &BTreeSet<AddrId>, m: BTreeMap<u32, IpAddr>) {}",
        )]);
        assert!(id_keyed.is_empty());
    }

    #[test]
    fn import_renames_cannot_dodge_the_window() {
        let violations = check(&[(
            "crates/core/src/x.rs",
            "use std::collections::BTreeSet as Set;\nfn f(sets: &[Set<IpAddr>]) {}",
        )]);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].line, 2);
        assert!(violations[0].message.contains("Set<IpAddr"));
    }

    #[test]
    fn type_aliases_defined_elsewhere_taint_scoped_uses() {
        let violations = check(&[
            (
                "crates/netsim/src/x.rs",
                "pub type AddrSet = std::collections::BTreeSet<IpAddr>;",
            ),
            (
                "crates/core/src/y.rs",
                "use alias_netsim::AddrSet;\nfn f(sets: &[AddrSet]) -> AddrSet { sets[0].clone() }",
            ),
        ]);
        // The import line plus two uses; the out-of-scope definition in
        // netsim is not counted.
        assert_eq!(violations.len(), 3);
        assert!(violations.iter().all(|v| v.file == "crates/core/src/y.rs"));
        assert!(violations[0].message.contains("resolves to"));
    }

    #[test]
    fn reexport_chains_are_followed() {
        let violations = check(&[
            (
                "crates/netsim/src/x.rs",
                "pub type AddrSet = BTreeSet<IpAddr>;",
            ),
            (
                "crates/midar/src/lib.rs",
                "pub use alias_netsim::AddrSet as GroupSet;",
            ),
            (
                "crates/resolve/src/y.rs",
                "fn g(group: alias_midar::GroupSet) {}",
            ),
        ]);
        // midar's re-export line and resolve's use.
        assert_eq!(violations.len(), 2);
        assert!(violations
            .iter()
            .any(|v| v.file == "crates/resolve/src/y.rs"));
    }

    #[test]
    fn in_scope_alias_definition_is_counted_once() {
        let violations = check(&[(
            "crates/core/src/x.rs",
            "pub type AliasSet = BTreeSet<IpAddr>;",
        )]);
        assert_eq!(violations.len(), 1, "{violations:?}");
    }

    #[test]
    fn the_scope_is_the_pipeline_and_the_baselines() {
        assert!(in_scope("core"));
        assert!(in_scope("scan"));
        assert!(in_scope("midar"));
        assert!(!in_scope("netsim"));
        assert!(!in_scope("bench"));
    }
}
