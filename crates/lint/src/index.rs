//! Phase 1 of the two-phase analyzer: the workspace symbol index.
//!
//! The per-file rules ([`Rule`](crate::rules::Rule)) see one token stream
//! at a time, which is exactly the blind spot the alias-calculus
//! literature warns about: aliasing introduced *through names* is
//! invisible to per-expression (here: per-file) heuristics.  The index
//! closes that gap at the token level — still no `syn`, still zero
//! dependencies:
//!
//! * **imports** — `use path::Target as Name;` and `pub use` re-exports,
//!   so a renamed `BTreeSet` can't dodge the `id-space` rule;
//! * **type aliases** — `type Name = …;` with the right-hand-side token
//!   span retained, so `type AddrSet = BTreeSet<IpAddr>` taints every use
//!   of `AddrSet`.
//!
//! Name resolution is deliberately name-level (no module paths): the
//! workspace's naming is flat enough that last-segment matching is exact
//! in practice, and over-approximating (two distinct `AddrSet` aliases
//! merged into one name) only ever errs toward flagging — which the
//! explicit `lint:allow` escape hatch then adjudicates.

use crate::source::SourceFile;
use crate::tokenizer::{Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// The address-keyed container types the `id-space` rule tracks.
pub const CONTAINERS: &[&str] = &["BTreeSet", "HashSet", "BTreeMap", "HashMap"];

/// One `type Name = …;` alias with its right-hand-side token span.
#[derive(Debug, Clone)]
pub struct TypeAlias {
    /// Index of the defining file in the scanned file list.
    pub file: usize,
    /// The alias name.
    pub name: String,
    /// 1-based line of the definition.
    pub line: u32,
    /// Token range of the right-hand side (between `=` and `;`).
    pub rhs: Range<usize>,
}

/// One `use`/`pub use` leaf: `name` now denotes `target`.
#[derive(Debug, Clone)]
pub struct ImportAlias {
    /// Index of the importing file in the scanned file list.
    pub file: usize,
    /// 1-based line of the `use`.
    pub line: u32,
    /// The last path segment being imported.
    pub target: String,
    /// The local (or re-exported) name — differs from `target` under `as`.
    pub name: String,
    /// Whether this is a `pub use` re-export.
    pub reexport: bool,
}

/// The workspace symbol index cross-file rules run against.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// Every `type` alias.
    pub type_aliases: Vec<TypeAlias>,
    /// Every `use` leaf.
    pub imports: Vec<ImportAlias>,
    /// Names denoting an address-keyed container type, including the
    /// four std containers and every (re-)import alias of one.
    pub container_names: BTreeSet<String>,
    /// Type names resolving to an `IpAddr`-keyed container, with a short
    /// provenance string (`"type AddrSet = BTreeSet<IpAddr> (crates/…)"`).
    pub tainted_types: BTreeMap<String, String>,
}

impl WorkspaceIndex {
    /// Build the index over every scanned file.
    pub fn build(files: &[SourceFile]) -> WorkspaceIndex {
        let mut index = WorkspaceIndex::default();
        for (file_idx, file) in files.iter().enumerate() {
            index.scan_file(file_idx, file);
        }
        index.resolve_containers();
        index.resolve_taint(files);
        index
    }

    /// Collect this file's type aliases and imports.
    fn scan_file(&mut self, file_idx: usize, file: &SourceFile) {
        let tokens = &file.tokens;
        let mut i = 0usize;
        while i < tokens.len() {
            let token = &tokens[i];
            if token.is_ident("type") && !prev_is(tokens, i, "::") {
                if let Some((alias, next)) = parse_type_alias(file_idx, tokens, i) {
                    self.type_aliases.push(alias);
                    i = next;
                    continue;
                }
            } else if token.is_ident("use") {
                let reexport = prev_is_ident(tokens, i, "pub");
                let next = parse_use(file_idx, tokens, i, reexport, &mut self.imports);
                i = next;
                continue;
            }
            i += 1;
        }
    }

    /// Close `container_names` over import aliases of containers.
    fn resolve_containers(&mut self) {
        self.container_names = CONTAINERS.iter().map(|c| (*c).to_owned()).collect();
        loop {
            let before = self.container_names.len();
            for import in &self.imports {
                if self.container_names.contains(&import.target) {
                    self.container_names.insert(import.name.clone());
                }
            }
            if self.container_names.len() == before {
                break;
            }
        }
    }

    /// Fixpoint of `tainted_types`: type aliases whose right-hand side is
    /// (or resolves to) an `IpAddr`-keyed container, and (re-)imports of
    /// such names.
    fn resolve_taint(&mut self, files: &[SourceFile]) {
        loop {
            let before = self.tainted_types.len();
            for alias in &self.type_aliases {
                if self.tainted_types.contains_key(&alias.name) {
                    continue;
                }
                let rhs = &files[alias.file].tokens[alias.rhs.clone()];
                if let Some(reason) = self.rhs_taint(rhs, files, alias) {
                    self.tainted_types.insert(alias.name.clone(), reason);
                }
            }
            let fresh: Vec<(String, String)> = self
                .imports
                .iter()
                .filter(|import| !self.tainted_types.contains_key(&import.name))
                .filter_map(|import| {
                    self.tainted_types
                        .get(&import.target)
                        .map(|reason| (import.name.clone(), reason.clone()))
                })
                .collect();
            for (name, reason) in fresh {
                self.tainted_types.insert(name, reason);
            }
            if self.tainted_types.len() == before {
                break;
            }
        }
    }

    /// Why an alias right-hand side is tainted, if it is.
    fn rhs_taint(&self, rhs: &[Token], files: &[SourceFile], alias: &TypeAlias) -> Option<String> {
        let here = format!(
            "`type {} = …` ({}:{})",
            alias.name, files[alias.file].rel_path, alias.line
        );
        // `type N = C<IpAddr, …>` for any container-denoting name C.
        for window in rhs.windows(3) {
            let [container, open, param] = window else {
                continue;
            };
            if container.kind == TokenKind::Ident
                && self.container_names.contains(&container.text)
                && open.is_punct("<")
                && param.is_ident("IpAddr")
            {
                return Some(here);
            }
        }
        // `type N = M` (possibly path-qualified) for an already-tainted M.
        let last_ident = rhs.iter().rev().find(|t| t.kind == TokenKind::Ident)?;
        self.tainted_types
            .get(&last_ident.text)
            .map(|origin| format!("{here} via {origin}"))
    }
}

/// Whether the token before `i` is the punctuation `text`.
fn prev_is(tokens: &[Token], i: usize, text: &str) -> bool {
    i > 0 && tokens[i - 1].is_punct(text)
}

/// Whether the token before `i` is the identifier `text`.
fn prev_is_ident(tokens: &[Token], i: usize, text: &str) -> bool {
    i > 0 && tokens[i - 1].is_ident(text)
}

/// Parse `type Name = rhs;` starting at the `type` keyword.
fn parse_type_alias(
    file_idx: usize,
    tokens: &[Token],
    type_idx: usize,
) -> Option<(TypeAlias, usize)> {
    let name_token = tokens.get(type_idx + 1)?;
    if name_token.kind != TokenKind::Ident {
        return None;
    }
    // Skip optional generics to the `=` (associated-type bounds like
    // `type Output;` have no `=` before `;`).
    let mut i = type_idx + 2;
    let eq = loop {
        let token = tokens.get(i)?;
        if token.is_punct("=") {
            break i;
        }
        if token.is_punct(";") || token.is_punct("{") {
            return None;
        }
        i += 1;
    };
    let mut j = eq + 1;
    while tokens.get(j).is_some_and(|t| !t.is_punct(";")) {
        j += 1;
    }
    Some((
        TypeAlias {
            file: file_idx,
            name: name_token.text.clone(),
            line: tokens[type_idx].line,
            rhs: eq + 1..j,
        },
        j,
    ))
}

/// Parse one `use …;` starting at the `use` keyword, pushing every leaf
/// (`a::b::C`, `C as D`, group members) into `imports`.  Returns the token
/// index after the terminating `;`.
fn parse_use(
    file_idx: usize,
    tokens: &[Token],
    use_idx: usize,
    reexport: bool,
    imports: &mut Vec<ImportAlias>,
) -> usize {
    let line = tokens[use_idx].line;
    let mut end = use_idx + 1;
    let mut depth = 0i32;
    while let Some(token) = tokens.get(end) {
        match token.text.as_str() {
            "{" if token.kind == TokenKind::Punct => depth += 1,
            "}" if token.kind == TokenKind::Punct => depth -= 1,
            ";" if token.kind == TokenKind::Punct && depth <= 0 => break,
            _ => {}
        }
        end += 1;
    }
    // Split the span into leaves on `,` and `{`/`}` boundaries; each leaf
    // is a path whose last ident (or `as` rename) is the bound name.
    let mut leaf: Vec<&Token> = Vec::new();
    for token in &tokens[use_idx + 1..end] {
        let boundary =
            token.kind == TokenKind::Punct && matches!(token.text.as_str(), "," | "{" | "}");
        if boundary {
            push_leaf(file_idx, line, reexport, &leaf, imports);
            // Group members share the prefix; name-level matching does not
            // need it, so each leaf restarts empty.
            leaf.clear();
        } else {
            leaf.push(token);
        }
    }
    push_leaf(file_idx, line, reexport, &leaf, imports);
    end + 1
}

/// Push one `use` leaf (`path::Target` / `Target as Name`) if well-formed.
fn push_leaf(
    file_idx: usize,
    line: u32,
    reexport: bool,
    leaf: &[&Token],
    imports: &mut Vec<ImportAlias>,
) {
    if leaf.is_empty() {
        return;
    }
    let (path, name) = match leaf.iter().position(|t| t.is_ident("as")) {
        Some(as_idx) => {
            let Some(rename) = leaf.get(as_idx + 1).filter(|t| t.kind == TokenKind::Ident) else {
                return; // `as _` or malformed
            };
            (&leaf[..as_idx], rename.text.clone())
        }
        None => {
            let Some(last) = leaf.last().filter(|t| t.kind == TokenKind::Ident) else {
                return; // `::*` glob or trailing punctuation
            };
            (leaf, last.text.clone())
        }
    };
    let Some(target) = path.iter().rev().find(|t| t.kind == TokenKind::Ident) else {
        return;
    };
    if target.text == "self" || target.text == "crate" || target.text == "super" {
        return;
    }
    imports.push(ImportAlias {
        file: file_idx,
        line,
        target: target.text.clone(),
        name,
        reexport,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn index_of(sources: &[(&str, &str)]) -> (Vec<SourceFile>, WorkspaceIndex) {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(path, src)| SourceFile::parse(path, src, &[]))
            .collect();
        let index = WorkspaceIndex::build(&files);
        (files, index)
    }

    #[test]
    fn type_alias_taint_resolves_through_aliases_and_imports() {
        let (_, index) = index_of(&[
            (
                "crates/netsim/src/x.rs",
                "pub type AddrSet = BTreeSet<IpAddr>;\npub type AddrSetToo = AddrSet;",
            ),
            (
                "crates/core/src/y.rs",
                "use std::collections::HashMap as Index;\npub type AddrIndex = Index<IpAddr, u32>;",
            ),
        ]);
        assert!(index.tainted_types.contains_key("AddrSet"));
        assert!(index.tainted_types.contains_key("AddrSetToo"));
        assert!(index.container_names.contains("Index"));
        assert!(index.tainted_types.contains_key("AddrIndex"));
        assert!(index.tainted_types["AddrSetToo"].contains("via"));
    }

    #[test]
    fn reexports_propagate_taint_under_new_names() {
        let (_, index) = index_of(&[
            (
                "crates/netsim/src/x.rs",
                "pub type AddrSet = BTreeSet<IpAddr>;",
            ),
            (
                "crates/core/src/y.rs",
                "pub use alias_netsim::AddrSet as GroupSet;",
            ),
        ]);
        assert!(index.tainted_types.contains_key("GroupSet"));
    }

    #[test]
    fn plain_type_aliases_stay_untainted() {
        let (_, index) = index_of(&[(
            "crates/resolve/src/x.rs",
            "type LossRound = (u8, u32, u16, u16);\npub type Result<T> = core::result::Result<T, Error>;",
        )]);
        assert!(index.tainted_types.is_empty());
    }

    #[test]
    fn use_groups_and_renames_bind_every_leaf() {
        let (_, index) = index_of(&[(
            "crates/core/src/x.rs",
            "use std::collections::{BTreeMap, BTreeSet as Set};\npub use crate::merge::MergedSet;",
        )]);
        let names: Vec<(&str, &str, bool)> = index
            .imports
            .iter()
            .map(|i| (i.target.as_str(), i.name.as_str(), i.reexport))
            .collect();
        assert!(names.contains(&("BTreeMap", "BTreeMap", false)));
        assert!(names.contains(&("BTreeSet", "Set", false)));
        assert!(names.contains(&("MergedSet", "MergedSet", true)));
        assert!(index.container_names.contains("Set"));
    }
}
