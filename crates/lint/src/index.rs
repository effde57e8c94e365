//! Phase 1 of the two-phase analyzer: the workspace symbol index.
//!
//! The per-file rules ([`Rule`](crate::rules::Rule)) see one token stream
//! at a time, which is exactly the blind spot the alias-calculus
//! literature warns about: aliasing introduced *through names and calls*
//! is invisible to per-expression (here: per-file) heuristics.  The index
//! closes that gap at the token level — still no `syn`, still zero
//! dependencies:
//!
//! * **imports** — `use path::Target as Name;` and `pub use` re-exports,
//!   so a renamed `BTreeSet` can't dodge the `id-space` rule;
//! * **type aliases** — `type Name = …;` with the right-hand-side token
//!   span retained, so `type AddrSet = BTreeSet<IpAddr>` taints every use
//!   of `AddrSet`;
//! * **functions** — every `fn` with its body token span, the free
//!   (non-method) calls it makes, and whether the body reads an
//!   RNG/wall-clock sink.  The name-level call graph over these is what
//!   lets `shard-purity` see *transitive* nondeterminism: a shard closure
//!   calling a helper that calls `thread_rng()` two files away.
//!
//! Name resolution is deliberately name-level (no module paths): the
//! workspace's naming is flat enough that last-segment matching is exact
//! in practice, and over-approximating (two distinct `helper` functions
//! merged into one node) only ever errs toward flagging — which the
//! explicit `lint:allow` escape hatch then adjudicates.

use crate::source::SourceFile;
use crate::tokenizer::{Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// The address-keyed container types the `id-space` rule tracks.
pub const CONTAINERS: &[&str] = &["BTreeSet", "HashSet", "BTreeMap", "HashMap"];

/// Identifiers that reach for OS entropy (shared with `det-rng`).
pub const RNG_SINKS: &[&str] = &["thread_rng", "from_entropy", "from_os_rng", "OsRng"];

/// One `fn` definition: where it lives and what its body does.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index of the defining file in the scanned file list.
    pub file: usize,
    /// The function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body (between the braces, exclusive).
    pub body: Range<usize>,
    /// Names of free (non-method) calls the body makes.
    pub calls: BTreeSet<String>,
    /// RNG/wall-clock sinks read directly by the body: `(ident, line)`.
    pub sinks: Vec<(String, u32)>,
}

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
    /// Every function definition, in file/token order.
    pub functions: Vec<FnDef>,
    /// Function name → indices into [`Self::functions`].
    pub fn_by_name: BTreeMap<String, Vec<usize>>,
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
    /// Function names whose bodies reach an RNG/wall-clock sink, directly
    /// or transitively through the call graph.
    pub sink_reachers: BTreeSet<String>,
}

impl WorkspaceIndex {
    /// Build the index over every scanned file.
    pub fn build(files: &[SourceFile]) -> WorkspaceIndex {
        let mut index = WorkspaceIndex::default();
        for (file_idx, file) in files.iter().enumerate() {
            index.scan_file(file_idx, file);
        }
        for (i, def) in index.functions.iter().enumerate() {
            index
                .fn_by_name
                .entry(def.name.clone())
                .or_default()
                .push(i);
        }
        index.resolve_containers();
        index.resolve_taint(files);
        index.resolve_sink_reachers();
        index
    }

    /// Collect this file's functions, type aliases and imports.
    fn scan_file(&mut self, file_idx: usize, file: &SourceFile) {
        let tokens = &file.tokens;
        let mut i = 0usize;
        while i < tokens.len() {
            let token = &tokens[i];
            if token.is_ident("fn") {
                if let Some((def, next)) = parse_fn(file_idx, file, tokens, i) {
                    self.functions.push(def);
                    i = next;
                    continue;
                }
            } else if token.is_ident("type") && !prev_is(tokens, i, "::") {
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

    /// Fixpoint of `sink_reachers` over the name-level call graph.
    fn resolve_sink_reachers(&mut self) {
        for def in &self.functions {
            if !def.sinks.is_empty() {
                self.sink_reachers.insert(def.name.clone());
            }
        }
        loop {
            let before = self.sink_reachers.len();
            for def in &self.functions {
                if self.sink_reachers.contains(&def.name) {
                    continue;
                }
                if def.calls.iter().any(|c| self.sink_reachers.contains(c)) {
                    self.sink_reachers.insert(def.name.clone());
                }
            }
            if self.sink_reachers.len() == before {
                break;
            }
        }
    }

    /// The first RNG/wall-clock sink reachable from a call to `name`
    /// (depth-first through the call graph), as a human-readable trail
    /// (`"helper → deep_helper → thread_rng"`), if any.
    pub fn sink_trail(&self, name: &str) -> Option<String> {
        if !self.sink_reachers.contains(name) {
            return None;
        }
        let mut trail = vec![name.to_owned()];
        let mut visited = BTreeSet::new();
        let mut current = name.to_owned();
        loop {
            if !visited.insert(current.clone()) {
                return Some(trail.join(" → "));
            }
            let defs = self.fn_by_name.get(&current)?;
            let def = defs.iter().map(|&i| &self.functions[i]).find(|d| {
                !d.sinks.is_empty() || d.calls.iter().any(|c| self.sink_reachers.contains(c))
            })?;
            if let Some((sink, _)) = def.sinks.first() {
                trail.push(sink.clone());
                return Some(trail.join(" → "));
            }
            let next = def
                .calls
                .iter()
                .find(|c| self.sink_reachers.contains(*c) && !visited.contains(*c))?
                .clone();
            trail.push(next.clone());
            current = next;
        }
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

/// Rust keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "match", "while", "for", "loop", "return", "fn", "let", "move", "in", "as", "else",
];

/// Parse `fn name … { body }` starting at the `fn` keyword; returns the
/// definition and the token index to resume scanning at (the body start,
/// so nested functions and closures are still visited by the caller).
fn parse_fn(
    file_idx: usize,
    file: &SourceFile,
    tokens: &[Token],
    fn_idx: usize,
) -> Option<(FnDef, usize)> {
    let name_token = tokens.get(fn_idx + 1)?;
    if name_token.kind != TokenKind::Ident {
        return None; // `Fn(` trait sugar or malformed
    }
    // Find the parameter list: the first `(` at angle depth 0 (generic
    // parameters may themselves contain `Fn(…)` parens).
    let mut i = fn_idx + 2;
    let mut angle = 0i32;
    let params_open = loop {
        let token = tokens.get(i)?;
        match token.text.as_str() {
            "<" if token.kind == TokenKind::Punct => angle += 1,
            ">" if token.kind == TokenKind::Punct => angle -= 1,
            "(" if token.kind == TokenKind::Punct && angle <= 0 => break i,
            ";" | "{" | "}" if token.kind == TokenKind::Punct => return None,
            _ => {}
        }
        i = i.checked_add(1)?;
    };
    let params_close = matching(tokens, params_open, "(", ")")?;
    // Find the body `{` (or `;` for a bodyless signature) at bracket
    // depth 0 after the parameters — return types and `where` clauses may
    // contain parens.
    let mut i = params_close + 1;
    let mut depth = 0i32;
    let body_open = loop {
        let token = tokens.get(i)?;
        match token.text.as_str() {
            "(" | "[" if token.kind == TokenKind::Punct => depth += 1,
            ")" | "]" if token.kind == TokenKind::Punct => depth -= 1,
            ";" if token.kind == TokenKind::Punct && depth == 0 => return None,
            "{" if token.kind == TokenKind::Punct && depth == 0 => break i,
            _ => {}
        }
        i = i.checked_add(1)?;
    };
    let body_close = matching(tokens, body_open, "{", "}")?;
    let body = body_open + 1..body_close;
    let mut calls = BTreeSet::new();
    let mut sinks = Vec::new();
    scan_body(file, tokens, body.clone(), &mut calls, &mut sinks);
    Some((
        FnDef {
            file: file_idx,
            name: name_token.text.clone(),
            line: tokens[fn_idx].line,
            body,
            calls,
            sinks,
        },
        body_open + 1,
    ))
}

/// Record the free calls and RNG/wall-clock sinks of a body span.
fn scan_body(
    file: &SourceFile,
    tokens: &[Token],
    body: Range<usize>,
    calls: &mut BTreeSet<String>,
    sinks: &mut Vec<(String, u32)>,
) {
    // The designated wall-clock sites of `det-wallclock` stay legitimate
    // here too: stage timing is not a shard-purity sink.
    let wallclock_ok = file.rel_path == "crates/resolve/src/resolver.rs"
        || file.rel_path.starts_with("crates/bench/");
    for i in body.clone() {
        let token = &tokens[i];
        if token.kind != TokenKind::Ident {
            continue;
        }
        if RNG_SINKS.contains(&token.text.as_str()) {
            sinks.push((token.text.clone(), token.line));
            continue;
        }
        if !wallclock_ok {
            if token.text == "SystemTime" {
                sinks.push((token.text.clone(), token.line));
                continue;
            }
            if token.text == "Instant"
                && tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && tokens.get(i + 2).is_some_and(|t| t.is_ident("now"))
            {
                sinks.push(("Instant::now".to_owned(), token.line));
                continue;
            }
        }
        // A free call: `name(` not preceded by `.` (method) and not a
        // keyword or macro (`name!(`).
        if body.contains(&(i + 1))
            && tokens[i + 1].is_punct("(")
            && !prev_is(tokens, i, ".")
            && !CALL_KEYWORDS.contains(&token.text.as_str())
        {
            calls.insert(token.text.clone());
        }
    }
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

/// The index of the token matching `open_text` at `open_idx`.
pub fn matching(
    tokens: &[Token],
    open_idx: usize,
    open_text: &str,
    close_text: &str,
) -> Option<usize> {
    let mut depth = 0i32;
    for (j, token) in tokens.iter().enumerate().skip(open_idx) {
        if token.is_punct(open_text) {
            depth += 1;
        } else if token.is_punct(close_text) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
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
    fn functions_calls_and_sinks_are_indexed() {
        let (_, index) = index_of(&[(
            "crates/core/src/x.rs",
            "fn outer(n: u32) -> u32 { helper(n) + n }\n\
             fn helper(n: u32) -> u32 { let rng = rand::thread_rng(); n }\n\
             fn clean(v: &mut Vec<u32>) { v.sort(); }",
        )]);
        assert_eq!(index.functions.len(), 3);
        let outer = &index.functions[0];
        assert!(outer.calls.contains("helper"));
        assert!(outer.sinks.is_empty());
        assert!(index.sink_reachers.contains("helper"));
        assert!(index.sink_reachers.contains("outer"));
        assert!(!index.sink_reachers.contains("clean"));
        let trail = index.sink_trail("outer").expect("reaches a sink");
        assert!(trail.contains("helper"), "{trail}");
        assert!(trail.contains("thread_rng"), "{trail}");
    }

    #[test]
    fn method_calls_and_macros_are_not_call_edges() {
        let (_, index) = index_of(&[(
            "crates/core/src/x.rs",
            "fn f(v: Vec<u32>) { v.iter(); println!(\"{}\", v.len()); sort(v); }",
        )]);
        let f = &index.functions[0];
        assert!(f.calls.contains("sort"));
        assert!(!f.calls.contains("iter"));
        assert!(!f.calls.contains("println"));
        assert!(!f.calls.contains("len"));
    }

    #[test]
    fn generic_params_with_fn_bounds_parse() {
        let (_, index) = index_of(&[(
            "crates/core/src/x.rs",
            "fn apply<F: Fn(u32) -> u32>(f: F, n: u32) -> u32 where F: Sync { f(n) }",
        )]);
        assert_eq!(index.functions.len(), 1);
        assert_eq!(index.functions[0].name, "apply");
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

    #[test]
    fn designated_wallclock_files_are_not_sinks() {
        let (_, index) = index_of(&[
            (
                "crates/resolve/src/resolver.rs",
                "fn timed() -> u64 { let t = Instant::now(); 0 }",
            ),
            (
                "crates/scan/src/x.rs",
                "fn stamped() -> u64 { let t = Instant::now(); 0 }",
            ),
        ]);
        assert!(!index.sink_reachers.contains("timed"));
        assert!(index.sink_reachers.contains("stamped"));
    }
}
