//! The source rules the compiler and clippy cannot state, read straight off
//! the tree.  Hash-iteration order is `clippy.toml`'s and
//! `clippy::iter_over_hash_type`'s; crate hygiene is `[workspace.lints]`'s
//! (docs/LINTS.md).

use std::fs;
use std::path::{Path, PathBuf};

/// The crates whose hot-path state must stay in `AddrId` space.
const ID_SPACE_CRATES: &[&str] = &["core", "resolve", "store", "scan", "midar"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let entries = fs::read_dir(dir).into_iter().flatten();
    for path in entries.map(|e| e.unwrap().path()) {
        if path.is_dir() {
            files.extend(rs_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

/// Whether `code` names a set or map whose first generic argument is an
/// address: `BTreeSet<IpAddr>`, `HashMap<std::net::IpAddr, _>`.
fn addr_keyed(code: &str) -> bool {
    code.match_indices('<').any(|(i, _)| {
        let first = code[i + 1..].split([',', '>']).next().unwrap();
        let container = code[..i].ends_with("Set") || code[..i].ends_with("Map");
        container && first.trim().ends_with("IpAddr")
    })
}

/// The `src` trees of `crates/*` and of the facade.
fn source_dirs() -> Vec<PathBuf> {
    let members = fs::read_dir(root().join("crates")).unwrap();
    let mut dirs: Vec<PathBuf> = members.map(|e| e.unwrap().path().join("src")).collect();
    dirs.push(root().join("src"));
    dirs
}

/// In the id-space crates, a non-test line (CI's rule: everything before
/// the first `#[cfg(test)]`) that names an address-keyed set or map says
/// why in a `// id-space: <why>` comment on that line or the one above.
#[test]
fn address_keyed_containers_in_the_id_space_crates_say_why() {
    let marked = |line: &str| line.contains("// id-space: ");
    let mut unmarked = Vec::new();
    for krate in ID_SPACE_CRATES {
        for file in rs_files(&root().join("crates").join(krate).join("src")) {
            let text = fs::read_to_string(&file).unwrap();
            let lines: Vec<&str> = text.lines().take_while(|l| *l != "#[cfg(test)]").collect();
            for (i, line) in lines.iter().enumerate() {
                let code = line.trim_start();
                let keyed = addr_keyed(code);
                let explained = marked(line) || (i > 0 && marked(lines[i - 1]));
                if keyed && !code.starts_with("//") && !explained {
                    unmarked.push(format!("{}:{}: {code}", file.display(), i + 1));
                }
            }
        }
    }
    assert!(unmarked.is_empty(), "{unmarked:#?}");
}

/// A `type` alias over an address-keyed container would hide it from the
/// rule above, so no crate defines one.
#[test]
fn no_type_alias_names_an_address_keyed_container() {
    let mut found = Vec::new();
    for file in source_dirs().iter().flat_map(|d| rs_files(d)) {
        let text = fs::read_to_string(&file).unwrap();
        let mut at = 0;
        for line in text.split_inclusive('\n') {
            let code = line.trim_start().trim_start_matches("pub(crate) ");
            if code.trim_start_matches("pub ").starts_with("type ") {
                // The alias runs to its `;`, possibly over several lines.
                let alias = text[at..].split(';').next().unwrap();
                if addr_keyed(alias) {
                    found.push(format!("{}: {}", file.display(), code.trim_end()));
                }
            }
            at += line.len();
        }
    }
    assert!(found.is_empty(), "{found:#?}");
}

/// Every member takes `[workspace.lints]`, and only the counting allocator
/// lifts the workspace's deny of unsafe code: the guarantee the per-crate
/// `forbid` used to give.
#[test]
fn every_member_takes_the_workspace_lints_and_only_the_allocator_allows_unsafe() {
    for manifest in source_dirs().iter().map(|d| d.with_file_name("Cargo.toml")) {
        let text = fs::read_to_string(&manifest).unwrap();
        let takes = text.contains("\n[lints]\nworkspace = true\n");
        assert!(takes, "{}", manifest.display());
    }
    let allocator = root().join("tests").join("alloc_budget.rs");
    let dirs = ["crates", "src", "tests", "examples"].map(|d| root().join(d));
    for file in dirs.iter().flat_map(|d| rs_files(d)) {
        let text = fs::read_to_string(&file).unwrap();
        let lifts = text.contains(concat!("unsafe", "_code"));
        assert!(!lifts || file == allocator, "{}", file.display());
    }
}
