//! The source rules the compiler and clippy cannot state, read straight off
//! the tree.  Hash-iteration order is `clippy.toml`'s and
//! `clippy::iter_over_hash_type`'s; crate hygiene is `[workspace.lints]`'s
//! (docs/LINTS.md).

use std::fs;
use std::path::{Path, PathBuf};

/// The crates whose hot-path state must stay in `AddrId` space.
const ID_SPACE_CRATES: &[&str] = &["core", "resolve", "store", "scan"];

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

/// The `.rs` files of listed crate `krate`'s `src` tree.  A rule that
/// lists a crate with none (a misspelled or deleted crate) would check
/// nothing and pass, so it fails here instead, naming the path.
fn crate_files(krate: &str) -> Vec<PathBuf> {
    let src = root().join("crates").join(krate).join("src");
    let files = rs_files(&src);
    assert!(!files.is_empty(), "{} has no .rs file", src.display());
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
        for file in crate_files(krate) {
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

/// No non-test line of `crates/*/src` (CI's rule, as above) calls
/// `.unwrap()`: a fallible step either handles its error or says why it
/// cannot fail, in an `expect`.  Comment lines, doc examples included, are
/// not code.  Clippy cannot state this (docs/LINTS.md).
#[test]
fn no_non_test_line_of_a_crate_unwraps() {
    let mut found = Vec::new();
    let members = fs::read_dir(root().join("crates")).unwrap();
    for src in members.map(|e| e.unwrap().path().join("src")) {
        for file in rs_files(&src) {
            let text = fs::read_to_string(&file).unwrap();
            let lines = text.lines().take_while(|l| *l != "#[cfg(test)]");
            for (i, line) in lines.enumerate() {
                let code = line.trim_start();
                if !code.starts_with("//") && code.contains(".unwrap()") {
                    found.push(format!("{}:{}: {code}", file.display(), i + 1));
                }
            }
        }
    }
    assert!(found.is_empty(), "{found:#?}");
}

/// The measurement crates see no ground truth: no non-test line of `scan`
/// or `resolve` (CI's rule, as above; comment lines are not code)
/// names a device or reads the device table, whose rows list each device's
/// interfaces.  The types state the rest (a `Route` has no equality,
/// `DeviceId`'s field is private); clippy's `disallowed-*` lists cannot
/// state this, as they bind a whole crate and each crate's tests name
/// these to score what they infer (docs/LINTS.md).
#[test]
fn no_non_test_line_of_a_measurement_crate_names_a_device() {
    let mut found = Vec::new();
    for krate in ["scan", "resolve"] {
        for file in crate_files(krate) {
            let text = fs::read_to_string(&file).unwrap();
            let lines = text.lines().take_while(|l| *l != "#[cfg(test)]");
            for (i, line) in lines.enumerate() {
                let code = line.trim_start();
                let names = [
                    "DeviceId",
                    "device_of",
                    "ground_truth",
                    "DeviceRef",
                    "devices()",
                    ".device(",
                    "interfaces()",
                ]
                .map(|n| code.contains(n));
                if !code.starts_with("//") && names.contains(&true) {
                    found.push(format!("{}:{}: {code}", file.display(), i + 1));
                }
            }
        }
    }
    assert!(found.is_empty(), "{found:#?}");
}
