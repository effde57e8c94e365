//! The `alias-lint` command-line entry point.
//!
//! ```text
//! alias-lint --check [--root <dir>] [--summary <path>]
//! alias-lint --list
//! ```
//!
//! `--check` (the default) scans `crates/*/src/**/*.rs` plus the facade's
//! `src/` and applies `lint:allow` suppressions; any violation that
//! survives — or any malformed suppression — fails with exit code 1 and a
//! per-key table.  There is no baseline: a finding is fixed or carries a
//! `lint:allow` with its reason.  `--summary <path>` appends a per-rule
//! roll-up and the per-key table as GitHub-flavoured markdown (pass
//! `$GITHUB_STEP_SUMMARY`).  Usage and I/O errors exit 2.

use alias_lint::registry::{self, ScanReport};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;

fn main() {
    let args = parse_args();
    match args.mode {
        Mode::List => {
            for rule in registry::rules() {
                println!("{:<16} {}", rule.name(), rule.summary());
            }
            for rule in registry::cross_rules() {
                println!("{:<16} {}", rule.name(), rule.summary());
            }
        }
        Mode::Check => {
            let report = registry::scan_workspace(&args.root).unwrap_or_else(die);
            print!("{}", outcome_table(&report));
            if let Some(path) = &args.summary {
                let markdown = summary_markdown(&report);
                let result = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut file| file.write_all(markdown.as_bytes()));
                if let Err(err) = result {
                    die(format!(
                        "could not append the summary to {}: {err}",
                        path.display()
                    ))
                }
            }
            for problem in &report.problems {
                println!("::error::{problem}");
            }
            for violation in &report.violations {
                println!(
                    "::error file={},line={}::[{}] {}",
                    violation.file, violation.line, violation.rule, violation.message
                );
            }
            if !report.is_clean() {
                std::process::exit(1);
            }
        }
    }
}

fn verdict(report: &ScanReport) -> &'static str {
    if report.is_clean() {
        "PASS"
    } else {
        "FAIL"
    }
}

/// The human-readable per-key table printed on every check.
fn outcome_table(report: &ScanReport) -> String {
    let mut out = String::new();
    let counts = report.counts();
    let _ = writeln!(
        out,
        "alias-lint: {} file(s) scanned, {} violation(s) across {} key(s)",
        report.files_scanned,
        report.violations.len(),
        counts.len(),
    );
    for (key, found) in &counts {
        let _ = writeln!(out, "  {key:<55} found {found:>3}");
    }
    let _ = writeln!(out, "alias-lint: {}", verdict(report));
    out
}

/// The markdown tables appended to `--summary`: a per-rule roll-up, then
/// the per-key detail.
fn summary_markdown(report: &ScanReport) -> String {
    let mut out = String::from("\n### alias-lint: determinism & id-space invariants\n\n");
    let per_rule = report.counts_per_rule();
    let _ = writeln!(out, "| Rule | Violations |");
    let _ = writeln!(out, "|---|---:|");
    for rule in registry::rule_names() {
        let live = per_rule.get(rule).copied().unwrap_or(0);
        let mark = if live > 0 { "❌" } else { "✅" };
        let _ = writeln!(out, "| `{rule}` | {mark} {live} |");
    }
    let counts = report.counts();
    if !counts.is_empty() {
        let _ = writeln!(out, "\n| Rule | File | Found |");
        let _ = writeln!(out, "|---|---|---:|");
        for (key, found) in &counts {
            let (file, rule) = key.rsplit_once("::").unwrap_or((key.as_str(), "?"));
            let _ = writeln!(out, "| `{rule}` | `{file}` | {found} |");
        }
    }
    let _ = writeln!(
        out,
        "\n{} file(s) scanned; verdict: **{}**.",
        report.files_scanned,
        verdict(report),
    );
    for problem in &report.problems {
        let _ = writeln!(out, "\n- ❌ {problem}");
    }
    out
}

enum Mode {
    Check,
    List,
}

struct Args {
    mode: Mode,
    root: PathBuf,
    summary: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut mode = Mode::Check;
    let mut root = PathBuf::from(".");
    let mut summary = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => mode = Mode::Check,
            "--list" => mode = Mode::List,
            "--root" => root = required_path(args.next(), "--root"),
            "--summary" => summary = Some(required_path(args.next(), "--summary")),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    Args {
        mode,
        root,
        summary,
    }
}

fn required_path(value: Option<String>, flag: &str) -> PathBuf {
    match value {
        Some(path) => PathBuf::from(path),
        None => usage(&format!("{flag} requires a path")),
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!("usage: alias-lint [--check | --list] [--root <dir>] [--summary <path>]");
    std::process::exit(2);
}

fn die<T>(message: impl std::fmt::Display) -> T {
    eprintln!("error: {message}");
    std::process::exit(2);
}
