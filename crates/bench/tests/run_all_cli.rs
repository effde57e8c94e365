//! The `run_all` binary's command line, driven as a subprocess at tiny
//! scale: the section argument, its rejection, and the `--metrics` files.

use alias_bench::{render_document_with_study, section_names, Experiment, RateLimitStudy};
use alias_netsim::ScalePreset;
use std::path::PathBuf;
use std::process::{Command, Output};

/// The seed `run_all` runs on.
const SEED: u64 = 20230418;

/// What `ALIAS_SCALE=tiny run_all` writes, checked in at the repo root.
const GOLDEN: &str = include_str!("../../../tests/golden/experiments_tiny.md");

/// Run the binary in its own scratch directory under the target dir (it
/// writes `EXPERIMENTS_MEASURED.md` to the working directory).
fn run_all(test: &str, args: &[&str]) -> (PathBuf, Output) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .env("ALIAS_SCALE", "tiny")
        .env("ALIAS_THREADS", "2")
        .current_dir(&dir)
        .output()
        .expect("run_all starts");
    (dir, output)
}

#[test]
fn a_section_argument_prints_that_block_of_the_document_and_writes_nothing() {
    for (name, heading) in [
        ("table3", "## Table 3\n"),
        ("stats", "## Narrative statistics\n"),
    ] {
        let (dir, output) = run_all(&format!("section_{name}"), &[name]);
        assert!(output.status.success(), "{name}: {output:?}");
        let (_, after) = GOLDEN
            .split_once(heading)
            .expect("heading in the golden file");
        let (_, fenced) = after.split_once("```text\n").expect("fenced block");
        let (block, _) = fenced.split_once("```").expect("closing fence");
        assert_eq!(
            String::from_utf8_lossy(&output.stdout),
            format!("{block}\n")
        );
        assert!(!dir.join("EXPERIMENTS_MEASURED.md").exists());
    }
}

#[test]
fn an_unknown_section_exits_2_naming_the_valid_ones() {
    let (dir, output) = run_all("unknown_section", &["table7"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&output.stderr);
    for name in section_names() {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
    assert!(!dir.join("EXPERIMENTS_MEASURED.md").exists());
}

#[test]
fn the_metrics_file_is_the_deterministic_snapshot_of_the_run() {
    let (dir, output) = run_all("metrics", &["--metrics", "M.json"]);
    assert!(output.status.success(), "{output:?}");
    // The same run in this process (the only test here that touches the
    // process-global registry, so no lock): the artefact is exactly the
    // string `metrics_determinism.rs` compares across thread counts.
    alias_obs::registry().reset();
    let experiment = Experiment::run_with_threads(ScalePreset::Tiny, SEED, 2);
    let study = RateLimitStudy::run(ScalePreset::Tiny, SEED, 2);
    let doc = render_document_with_study(&experiment, ScalePreset::Tiny, &study);
    let snapshot = alias_obs::registry().snapshot();
    let read = |file: &str| std::fs::read_to_string(dir.join(file)).expect(file);
    assert_eq!(read("M.json"), snapshot.deterministic_json());
    assert_eq!(read("EXPERIMENTS_MEASURED.md"), doc);
    assert!(read("M.json.full.json").contains("\"spans\""));
    assert!(read("M.json.prom").contains("# TYPE"));
}
