//! `selfcheck`: the benchmark measuring itself.  Every workload is run in
//! two interleaved sets, A and B, of the same commit; the sets must agree
//! within the bounds `BENCHMARK.json` fixes, and the calibrated seconds
//! must vary less between runs than the raw ones they replace.

use crate::harness::RunOutput;
use crate::schema::Benchmark;
use crate::stats::{cv, iqr_share, median};
use crate::Cli;
use std::collections::BTreeMap;
use std::process::Command;

/// What `selfcheck` keeps of one child run.
struct Run {
    output: RunOutput,
    raw_wall_s: f64,
    doc_digest: String,
}

/// The token after `key` on a `# key value key value` diagnostic line.
fn diagnostic<'a>(stdout: &'a str, key: &str) -> Option<&'a str> {
    stdout
        .lines()
        .filter(|line| line.starts_with('#'))
        .find_map(|line| {
            let mut tokens = line.split_ascii_whitespace();
            tokens.find(|token| *token == key)?;
            tokens.next()
        })
}

fn child_run(workload: &str, seed: u64, seconds: f64, cli: &Cli) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", alias_bench::scale_name(cli.scale)])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    let parsed: RunOutput = serde_json::from_str(last).map_err(|e| e.to_string())?;
    if !parsed.correct {
        return Err(format!(
            "{workload} seed {seed}: {} of {} iterations failed",
            parsed.failed, parsed.attempted
        ));
    }
    Ok(Run {
        output: parsed,
        raw_wall_s: diagnostic(&stdout, "raw_wall_s")
            .and_then(|v| v.parse().ok())
            .ok_or("the run printed no raw_wall_s")?,
        doc_digest: diagnostic(&stdout, "doc_digest")
            .ok_or("the run printed no doc_digest")?
            .to_owned(),
    })
}

fn metric(run: &Run, name: &str) -> f64 {
    run.output
        .metrics
        .iter()
        .find(|(metric, _, _)| metric == name)
        .map_or(f64::NAN, |(_, value, _)| *value)
}

/// By what share of `from`'s value `to` is worse, in the metric's direction.
fn worse_by(from: f64, to: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (to - from) / from
    } else {
        (from - to) / from
    }
}

pub fn run(workloads: &[&str], cli: &Cli) -> Result<(), String> {
    let benchmark = Benchmark::load()?;
    let seconds = cli.seconds.unwrap_or(benchmark.run_seconds as f64);
    let parallelism = crate::harness::available_parallelism();
    let workloads: Vec<&str> = workloads
        .iter()
        .copied()
        .filter(|name| parallelism >= 2 || !name.ends_with("-2t"))
        .collect();

    // sets[workload][0 = A, 1 = B] in run order; run i of both sets has
    // seed + i, and the sets alternate so drift hits both alike.
    let mut sets: BTreeMap<&str, [Vec<Run>; 2]> = BTreeMap::new();
    for round in 0..cli.runs {
        for set in 0..2 {
            for &workload in &workloads {
                let seed = cli.seed + round as u64;
                eprintln!(
                    "selfcheck: set {} run {} of {workload} (seed {seed})",
                    ["A", "B"][set],
                    round + 1
                );
                let run = child_run(workload, seed, seconds, cli)?;
                let values: Vec<String> = (run.output.metrics.iter())
                    .map(|(name, value, _)| format!("{name}={value:.6}"))
                    .collect();
                println!(
                    "run {workload} set {} seed {seed} raw_wall_s={:.6} {}",
                    ["A", "B"][set],
                    run.raw_wall_s,
                    values.join(" ")
                );
                sets.entry(workload).or_default()[set].push(run);
            }
        }
    }

    let mut failures = Vec::new();
    println!("workload              metric          unit    median A      median B      B worse by  bound   spread A  spread B");
    for &workload in &workloads {
        let [a, b] = &sets[workload];
        for entry in &benchmark.end_to_end {
            let values = |set: &[Run]| {
                set.iter()
                    .map(|run| metric(run, &entry.name))
                    .collect::<Vec<_>>()
            };
            let (va, vb) = (values(a), values(b));
            let (ma, mb) = (median(&va), median(&vb));
            let lower = entry.better == "lower";
            let worse = worse_by(ma, mb, lower).max(worse_by(mb, ma, lower));
            let spread = |v: &[f64]| if v.len() >= 2 { iqr_share(v) } else { 0.0 };
            println!(
                "{workload:<21} {:<15} {:<7} {ma:<13.6} {mb:<13.6} {:>+9.2} %  {:>4.1} %  {:>6.2} %  {:>6.2} %",
                entry.name,
                entry.unit,
                worse_by(ma, mb, lower) * 100.0,
                entry.bound * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
            );
            if worse.is_nan() || worse > entry.bound {
                failures.push(format!(
                    "{workload}/{}: sets differ by {:.2} %, bound {:.1} %",
                    entry.name,
                    worse * 100.0,
                    entry.bound * 100.0
                ));
            }
        }
    }

    println!(
        "\nworkload              between-run CV raw_wall_s   cal_wall_s   (all {} runs)",
        2 * cli.runs
    );
    for &workload in &workloads {
        let runs = || sets[workload].iter().flatten();
        let raw = cv(&runs().map(|run| run.raw_wall_s).collect::<Vec<_>>());
        let calibrated = cv(&runs()
            .map(|run| metric(run, "cal_wall_s"))
            .collect::<Vec<_>>());
        println!(
            "{workload:<21} {:>22.2} %  {:>9.2} %",
            raw * 100.0,
            calibrated * 100.0
        );
    }

    // Same inputs, same document, whatever the thread count.
    if let (Some(one), Some(two)) = (sets.get("paper-report-1t"), sets.get("paper-report-2t")) {
        for (a, b) in one.iter().flatten().zip(two.iter().flatten()) {
            if a.doc_digest != b.doc_digest {
                failures.push(format!(
                    "paper-report doc_digest differs between 1t ({}) and 2t ({})",
                    a.doc_digest, b.doc_digest
                ));
            }
        }
    }

    if failures.is_empty() {
        println!("\nselfcheck passed");
        Ok(())
    } else {
        Err(format!("selfcheck failed:\n  {}", failures.join("\n  ")))
    }
}
