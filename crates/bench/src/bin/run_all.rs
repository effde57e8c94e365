//! Runs every table and figure experiment and writes `EXPERIMENTS.md` with
//! the measured values next to the paper's published ones.
//!
//! Flags:
//!
//! * `--json <path>` — additionally record the bench trajectory: run the
//!   pipeline at 1 thread and at `ALIAS_THREADS` (default: available
//!   parallelism), verify the rendered documents are byte-identical across
//!   thread counts (and across repeats), and write per-stage wall-clock
//!   timings as JSON (the `BENCH_*.json` format the CI perf-smoke job
//!   uploads).  Every run row also carries the per-technique timing
//!   breakdown from the `Resolver`'s `ResolutionReport`.
//! * `--repeat <n>` — with `--json`, run each configuration `n` times and
//!   record per-field **medians** (each stage and technique timing is
//!   medianed independently).  Wall-clock on shared 1-core runners swings
//!   run to run; medians make the recorded trajectory trustworthy enough
//!   to diff.  The written report carries `"repeat": n`.
//! * `--sweep <scales>:<threads>` — with `--json`, additionally measure a
//!   scale × threads matrix (e.g. `--sweep tiny,small:1,2,8`) and record
//!   it in the report's `sweep` field.  Each cell is a full instrumented
//!   pipeline run (medianed over `--repeat`); within each scale the
//!   rendered document is checked byte-identical across the swept thread
//!   counts.  `bench_diff` compares cells matched by (scale, threads).
//! * `--sweep-summary <path>` — append the sweep matrix as a markdown
//!   table to `path` (pass `$GITHUB_STEP_SUMMARY` in CI).
//! * `--metrics <path>` — record the alias-obs metrics registry alongside
//!   the run: `<path>` gets the deterministic counter/gauge/event subset
//!   per measured configuration (the file `bench_diff --metrics-invariant`
//!   reads), `<path>.full.json` the complete final snapshot including
//!   timing-class metrics, histograms and spans, and `<path>.prom` the
//!   Prometheus text render.  Emits a `::warning::` when the scan-stage
//!   shard imbalance gauge exceeds 4x.
//! * `--ceiling-secs <n>` — exit non-zero if the whole invocation exceeds
//!   `n` seconds of wall-clock (the CI perf gate).

use alias_bench::{
    median_run, render_document, render_document_with_study, scale_from_env, scale_from_name,
    scale_name, BenchReport, Experiment, MetricsReport, MetricsRunRecord, RateLimitStudy,
    StageTimings, SweepCell, TechniqueTiming,
};
use alias_netsim::ScalePreset;
use std::io::Write as _;

fn main() {
    let started = alias_obs::Stopwatch::start();
    let args = parse_args();

    let preset = scale_from_env();
    let seed = 20230418;
    let threads = alias_exec::threads_from_env();

    // One metrics snapshot per measured configuration: the registry is reset
    // before each configuration and sampled after it, so every record holds
    // exactly that configuration's counters (scaled equally by `--repeat`
    // across configurations, which keeps cross-thread comparison valid).
    let mut metric_runs: Vec<MetricsRunRecord> = Vec::new();
    let mut final_snapshot: Option<alias_obs::MetricsSnapshot> = None;
    let mut sample_metrics = |threads: usize| {
        if args.metrics_path.is_some() {
            let snapshot = alias_obs::registry().snapshot();
            metric_runs.push(MetricsRunRecord::from_snapshot(threads, &snapshot));
            final_snapshot = Some(snapshot);
            alias_obs::registry().reset();
        }
    };

    alias_obs::registry().reset();
    let doc = if let Some(path) = &args.json_path {
        // Bench trajectory: serial runs first, then the threaded runs; each
        // configuration measured `repeat` times and recorded as medians.
        let (serial_doc, serial_run) = measure(preset, seed, 1, args.repeat, None);
        sample_metrics(1);
        let mut runs = vec![serial_run];
        let doc = if threads > 1 {
            let (threaded_doc, threaded_run) =
                measure(preset, seed, threads, args.repeat, Some(&serial_doc));
            sample_metrics(threads);
            runs.push(threaded_run);
            threaded_doc
        } else {
            serial_doc
        };
        let mut report = BenchReport::new("PR15", preset, seed, args.repeat, runs);
        if let Some(sweep) = &args.sweep {
            report = report.with_sweep(run_sweep(sweep, seed, args.repeat));
            if let Some(summary) = &args.sweep_summary {
                append_sweep_summary(summary, &report);
            }
        }
        if let Err(err) = std::fs::write(path, report.to_json()) {
            eprintln!("could not write {path}: {err}");
            std::process::exit(1);
        }
        eprintln!(
            "bench trajectory written to {path} (median of {}, campaign+merge speedup: {:.2}x)",
            args.repeat, report.campaign_merge_speedup
        );
        doc
    } else {
        let experiment = Experiment::run_with_threads(preset, seed, threads);
        let study = RateLimitStudy::run(preset, seed, threads);
        let doc = render_document_with_study(&experiment, preset, &study);
        sample_metrics(threads);
        doc
    };

    if let Some(path) = &args.metrics_path {
        write_metrics(path, preset, metric_runs, final_snapshot);
    }

    println!("{doc}");
    if let Err(err) = std::fs::write("EXPERIMENTS_MEASURED.md", &doc) {
        eprintln!("could not write EXPERIMENTS_MEASURED.md: {err}");
    }

    if let Some(ceiling) = args.ceiling_secs {
        let elapsed = started.elapsed().as_secs();
        if elapsed > ceiling {
            eprintln!("perf gate FAILED: run_all took {elapsed}s (> {ceiling}s ceiling)");
            std::process::exit(1);
        }
        eprintln!("perf gate passed: run_all took {elapsed}s (<= {ceiling}s ceiling)");
    }
}

/// Run one configuration `repeat` times, verifying every repeat renders the
/// same document (and, when `reference` is given, that it matches the other
/// thread count's output byte for byte).  Returns the rendered document and
/// the median-collapsed run row.
///
/// Each repeat also runs the ICMP rate-limiting study (its own Internet, so
/// it cannot disturb the main experiment's timings) and appends the new
/// technique's `resolve_ms` to the run's technique rows — the
/// `technique:ratelimit` entry in `BENCH_PR9.json`.
fn measure(
    preset: ScalePreset,
    seed: u64,
    threads: usize,
    repeat: usize,
    reference: Option<&str>,
) -> (String, alias_bench::BenchRun) {
    let mut samples: Vec<(StageTimings, Vec<TechniqueTiming>)> = Vec::with_capacity(repeat);
    let mut doc: Option<String> = None;
    for rep in 1..=repeat {
        let (exp, timings) = Experiment::run_instrumented(preset, seed, threads);
        let study = RateLimitStudy::run(preset, seed, threads);
        let rendered = render_document_with_study(&exp, preset, &study);
        let mut technique_ms = exp.resolution.technique_timings.clone();
        technique_ms.extend(study.ratelimit_timing());
        samples.push((timings, technique_ms));
        match &doc {
            None => {
                if let Some(reference) = reference {
                    if rendered != reference {
                        eprintln!(
                            "determinism violation: rendered output differs between \
                             1 and {threads} threads"
                        );
                        std::process::exit(1);
                    }
                    eprintln!("determinism check passed: 1 vs {threads} threads byte-identical");
                }
                doc = Some(rendered);
            }
            Some(first) => {
                if &rendered != first {
                    eprintln!(
                        "determinism violation: rendered output differs between repeats \
                         (repeat {rep} of {repeat} at {threads} threads)"
                    );
                    std::process::exit(1);
                }
            }
        }
    }
    (doc.expect("repeat >= 1"), median_run(threads, &samples))
}

/// Measure every (scale, threads) cell of the sweep spec, medianed over
/// `repeat` runs per cell.  Within each scale the rendered document must
/// come out byte-identical at every swept thread count — the determinism
/// contract the scan-stage sharding guarantees.
fn run_sweep(sweep: &SweepSpec, seed: u64, repeat: usize) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for &preset in &sweep.scales {
        let mut reference: Option<String> = None;
        for &threads in &sweep.threads {
            eprintln!(
                "sweep: scale {} @ {threads} thread(s), median of {repeat}",
                scale_name(preset)
            );
            let mut samples: Vec<(StageTimings, Vec<TechniqueTiming>)> = Vec::with_capacity(repeat);
            for _ in 0..repeat {
                let (exp, timings) = Experiment::run_instrumented(preset, seed, threads);
                let rendered = render_document(&exp, preset);
                match &reference {
                    None => reference = Some(rendered),
                    Some(first) => {
                        if &rendered != first {
                            eprintln!(
                                "determinism violation: scale {} renders differently at \
                                 {threads} threads",
                                scale_name(preset)
                            );
                            std::process::exit(1);
                        }
                    }
                }
                samples.push((timings, Vec::new()));
            }
            let run = median_run(threads, &samples);
            cells.push(SweepCell {
                scale: scale_name(preset).to_owned(),
                threads,
                stages: run.stages,
                total_ms: run.total_ms,
            });
        }
    }
    cells
}

/// Write the three `--metrics` artifacts: the deterministic-subset report
/// at `path`, the complete final snapshot at `<path>.full.json`, and the
/// Prometheus text render at `<path>.prom`.  Warns (in GitHub annotation
/// form) when the scan-stage shard imbalance gauge exceeds 4x — the
/// sharding contract says work should spread near-evenly.
fn write_metrics(
    path: &str,
    preset: ScalePreset,
    runs: Vec<MetricsRunRecord>,
    final_snapshot: Option<alias_obs::MetricsSnapshot>,
) {
    let report = MetricsReport::new("PR15", preset, runs);
    if let Err(err) = std::fs::write(path, report.to_json()) {
        eprintln!("could not write {path}: {err}");
        std::process::exit(1);
    }
    let snapshot = final_snapshot.unwrap_or_default();
    if let Err(err) = std::fs::write(format!("{path}.full.json"), snapshot.to_json()) {
        eprintln!("could not write {path}.full.json: {err}");
        std::process::exit(1);
    }
    if let Err(err) = std::fs::write(format!("{path}.prom"), snapshot.to_prometheus()) {
        eprintln!("could not write {path}.prom: {err}");
        std::process::exit(1);
    }
    if let Some(imbalance) = snapshot
        .gauges
        .iter()
        .find(|g| g.name == "exec.shard_imbalance_x1000")
    {
        if imbalance.value > 4_000 {
            println!(
                "::warning::shard imbalance is {:.2}x (> 4x): the slowest shard \
                 carried that multiple of the mean per-shard work",
                imbalance.value as f64 / 1_000.0
            );
        }
    }
    eprintln!(
        "metrics written to {path} ({} run(s)), full snapshot to {path}.full.json, \
         prometheus render to {path}.prom",
        report.runs.len()
    );
}

/// Append the sweep matrix as a markdown table (scales down, thread counts
/// across, `campaign_ms` / `total_ms` per cell) to `path`.
fn append_sweep_summary(path: &str, report: &BenchReport) {
    let mut threads: Vec<usize> = report.sweep.iter().map(|c| c.threads).collect();
    threads.sort_unstable();
    threads.dedup();
    let mut scales: Vec<&str> = Vec::new();
    for cell in &report.sweep {
        if !scales.contains(&cell.scale.as_str()) {
            scales.push(&cell.scale);
        }
    }
    let mut table = format!(
        "\n### {} scaling sweep (campaign ms / total ms, median of {})\n\n",
        report.bench, report.repeat
    );
    table.push_str("| Scale |");
    for t in &threads {
        table.push_str(&format!(" {t} thread(s) |"));
    }
    table.push_str("\n|---|");
    for _ in &threads {
        table.push_str("---:|");
    }
    table.push('\n');
    for scale in &scales {
        table.push_str(&format!("| {scale} |"));
        for t in &threads {
            let cell = report
                .sweep
                .iter()
                .find(|c| c.scale == *scale && c.threads == *t);
            match cell {
                Some(c) => table.push_str(&format!(" {} / {} |", c.stages.campaign_ms, c.total_ms)),
                None => table.push_str(" - |"),
            }
        }
        table.push('\n');
    }
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| file.write_all(table.as_bytes()));
    if let Err(err) = result {
        eprintln!("could not append the sweep summary to {path}: {err}");
        std::process::exit(1);
    }
    eprintln!("sweep matrix appended to {path}");
}

struct SweepSpec {
    scales: Vec<ScalePreset>,
    threads: Vec<usize>,
}

struct Args {
    json_path: Option<String>,
    metrics_path: Option<String>,
    ceiling_secs: Option<u64>,
    repeat: usize,
    sweep: Option<SweepSpec>,
    sweep_summary: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        json_path: None,
        metrics_path: None,
        ceiling_secs: None,
        repeat: 1,
        sweep: None,
        sweep_summary: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(path) => parsed.json_path = Some(path),
                None => usage("--json requires a path"),
            },
            "--metrics" => match args.next() {
                Some(path) => parsed.metrics_path = Some(path),
                None => usage("--metrics requires a path"),
            },
            "--repeat" => match args.next().map(|raw| raw.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => parsed.repeat = n,
                _ => usage("--repeat requires an integer >= 1"),
            },
            "--sweep" => match args.next() {
                Some(spec) => parsed.sweep = Some(parse_sweep(&spec)),
                None => usage("--sweep requires a <scales>:<threads> spec"),
            },
            "--sweep-summary" => match args.next() {
                Some(path) => parsed.sweep_summary = Some(path),
                None => usage("--sweep-summary requires a path"),
            },
            "--ceiling-secs" => match args.next().map(|raw| raw.parse::<u64>()) {
                Some(Ok(secs)) => parsed.ceiling_secs = Some(secs),
                _ => usage("--ceiling-secs requires an integer number of seconds"),
            },
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if parsed.repeat > 1 && parsed.json_path.is_none() {
        usage("--repeat only applies to the --json trajectory mode");
    }
    if parsed.sweep.is_some() && parsed.json_path.is_none() {
        usage("--sweep only applies to the --json trajectory mode");
    }
    if parsed.sweep_summary.is_some() && parsed.sweep.is_none() {
        usage("--sweep-summary requires --sweep");
    }
    parsed
}

/// Parse `tiny,small:1,2,8` into scale presets and thread counts.
fn parse_sweep(spec: &str) -> SweepSpec {
    let Some((scales_raw, threads_raw)) = spec.split_once(':') else {
        usage("--sweep spec must be <scales>:<threads>, e.g. tiny,small:1,2,8");
    };
    let scales: Vec<ScalePreset> = scales_raw
        .split(',')
        .map(|name| {
            scale_from_name(name).unwrap_or_else(|| {
                usage(&format!(
                    "unknown sweep scale {name:?}; valid values are \
                     tiny, small, paper, large and huge"
                ))
            })
        })
        .collect();
    let threads: Vec<usize> = threads_raw
        .split(',')
        .map(|raw| match raw.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => usage(&format!("bad sweep thread count {raw:?}")),
        })
        .collect();
    if scales.is_empty() || threads.is_empty() {
        usage("--sweep needs at least one scale and one thread count");
    }
    SweepSpec { scales, threads }
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: run_all [--json <path>] [--metrics <path>] [--repeat <n>] \
         [--sweep <scales>:<threads>] [--sweep-summary <path>] \
         [--ceiling-secs <n>]"
    );
    std::process::exit(2);
}
