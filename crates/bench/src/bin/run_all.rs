//! Runs every table and figure experiment plus the ICMP rate-limiting
//! study, prints the rendered document and writes it to
//! `EXPERIMENTS_MEASURED.md`.
//!
//! `ALIAS_SCALE` picks the population preset and `ALIAS_THREADS` the scan's
//! worker count (never changes an output byte).  Arguments:
//!
//! * `<section>` — one of `table1` … `table6`, `figure3` … `figure6`,
//!   `stats`: print only that section (no study run, no file written).
//! * `--metrics <path>` — record the run's alias-obs registry: `<path>`
//!   gets the deterministic counter/gauge/event subset
//!   (`MetricsSnapshot::deterministic_json`, identical run to run and for
//!   every thread count), `<path>.full.json` the complete snapshot including
//!   timing-class metrics, histograms and spans, and `<path>.prom` the
//!   Prometheus text render.
//!
//! Anything timed is measured by `benchmark/` (see `benchmark/README.md`),
//! not here.

use alias_bench::{
    render_document_with_study, render_section, scale_from_env, section_names, Experiment,
    RateLimitStudy,
};

const SEED: u64 = 20230418;

fn main() {
    let args = parse_args();
    let preset = scale_from_env();
    let threads = alias_scan::threads_from_env();

    let experiment = Experiment::run_with_threads(preset, SEED, threads);
    match &args.section {
        Some(name) => {
            let text = render_section(&experiment, name).expect("parse_args checked the name");
            println!("{text}");
        }
        None => {
            let study = RateLimitStudy::run(preset, SEED, threads);
            let doc = render_document_with_study(&experiment, preset, &study);
            println!("{doc}");
            if let Err(err) = std::fs::write("EXPERIMENTS_MEASURED.md", &doc) {
                eprintln!("could not write EXPERIMENTS_MEASURED.md: {err}");
            }
        }
    }

    if let Some(path) = &args.metrics_path {
        write_metrics(path);
    }
}

/// Write the three `--metrics` artifacts from the registry as the run left it.
fn write_metrics(path: &str) {
    let snapshot = alias_obs::registry().snapshot();
    for (file, contents) in [
        (path.to_owned(), snapshot.deterministic_json()),
        (format!("{path}.full.json"), snapshot.to_json()),
        (format!("{path}.prom"), snapshot.to_prometheus()),
    ] {
        if let Err(err) = std::fs::write(&file, contents) {
            eprintln!("could not write {file}: {err}");
            std::process::exit(1);
        }
    }
    eprintln!("metrics written to {path}, {path}.full.json and {path}.prom");
}

struct Args {
    section: Option<String>,
    metrics_path: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        section: None,
        metrics_path: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics" => match args.next() {
                Some(path) => parsed.metrics_path = Some(path),
                None => usage("--metrics requires a path"),
            },
            name if parsed.section.is_none() && section_names().contains(&name) => {
                parsed.section = Some(arg);
            }
            other => usage(&format!("unexpected argument {other:?}")),
        }
    }
    parsed
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!("usage: run_all [<section>] [--metrics <path>]");
    eprintln!("sections: {}", section_names().join(", "));
    std::process::exit(2);
}
