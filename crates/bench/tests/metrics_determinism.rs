//! The alias-obs acceptance properties, end to end through the real
//! pipeline: the deterministic snapshot subset is byte-identical at any
//! `ALIAS_THREADS` and for pipelines run side by side, and registering
//! metrics leaves the rendered experiment document untouched — no metric
//! name or timing value may leak into `EXPERIMENTS_MEASURED.md`.
//!
//! Every thread has a registry of its own and libtest runs each test on a
//! thread of its own, so a test reads what it ran and nothing else.

use alias_bench::{render_document_with_study, Experiment, RateLimitStudy};
use alias_netsim::ScalePreset;
use alias_scan::ServiceProtocol;
use std::sync::Barrier;

const SEED: u64 = 20230418;

/// Run the full pipeline (experiment + rate-limit study) on the calling
/// thread and return the deterministic snapshot render, the full
/// snapshot, and the rendered experiment document.
fn pipeline(
    preset: ScalePreset,
    seed: u64,
    threads: usize,
) -> (String, alias_obs::MetricsSnapshot, String) {
    let experiment = Experiment::run_with_threads(preset, seed, threads);
    let study = RateLimitStudy::run(preset, seed, threads);
    let doc = render_document_with_study(&experiment, preset, &study);
    let snapshot = alias_obs::registry().snapshot();
    (snapshot.deterministic_json(), snapshot, doc)
}

/// [`pipeline`] on a thread of its own, so on a registry of its own.
fn run_once(
    preset: ScalePreset,
    seed: u64,
    threads: usize,
) -> (String, alias_obs::MetricsSnapshot, String) {
    std::thread::scope(|scope| {
        let run = scope.spawn(|| pipeline(preset, seed, threads));
        run.join().expect("the pipeline runs")
    })
}

/// The byte-identity contract over a serial run, an even split, and a
/// deliberately ragged 7-way split of the scan.  The three runs share one
/// process and every keyed pass draws a fresh `RandomState`, so an output
/// that depends on hash order fails here too, whatever the thread count.
fn assert_thread_invariant(preset: ScalePreset) {
    let (reference, snapshot, reference_doc) = run_once(preset, SEED, 1);
    assert!(
        snapshot
            .counters
            .iter()
            .any(|c| c.class == alias_obs::DeterminismClass::Deterministic && c.value > 0),
        "the pipeline must register non-zero deterministic counters"
    );
    assert!(
        !snapshot.events.is_empty(),
        "the campaign driver must log phase events"
    );
    for threads in [2, 7] {
        let (rendered, _, doc) = run_once(preset, SEED, threads);
        assert_eq!(
            reference, rendered,
            "deterministic snapshot subset drifted between 1 and {threads} threads"
        );
        assert_eq!(
            reference_doc, doc,
            "rendered document drifted between 1 and {threads} threads"
        );
    }
}

#[test]
fn deterministic_subset_is_thread_invariant_at_tiny() {
    assert_thread_invariant(ScalePreset::Tiny);
}

#[test]
#[ignore = "paper scale: minutes in debug builds — run explicitly"]
fn deterministic_subset_is_thread_invariant_at_paper() {
    assert_thread_invariant(ScalePreset::PaperShape);
}

#[test]
fn two_pipelines_side_by_side_count_what_they_count_one_after_the_other() {
    // Two seeds, so a registry that took the other pipeline's counts
    // could not pass for its own.
    let seeds = [SEED, 7];
    let sequential = seeds.map(|seed| run_once(ScalePreset::Tiny, seed, 2).0);
    let start = Barrier::new(seeds.len());
    let side_by_side = std::thread::scope(|scope| {
        let runs = seeds.map(|seed| {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                pipeline(ScalePreset::Tiny, seed, 2).0
            })
        });
        runs.map(|run| run.join().expect("the pipeline runs"))
    });
    assert_ne!(sequential[0], sequential[1]);
    assert_eq!(side_by_side, sequential);
}

#[test]
fn metric_registration_stays_out_of_the_rendered_document() {
    let (_, snapshot, doc) = pipeline(ScalePreset::Tiny, SEED, 2);
    for counter in &snapshot.counters {
        assert!(
            !doc.contains(counter.name),
            "metric name {} leaked into the rendered document",
            counter.name
        );
    }
    for span in &snapshot.spans {
        assert!(
            !doc.contains(span.path.as_str()),
            "span path {} leaked into the rendered document",
            span.path
        );
    }
}

#[test]
fn the_pipeline_opens_the_spans_the_benchmark_adopts() {
    // These spans are the only record of stage time, and
    // `benchmark/src/trace.rs::layer_of_registry_path` matches them by
    // string: a rename must fail here, not as a missed coverage floor in
    // the benchmark.
    let experiment = Experiment::run_with_threads(ScalePreset::Tiny, SEED, 2);
    let study = RateLimitStudy::run(ScalePreset::Tiny, SEED, 2);
    let snapshot = alias_obs::registry().snapshot();
    let spans = snapshot.spans.iter().filter(|s| s.count >= 1);
    let opened: Vec<&str> = spans.map(|s| s.path.as_str()).collect();
    for path in [
        "bench/build_internet",
        "bench/censys",
        "bench/censys/censys/collect",
        "bench/churn",
        "campaign",
        "bench/union_store",
        "bench/group/ssh",
        "bench/group/bgp",
        "bench/group/snmpv3",
        "resolve/campaign",
        "resolve/merge",
    ] {
        assert!(opened.contains(&path), "{path}");
    }
    // The crawl counts the sessions it attempted, so its span is a rate.
    assert!(counter(&snapshot, "censys.sessions") >= experiment.censys.len() as u64);
    // The study's scan phases nest under `resolve/campaign`; the
    // experiment runs its campaign without the resolver, so its `campaign`
    // span and phases sit at the top.  The benchmark keys on the last
    // three segments.
    for phase in ["syn_v4", "grab_v4", "snmp_v4", "ipv6", "rate_probe"] {
        let suffix = format!("campaign/campaign/{phase}");
        assert!(opened.iter().any(|p| p.ends_with(&suffix)), "{suffix}");
    }
    // One span per technique the study registered, and none besides: the
    // experiment's identifier results are projections of its keyed passes.
    for technique in &study.report.techniques {
        let path = format!("resolve/technique/{}", technique.technique);
        assert!(opened.contains(&path.as_str()), "{path}");
    }
    let technique_spans = opened.iter().filter(|p| {
        p.strip_prefix("resolve/technique/")
            .is_some_and(|name| !name.contains('/'))
    });
    assert_eq!(technique_spans.count(), study.report.techniques.len());
    // The shared target list of each family, built inside the first
    // technique that asks for it, and the study's agreement rows, each
    // computed on demand.
    for path in [
        "resolve/technique/midar/targets",
        "resolve/technique/speedtrap/targets",
        "resolve/agreement",
    ] {
        assert!(opened.contains(&path), "{path}");
    }
}

fn counter(snapshot: &alias_obs::MetricsSnapshot, name: &str) -> u64 {
    let sample = snapshot.counters.iter().find(|c| c.name == name);
    sample
        .unwrap_or_else(|| panic!("{name} not registered"))
        .value
}

/// Union rows of the three identifier protocols whose payload yields an
/// identifier.
fn identifier_rows(experiment: &Experiment) -> u64 {
    let mut keys = experiment.extractor.key_pass();
    let mut rows = 0;
    for protocol in [
        ServiceProtocol::Ssh,
        ServiceProtocol::Bgp,
        ServiceProtocol::Snmpv3,
    ] {
        let view = experiment.union.select_protocol(protocol, None);
        let keyed = (0..view.len()).filter(|&i| keys.key(view.payload_at(i)).is_some());
        rows += keyed.count() as u64;
    }
    rows
}

#[test]
fn one_render_takes_three_keyed_passes_and_six_partitions() {
    // The expensive steps of a run and a render, pinned as exact counts:
    // a step that regroups a store or re-merges what another already
    // merged fails here instead of in a benchmark.
    let experiment = Experiment::run_with_threads(ScalePreset::Tiny, SEED, 2);
    let doc = alias_bench::render_document(&experiment, ScalePreset::Tiny);
    let snapshot = alias_obs::registry().snapshot();
    // One pass per protocol over the union store keys each of its rows
    // once: the identifier results are its active projections, and the
    // key-only SSH count of the narrative statistics is read off the SSH
    // pass.
    assert_eq!(
        counter(&snapshot, "core.group_rows"),
        identifier_rows(&experiment)
    );
    // IPv4 × {active, censys, union}, IPv6 × {active, union}, dual-stack.
    assert_eq!(counter(&snapshot, "bench.render_partitions"), 6);
    // Every section ran under its own span, once (Table 2's MIDAR run
    // opens its stage spans one level further down).
    let sections = snapshot.spans.iter().filter(|s| {
        s.path
            .strip_prefix("bench/render/")
            .is_some_and(|section| !section.contains('/'))
            && s.count == 1
    });
    assert_eq!(sections.count(), 11);
    for stage in [
        "estimation",
        "discovery",
        "discovery/sort",
        "discovery/window",
        "elimination",
    ] {
        let path = format!("bench/render/table2/{stage}");
        assert!(snapshot.spans.iter().any(|s| s.path == path), "{path}");
    }
    // What the first render memoised, a second one reuses.
    let again = alias_bench::render_document(&experiment, ScalePreset::Tiny);
    assert_eq!(again, doc);
    let after = alias_obs::registry().snapshot();
    for name in ["core.group_rows", "bench.render_partitions"] {
        assert_eq!(counter(&after, name), counter(&snapshot, name), "{name}");
    }
}
