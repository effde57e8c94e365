//! The alias-obs acceptance properties, end to end through the real
//! pipeline: the deterministic snapshot subset is byte-identical at any
//! `ALIAS_THREADS`, and registering metrics leaves the rendered
//! experiment document untouched — no metric name or timing value may
//! leak into `EXPERIMENTS_MEASURED.md`.

use alias_bench::{render_document_with_study, Experiment, RateLimitStudy};
use alias_netsim::ScalePreset;
use std::sync::Mutex;

/// The metrics registry is process-global; every test that resets and
/// samples it must hold this lock so parallel test threads cannot
/// interleave their campaigns' counters.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

const SEED: u64 = 20230418;

/// Run the full pipeline (experiment + rate-limit study) on a fresh
/// registry and return the deterministic snapshot render, the full
/// snapshot, and the rendered experiment document.
fn run_once(preset: ScalePreset, threads: usize) -> (String, alias_obs::MetricsSnapshot, String) {
    alias_obs::registry().reset();
    let experiment = Experiment::run_with_threads(preset, SEED, threads);
    let study = RateLimitStudy::run(preset, SEED, threads);
    let doc = render_document_with_study(&experiment, preset, &study);
    let snapshot = alias_obs::registry().snapshot();
    (snapshot.deterministic_json(), snapshot, doc)
}

/// The byte-identity contract over a serial run, an even split, and a
/// deliberately ragged 7-way split of the scan.  The three runs share one
/// process and every keyed pass draws a fresh `RandomState`, so an output
/// that depends on hash order fails here too, whatever the thread count.
fn assert_thread_invariant(preset: ScalePreset) {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (reference, snapshot, reference_doc) = run_once(preset, 1);
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
        let (rendered, _, doc) = run_once(preset, threads);
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
fn metric_registration_stays_out_of_the_rendered_document() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, snapshot, doc) = run_once(ScalePreset::Tiny, 2);
    for counter in &snapshot.counters {
        assert!(
            !doc.contains(counter.name),
            "metric name {} leaked into the rendered document",
            counter.name
        );
    }
    for gauge in &snapshot.gauges {
        assert!(
            !doc.contains(gauge.name),
            "gauge name {} leaked into the rendered document",
            gauge.name
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
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    alias_obs::registry().reset();
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
        "bench/union_store",
        "resolve/campaign",
        "resolve/merge",
    ] {
        assert!(opened.contains(&path), "{path}");
    }
    // The crawl counts the sessions it attempted, so its span is a rate.
    assert!(counter(&snapshot, "censys.sessions") >= experiment.censys.len() as u64);
    // The scan phases nest under `resolve/campaign` here and sit higher
    // when a caller runs the campaign without the resolver; the benchmark
    // keys on the last three segments.
    for phase in ["syn_v4", "grab_v4", "snmp_v4", "ipv6", "rate_probe"] {
        let suffix = format!("campaign/campaign/{phase}");
        assert!(opened.iter().any(|p| p.ends_with(&suffix)), "{suffix}");
    }
    // One span per registered technique, named as the report's per-run
    // timings name them, in registration order.
    for report in [&experiment.resolution, &study.report] {
        let registered = report.techniques.iter().map(|t| t.technique.as_str());
        let timed = report.technique_timings.iter().map(|t| &t.technique);
        assert!(timed.clone().eq(registered));
        for name in timed {
            let path = format!("resolve/technique/{name}");
            assert!(opened.contains(&path.as_str()), "{path}");
        }
    }
    let technique_spans = opened.iter().filter(|p| {
        p.strip_prefix("resolve/technique/")
            .is_some_and(|name| !name.contains('/'))
    });
    assert_eq!(technique_spans.count(), study.report.techniques.len());
}

/// Render `experiment` on a fresh registry; returns the document and what
/// the registry recorded meanwhile.
fn render_once(experiment: &Experiment) -> (String, alias_obs::MetricsSnapshot) {
    alias_obs::registry().reset();
    let doc = alias_bench::render_document(experiment, ScalePreset::Tiny);
    (doc, alias_obs::registry().snapshot())
}

fn counter(snapshot: &alias_obs::MetricsSnapshot, name: &str) -> u64 {
    let sample = snapshot.counters.iter().find(|c| c.name == name);
    sample
        .unwrap_or_else(|| panic!("{name} not registered"))
        .value
}

#[test]
fn one_render_takes_three_keyed_passes_and_six_partitions() {
    // The expensive steps of a render, pinned as exact counts: a table
    // that regroups a store or re-merges what another already merged
    // fails here instead of in a benchmark.
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let experiment = Experiment::run_with_threads(ScalePreset::Tiny, SEED, 2);
    let (doc, snapshot) = render_once(&experiment);
    // One pass per protocol over the union store; the key-only SSH count
    // of the narrative statistics is read off the SSH pass.
    assert_eq!(counter(&snapshot, "bench.render_keyed_passes"), 3);
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
    for stage in ["estimation", "discovery", "elimination"] {
        let path = format!("bench/render/table2/{stage}");
        assert!(snapshot.spans.iter().any(|s| s.path == path), "{path}");
    }
    // What the first render memoised, a second one reuses.
    let (again, snapshot) = render_once(&experiment);
    assert_eq!(again, doc);
    assert_eq!(counter(&snapshot, "bench.render_keyed_passes"), 0);
    assert_eq!(counter(&snapshot, "bench.render_partitions"), 0);
}
