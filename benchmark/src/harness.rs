//! The noise protocol and the two kinds of run built on it: the timed run
//! that yields the end-to-end metrics and the traced run that yields the
//! per-layer ones.
//!
//! One process, one client, closed loop: pre-fault, then blocks of
//! calibrator → iterations → calibrator until the run's seconds are used.
//! A block's seconds are multiplied by the mean speed index of the two
//! calibrations around it, and the run's value is the median over blocks.

use crate::calibrate::{block_factor, Calibration, Calibrator};
use crate::procfs::{self, PeakRss};
use crate::stats::{cv, median, p90_if_supported};
use crate::trace::{layer_of_registry_path, Recorder, Span, ITERATION, REPLICA};
use crate::workload::{Outcome, Params, Quality, Workload};
use serde::{Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// MiB touched and freed before the first timer: the largest peak any
/// workload reaches (≈770 MiB) × 1.25, rounded up.
pub const PREFAULT_MIB: usize = 1152;
/// Times the inputs are constructed and warmed per timed run, two on a
/// slow machine; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Iterations a block holds at least this long (scaled down for short
/// smoke runs).
const BLOCK_SECONDS: f64 = 2.5;
/// Named span self-time over traced iteration wall must reach this.
const COVERAGE_FLOOR: f64 = 0.95;

/// Layers whose summed span time becomes a `<layer>_ms` per-layer metric.
pub const LAYERS_MS: [&str; 36] = [
    "netsim.build",
    "netsim.churn",
    "censys.collect",
    "store.ingest",
    "store.union",
    "store.select",
    "scan.campaign",
    "scan.syn_v4",
    "scan.grab_v4",
    "scan.snmp_v4",
    "scan.ipv6",
    "scan.rate_probe",
    "resolve.ssh",
    "resolve.bgp",
    "resolve.snmpv3",
    "resolve.midar",
    "resolve.ally",
    "resolve.speedtrap",
    "resolve.iffinder",
    "resolve.ratelimit",
    "resolve.merge",
    "core.group",
    "core.legacy_group",
    "bench.table1",
    "bench.table2",
    "bench.table3",
    "bench.table4",
    "bench.table5",
    "bench.table6",
    "bench.figure3",
    "bench.figure4",
    "bench.figure5",
    "bench.figure6",
    "bench.stats",
    "bench.render",
    "bench.drop",
];

/// The harness span around the one call into the program that an
/// iteration is built on; its self time is `bench.pipeline_rest_ms`.
pub const PIPELINE: &str = "bench.pipeline";

fn metric(name: &str, unit: &str, value: f64) -> (String, f64, String) {
    (name.to_owned(), value, unit.to_owned())
}

/// What a run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Workload name, for the span file and the printed header.
    pub name: &'static str,
    /// Scale, seed and threads handed to the workload.
    pub params: Params,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Warm-up iterations after each input construction.
    pub warmups: usize,
    /// `(precision, recall)` the scored sets must reach, when the scale is
    /// the one the floors were measured at.
    pub floors: Option<(f64, f64)>,
}

/// The result line: what the last line of standard output carries.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Every iteration matched the first one's output, the quality floors
    /// held and (traced runs) the trace checks passed.
    pub correct: bool,
    /// Iterations run in measured blocks.
    pub attempted: u64,
    /// Of those, the ones that panicked, diverged or missed a floor.
    pub failed: u64,
    /// `(name, value, unit)`, in catalogue order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Serialize for RunOutput {
    fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let metric = Value::Record(vec![
                    ("value".to_owned(), Value::Float(*value)),
                    ("unit".to_owned(), Value::Str(unit.clone())),
                ]);
                (name.clone(), metric)
            })
            .collect();
        Value::Record(vec![
            ("correct".to_owned(), Value::Bool(self.correct)),
            ("attempted".to_owned(), self.attempted.to_value()),
            ("failed".to_owned(), self.failed.to_value()),
            ("metrics".to_owned(), Value::Record(metrics)),
        ])
    }
}

impl serde::Deserialize for RunOutput {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let Value::Record(fields) = value.field("metrics")? else {
            return Err(serde::Error::new("`metrics` is not an object"));
        };
        let metrics = fields
            .iter()
            .map(|(name, metric)| {
                Ok((
                    name.clone(),
                    f64::from_value(metric.field("value")?)?,
                    String::from_value(metric.field("unit")?)?,
                ))
            })
            .collect::<Result<_, serde::Error>>()?;
        Ok(RunOutput {
            correct: bool::from_value(value.field("correct")?)?,
            attempted: u64::from_value(value.field("attempted")?)?,
            failed: u64::from_value(value.field("failed")?)?,
            metrics,
        })
    }
}

/// One measured block.
struct Block {
    iterations: u32,
    wall: Duration,
    cpu_s: f64,
    factor: f64,
}

impl Block {
    fn wall_per_iteration(&self) -> f64 {
        self.wall.as_secs_f64() / f64::from(self.iterations)
    }

    fn cpu_per_iteration(&self) -> f64 {
        self.cpu_s / f64::from(self.iterations)
    }
}

/// Pre-fault, peak reset, calibrator and the iteration bookkeeping every
/// run shares.
struct Session<W: Workload> {
    calibrator: Calibrator,
    peak: PeakRss,
    prefault_s: f64,
    /// The first iteration's outcome; every later one must equal it.
    reference: Option<Outcome>,
    attempted: u64,
    failed: u64,
    iteration_ms: Vec<f64>,
    indices: Vec<f64>,
    workload: Option<W>,
}

impl<W: Workload> Session<W> {
    fn start() -> Self {
        let prefault_s = procfs::prefault(PREFAULT_MIB);
        let peak = PeakRss::reset();
        println!(
            "# prefault_s {prefault_s:.3} ({PREFAULT_MIB} MiB); peak_rss_mb from {}",
            peak.source()
        );
        Session {
            calibrator: Calibrator::new(),
            peak,
            prefault_s,
            reference: None,
            attempted: 0,
            failed: 0,
            iteration_ms: Vec::new(),
            indices: Vec::new(),
            workload: None,
        }
    }

    fn calibrate(&mut self) -> Calibration {
        let calibration = self.calibrator.measure();
        self.indices.push(calibration.speed_index());
        self.peak.sample();
        calibration
    }

    /// One untraced iteration: produce, let `inspect` look at what it left
    /// alive with the clock stopped, drop.  Returns the time spent outside
    /// `inspect`, or `None` when the iteration panicked.
    fn iterate(&mut self, inspect: impl FnOnce(&mut W, &W::Artifacts)) -> Option<Duration> {
        let workload = self.workload.as_mut().expect("set-up ran");
        let result = catch_unwind(AssertUnwindSafe(|| {
            let started = Instant::now();
            let (outcome, artifacts) = workload.produce();
            let produced = started.elapsed();
            inspect(workload, &artifacts);
            let started = Instant::now();
            drop(artifacts);
            (outcome, produced + started.elapsed())
        }));
        self.account(result.ok())
    }

    /// Count an iteration and hold its outcome against the first one's.
    fn account(&mut self, result: Option<(Outcome, Duration)>) -> Option<Duration> {
        self.attempted += 1;
        let Some((outcome, elapsed)) = result else {
            self.failed += 1;
            return None;
        };
        if *self.reference.get_or_insert(outcome) != outcome {
            eprintln!(
                "iteration output diverged: {outcome:?} vs {:?}",
                self.reference
            );
            self.failed += 1;
        }
        self.iteration_ms.push(elapsed.as_secs_f64() * 1e3);
        Some(elapsed)
    }
}

fn block_seconds(seconds: f64) -> f64 {
    (seconds / 10.0).min(BLOCK_SECONDS)
}

/// Whether another block of the size of the last one still belongs to a
/// run of `seconds`: it does while at least half of it fits.
fn another_block(started: Instant, last_block: Duration, seconds: f64) -> bool {
    (started.elapsed() + last_block / 2).as_secs_f64() <= seconds
}

/// The timed run: end-to-end metrics.
pub fn run_timed<W: Workload>(args: RunArgs) -> Result<RunOutput, String> {
    let mut session = Session::<W>::start();
    let mut rec = Recorder::new();

    // Set-up: construct and warm the inputs several times, each time
    // between two calibrations and scaled like a block; the last
    // construction is the one the blocks run on.  On a slow machine the
    // third repetition is given up, so that set-up stays within half the
    // run's seconds: set-up does not limit itself the way the blocks do.
    let setup_started = Instant::now();
    let mut calibration = session.calibrate();
    let (mut setup_raw, mut setup_cal) = (Vec::new(), Vec::new());
    let mut quality: Option<Quality> = None;
    let mut peak_rss_mb = 0.0;
    let mut last_rep = Duration::ZERO;
    for rep in 0..SETUP_REPS {
        let rep_started = Instant::now();
        let out_of_time =
            (setup_started.elapsed() + 2 * last_rep).as_secs_f64() > args.seconds / 2.0;
        let is_last = rep + 1 == SETUP_REPS || rep > 0 && out_of_time;
        session.workload = None;
        let started = Instant::now();
        session.workload = Some(W::setup(args.params, &mut rec));
        let mut spent = started.elapsed();
        for warmup in 0..args.warmups {
            let score_now = is_last && warmup + 1 == args.warmups;
            spent += session
                .iterate(|workload, artifacts| {
                    if score_now {
                        quality = Some(workload.quality(artifacts));
                    }
                })
                .ok_or("a warm-up iteration panicked")?;
        }
        if rep == 0 {
            peak_rss_mb = session.peak.mib();
        }
        let after = session.calibrate();
        setup_raw.push(spent.as_secs_f64());
        setup_cal.push(spent.as_secs_f64() * block_factor(&calibration, &after));
        calibration = after;
        last_rep = rep_started.elapsed();
        if is_last {
            break;
        }
    }
    let setup_s = median(&setup_cal);
    let quality = quality.ok_or("no warm-up iteration to score")?;
    if session.failed > 0 {
        return Err("warm-up iterations disagree on their output".to_owned());
    }
    (session.attempted, session.iteration_ms) = (0, Vec::new());

    // Measured blocks.
    let started = Instant::now();
    let mut blocks: Vec<Block> = Vec::new();
    loop {
        let block_started = Instant::now();
        let cpu_before = procfs::cpu_seconds();
        let mut iterations = 0;
        while iterations == 0 || block_started.elapsed().as_secs_f64() < block_seconds(args.seconds)
        {
            session.iterate(|_, _| {});
            iterations += 1;
        }
        let wall = block_started.elapsed();
        let cpu_s = procfs::cpu_seconds() - cpu_before;
        let after = session.calibrate();
        blocks.push(Block {
            iterations,
            wall,
            cpu_s,
            factor: block_factor(&calibration, &after),
        });
        calibration = after;
        if !another_block(started, block_started.elapsed(), args.seconds) {
            break;
        }
    }

    let outcome = session.reference.expect("warm-up set the reference");
    let floors_held = args.floors.is_none_or(|(precision, recall)| {
        quality.precision >= precision && quality.recall >= recall
    });
    if !floors_held {
        eprintln!(
            "quality floor missed: {quality:?} vs floors {:?}",
            args.floors
        );
        session.failed = session.attempted;
    }

    let raw_wall: Vec<f64> = blocks.iter().map(Block::wall_per_iteration).collect();
    let cal_wall: Vec<f64> = blocks
        .iter()
        .map(|b| b.wall_per_iteration() * b.factor)
        .collect();
    let cal_cpu: Vec<f64> = blocks
        .iter()
        .map(|b| b.cpu_per_iteration() * b.factor)
        .collect();
    let cal_wall_s = median(&cal_wall);
    println!(
        "# workload {} seed {} threads {} available_parallelism {}",
        args.name,
        args.params.seed,
        args.params.threads,
        available_parallelism()
    );
    println!(
        "# iters {} failed_iters {} blocks {} doc_digest {:016x} rows {}",
        session.attempted,
        session.failed,
        blocks.len(),
        outcome.digest,
        outcome.rows
    );
    println!(
        "# raw_wall_s {:.6} raw_cpu_s {:.6} speed_index {:.4} speed_index_cv {:.4} block_cv raw {:.4} calibrated {:.4} setup_raw_s {:.6} peak_rss_exit_mb {:.1}",
        median(&raw_wall),
        median(&blocks.iter().map(Block::cpu_per_iteration).collect::<Vec<_>>()),
        median(&session.indices),
        cv(&session.indices),
        cv(&raw_wall),
        cv(&cal_wall),
        median(&setup_raw),
        session.peak.mib(),
    );
    println!(
        "# blocks raw_wall_s {raw_wall:.4?} factor {:.4?} indices {:.4?}",
        blocks.iter().map(|b| b.factor).collect::<Vec<_>>(),
        session.indices
    );
    if let Some(p90) = p90_if_supported(&session.iteration_ms) {
        println!(
            "# iter_p90_ms {p90:.2} over {} iterations (raw)",
            session.iteration_ms.len()
        );
    }

    Ok(RunOutput {
        correct: session.failed == 0,
        attempted: session.attempted,
        failed: session.failed,
        metrics: vec![
            metric("cal_wall_s", "s", cal_wall_s),
            metric("cal_cpu_s", "s", median(&cal_cpu)),
            metric("rows_per_s", "rows/s", outcome.rows as f64 / cal_wall_s),
            metric("peak_rss_mb", "MiB", peak_rss_mb),
            metric("setup_s", "s", setup_s),
            metric("pair_precision", "ratio", quality.precision),
            metric("pair_recall", "ratio", quality.recall),
            metric("alias_sets", "count", outcome.alias_sets as f64),
            metric("probes_sent", "count", outcome.probes as f64),
        ],
    })
}

/// Hardware threads the process may use (1 when unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Per-layer figures of one traced iteration (or of the set-up).
#[derive(Default)]
struct LayerSample {
    /// Summed span milliseconds per layer name.
    ms: BTreeMap<String, f64>,
    /// Layers whose spans lie in the replica subtree.
    replicas: BTreeSet<String>,
    /// Last recorded value per count name.
    counts: BTreeMap<String, u64>,
    /// Iteration wall without the replica subtree, in milliseconds.
    wall_ms: f64,
    /// Iteration time no span names, in milliseconds.
    unnamed_ms: f64,
    /// Speed factor of the block the iteration ran in (set once the block's
    /// closing calibration is in).
    factor: f64,
}

/// Fold the spans `from..` of `rec` (one iteration's subtree, or the
/// set-up's spans) and the counts `counts_from..` into per-layer figures.
fn layer_sample(rec: &Recorder, from: usize, counts_from: usize) -> LayerSample {
    let mut sample = LayerSample::default();
    let spans = rec.spans();
    for (id, span) in spans.iter().enumerate().skip(from) {
        let layer = match span.start_ms {
            Some(_) => Some(span.name.clone()),
            None => layer_of_registry_path(&span.name),
        };
        if let Some(layer) = layer {
            if rec.is_under(id, REPLICA) {
                sample.replicas.insert(layer.clone());
            }
            *sample.ms.entry(layer).or_default() += span.total_ms;
        }
        if span.name == PIPELINE {
            *sample
                .ms
                .entry("bench.pipeline_rest".to_owned())
                .or_default() += span.self_ms;
        }
        if span.name == ITERATION {
            sample.wall_ms += span.total_ms;
            sample.unnamed_ms += span.self_ms;
        }
        if span.name == REPLICA && rec.is_under(id, ITERATION) {
            sample.wall_ms -= span.total_ms;
        }
    }
    for (name, value) in &rec.counts()[counts_from..] {
        sample.counts.insert(name.clone(), *value);
    }
    sample
}

/// The traced run: per-layer metrics, and the span file.
pub fn run_traced<W: Workload>(args: RunArgs) -> Result<RunOutput, String> {
    let mut session = Session::<W>::start();
    let mut rec = Recorder::new();

    session.workload = Some(W::setup(args.params, &mut rec));
    let setup = layer_sample(&rec, 0, 0);
    session
        .iterate(|_, _| {})
        .ok_or("the warm-up iteration panicked")?;
    session.attempted = 0;

    let started = Instant::now();
    let mut calibration = session.calibrate();
    let mut samples: Vec<LayerSample> = Vec::new();
    let (mut raw_wall, mut raw_cpu, mut traced_wall) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let block_started = Instant::now();
        let cpu_before = procfs::cpu_seconds();
        let mut iterations = 0u32;
        while iterations == 0
            || block_started.elapsed().as_secs_f64() < block_seconds(args.seconds) / 2.0
        {
            session.iterate(|_, _| {});
            iterations += 1;
        }
        raw_wall.push(block_started.elapsed().as_secs_f64() / f64::from(iterations));
        raw_cpu.push((procfs::cpu_seconds() - cpu_before) / f64::from(iterations));
        let first_sample = samples.len();
        for _ in 0..iterations {
            let (from, counts_from) = (rec.spans().len(), rec.counts().len());
            let workload = session.workload.as_mut().expect("set-up ran");
            let result = catch_unwind(AssertUnwindSafe(|| {
                let iteration = rec.enter(ITERATION);
                let (outcome, artifacts) = workload.produce_traced(&mut rec);
                workload.replica(&artifacts, &mut rec);
                rec.span("bench.drop", || drop(artifacts));
                rec.exit(iteration);
                outcome
            }));
            let Ok(outcome) = result else {
                return Err("a traced iteration panicked".to_owned());
            };
            let sample = layer_sample(&rec, from, counts_from);
            session.account(Some((
                outcome,
                Duration::from_secs_f64(sample.wall_ms / 1e3),
            )));
            samples.push(sample);
        }
        let after = session.calibrate();
        for sample in &mut samples[first_sample..] {
            sample.factor = block_factor(&calibration, &after);
        }
        traced_wall.push(median(
            &samples[first_sample..]
                .iter()
                .map(|s| s.wall_ms / 1e3)
                .collect::<Vec<_>>(),
        ));
        calibration = after;
        if !another_block(started, block_started.elapsed(), args.seconds) {
            break;
        }
    }

    // Calibrated median per layer over the traced iterations; layers that
    // only run in set-up (the snapshot workload's inputs) come from there.
    let layer_ms = |layer: &str| {
        let values: Vec<f64> = samples
            .iter()
            .filter_map(|sample| sample.ms.get(layer).map(|ms| ms * sample.factor))
            .collect();
        if values.is_empty() {
            setup.ms.get(layer).copied().unwrap_or(0.0)
        } else {
            median(&values)
        }
    };
    let count = |name: &str| {
        samples
            .last()
            .and_then(|sample| sample.counts.get(name))
            .or_else(|| setup.counts.get(name))
            .copied()
            .unwrap_or(0) as f64
    };
    let per_second = |amount: f64, ms: f64| if ms > 0.0 { amount / (ms / 1e3) } else { 0.0 };
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };

    let wall_ms: f64 = samples.iter().map(|s| s.wall_ms).sum();
    let unnamed_ms: f64 = samples.iter().map(|s| s.unnamed_ms).sum();
    let coverage = 1.0 - unnamed_ms / wall_ms;
    let overhead_pct = (median(&traced_wall) / median(&raw_wall) - 1.0) * 100.0;

    let mut metrics: Vec<(String, f64, String)> = LAYERS_MS
        .iter()
        .map(|layer| metric(&format!("{layer}_ms"), "ms", layer_ms(layer)))
        .collect();
    let (probes, rate_pairs, unions) = (
        count("scan.probes"),
        count("resolve.rate_pairs"),
        count("core.unions"),
    );
    let censys_ms = layer_ms("censys.collect") + layer_ms("store.ingest");
    metrics.extend([
        metric(
            "bench.pipeline_rest_ms",
            "ms",
            layer_ms("bench.pipeline_rest"),
        ),
        metric("netsim.devices", "count", count("netsim.devices")),
        metric("censys.rows", "count", count("censys.rows")),
        metric(
            "censys.rows_per_s",
            "rows/s",
            per_second(count("censys.rows"), censys_ms),
        ),
        metric("store.union_rows", "count", count("store.union_rows")),
        metric("scan.probes", "count", probes),
        metric(
            "scan.probes_per_s",
            "1/s",
            per_second(probes, layer_ms("scan.campaign")),
        ),
        metric("scan.rows", "count", count("scan.rows")),
        metric(
            "scan.hit_ratio",
            "ratio",
            ratio(count("scan.responsive_pairs"), probes),
        ),
        metric("resolve.rate_pairs", "count", rate_pairs),
        metric(
            "resolve.rate_verdict_ratio",
            "ratio",
            ratio(count("resolve.rate_verdicts"), rate_pairs),
        ),
        metric("core.sets", "count", count("core.sets")),
        metric("core.unions", "count", unions),
        metric(
            "core.unions_per_s",
            "1/s",
            per_second(unions, layer_ms("resolve.merge")),
        ),
        metric("harness.raw_wall_s", "s", median(&raw_wall)),
        metric("harness.raw_cpu_s", "s", median(&raw_cpu)),
        metric("harness.speed_index", "ratio", median(&session.indices)),
        metric("harness.speed_index_cv", "ratio", cv(&session.indices)),
        metric("harness.block_cv", "ratio", cv(&raw_wall)),
        metric(
            "harness.iter_p90_ms",
            "ms",
            p90_if_supported(&session.iteration_ms).unwrap_or(0.0),
        ),
        metric("harness.prefault_s", "s", session.prefault_s),
        metric(
            "harness.available_parallelism",
            "count",
            available_parallelism() as f64,
        ),
        metric("harness.trace_coverage", "ratio", coverage),
        metric("harness.trace_overhead_pct", "%", overhead_pct),
    ]);

    let outcome = session.reference.expect("the warm-up set the reference");
    println!(
        "# workload {} seed {} traced iterations {} doc_digest {:016x} alias_sets {}",
        args.name,
        args.params.seed,
        samples.len(),
        outcome.digest,
        outcome.alias_sets
    );
    let iteration_ms = median(
        &samples
            .iter()
            .map(|s| s.wall_ms * s.factor)
            .collect::<Vec<_>>(),
    );
    println!("# layer                             ms   share of the traced iteration ({iteration_ms:.1} ms)");
    for (name, value, unit) in &metrics {
        let Some(layer) = name
            .strip_suffix("_ms")
            .filter(|_| unit == "ms" && *value > 0.0)
        else {
            continue;
        };
        let share = format!("{:>6.1} %", value / iteration_ms * 100.0);
        if samples.iter().any(|s| s.replicas.contains(layer)) {
            println!(
                "# {name:<26} {value:>9.2}  {share}  replica: time already inside a span above"
            );
        } else if samples.iter().all(|s| !s.ms.contains_key(layer)) {
            println!(
                "# {name:<26} {value:>9.2}            set-up: one cold sample, not calibrated"
            );
        } else {
            println!("# {name:<26} {value:>9.2}  {share}");
        }
    }
    write_span_file(&args, &rec)?;

    if coverage < COVERAGE_FLOOR {
        eprintln!("trace coverage {coverage:.3} is below {COVERAGE_FLOOR}");
    }
    Ok(RunOutput {
        correct: session.failed == 0 && coverage >= COVERAGE_FLOOR,
        attempted: session.attempted,
        failed: session.failed,
        metrics,
    })
}

/// What `out/trace-<workload>.json` holds.
#[derive(Serialize)]
struct SpanFile {
    workload: String,
    seed: u64,
    threads: usize,
    spans: Vec<Span>,
    counts: Vec<(String, u64)>,
}

fn write_span_file(args: &RunArgs, rec: &Recorder) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", args.name));
    let file = SpanFile {
        workload: args.name.to_owned(),
        seed: args.params.seed,
        threads: args.params.threads,
        spans: rec.spans().to_vec(),
        counts: rec.counts().to_vec(),
    };
    let json = serde_json::to_string(&file).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok(())
}
