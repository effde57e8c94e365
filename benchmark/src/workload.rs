//! The workloads: what one iteration does, what goes into set-up, and how
//! each is scored against ground truth — all through public functions.

use crate::harness::PIPELINE;
use crate::trace::{Recorder, REPLICA};
use alias_bench::{Experiment, RateLimitStudy};
use alias_censys::{CensysConfig, CensysSnapshot};
use alias_core::alias_set::group_view_compact;
use alias_core::merge::MergedSet;
use alias_core::{ExtractionConfig, IdentifierExtractor};
use alias_netsim::{
    GroundTruth, Internet, InternetBuilder, InternetConfig, ScalePreset, SimTime, VantageKind,
};
use alias_resolve::{ResolutionReport, Resolver};
use alias_scan::{
    ActiveCampaign, CampaignConfig, CampaignData, DataSource, ObservationStore, RateProbeConfig,
    ServiceProtocol,
};
use std::hash::Hasher;
use std::net::IpAddr;

/// The active scan starts three weeks after the snapshot, as in the paper.
const ACTIVE_START_DAYS: u64 = 21;

const PROTOCOLS: [ServiceProtocol; 3] = [
    ServiceProtocol::Ssh,
    ServiceProtocol::Bgp,
    ServiceProtocol::Snmpv3,
];

/// The `(protocol, source)` groupings the tables and figures ask
/// `Experiment::collection` for (`None` = union of both sources; SNMPv3
/// exists in the active data only).
const COLLECTIONS: [(ServiceProtocol, Option<DataSource>); 8] = [
    (ServiceProtocol::Ssh, None),
    (ServiceProtocol::Bgp, None),
    (ServiceProtocol::Snmpv3, None),
    (ServiceProtocol::Ssh, Some(DataSource::Active)),
    (ServiceProtocol::Bgp, Some(DataSource::Active)),
    (ServiceProtocol::Snmpv3, Some(DataSource::Active)),
    (ServiceProtocol::Ssh, Some(DataSource::Censys)),
    (ServiceProtocol::Bgp, Some(DataSource::Censys)),
];

/// What every workload is parameterised by.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Population size (`PaperShape` for every named workload).
    pub scale: ScalePreset,
    /// Seed of the generated Internet, the snapshot and the campaign.
    pub seed: u64,
    /// Worker threads handed to the pipeline.
    pub threads: usize,
}

/// What one iteration produced, as far as the harness checks and counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Digest of the iteration's output (rendered text, or merged sets).
    pub digest: u64,
    /// Merged alias sets.
    pub alias_sets: u64,
    /// Observation rows the iteration consumed.
    pub rows: u64,
    /// Probes emitted to collect those rows.
    pub probes: u64,
}

/// Pairwise score of the merged sets against netsim's ground truth.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Share of inferred pairs that are true aliases.
    pub precision: f64,
    /// Share of true alias pairs, among covered addresses, that were inferred.
    pub recall: f64,
}

/// One workload.  `Artifacts` is what an iteration leaves alive; dropping
/// it is part of the iteration, so the harness does that itself, timed.
pub trait Workload: Sized {
    /// What an iteration builds and the caller must drop.
    type Artifacts;

    /// Construct the inputs the iterations share.
    fn setup(params: Params, rec: &mut Recorder) -> Self;

    /// One iteration, as a user of the pipeline would run it.
    fn produce(&mut self) -> (Outcome, Self::Artifacts);

    /// The same iteration with a span around each call, and the spans the
    /// program opened meanwhile adopted from the registry.
    fn produce_traced(&mut self, rec: &mut Recorder) -> (Outcome, Self::Artifacts);

    /// Calls that repeat part of the iteration's work on its own data only
    /// to time a step the iteration's spans cannot separate.  Recorded
    /// under [`REPLICA`], outside the iteration's wall.
    fn replica(&mut self, artifacts: &Self::Artifacts, rec: &mut Recorder);

    /// Score the merged sets; called once per run with every clock stopped.
    fn quality(&mut self, artifacts: &Self::Artifacts) -> Quality;
}

/// FNV-1a, so a digest means the same in every build and process.
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a rendered text.
pub fn digest_text(text: &str) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.write(text.as_bytes());
    hasher.finish()
}

/// Digest of merged sets: member addresses and technique labels, in the
/// canonical order the merge returns them in.
pub fn digest_merged(merged: &[MergedSet]) -> u64 {
    let mut hasher = Fnv1a::new();
    for set in merged {
        hasher.write_usize(set.addrs.len());
        for addr in &set.addrs {
            match addr {
                IpAddr::V4(v4) => hasher.write(&v4.octets()),
                IpAddr::V6(v6) => hasher.write(&v6.octets()),
            }
        }
        for label in &set.labels {
            hasher.write(label.as_bytes());
            hasher.write_u8(0);
        }
    }
    hasher.finish()
}

fn score(truth: &GroundTruth, merged: &[MergedSet]) -> Quality {
    let score = truth.score_sets(merged.iter().map(|set| set.addrs.iter()));
    Quality {
        precision: score.precision(),
        recall: score.recall(),
    }
}

/// Value of one registry counter (0 until the program first touches it).
pub fn counter(snapshot: &alias_obs::MetricsSnapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

fn probes_emitted() -> u64 {
    counter(&alias_obs::registry().snapshot(), "scan.probes_emitted")
}

/// Run a program call inside a span, with the registry reset before it and
/// the program's own spans and counters adopted after it.
fn traced_call<T>(rec: &mut Recorder, name: &str, call: impl FnOnce() -> T) -> T {
    alias_obs::registry().reset();
    let id = rec.enter(name);
    let out = call();
    rec.exit(id);
    let snapshot = alias_obs::registry().snapshot();
    rec.adopt(id, &snapshot);
    rec.counts_from(&snapshot);
    out
}

fn campaign_config(
    params: Params,
    internet_config: &InternetConfig,
    rate_probe: bool,
) -> CampaignConfig {
    CampaignConfig {
        vantage: VantageKind::SingleVp,
        start: SimTime::from_days(ACTIVE_START_DAYS),
        hitlist_coverage: internet_config.visibility.hitlist_coverage,
        seed: params.seed,
        threads: params.threads,
        rate_probe: rate_probe.then(RateProbeConfig::default),
        ..Default::default()
    }
}

fn build_internet(config: InternetConfig, rec: &mut Recorder, span: &str) -> Internet {
    let internet = rec.span(span, || InternetBuilder::new(config).build());
    rec.count("netsim.devices", internet.devices().len() as u64);
    internet
}

/// The day-0 snapshot's default-port rows as a store, the way
/// `Experiment::run_with_threads` ingests them.
fn censys_store(internet: &Internet, seed: u64, rec: &mut Recorder) -> ObservationStore {
    let snapshot = rec.span("censys.collect", || {
        CensysSnapshot::collect(
            internet,
            CensysConfig {
                snapshot_time: SimTime::ZERO,
                seed,
                ..Default::default()
            },
        )
    });
    let store = rec.span("store.ingest", || {
        ObservationStore::from_observations(snapshot.default_port_observations())
    });
    rec.count("censys.rows", store.len() as u64);
    store
}

fn churn(internet: &mut Internet, rec: &mut Recorder) {
    rec.span("netsim.churn", || {
        internet.apply_churn(SimTime::ZERO, SimTime::from_days(ACTIVE_START_DAYS))
    });
}

/// `paper-report-*`: the whole experiment, rendered, then dropped.
pub struct PaperReport {
    params: Params,
}

impl Workload for PaperReport {
    type Artifacts = Experiment;

    fn setup(params: Params, _rec: &mut Recorder) -> Self {
        PaperReport { params }
    }

    fn produce(&mut self) -> (Outcome, Experiment) {
        let Params {
            scale,
            seed,
            threads,
        } = self.params;
        let probes_before = probes_emitted();
        let experiment = Experiment::run_with_threads(scale, seed, threads);
        let document = alias_bench::render_document(&experiment, scale);
        let outcome = Outcome {
            digest: digest_text(&document),
            alias_sets: experiment.resolution.merged.len() as u64,
            rows: experiment.union.len() as u64,
            probes: probes_emitted() - probes_before,
        };
        (outcome, experiment)
    }

    fn produce_traced(&mut self, rec: &mut Recorder) -> (Outcome, Experiment) {
        let Params {
            scale,
            seed,
            threads,
        } = self.params;
        let experiment = traced_call(rec, PIPELINE, || {
            Experiment::run_with_threads(scale, seed, threads)
        });
        let probes = probes_emitted();
        // The tables memoise these groupings on first use; asking for them
        // up front moves that work, unchanged, out of the render span.
        rec.span("core.legacy_group", || {
            for (protocol, source) in COLLECTIONS {
                std::hint::black_box(experiment.collection(protocol, source));
            }
        });
        let document = rec.span("bench.render", || {
            alias_bench::render_document(&experiment, scale)
        });
        rec.count("store.union_rows", experiment.union.len() as u64);
        let outcome = Outcome {
            digest: digest_text(&document),
            alias_sets: experiment.resolution.merged.len() as u64,
            rows: experiment.union.len() as u64,
            probes,
        };
        (outcome, experiment)
    }

    fn replica(&mut self, experiment: &Experiment, rec: &mut Recorder) {
        let replica = rec.enter(REPLICA);
        type Section = fn(&Experiment) -> String;
        let sections: [(&str, Section); 11] = [
            ("bench.table1", alias_bench::table1),
            ("bench.table2", alias_bench::table2),
            ("bench.table3", alias_bench::table3),
            ("bench.table4", alias_bench::table4),
            ("bench.table5", alias_bench::table5),
            ("bench.table6", alias_bench::table6),
            ("bench.figure3", alias_bench::figure3),
            ("bench.figure4", alias_bench::figure4),
            ("bench.figure5", alias_bench::figure5),
            ("bench.figure6", alias_bench::figure6),
            ("bench.stats", alias_bench::stats),
        ];
        for (name, section) in sections {
            rec.span(name, || std::hint::black_box(section(experiment)));
        }
        rec.span("store.union", || {
            let mut union = experiment.active.clone();
            union.extend_from(&experiment.censys);
            std::hint::black_box(union)
        });
        replica_grouping(&experiment.union, self.params.threads, rec);
        // The snapshot and the churn need the Internet as it was on day 0.
        let config = InternetConfig::preset(self.params.scale, self.params.seed);
        let mut internet = build_internet(config, rec, "netsim.rebuild");
        censys_store(&internet, self.params.seed, rec);
        churn(&mut internet, rec);
        rec.exit(replica);
    }

    fn quality(&mut self, experiment: &Experiment) -> Quality {
        score(
            &experiment.internet.ground_truth(),
            &experiment.resolution.merged,
        )
    }
}

/// The store reads and id-space grouping the identifier techniques do,
/// one protocol at a time.
fn replica_grouping(store: &ObservationStore, threads: usize, rec: &mut Recorder) {
    let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
    for protocol in PROTOCOLS {
        let view = rec.span("store.select", || store.select_protocol(protocol, None));
        rec.span("core.group", || {
            std::hint::black_box(group_view_compact(&view, &extractor, threads))
        });
    }
}

/// `silent-study-1t`: all eight techniques over a population with silent
/// routers, rebuilt every iteration because live probing advances device
/// state.
pub struct SilentStudy {
    params: Params,
}

impl SilentStudy {
    fn outcome(study: &RateLimitStudy, probes: u64) -> Outcome {
        let campaign = study
            .report
            .campaign
            .as_ref()
            .expect("the study ran its own campaign");
        Outcome {
            digest: digest_text(&study.render()),
            alias_sets: study.report.merged.len() as u64,
            rows: campaign.len() as u64,
            probes,
        }
    }

    /// The study's Internet, composed from public parts: the preset plus
    /// as many silent routers as the study itself reports.
    fn internet_config(&self, study: &RateLimitStudy) -> InternetConfig {
        let mut config = InternetConfig::preset(self.params.scale, self.params.seed);
        config.devices.silent_routers = study.silent_total;
        config
    }
}

impl Workload for SilentStudy {
    type Artifacts = RateLimitStudy;

    fn setup(params: Params, _rec: &mut Recorder) -> Self {
        SilentStudy { params }
    }

    fn produce(&mut self) -> (Outcome, RateLimitStudy) {
        let Params {
            scale,
            seed,
            threads,
        } = self.params;
        let probes_before = probes_emitted();
        let study = RateLimitStudy::run(scale, seed, threads);
        let outcome = Self::outcome(&study, probes_emitted() - probes_before);
        (outcome, study)
    }

    fn produce_traced(&mut self, rec: &mut Recorder) -> (Outcome, RateLimitStudy) {
        let Params {
            scale,
            seed,
            threads,
        } = self.params;
        let study = traced_call(rec, PIPELINE, || RateLimitStudy::run(scale, seed, threads));
        let probes = probes_emitted();
        let outcome = rec.span("bench.render", || Self::outcome(&study, probes));
        (outcome, study)
    }

    fn replica(&mut self, study: &RateLimitStudy, rec: &mut Recorder) {
        let replica = rec.enter(REPLICA);
        let mut internet = build_internet(self.internet_config(study), rec, "netsim.build");
        churn(&mut internet, rec);
        rec.exit(replica);
    }

    /// `RateLimitStudy` keeps no Internet to score against, so the same
    /// configuration is composed from public parts and must merge into
    /// exactly as many sets as the study did.
    fn quality(&mut self, study: &RateLimitStudy) -> Quality {
        let config = self.internet_config(study);
        let campaign = campaign_config(self.params, &config, true);
        let mut internet = InternetBuilder::new(config).build();
        internet.apply_churn(SimTime::ZERO, SimTime::from_days(ACTIVE_START_DAYS));
        let report = Resolver::builder()
            .all_techniques()
            .threads(self.params.threads)
            .campaign(campaign)
            .build()
            .resolve(&internet);
        assert_eq!(
            report.merged.len(),
            study.report.merged.len(),
            "the composed pipeline must reproduce the study's merged sets"
        );
        score(&internet.ground_truth(), &report.merged)
    }
}

/// `snapshot-resolve-1t`: resolve already-collected rows; no probe is sent.
pub struct SnapshotResolve {
    internet: Internet,
    data: CampaignData,
    resolver: Resolver,
    /// Probes the set-up campaign emitted to collect the active rows.
    probes: u64,
    threads: usize,
}

impl SnapshotResolve {
    fn outcome(&self, report: &ResolutionReport) -> Outcome {
        Outcome {
            digest: digest_merged(&report.merged),
            alias_sets: report.merged.len() as u64,
            rows: self.data.len() as u64,
            probes: self.probes,
        }
    }
}

impl Workload for SnapshotResolve {
    type Artifacts = ResolutionReport;

    fn setup(params: Params, rec: &mut Recorder) -> Self {
        let config = InternetConfig::preset(params.scale, params.seed);
        let campaign = campaign_config(params, &config, false);
        let mut internet = build_internet(config, rec, "netsim.build");
        let censys = censys_store(&internet, params.seed, rec);
        churn(&mut internet, rec);
        let active = traced_call(rec, "setup.campaign", || {
            ActiveCampaign::new(campaign.clone()).run(&internet)
        });
        let probes = probes_emitted();
        let union = rec.span("store.union", || {
            let mut union = active.into_store();
            union.extend_from(&censys);
            union
        });
        rec.count("store.union_rows", union.len() as u64);
        SnapshotResolve {
            internet,
            data: CampaignData::from_store(union),
            resolver: Resolver::builder()
                .paper_techniques()
                .threads(params.threads)
                .campaign(campaign)
                .build(),
            probes,
            threads: params.threads,
        }
    }

    fn produce(&mut self) -> (Outcome, ResolutionReport) {
        let report = self.resolver.resolve_data(&self.internet, &self.data);
        (self.outcome(&report), report)
    }

    fn produce_traced(&mut self, rec: &mut Recorder) -> (Outcome, ResolutionReport) {
        let report = traced_call(rec, PIPELINE, || {
            self.resolver.resolve_data(&self.internet, &self.data)
        });
        let outcome = rec.span("bench.render", || self.outcome(&report));
        (outcome, report)
    }

    fn replica(&mut self, _report: &ResolutionReport, rec: &mut Recorder) {
        let replica = rec.enter(REPLICA);
        replica_grouping(self.data.store(), self.threads, rec);
        rec.exit(replica);
    }

    fn quality(&mut self, report: &ResolutionReport) -> Quality {
        score(&self.internet.ground_truth(), &report.merged)
    }
}

/// The `alias-obs` registry is one per process and the traced calls reset
/// it, so tests that run the pipeline take turns.
#[cfg(test)]
pub static PIPELINE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn text_digest_is_fnv1a() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(digest_text(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest_text("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest_text("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn merged_digest_sees_members_labels_and_order() {
        let set = |addrs: &[&str], labels: &[&str]| MergedSet {
            addrs: addrs.iter().map(|a| a.parse().unwrap()).collect(),
            labels: labels
                .iter()
                .map(|l| (*l).to_owned())
                .collect::<BTreeSet<_>>(),
        };
        let a = set(&["10.0.0.1", "10.0.0.2"], &["ssh"]);
        let b = set(&["2001:db8::1", "10.0.0.9"], &["bgp", "snmpv3"]);
        let base = digest_merged(&[a.clone(), b.clone()]);
        assert_eq!(base, digest_merged(&[a.clone(), b.clone()]));
        assert_ne!(base, digest_merged(&[b.clone(), a.clone()]));
        assert_ne!(base, digest_merged(std::slice::from_ref(&a)));
        let relabelled = set(&["10.0.0.1", "10.0.0.2"], &["bgp"]);
        assert_ne!(base, digest_merged(&[relabelled, b.clone()]));
        let moved = set(&["10.0.0.1", "10.0.0.3"], &["ssh"]);
        assert_ne!(base, digest_merged(&[moved, b]));
    }

    #[test]
    fn iterations_repeat_their_outcome_and_traced_ones_match() {
        let _pipeline = PIPELINE_LOCK.lock().unwrap();
        let params = Params {
            scale: ScalePreset::Tiny,
            seed: 7,
            threads: 1,
        };
        fn check<W: Workload>(params: Params) -> Outcome {
            let mut rec = Recorder::new();
            let mut workload = W::setup(params, &mut rec);
            let (first, artifacts) = workload.produce();
            let quality = workload.quality(&artifacts);
            assert!(quality.precision > 0.9 && quality.recall > 0.5);
            drop(artifacts);
            assert_eq!(workload.produce().0, first);
            let iteration = rec.enter(crate::trace::ITERATION);
            let (traced, artifacts) = workload.produce_traced(&mut rec);
            workload.replica(&artifacts, &mut rec);
            rec.exit(iteration);
            assert_eq!(traced, first);
            first
        }
        let report = check::<PaperReport>(params);
        let study = check::<SilentStudy>(params);
        let snapshot = check::<SnapshotResolve>(params);
        assert!(report.probes > 0 && study.probes > 0 && snapshot.probes > 0);
        // The snapshot workload resolves the rows the report workload wrote.
        assert_eq!(snapshot.rows, report.rows);
        assert_eq!(snapshot.probes, report.probes);
    }
}
