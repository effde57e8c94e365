//! # alias-bench
//!
//! The experiment harness: one function per table and figure of the paper,
//! all driven by a shared [`Experiment`] context that generates the
//! synthetic Internet, runs the active measurement campaign, collects the
//! Censys-like snapshot, applies the churn separating the two, and groups
//! everything into alias and dual-stack sets.
//!
//! Each `table*` / `figure*` function returns the rendered text that the
//! corresponding binary in `src/bin/` prints, so `run_all` can regenerate
//! every result in one pass and write `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use alias_censys::{CensysConfig, CensysSnapshot};
use alias_core::alias_set::{group_view_compact, AliasSetCollection};
use alias_core::analysis;
use alias_core::analysis::AsnTable;
use alias_core::dataset::{DatasetFilter, DatasetSummary};
use alias_core::dual_stack::DualStackReport;
use alias_core::ecdf::Ecdf;
use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
use alias_core::intern::{AddrId, AddrInterner, CompactAliasSet};
use alias_core::merge::{merge_labeled_compact, MergedSet, MultiServiceStats, ProtocolAttribution};
use alias_core::report::{format_count, format_pct, render_ecdf, TextTable};
use alias_core::validation::{common_ids, cross_validate, validate_against_midar};
use alias_midar::{Midar, MidarConfig};
use alias_netsim::{
    DeviceKind, Internet, InternetBuilder, InternetConfig, ScalePreset, SimTime, VantageKind,
};
use alias_resolve::{ResolutionReport, Resolver};
use alias_scan::campaign::CampaignConfig;
use alias_scan::{DataSource, ObservationStore, RateProbeConfig, ServiceProtocol};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::net::IpAddr;
use std::sync::Arc;

pub use alias_resolve::{StageTimings, TechniqueTiming};

/// Which population size to run the experiments on (`ALIAS_SCALE` env var:
/// `tiny`, `small`, `paper`, `large` or `huge`).
///
/// Unset or empty means the default `paper` shape; an unrecognised value
/// (e.g. a typo like `papr`) warns on stderr, lists the valid values, and
/// falls back to the default rather than silently running the biggest
/// preset.
pub fn scale_from_env() -> ScalePreset {
    let raw = std::env::var("ALIAS_SCALE").unwrap_or_default();
    if raw.is_empty() {
        return ScalePreset::PaperShape;
    }
    scale_from_name(&raw).unwrap_or_else(|| {
        eprintln!(
            "warning: unknown ALIAS_SCALE={raw:?}; valid values are \
             \"tiny\", \"small\", \"paper\", \"large\" and \"huge\" — \
             defaulting to \"paper\""
        );
        ScalePreset::PaperShape
    })
}

/// Parse a scale preset from its `ALIAS_SCALE` spelling (case-insensitive).
pub fn scale_from_name(name: &str) -> Option<ScalePreset> {
    match name.to_lowercase().as_str() {
        "tiny" => Some(ScalePreset::Tiny),
        "small" => Some(ScalePreset::Small),
        "paper" => Some(ScalePreset::PaperShape),
        "large" => Some(ScalePreset::Large),
        "huge" => Some(ScalePreset::Huge),
        _ => None,
    }
}

/// Everything the experiment binaries need, computed once.
pub struct Experiment {
    /// The simulated Internet (after churn).
    pub internet: Internet,
    /// Active-measurement observations (single VP, post-churn date), as a
    /// columnar store.
    pub active: ObservationStore,
    /// Censys snapshot observations restricted to default ports.
    pub censys: ObservationStore,
    /// Censys observations on non-standard ports (excluded from analyses).
    pub censys_nonstandard: usize,
    /// Union of active and Censys default-port observations (active rows
    /// first, so row order matches the historical concatenation).
    pub union: ObservationStore,
    /// The identifier extractor (paper policies).
    pub extractor: IdentifierExtractor,
    /// Simulated time of the active campaign start.
    pub active_start: SimTime,
    /// Worker threads for the scan and merge stages (1 = serial).  A pure
    /// performance knob: every experiment output is byte-identical for any
    /// value.
    pub threads: usize,
    /// The unified [`Resolver`] run over the active campaign: per-technique
    /// alias sets, merged sets, coverage/agreement statistics and the
    /// per-technique timing breakdown the bench trajectory records.
    pub resolution: ResolutionReport,
    /// Memoised per-(protocol, source) alias-set collections: every table
    /// and figure regroups the same observations, so each grouping is
    /// computed once and shared.
    collections: Mutex<CollectionCache>,
}

/// Cache key → shared collection for [`Experiment::collection`].
type CollectionCache = HashMap<(ServiceProtocol, Option<DataSource>), Arc<AliasSetCollection>>;

impl Experiment {
    /// Build the Internet, collect the Censys snapshot, apply three weeks of
    /// churn, and run the active campaign — the full data-collection story
    /// of the paper, in the same order.  Serial (`threads = 1`).
    pub fn run(preset: ScalePreset, seed: u64) -> Self {
        Self::run_with_threads(preset, seed, 1)
    }

    /// [`Self::run`] with the campaign and merge stages sharded over
    /// `threads` workers.
    pub fn run_with_threads(preset: ScalePreset, seed: u64, threads: usize) -> Self {
        Self::run_pipeline(preset, seed, threads).0
    }

    /// [`Self::run_with_threads`] that also reports wall-clock per stage —
    /// the measurement behind the `BENCH_*.json` trajectory.  Unlike the
    /// plain constructors this additionally times a representative merge
    /// stage (which the table functions would otherwise compute on demand).
    pub fn run_instrumented(
        preset: ScalePreset,
        seed: u64,
        threads: usize,
    ) -> (Self, StageTimings) {
        let (experiment, mut timings) = Self::run_pipeline(preset, seed, threads);
        // The merge stage the headline numbers come from: consolidate the
        // per-protocol alias sets of both families into union sets.
        let stage = alias_obs::span("bench/merge");
        for ipv6 in [false, true] {
            let labeled: Vec<(&str, Vec<BTreeSet<IpAddr>>)> = PROTOCOLS
                .iter()
                .map(|&p| (p.name(), experiment.collection(p, None).family_sets(ipv6)))
                .collect();
            let inputs: Vec<(&str, &[BTreeSet<IpAddr>])> =
                labeled.iter().map(|(l, s)| (*l, s.as_slice())).collect();
            let _ = experiment.merge_labeled(&inputs);
        }
        timings.merge_ms = stage.finish().as_millis() as u64;
        (experiment, timings)
    }

    /// The shared data-collection pipeline: build, snapshot, churn, scan.
    fn run_pipeline(preset: ScalePreset, seed: u64, threads: usize) -> (Self, StageTimings) {
        let threads = threads.max(1);
        let mut timings = StageTimings::default();
        let config = InternetConfig::preset(preset, seed);
        let hitlist_coverage = config.visibility.hitlist_coverage;

        let stage = alias_obs::span("bench/build_internet");
        let mut internet = InternetBuilder::new(config).build();
        timings.build_internet_ms = stage.finish().as_millis() as u64;

        // Censys snapshot at day 0.
        let stage = alias_obs::span("bench/censys");
        let snapshot = CensysSnapshot::collect(
            &internet,
            CensysConfig {
                snapshot_time: SimTime::ZERO,
                seed,
                ..Default::default()
            },
        );
        let (default_port, censys_nonstandard) = snapshot.into_default_port();
        let censys = ObservationStore::from_observations(default_port);
        timings.censys_ms = stage.finish().as_millis() as u64;

        // Three weeks pass before the active measurement (the paper's
        // snapshot is dated March 28, the active scan April 18).
        let active_start = SimTime::from_days(21);
        internet.apply_churn(SimTime::ZERO, active_start);

        // Active campaign from a single vantage point, followed by
        // per-technique resolution and the cross-technique merge — all
        // orchestrated by the unified `Resolver`.
        let resolver = Resolver::builder()
            .paper_techniques()
            .threads(threads)
            .campaign(CampaignConfig {
                vantage: VantageKind::SingleVp,
                start: active_start,
                hitlist_coverage,
                seed,
                threads,
                ..Default::default()
            })
            .build();
        let mut resolution = resolver.resolve(&internet);
        timings.campaign_ms = resolution.timings.campaign_ms;
        let active = resolution
            .campaign
            .take()
            .expect("the resolver ran the scan itself")
            .into_store();

        let mut union = active.clone();
        union.extend_from(&censys);

        let experiment = Experiment {
            internet,
            active,
            censys,
            censys_nonstandard,
            union,
            extractor: IdentifierExtractor::new(ExtractionConfig::paper()),
            active_start,
            threads,
            resolution,
            collections: Mutex::new(HashMap::new()),
        };
        (experiment, timings)
    }

    /// Convenience constructor honouring `ALIAS_SCALE` and `ALIAS_THREADS`.
    pub fn from_env() -> Self {
        Self::run_with_threads(scale_from_env(), 20230418, alias_exec::threads_from_env())
    }

    /// Merge labelled set collections on this experiment's thread pool.
    /// Byte-identical for any thread count.  The tables hold
    /// report-boundary address sets, so this bridges them into a private
    /// id space and runs [`merge_labeled_compact`]; the merged partition
    /// (and its canonical order) is independent of interning order.
    pub fn merge_labeled(&self, inputs: &[(&str, &[BTreeSet<IpAddr>])]) -> Vec<MergedSet> {
        let mut interner = AddrInterner::new();
        let compact: Vec<(&str, Vec<CompactAliasSet>)> = inputs
            .iter()
            .map(|&(label, sets)| {
                (
                    label,
                    sets.iter()
                        .map(|set| CompactAliasSet::from_addr_set(set, &mut interner))
                        .collect(),
                )
            })
            .collect();
        let borrowed: Vec<(&str, &[CompactAliasSet])> =
            compact.iter().map(|(l, s)| (*l, s.as_slice())).collect();
        merge_labeled_compact(&borrowed, &interner, self.threads)
    }

    /// The columnar store of one data source (`None` = union).
    pub fn store_for(&self, source: Option<DataSource>) -> &ObservationStore {
        match source {
            Some(DataSource::Active) => &self.active,
            Some(DataSource::Censys) => &self.censys,
            None => &self.union,
        }
    }

    /// Alias-set collection for one protocol and data source (None = union).
    ///
    /// Collections are memoised: grouping is deterministic for a built
    /// experiment, and the tables and figures ask for the same handful of
    /// (protocol, source) pairs over and over.  Grouping consumes a column
    /// view — the protocol filter reads one byte per row, and only the
    /// matching rows' payloads are extracted.
    pub fn collection(
        &self,
        protocol: ServiceProtocol,
        source: Option<DataSource>,
    ) -> Arc<AliasSetCollection> {
        let key = (protocol, source);
        if let Some(cached) = self.collections.lock().get(&key) {
            return cached.clone();
        }
        let view = self.store_for(source).select_protocol(protocol, None);
        let computed = Arc::new(AliasSetCollection::from_view(&view, &self.extractor));
        // Recomputing on a race is harmless (identical result); keep the
        // first entry so every caller shares one allocation.
        self.collections
            .lock()
            .entry(key)
            .or_insert(computed)
            .clone()
    }

    /// Per-protocol responsive addresses of one family in the union data,
    /// as sorted distinct ids of the union store's id space.
    pub fn responsive_ids(&self, protocol: ServiceProtocol, ipv6: bool) -> Vec<AddrId> {
        let tag = alias_scan::ProtocolTag::from(protocol);
        let interner = self.union.interner();
        let mut ids: Vec<AddrId> = self
            .union
            .protocols()
            .iter()
            .zip(self.union.addr_ids())
            .filter(|&(&p, _)| p == tag)
            .map(|(_, &id)| id)
            .filter(|&id| interner.addr(id).is_ipv6() == ipv6)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Dense id → ASN annotation column over the union store's id space.
    pub fn asn_table(&self) -> AsnTable {
        AsnTable::from_pairs(
            self.union.interner().len(),
            self.union
                .addr_ids()
                .iter()
                .zip(self.union.asns())
                .filter_map(|(&id, &asn)| asn.map(|asn| (id, asn))),
        )
    }

    /// Bridge report-boundary address sets back into the union store's id
    /// space (every table set is built from observed addresses, so lookups
    /// cannot miss).
    fn compact_in(&self, sets: &[BTreeSet<IpAddr>]) -> Vec<CompactAliasSet> {
        let interner = self.union.interner();
        sets.iter()
            .map(|set| {
                CompactAliasSet::from_ids(
                    set.iter()
                        .map(|&addr| {
                            interner
                                .get(addr)
                                .expect("experiment sets only contain observed addresses")
                        })
                        .collect(),
                )
            })
            .collect()
    }
}

const PROTOCOLS: [ServiceProtocol; 3] = [
    ServiceProtocol::Ssh,
    ServiceProtocol::Bgp,
    ServiceProtocol::Snmpv3,
];

/// Table 1: service scanning dataset overview.
pub fn table1(exp: &Experiment) -> String {
    let mut table = TextTable::new([
        "Protocol",
        "Active #IPs",
        "Active #ASN",
        "Censys #IPs",
        "Censys #ASN",
        "Union #IPs",
        "Union #ASN",
    ]);
    let cell = |store: &ObservationStore, protocol, source, ipv6| {
        let summary = DatasetSummary::from_store(
            store,
            DatasetFilter {
                protocol,
                source,
                ipv6,
            },
        );
        (format_count(summary.ips), format_count(summary.asns))
    };
    for (label, protocol, ipv6) in [
        ("SSH", Some(ServiceProtocol::Ssh), false),
        ("BGP", Some(ServiceProtocol::Bgp), false),
        ("SNMPv3", Some(ServiceProtocol::Snmpv3), false),
        ("Union", None, false),
        ("SSH (IPv6)", Some(ServiceProtocol::Ssh), true),
        ("BGP (IPv6)", Some(ServiceProtocol::Bgp), true),
        ("SNMPv3 (IPv6)", Some(ServiceProtocol::Snmpv3), true),
        ("Union (IPv6)", None, true),
    ] {
        let active = cell(&exp.active, protocol, None, ipv6);
        let censys = cell(&exp.censys, protocol, None, ipv6);
        let union = cell(&exp.union, protocol, None, ipv6);
        table.row([
            label.to_owned(),
            active.0,
            active.1,
            censys.0,
            censys.1,
            union.0,
            union.1,
        ]);
    }
    let mut out = String::from("Table 1: Service Scanning Dataset Overview\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nCensys additionally lists {} SSH records on non-standard ports (excluded).\n",
        format_count(exp.censys_nonstandard)
    ));
    out
}

/// Table 2: alias-set validation (cross-protocol and against MIDAR).
pub fn table2(exp: &Experiment) -> String {
    let ssh = exp.collection(ServiceProtocol::Ssh, None);
    let bgp = exp.collection(ServiceProtocol::Bgp, None);
    let snmp = exp.collection(ServiceProtocol::Snmpv3, None);
    let ssh_sets = ssh.ipv4_sets();
    let bgp_sets = bgp.ipv4_sets();
    let snmp_sets = snmp.ipv4_sets();
    // Cross-protocol validation runs in the union store's id space; the
    // counts are invariant under the addr↔id relabeling, so the rendered
    // rows match the historical address-space computation byte for byte.
    let ssh_compact = exp.compact_in(&ssh_sets);
    let bgp_compact = exp.compact_in(&bgp_sets);
    let snmp_compact = exp.compact_in(&snmp_sets);

    let ssh_ids = exp.responsive_ids(ServiceProtocol::Ssh, false);
    let bgp_ids = exp.responsive_ids(ServiceProtocol::Bgp, false);
    let snmp_ids = exp.responsive_ids(ServiceProtocol::Snmpv3, false);

    let mut table = TextTable::new(["Pair", "Sample size", "Agree", "Disagree", "Agreement"]);
    for (label, a_sets, b_sets, a_ids, b_ids) in [
        ("SSH-BGP", &ssh_compact, &bgp_compact, &ssh_ids, &bgp_ids),
        (
            "SSH-SNMPv3",
            &ssh_compact,
            &snmp_compact,
            &ssh_ids,
            &snmp_ids,
        ),
        (
            "BGP-SNMPv3",
            &bgp_compact,
            &snmp_compact,
            &bgp_ids,
            &snmp_ids,
        ),
    ] {
        let common = common_ids(a_ids, b_ids);
        let result = cross_validate(a_sets, b_sets, &common);
        table.row([
            label.to_owned(),
            format_count(result.sample_size),
            format_count(result.agree),
            format_count(result.disagree),
            format_pct(result.agreement_rate()),
        ]);
    }

    // SSH vs MIDAR on a sample of sets with at most ten addresses.
    let sample: Vec<BTreeSet<IpAddr>> = ssh_sets
        .iter()
        .filter(|s| s.len() <= 10)
        .take(2_000)
        .cloned()
        .collect();
    let targets: Vec<IpAddr> = sample.iter().flatten().copied().collect();
    let midar = Midar::new(MidarConfig::default()).resolve(
        &exp.internet,
        &targets,
        exp.active_start + SimTime::from_days(1),
    );
    // "Verifiable" follows the paper's reading: MIDAR made a positive
    // aliasing claim about the addresses (grouped at least two of them).
    // Addresses whose counters were individually sampleable but never
    // corroborated into a set (per-interface counters, high velocity) leave
    // the sampled set unverified rather than contradicted.
    let positively_grouped: BTreeSet<IpAddr> = midar.alias_sets.iter().flatten().copied().collect();
    // MIDAR probing can in principle report addresses the union store never
    // observed, so the comparison gets its own private id space.
    let mut space = AddrInterner::new();
    let sample_compact: Vec<CompactAliasSet> = sample
        .iter()
        .map(|set| CompactAliasSet::from_addr_set(set, &mut space))
        .collect();
    let midar_compact: Vec<CompactAliasSet> = midar
        .alias_sets
        .iter()
        .map(|set| CompactAliasSet::from_addr_set(set, &mut space))
        .collect();
    let mut grouped_ids: Vec<AddrId> = positively_grouped
        .iter()
        .map(|&addr| space.intern(addr))
        .collect();
    grouped_ids.sort_unstable();
    let validation = validate_against_midar(&sample_compact, &midar_compact, &grouped_ids);
    table.row([
        "SSH-MIDAR".to_owned(),
        format_count(validation.result.sample_size),
        format_count(validation.result.agree),
        format_count(validation.result.disagree),
        format_pct(validation.result.agreement_rate()),
    ]);

    let mut out = String::from("Table 2: Alias Sets Validation\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nMIDAR sample: {} sets sampled, {} verifiable ({}), MIDAR run finished after {} simulated days.\n",
        format_count(validation.sampled),
        format_count(validation.result.sample_size),
        format_pct(validation.coverage()),
        midar.finished_at.as_secs() / 86_400,
    ));
    out
}

/// Table 3: alias sets overview (non-singleton sets and covered addresses).
pub fn table3(exp: &Experiment) -> String {
    let mut table = TextTable::new(["Family", "Source", "SSH", "BGP", "SNMPv3", "Union"]);
    for ipv6 in [false, true] {
        for source in [Some(DataSource::Active), Some(DataSource::Censys), None] {
            // IPv6 Censys data is excluded, as in the paper.
            if ipv6 && source == Some(DataSource::Censys) {
                continue;
            }
            let mut cells = Vec::new();
            let mut labeled = Vec::new();
            for protocol in PROTOCOLS {
                // SNMPv3 only exists in the active measurements.
                let effective_source = if protocol == ServiceProtocol::Snmpv3 {
                    Some(DataSource::Active)
                } else {
                    source
                };
                let collection = exp.collection(protocol, effective_source);
                let sets = collection.family_sets(ipv6);
                let addrs: usize = sets.iter().map(BTreeSet::len).sum();
                if protocol == ServiceProtocol::Snmpv3 && source == Some(DataSource::Censys) {
                    cells.push("n.a.".to_owned());
                } else {
                    cells.push(format!(
                        "{} ({})",
                        format_count(sets.len()),
                        format_count(addrs)
                    ));
                }
                labeled.push((protocol.name(), sets));
            }
            let merged = exp.merge_labeled(
                &labeled
                    .iter()
                    .map(|(l, s)| (*l, s.as_slice()))
                    .collect::<Vec<_>>(),
            );
            let union_addrs: usize = merged.iter().map(|m| m.addrs.len()).sum();
            let source_label = match source {
                Some(DataSource::Active) => "Active",
                Some(DataSource::Censys) => "Censys",
                None => "Union",
            };
            table.row([
                if ipv6 { "IPv6" } else { "IPv4" }.to_owned(),
                source_label.to_owned(),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
                format!(
                    "{} ({})",
                    format_count(merged.len()),
                    format_count(union_addrs)
                ),
            ]);
        }
    }
    let mut out = String::from("Table 3: Alias Sets Overview — sets (covered addresses)\n");
    out.push_str(&table.render());
    out
}

/// Table 4: dual-stack sets.
pub fn table4(exp: &Experiment) -> String {
    let mut table = TextTable::new(["Protocol", "IPv4 addr", "IPv6 addr", "Dual-stack sets"]);
    let mut labeled: Vec<(&str, Vec<BTreeSet<IpAddr>>)> = Vec::new();
    for protocol in PROTOCOLS {
        let collection = exp.collection(protocol, None);
        let report = DualStackReport::from_collection(&collection);
        table.row([
            protocol.name().to_uppercase(),
            format_count(report.ipv4_addresses()),
            format_count(report.ipv6_addresses()),
            format_count(report.set_count()),
        ]);
        labeled.push((
            protocol.name(),
            report
                .sets
                .iter()
                .map(|s| s.ipv4.iter().chain(&s.ipv6).copied().collect())
                .collect(),
        ));
    }
    let merged = exp.merge_labeled(
        &labeled
            .iter()
            .map(|(l, s)| (*l, s.as_slice()))
            .collect::<Vec<_>>(),
    );
    let v4: usize = merged
        .iter()
        .map(|m| m.addrs.iter().filter(|a| a.is_ipv4()).count())
        .sum();
    let v6: usize = merged
        .iter()
        .map(|m| m.addrs.iter().filter(|a| a.is_ipv6()).count())
        .sum();
    table.row([
        "Union".to_owned(),
        format_count(v4),
        format_count(v6),
        format_count(merged.len()),
    ]);
    let attribution = ProtocolAttribution::compute(&merged);
    let ssh_union = exp.collection(ServiceProtocol::Ssh, None);
    let ssh_report = DualStackReport::from_collection(&ssh_union);
    let (simple, medium, large) = {
        // Size split over the union of protocol dual-stack reports uses SSH's
        // report as the dominant contributor plus the merged sets directly.
        let total = merged.len().max(1) as f64;
        let simple = merged.iter().filter(|m| m.addrs.len() == 2).count() as f64 / total;
        let medium = merged
            .iter()
            .filter(|m| m.addrs.len() > 2 && m.addrs.len() <= 10)
            .count() as f64
            / total;
        let large = merged.iter().filter(|m| m.addrs.len() > 10).count() as f64 / total;
        (simple, medium, large)
    };
    let mut out = String::from("Table 4: Dual-Stack Sets\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nOnly identifiable with SNMPv3: {} of sets; identifiable with SSH or BGP: {}.\n",
        format_pct(attribution.snmpv3_only_fraction()),
        format_pct(1.0 - attribution.snmpv3_only_fraction()),
    ));
    out.push_str(&format!(
        "Set sizes: {} single v4+v6 pair, {} with 2-10 addresses, {} with >10 addresses.\n",
        format_pct(simple),
        format_pct(medium),
        format_pct(large)
    ));
    out.push_str(&format!(
        "SSH alone contributes {} dual-stack sets.\n",
        format_count(ssh_report.set_count())
    ));
    out
}

/// Table 5: top 10 ASes for IPv4 alias sets, per protocol and union.
pub fn table5(exp: &Experiment) -> String {
    let asns = exp.asn_table();
    let mut columns: Vec<Vec<(u32, usize)>> = Vec::new();
    let mut labeled = Vec::new();
    for protocol in PROTOCOLS {
        let collection = exp.collection(protocol, None);
        let sets = collection.ipv4_sets();
        columns.push(analysis::top_ases(&exp.compact_in(&sets), &asns, 10));
        labeled.push((protocol.name(), sets));
    }
    let merged: Vec<BTreeSet<IpAddr>> = exp
        .merge_labeled(
            &labeled
                .iter()
                .map(|(l, s)| (*l, s.as_slice()))
                .collect::<Vec<_>>(),
        )
        .into_iter()
        .map(|m| m.addrs)
        .collect();
    columns.push(analysis::top_ases(&exp.compact_in(&merged), &asns, 10));

    let mut table = TextTable::new(["Rank", "SSH", "BGP", "SNMPv3", "Union"]);
    for rank in 0..10 {
        let cell = |column: &Vec<(u32, usize)>| {
            column
                .get(rank)
                .map(|(asn, count)| format!("{asn} ({})", format_count(*count)))
                .unwrap_or_else(|| "-".to_owned())
        };
        table.row([
            (rank + 1).to_string(),
            cell(&columns[0]),
            cell(&columns[1]),
            cell(&columns[2]),
            cell(&columns[3]),
        ]);
    }
    let mut out = String::from("Table 5: Top 10 ASes for IPv4 alias sets\n");
    out.push_str(&table.render());
    out
}

/// Table 6: top 10 ASes for IPv6 alias sets and dual-stack sets.
pub fn table6(exp: &Experiment) -> String {
    let asns = exp.asn_table();
    let mut v6_labeled = Vec::new();
    let mut ds_labeled = Vec::new();
    for protocol in PROTOCOLS {
        let collection = exp.collection(protocol, None);
        v6_labeled.push((protocol.name(), collection.ipv6_sets()));
        let report = DualStackReport::from_collection(&collection);
        ds_labeled.push((
            protocol.name(),
            report
                .sets
                .iter()
                .map(|s| {
                    s.ipv4
                        .iter()
                        .chain(&s.ipv6)
                        .copied()
                        .collect::<BTreeSet<IpAddr>>()
                })
                .collect::<Vec<_>>(),
        ));
    }
    let v6_union: Vec<BTreeSet<IpAddr>> = exp
        .merge_labeled(
            &v6_labeled
                .iter()
                .map(|(l, s)| (*l, s.as_slice()))
                .collect::<Vec<_>>(),
        )
        .into_iter()
        .map(|m| m.addrs)
        .collect();
    let ds_union: Vec<BTreeSet<IpAddr>> = exp
        .merge_labeled(
            &ds_labeled
                .iter()
                .map(|(l, s)| (*l, s.as_slice()))
                .collect::<Vec<_>>(),
        )
        .into_iter()
        .map(|m| m.addrs)
        .collect();
    let v6_top = analysis::top_ases(&exp.compact_in(&v6_union), &asns, 10);
    let ds_top = analysis::top_ases(&exp.compact_in(&ds_union), &asns, 10);

    let mut table = TextTable::new(["Rank", "IPv6", "Dual-stack"]);
    for rank in 0..10 {
        let cell = |column: &Vec<(u32, usize)>| {
            column
                .get(rank)
                .map(|(asn, count)| format!("{asn} ({})", format_count(*count)))
                .unwrap_or_else(|| "-".to_owned())
        };
        table.row([(rank + 1).to_string(), cell(&v6_top), cell(&ds_top)]);
    }
    let mut out = String::from("Table 6: Top 10 ASes for IPv6 alias and dual-stack sets\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nIPv6 alias sets spread over {} ASes; dual-stack sets over {} ASes.\n",
        format_count(analysis::ases_with_sets(&exp.compact_in(&v6_union), &asns)),
        format_count(analysis::ases_with_sets(&exp.compact_in(&ds_union), &asns)),
    ));
    out
}

fn ecdf_series(title: &str, series: Vec<(&str, Ecdf)>) -> String {
    let mut out = String::from(title);
    out.push('\n');
    for (label, ecdf) in series {
        out.push_str(&format!(
            "# series: {label} (n={}, median={:.0})\n",
            ecdf.len(),
            ecdf.quantile(0.5).unwrap_or(0.0)
        ));
        out.push_str(&render_ecdf(&ecdf.points()));
    }
    out
}

/// Figure 3: ECDF of IPv4 addresses per alias set.
pub fn figure3(exp: &Experiment) -> String {
    let series = vec![
        (
            "Censys BGP",
            Ecdf::from_counts(
                exp.collection(ServiceProtocol::Bgp, Some(DataSource::Censys))
                    .set_sizes(false),
            ),
        ),
        (
            "Active BGP",
            Ecdf::from_counts(
                exp.collection(ServiceProtocol::Bgp, Some(DataSource::Active))
                    .set_sizes(false),
            ),
        ),
        (
            "Censys SSH",
            Ecdf::from_counts(
                exp.collection(ServiceProtocol::Ssh, Some(DataSource::Censys))
                    .set_sizes(false),
            ),
        ),
        (
            "Active SSH",
            Ecdf::from_counts(
                exp.collection(ServiceProtocol::Ssh, Some(DataSource::Active))
                    .set_sizes(false),
            ),
        ),
        (
            "Active SNMPv3",
            Ecdf::from_counts(
                exp.collection(ServiceProtocol::Snmpv3, Some(DataSource::Active))
                    .set_sizes(false),
            ),
        ),
    ];
    ecdf_series("Figure 3: IPv4 addresses per alias set (ECDF)", series)
}

/// Figure 4: ECDF of IPv6 addresses per alias set.
pub fn figure4(exp: &Experiment) -> String {
    let series = vec![
        (
            "Active SSH",
            Ecdf::from_counts(
                exp.collection(ServiceProtocol::Ssh, Some(DataSource::Active))
                    .set_sizes(true),
            ),
        ),
        (
            "Active BGP",
            Ecdf::from_counts(
                exp.collection(ServiceProtocol::Bgp, Some(DataSource::Active))
                    .set_sizes(true),
            ),
        ),
        (
            "Active SNMPv3",
            Ecdf::from_counts(
                exp.collection(ServiceProtocol::Snmpv3, Some(DataSource::Active))
                    .set_sizes(true),
            ),
        ),
    ];
    ecdf_series("Figure 4: IPv6 addresses per alias set (ECDF)", series)
}

/// Figure 5: ECDF of ASes per IPv4 alias set.
pub fn figure5(exp: &Experiment) -> String {
    let asns = exp.asn_table();
    let series = PROTOCOLS
        .iter()
        .map(|&protocol| {
            let sets = exp.collection(protocol, None).ipv4_sets();
            let counts = analysis::asns_per_set(&exp.compact_in(&sets), &asns);
            (protocol.name(), Ecdf::from_counts(counts))
        })
        .collect::<Vec<_>>();
    let mut out = ecdf_series("Figure 5: ASNs per IPv4 alias set (ECDF)", series);
    for protocol in PROTOCOLS {
        let sets = exp.collection(protocol, None).ipv4_sets();
        let counts = analysis::asns_per_set(&exp.compact_in(&sets), &asns);
        let multi = counts.iter().filter(|&&c| c >= 2).count();
        out.push_str(&format!(
            "# {}: {} of sets span 2+ ASes\n",
            protocol.name(),
            format_pct(multi as f64 / counts.len().max(1) as f64)
        ));
    }
    out
}

/// Figure 6: ECDF of the number of alias / dual-stack sets per AS.
pub fn figure6(exp: &Experiment) -> String {
    let asns = exp.asn_table();
    let mut labeled = Vec::new();
    let mut ds_labeled = Vec::new();
    for protocol in PROTOCOLS {
        let collection = exp.collection(protocol, None);
        labeled.push((protocol.name(), collection.ipv4_sets()));
        let report = DualStackReport::from_collection(&collection);
        ds_labeled.push((
            protocol.name(),
            report
                .sets
                .iter()
                .map(|s| {
                    s.ipv4
                        .iter()
                        .chain(&s.ipv6)
                        .copied()
                        .collect::<BTreeSet<IpAddr>>()
                })
                .collect::<Vec<_>>(),
        ));
    }
    let alias_union: Vec<BTreeSet<IpAddr>> = exp
        .merge_labeled(
            &labeled
                .iter()
                .map(|(l, s)| (*l, s.as_slice()))
                .collect::<Vec<_>>(),
        )
        .into_iter()
        .map(|m| m.addrs)
        .collect();
    let ds_union: Vec<BTreeSet<IpAddr>> = exp
        .merge_labeled(
            &ds_labeled
                .iter()
                .map(|(l, s)| (*l, s.as_slice()))
                .collect::<Vec<_>>(),
        )
        .into_iter()
        .map(|m| m.addrs)
        .collect();
    let alias_counts: Vec<usize> = analysis::sets_per_as(&exp.compact_in(&alias_union), &asns)
        .into_values()
        .collect();
    let ds_counts: Vec<usize> = analysis::sets_per_as(&exp.compact_in(&ds_union), &asns)
        .into_values()
        .collect();
    let ases_with_alias = alias_counts.len();
    let over_100 = alias_counts.iter().filter(|&&c| c > 100).count();
    let mut out = ecdf_series(
        "Figure 6: number of sets per AS (ECDF)",
        vec![
            ("Alias Sets", Ecdf::from_counts(alias_counts)),
            ("Dual-Stack Sets", Ecdf::from_counts(ds_counts)),
        ],
    );
    out.push_str(&format!(
        "# {} ASes contain at least one alias set; {} of them have more than 100 sets\n",
        format_count(ases_with_alias),
        format_pct(over_100 as f64 / ases_with_alias.max(1) as f64)
    ));
    out
}

/// Narrative statistics quoted in the paper's text (§2.2, §2.3, §4.1, §4.2).
pub fn stats(exp: &Experiment) -> String {
    let mut out = String::from("Narrative statistics\n====================\n");

    // §2.3: BGP speakers that close silently vs. send an OPEN.
    let population = exp.internet.population_stats();
    out.push_str(&format!(
        "BGP speakers closing silently after the handshake: {}; sending an OPEN + NOTIFICATION: {}\n",
        format_count(population.bgp_silent_closers),
        format_count(population.bgp_open_senders),
    ));

    // §2.2: non-singleton SSH hosts with diverging capabilities.
    let ssh = exp.collection(ServiceProtocol::Ssh, None);
    let key_only = IdentifierExtractor::new(ExtractionConfig {
        ssh: alias_core::identifier::SshIdentifierPolicy::KeyOnly,
        ..ExtractionConfig::paper()
    });
    // Only the number of key-grouped sets is quoted, so the id-space
    // grouping (non-singleton sets, no addresses resolved) is enough.
    let ssh_by_key = group_view_compact(
        &exp.union.select_protocol(ServiceProtocol::Ssh, None),
        &key_only,
        exp.threads,
    );
    // The full identifier splits a key-grouped set whenever interfaces of
    // the same host advertise diverging capabilities (the paper's 0.4%).
    let full_sets = ssh.non_singleton_sets().len();
    let key_sets = ssh_by_key.sets.len();
    let diverging = full_sets.saturating_sub(key_sets);
    out.push_str(&format!(
        "Non-singleton SSH hosts whose interfaces disagree on capabilities: {} of {} key-grouped sets ({:.1}%)\n",
        format_count(diverging),
        format_count(key_sets),
        diverging as f64 / key_sets.max(1) as f64 * 100.0,
    ));

    // §4.1: single- vs multi-service addresses (IPv4 and IPv6).
    for ipv6 in [false, true] {
        let per_protocol: Vec<Vec<AddrId>> = PROTOCOLS
            .iter()
            .map(|&p| exp.responsive_ids(p, ipv6))
            .collect();
        let stats = MultiServiceStats::compute(&per_protocol, exp.union.interner().len());
        out.push_str(&format!(
            "{}: {} of addresses answer a single service; {} answer two or three\n",
            if ipv6 { "IPv6" } else { "IPv4" },
            format_pct(stats.single_fraction()),
            format_pct(1.0 - stats.single_fraction()),
        ));
    }

    // §4.1: share of union alias sets only SNMPv3 can identify.
    for ipv6 in [false, true] {
        let labeled: Vec<(&str, Vec<BTreeSet<IpAddr>>)> = PROTOCOLS
            .iter()
            .map(|&p| (p.name(), exp.collection(p, None).family_sets(ipv6)))
            .collect();
        let merged = exp.merge_labeled(
            &labeled
                .iter()
                .map(|(l, s)| (*l, s.as_slice()))
                .collect::<Vec<_>>(),
        );
        let attribution = ProtocolAttribution::compute(&merged);
        out.push_str(&format!(
            "{} union alias sets: {} total, {} only via SNMPv3, {} via SSH or BGP\n",
            if ipv6 { "IPv6" } else { "IPv4" },
            format_count(attribution.total),
            format_pct(attribution.snmpv3_only_fraction()),
            format_pct(1.0 - attribution.snmpv3_only_fraction()),
        ));
    }

    // Ground-truth scoring (not available to the paper, a bonus of the
    // simulated substrate).
    let truth = exp.internet.ground_truth();
    for protocol in PROTOCOLS {
        let collection = exp.collection(protocol, None);
        let sets = collection.ipv4_sets();
        let score = truth.score_sets(sets.iter().map(|s| s.iter()));
        out.push_str(&format!(
            "Ground truth ({}): pairwise precision {:.3}, recall {:.3}\n",
            protocol.name(),
            score.precision(),
            score.recall()
        ));
    }
    out
}

/// Run every experiment and return `(section title, rendered text)` pairs.
pub fn run_all(exp: &Experiment) -> Vec<(&'static str, String)> {
    vec![
        ("Table 1", table1(exp)),
        ("Table 2", table2(exp)),
        ("Table 3", table3(exp)),
        ("Table 4", table4(exp)),
        ("Table 5", table5(exp)),
        ("Table 6", table6(exp)),
        ("Figure 3", figure3(exp)),
        ("Figure 4", figure4(exp)),
        ("Figure 5", figure5(exp)),
        ("Figure 6", figure6(exp)),
        ("Narrative statistics", stats(exp)),
    ]
}

/// The short lowercase name of a scale preset, as `ALIAS_SCALE` spells it.
pub fn scale_name(preset: ScalePreset) -> &'static str {
    match preset {
        ScalePreset::Tiny => "tiny",
        ScalePreset::Small => "small",
        ScalePreset::PaperShape => "paper",
        ScalePreset::Large => "large",
        ScalePreset::Huge => "huge",
    }
}

/// Render the full `EXPERIMENTS_MEASURED.md` document for one experiment.
pub fn render_document(exp: &Experiment, preset: ScalePreset) -> String {
    use std::fmt::Write as _;
    let mut doc = String::new();
    writeln!(doc, "# EXPERIMENTS — measured reproduction results\n").unwrap();
    writeln!(
        doc,
        "Generated by `cargo run --release -p alias-bench --bin run_all` at scale preset {preset:?}."
    )
    .unwrap();
    writeln!(
        doc,
        "The synthetic population is ~1/400 of the paper's SSH/SNMPv3 scale and ~1/40 of its BGP scale \
         (see DESIGN.md), so absolute counts are smaller; the comparisons below therefore quote the \
         paper's value alongside the measured one and comment on the *shape*.\n"
    )
    .unwrap();
    for (name, text) in run_all(exp) {
        writeln!(doc, "## {name}\n").unwrap();
        writeln!(doc, "```text\n{}```\n", text).unwrap();
    }
    doc
}

/// [`render_document`] plus the ICMP rate-limiting study as a final
/// section — the form `run_all` writes to `EXPERIMENTS_MEASURED.md`.
pub fn render_document_with_study(
    exp: &Experiment,
    preset: ScalePreset,
    study: &RateLimitStudy,
) -> String {
    use std::fmt::Write as _;
    let mut doc = render_document(exp, preset);
    writeln!(doc, "## ICMP rate-limiting study\n").unwrap();
    writeln!(doc, "```text\n{}```\n", study.render()).unwrap();
    doc
}

/// The ICMP rate-limiting experiment (Vermeulen et al., PAM 2020, added as
/// the eighth resolution technique): a population containing *silent*
/// routers — no SSH, BGP or SNMP service, no usable IPID counter, no ICMP
/// error source — that only the rate-limiting technique can alias.
///
/// The study runs on its own Internet (same preset and seed as the main
/// experiment, plus a silent-router population the default presets leave at
/// zero) so every headline table keeps its historical values; the campaign
/// opts into the rate-probing phase and the resolver registers all eight
/// techniques.
pub struct RateLimitStudy {
    /// The eight-technique resolution report over the silent-router
    /// population.
    pub report: ResolutionReport,
    /// Silent routers in the ground truth.
    pub silent_total: usize,
    /// Silent routers with at least two IPv4 interfaces — the ones an
    /// IPv4 alias set can prove anything about.
    pub silent_resolvable: usize,
    /// Resolvable silent routers whose IPv4 interfaces the rate-limiting
    /// technique grouped into one alias set, completely.
    pub silent_aliased: usize,
    /// Merged sets carrying *only* the `ratelimit` label — aliases no
    /// other technique corroborates.
    pub ratelimit_only_sets: usize,
}

impl RateLimitStudy {
    /// Silent routers added on top of a preset's default population.
    fn silent_routers(preset: ScalePreset) -> usize {
        match preset {
            ScalePreset::Tiny => 12,
            ScalePreset::Small => 60,
            ScalePreset::PaperShape => 300,
            // Scaled with the device populations (10× / 100× paper).
            ScalePreset::Large => 3_000,
            ScalePreset::Huge => 30_000,
        }
    }

    /// Build the silent-router Internet, run the campaign with the
    /// rate-probing phase, resolve with all eight techniques, and score
    /// the result against ground truth.
    pub fn run(preset: ScalePreset, seed: u64, threads: usize) -> Self {
        let mut config = InternetConfig::preset(preset, seed);
        config.devices.silent_routers = Self::silent_routers(preset);
        let hitlist_coverage = config.visibility.hitlist_coverage;
        let mut internet = InternetBuilder::new(config).build();
        let start = SimTime::from_days(21);
        internet.apply_churn(SimTime::ZERO, start);
        let resolver = Resolver::builder()
            .all_techniques()
            .threads(threads)
            .campaign(CampaignConfig {
                vantage: VantageKind::SingleVp,
                start,
                hitlist_coverage,
                seed,
                threads,
                rate_probe: Some(RateProbeConfig::default()),
                ..Default::default()
            })
            .build();
        let report = resolver.resolve(&internet);

        let ratelimit_sets = report
            .technique("ratelimit")
            .map(|t| t.alias_sets())
            .unwrap_or_default();
        let mut silent_total = 0;
        let mut silent_resolvable = 0;
        let mut silent_aliased = 0;
        for device in internet.devices() {
            if device.kind != DeviceKind::SilentRouter {
                continue;
            }
            silent_total += 1;
            let v4: Vec<IpAddr> = device.ipv4_addrs().into_iter().map(IpAddr::V4).collect();
            if v4.len() < 2 {
                continue;
            }
            silent_resolvable += 1;
            if ratelimit_sets
                .iter()
                .any(|s| v4.iter().all(|a| s.contains(a)))
            {
                silent_aliased += 1;
            }
        }
        let ratelimit_only_sets = report
            .merged
            .iter()
            .filter(|m| m.labels.len() == 1 && m.labels.contains("ratelimit"))
            .count();
        RateLimitStudy {
            report,
            silent_total,
            silent_resolvable,
            silent_aliased,
            ratelimit_only_sets,
        }
    }

    /// The `resolve_ms` row the bench trajectory records for the new
    /// technique.
    pub fn ratelimit_timing(&self) -> Option<TechniqueTiming> {
        self.report
            .technique_timings
            .iter()
            .find(|t| t.technique == "ratelimit")
            .cloned()
    }

    /// Render the study: per-technique coverage, the agreement rows
    /// involving the new technique, and the silent-router ground-truth
    /// score only this technique can reach.  Wall-clock stays out of the
    /// rendered text — the document must be byte-identical across thread
    /// counts and repeats; timings go to the JSON trajectory instead.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(["Technique", "Alias sets", "Covered", "Testable"]);
        for coverage in &self.report.coverage.per_technique {
            table.row([
                coverage.technique.clone(),
                format_count(coverage.alias_sets),
                format_count(coverage.covered_addresses),
                format_count(coverage.testable_addresses),
            ]);
        }
        let mut out = String::from("ICMP rate-limiting study (silent-router population)\n");
        out.push_str(&table.render());

        let mut agreement = TextTable::new(["Pair", "Sample", "Agree", "Disagree", "Agreement"]);
        for row in &self.report.coverage.agreements {
            if row.a != "ratelimit" && row.b != "ratelimit" {
                continue;
            }
            agreement.row([
                format!("{}-{}", row.a, row.b),
                format_count(row.result.sample_size),
                format_count(row.result.agree),
                format_count(row.result.disagree),
                format_pct(row.result.agreement_rate()),
            ]);
        }
        out.push_str("\nAgreement with the other techniques:\n");
        out.push_str(&agreement.render());

        out.push_str(&format!(
            "\nSilent routers: {} total, {} with 2+ IPv4 interfaces, {} fully aliased by \
             rate-limiting ({}).\n",
            format_count(self.silent_total),
            format_count(self.silent_resolvable),
            format_count(self.silent_aliased),
            format_pct(self.silent_aliased as f64 / self.silent_resolvable.max(1) as f64),
        ));
        out.push_str(&format!(
            "Merged sets corroborated only by rate-limiting: {} — ground truth no other \
             technique sees.\n",
            format_count(self.ratelimit_only_sets),
        ));
        out
    }
}

/// One row of the bench trajectory: a full pipeline run at a thread count.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct BenchRun {
    /// Worker threads the pipeline ran with.
    pub threads: usize,
    /// Wall-clock per stage.
    pub stages: StageTimings,
    /// Total measured wall-clock.
    pub total_ms: u64,
    /// Per-technique timing breakdown from the run's
    /// [`ResolutionReport`] (a schema-compatible superset of the
    /// `BENCH_PR2.json` row format, which lacked this field).
    pub technique_ms: Vec<TechniqueTiming>,
}

/// One cell of the `--sweep` scale × threads matrix: a full instrumented
/// pipeline run at one (scale preset, thread count) combination.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SweepCell {
    /// Scale preset of this cell, as `ALIAS_SCALE` spells it.
    pub scale: String,
    /// Worker threads the pipeline ran with.
    pub threads: usize,
    /// Wall-clock per stage (per-field medians over the repeats).
    pub stages: StageTimings,
    /// Total measured wall-clock.
    pub total_ms: u64,
}

/// The `BENCH_*.json` document: the perf trajectory a PR records so future
/// PRs can show their speedup against it.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchReport {
    /// Which bench emitted this (e.g. `"PR2"`).
    pub bench: String,
    /// Scale preset the runs used.
    pub scale: String,
    /// Experiment seed.
    pub seed: u64,
    /// Hardware threads available on the measuring machine.
    pub available_parallelism: usize,
    /// How many times each configuration was run; the recorded timings are
    /// per-field medians over the repeats (1 = single run, the historical
    /// behaviour).
    pub repeat: usize,
    /// One run per thread count, serial first.
    pub runs: Vec<BenchRun>,
    /// Campaign+merge wall-clock of the first run divided by the last run
    /// (1.0 when only one run was recorded or the last run took no time).
    pub campaign_merge_speedup: f64,
    /// The `--sweep` scale × threads matrix (empty without `--sweep`).
    /// A schema superset: trajectories recorded without the field still
    /// load, and `bench_diff` compares cells matched by (scale, threads).
    pub sweep: Vec<SweepCell>,
}

// Hand-written so trajectories recorded before the median-of-N mode (no
// `repeat` field) or before the sweep matrix (no `sweep` field) still load
// as baselines: the vendored serde derive has no `#[serde(default)]`, and
// `bench_diff` must keep reading last PR's file.
impl serde::Deserialize for BenchReport {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(BenchReport {
            bench: String::from_value(value.field("bench")?)?,
            scale: String::from_value(value.field("scale")?)?,
            seed: u64::from_value(value.field("seed")?)?,
            available_parallelism: usize::from_value(value.field("available_parallelism")?)?,
            repeat: match value.field("repeat") {
                Ok(field) => usize::from_value(field)?,
                Err(_) => 1,
            },
            runs: Vec::from_value(value.field("runs")?)?,
            campaign_merge_speedup: f64::from_value(value.field("campaign_merge_speedup")?)?,
            sweep: match value.field("sweep") {
                Ok(field) => Vec::from_value(field)?,
                Err(_) => Vec::new(),
            },
        })
    }
}

impl BenchReport {
    /// Assemble a report from measured runs (serial run first), recorded as
    /// medians over `repeat` runs per configuration.
    pub fn new(
        bench: &str,
        preset: ScalePreset,
        seed: u64,
        repeat: usize,
        runs: Vec<BenchRun>,
    ) -> Self {
        let campaign_merge = |run: &BenchRun| run.stages.campaign_ms + run.stages.merge_ms;
        let speedup = match (runs.first(), runs.last()) {
            // Both sides must have measured something: at tiny scale a stage
            // can round down to 0 ms, and a 0-numerator or 0-denominator
            // "speedup" would poison the recorded trajectory.
            (Some(first), Some(last))
                if runs.len() > 1 && campaign_merge(first) > 0 && campaign_merge(last) > 0 =>
            {
                campaign_merge(first) as f64 / campaign_merge(last) as f64
            }
            _ => 1.0,
        };
        BenchReport {
            bench: bench.to_owned(),
            scale: scale_name(preset).to_owned(),
            seed,
            available_parallelism: alias_exec::available_parallelism(),
            repeat: repeat.max(1),
            runs,
            campaign_merge_speedup: (speedup * 100.0).round() / 100.0,
            sweep: Vec::new(),
        }
    }

    /// Attach the `--sweep` scale × threads matrix.
    pub fn with_sweep(mut self, sweep: Vec<SweepCell>) -> Self {
        self.sweep = sweep;
        self
    }

    /// Serialise to JSON (the `BENCH_*.json` file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("bench report serialises")
    }
}

/// One deterministic metric row of a [`MetricsRunRecord`]: a counter or
/// gauge from the thread-count-invariant subset of an
/// [`alias_obs::MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MetricsRow {
    /// Dot-separated metric name, e.g. `scan.probes_emitted`.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Emitting stage.
    pub stage: String,
    /// Sampled value.
    pub value: u64,
}

/// The deterministic subset of one run's metrics snapshot, as recorded in
/// the `--metrics` artifact: these values must be identical for every
/// thread count over the same campaign, which is what `bench_diff
/// --metrics-invariant` checks across the recorded runs.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MetricsRunRecord {
    /// Worker threads the pipeline ran with.
    pub threads: usize,
    /// Deterministic-class counters, name-sorted.
    pub counters: Vec<MetricsRow>,
    /// Deterministic-class gauges, name-sorted.
    pub gauges: Vec<MetricsRow>,
    /// The event log, in sequence order.
    pub events: Vec<String>,
}

impl MetricsRunRecord {
    /// Extract the deterministic subset of `snapshot` for a run at
    /// `threads` workers.
    pub fn from_snapshot(threads: usize, snapshot: &alias_obs::MetricsSnapshot) -> Self {
        use alias_obs::DeterminismClass;
        MetricsRunRecord {
            threads,
            counters: snapshot
                .counters
                .iter()
                .filter(|c| c.class == DeterminismClass::Deterministic)
                .map(|c| MetricsRow {
                    name: c.name.to_owned(),
                    unit: c.unit.to_owned(),
                    stage: c.stage.to_owned(),
                    value: c.value,
                })
                .collect(),
            gauges: snapshot
                .gauges
                .iter()
                .filter(|g| g.class == DeterminismClass::Deterministic)
                .map(|g| MetricsRow {
                    name: g.name.to_owned(),
                    unit: g.unit.to_owned(),
                    stage: g.stage.to_owned(),
                    value: g.value,
                })
                .collect(),
            events: snapshot.events.clone(),
        }
    }

    /// The rows whose metric name matches `invariant` — either exactly or
    /// as the final dot-separated segment (CI passes `probes_emitted` to
    /// match `scan.probes_emitted`).
    pub fn matching_rows(&self, invariant: &str) -> Vec<&MetricsRow> {
        self.counters
            .iter()
            .chain(&self.gauges)
            .filter(|row| row.name == invariant || row.name.ends_with(&format!(".{invariant}")))
            .collect()
    }
}

/// The `--metrics` artifact run_all writes next to the bench trajectory:
/// one deterministic-subset record per measured run.  The full snapshot
/// (timing metrics, histograms, spans) and the Prometheus render are
/// written as sibling files — timing values stay out of the record the
/// invariant check reads.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MetricsReport {
    /// Which bench emitted this (e.g. `"PR10"`).
    pub bench: String,
    /// Scale preset the runs used.
    pub scale: String,
    /// One record per measured run, serial first.
    pub runs: Vec<MetricsRunRecord>,
}

impl MetricsReport {
    /// Assemble a report from per-run records (serial run first).
    pub fn new(bench: &str, preset: ScalePreset, runs: Vec<MetricsRunRecord>) -> Self {
        MetricsReport {
            bench: bench.to_owned(),
            scale: scale_name(preset).to_owned(),
            runs,
        }
    }

    /// Serialise to JSON (the `--metrics` file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("metrics report serialises")
    }
}

/// The median of `samples` (the exact middle for odd counts, the upper
/// middle for even ones — a real measured value either way, never an
/// interpolation).
///
/// # Panics
/// Panics when `samples` is empty.
pub fn median_u64(samples: &[u64]) -> u64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// Collapse repeated measurements of one configuration into a single
/// [`BenchRun`] holding per-field medians: each stage and each technique's
/// `resolve_ms` is the median over the repeats (fields are medianed
/// independently — single noisy outlier runs cannot drag a whole row), and
/// `total_ms` is the sum of the median stages.
///
/// # Panics
/// Panics when `samples` is empty or the runs disagree on the technique
/// list (repeats of a deterministic pipeline never do).
pub fn median_run(threads: usize, samples: &[(StageTimings, Vec<TechniqueTiming>)]) -> BenchRun {
    assert!(!samples.is_empty(), "median of no bench samples");
    let stage = |field: fn(&StageTimings) -> u64| {
        median_u64(&samples.iter().map(|(s, _)| field(s)).collect::<Vec<_>>())
    };
    let stages = StageTimings {
        build_internet_ms: stage(|s| s.build_internet_ms),
        censys_ms: stage(|s| s.censys_ms),
        campaign_ms: stage(|s| s.campaign_ms),
        merge_ms: stage(|s| s.merge_ms),
    };
    let technique_ms = samples[0]
        .1
        .iter()
        .enumerate()
        .map(|(i, first)| {
            let resolve_samples: Vec<u64> = samples
                .iter()
                .map(|(_, techniques)| {
                    let t = &techniques[i];
                    assert_eq!(
                        t.technique, first.technique,
                        "repeated runs disagree on the technique list"
                    );
                    t.resolve_ms
                })
                .collect();
            TechniqueTiming {
                technique: first.technique.clone(),
                resolve_ms: median_u64(&resolve_samples),
            }
        })
        .collect();
    BenchRun {
        threads,
        stages,
        total_ms: stages.total_ms(),
        technique_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_experiment() -> Experiment {
        Experiment::run(ScalePreset::Tiny, 7)
    }

    #[test]
    fn all_experiments_render_on_the_tiny_preset() {
        let exp = tiny_experiment();
        for (name, text) in run_all(&exp) {
            assert!(!text.trim().is_empty(), "{name} produced no output");
        }
    }

    #[test]
    fn union_contains_both_sources() {
        let exp = tiny_experiment();
        let sources = exp.union.sources();
        assert!(sources.contains(&alias_scan::SourceTag::Active));
        assert!(sources.contains(&alias_scan::SourceTag::Censys));
        assert!(exp.union.len() > exp.active.len());
        // The union rows are the active rows followed by the Censys rows.
        assert_eq!(
            &sources[..exp.active.len()],
            exp.active.sources(),
            "active rows first"
        );
        assert_eq!(&sources[exp.active.len()..], exp.censys.sources());
    }

    #[test]
    fn experiments_are_byte_identical_across_thread_counts() {
        // The PR-level determinism guarantee: the fully rendered document
        // (every table, figure and narrative stat) matches the serial run
        // byte for byte at 2 and 7 threads.
        let serial = tiny_experiment();
        let reference = render_document(&serial, ScalePreset::Tiny);
        for threads in [2usize, 7] {
            let exp = Experiment::run_with_threads(ScalePreset::Tiny, 7, threads);
            assert_eq!(
                render_document(&exp, ScalePreset::Tiny),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    #[ignore = "large-scale (10× paper) identity sweep, minutes of wall-clock; \
                run with `cargo test --release -p alias-bench -- --ignored` in a \
                dedicated job — CI keeps the tiny- and paper-scale determinism checks"]
    fn experiments_are_byte_identical_across_thread_counts_at_large_scale() {
        // The full-report-level identity check at the `ALIAS_SCALE=large`
        // tier: every table, figure and narrative stat of the rendered
        // document matches the serial run byte for byte at 2 and 7 threads.
        let serial = Experiment::run(ScalePreset::Large, 7);
        let reference = render_document(&serial, ScalePreset::Large);
        drop(serial);
        for threads in [2usize, 7] {
            let exp = Experiment::run_with_threads(ScalePreset::Large, 7, threads);
            assert_eq!(
                render_document(&exp, ScalePreset::Large),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn bench_report_round_trips_through_json() {
        let runs = vec![
            BenchRun {
                threads: 1,
                stages: StageTimings {
                    build_internet_ms: 100,
                    censys_ms: 50,
                    campaign_ms: 400,
                    merge_ms: 100,
                },
                total_ms: 650,
                technique_ms: vec![TechniqueTiming {
                    technique: "ssh".to_owned(),
                    resolve_ms: 30,
                }],
            },
            BenchRun {
                threads: 4,
                stages: StageTimings {
                    build_internet_ms: 100,
                    censys_ms: 50,
                    campaign_ms: 160,
                    merge_ms: 40,
                },
                total_ms: 350,
                technique_ms: vec![TechniqueTiming {
                    technique: "ssh".to_owned(),
                    resolve_ms: 12,
                }],
            },
        ];
        let report = BenchReport::new("PR3", ScalePreset::Tiny, 7, 3, runs);
        assert_eq!(report.scale, "tiny");
        assert!((report.campaign_merge_speedup - 2.5).abs() < 1e-9);
        let parsed: BenchReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(parsed.runs.len(), 2);
        assert_eq!(parsed.runs[1].threads, 4);
        assert_eq!(parsed.runs[1].technique_ms[0].technique, "ssh");
        assert_eq!(parsed.runs[1].technique_ms[0].resolve_ms, 12);
        assert_eq!(parsed.bench, "PR3");
        assert_eq!(parsed.repeat, 3);
    }

    #[test]
    fn bench_report_without_repeat_field_still_parses() {
        // Trajectories recorded before the median-of-N mode lack `repeat`;
        // `bench_diff` must keep loading them as baselines (defaulting to
        // a single run per configuration).
        let report = BenchReport::new("PR4", ScalePreset::Tiny, 7, 1, Vec::new());
        let legacy_json = report.to_json().replace("\"repeat\":1,", "");
        assert_ne!(legacy_json, report.to_json(), "the field was removed");
        let parsed: BenchReport = serde_json::from_str(&legacy_json).unwrap();
        assert_eq!(parsed.repeat, 1);
        assert_eq!(parsed.bench, "PR4");
    }

    #[test]
    fn sweep_matrix_round_trips_and_defaults_to_empty() {
        let cell = SweepCell {
            scale: "small".to_owned(),
            threads: 2,
            stages: StageTimings {
                build_internet_ms: 10,
                censys_ms: 5,
                campaign_ms: 40,
                merge_ms: 8,
            },
            total_ms: 63,
        };
        let report = BenchReport::new("PR9", ScalePreset::PaperShape, 7, 1, Vec::new())
            .with_sweep(vec![cell]);
        let parsed: BenchReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(parsed.sweep.len(), 1);
        assert_eq!(parsed.sweep[0].scale, "small");
        assert_eq!(parsed.sweep[0].threads, 2);
        assert_eq!(parsed.sweep[0].stages.campaign_ms, 40);
        // Pre-sweep trajectories (every BENCH_*.json up to PR8) lack the
        // field entirely and must keep loading as baselines.
        let legacy_json = report.to_json().replace(
            &format!(
                ",\"sweep\":{}",
                serde_json::to_string(&report.sweep).unwrap()
            ),
            "",
        );
        assert_ne!(legacy_json, report.to_json(), "the field was removed");
        let parsed: BenchReport = serde_json::from_str(&legacy_json).unwrap();
        assert!(parsed.sweep.is_empty());
    }

    #[test]
    fn scale_names_round_trip_through_parsing() {
        for preset in [
            ScalePreset::Tiny,
            ScalePreset::Small,
            ScalePreset::PaperShape,
            ScalePreset::Large,
            ScalePreset::Huge,
        ] {
            assert_eq!(scale_from_name(scale_name(preset)), Some(preset));
        }
        assert_eq!(scale_from_name("papr"), None);
    }

    #[test]
    fn medians_are_per_field_and_outlier_resistant() {
        assert_eq!(median_u64(&[5]), 5);
        assert_eq!(median_u64(&[3, 900, 1]), 3);
        assert_eq!(median_u64(&[4, 2]), 4, "upper middle for even counts");
        let sample = |campaign: u64, merge: u64, ssh: u64| {
            (
                StageTimings {
                    build_internet_ms: 10,
                    censys_ms: 20,
                    campaign_ms: campaign,
                    merge_ms: merge,
                },
                vec![TechniqueTiming {
                    technique: "ssh".to_owned(),
                    resolve_ms: ssh,
                }],
            )
        };
        // One outlier run (the middle sample) must not survive into any
        // recorded field: each field takes its own median.
        let run = median_run(
            4,
            &[
                sample(100, 7, 30),
                sample(900, 950, 31),
                sample(101, 9, 980),
            ],
        );
        assert_eq!(run.threads, 4);
        assert_eq!(run.stages.campaign_ms, 101);
        assert_eq!(run.stages.merge_ms, 9);
        assert_eq!(run.technique_ms[0].resolve_ms, 31);
        assert_eq!(run.total_ms, run.stages.total_ms());
    }

    #[test]
    fn resolution_report_matches_the_legacy_collection_path() {
        // The redesign guarantee at harness level: the Resolver-produced
        // per-technique sets equal what the table functions compute through
        // `Experiment::collection` over the same (active) observations.
        let exp = tiny_experiment();
        assert_eq!(exp.resolution.techniques.len(), PROTOCOLS.len());
        for protocol in PROTOCOLS {
            let result = exp
                .resolution
                .technique(protocol.name())
                .expect("paper technique present");
            let legacy = exp.collection(protocol, Some(DataSource::Active));
            let legacy_sets = alias_resolve::canonical_sets(
                legacy
                    .non_singleton_sets()
                    .into_iter()
                    .map(|s| s.addrs.clone())
                    .collect(),
            );
            assert_eq!(result.alias_sets(), legacy_sets, "{}", protocol.name());
        }
        assert_eq!(
            exp.resolution.technique_timings.len(),
            exp.resolution.techniques.len()
        );
        assert!(!exp.resolution.merged.is_empty());
    }

    #[test]
    fn rate_limit_study_scores_silent_routers() {
        let study = RateLimitStudy::run(ScalePreset::Tiny, 7, 2);
        assert_eq!(study.report.techniques.len(), 8);
        assert!(study.silent_total >= 1);
        assert!(study.silent_resolvable >= 1);
        assert!(
            study.silent_aliased >= 1,
            "rate-limiting aliases at least one silent router"
        );
        assert!(
            study.ratelimit_only_sets >= 1,
            "some ground truth is visible to the new technique alone"
        );
        assert!(study.ratelimit_timing().is_some());
        let section = study.render();
        assert!(section.contains("ratelimit"));
        assert!(section.contains("Silent routers:"));
        // The rendered section is byte-identical across thread counts —
        // it feeds the document `run_all` determinism-checks.
        let serial = RateLimitStudy::run(ScalePreset::Tiny, 7, 1);
        assert_eq!(serial.render(), section);
        let exp = tiny_experiment();
        let doc = render_document_with_study(&exp, ScalePreset::Tiny, &study);
        assert!(doc.contains("## ICMP rate-limiting study"));
        assert!(doc.starts_with(&render_document(&exp, ScalePreset::Tiny)));
    }

    #[test]
    fn ssh_dominates_alias_sets() {
        let exp = tiny_experiment();
        let ssh = exp.collection(ServiceProtocol::Ssh, None).ipv4_sets().len();
        let bgp = exp.collection(ServiceProtocol::Bgp, None).ipv4_sets().len();
        assert!(ssh > bgp, "ssh={ssh} bgp={bgp}");
    }
}
