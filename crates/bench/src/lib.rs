//! # alias-bench
//!
//! The experiment harness: one function per table and figure of the paper,
//! all driven by a shared [`Experiment`] context that generates the
//! synthetic Internet, runs the active measurement campaign, collects the
//! Censys-like snapshot, applies the churn separating the two, and groups
//! everything into alias and dual-stack sets.
//!
//! Each `table*` / `figure*` function returns the rendered text of one
//! section; the `run_all` binary regenerates every result in one pass and
//! writes `EXPERIMENTS_MEASURED.md`, or prints the one section named on its
//! command line ([`render_section`]).

use alias_censys::{CensysConfig, CensysSnapshot};
use alias_core::alias_set::{group_view_by_source, FamilyGrouping, SourceGroups};
use alias_core::analysis;
use alias_core::analysis::AsnTable;
use alias_core::dataset::DatasetSummary;
use alias_core::dual_stack::DualStackReport;
use alias_core::ecdf::Ecdf;
use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
use alias_core::intern::{AddrId, CompactAliasSet};
use alias_core::merge::{
    partition_labeled_compact, LabeledPartition, MultiServiceStats, ProtocolAttribution,
};
use alias_core::report::{format_count, format_pct, render_ecdf, TextTable};
use alias_core::validation::{common_ids, cross_validate, validate_against_midar};
use alias_midar::{Midar, MidarConfig};
use alias_netsim::{
    DeviceId, DeviceKind, Internet, InternetBuilder, InternetConfig, PairwiseScore, ScalePreset,
    SimTime, VantageKind,
};
use alias_obs::{DeterminismClass, LazyCounter};
use alias_resolve::{ResolutionReport, Resolver};
use alias_scan::campaign::CampaignConfig;
use alias_scan::ipid_probe::ResolvedTarget;
use alias_scan::{DataSource, ObservationStore, RateProbeConfig, ServiceProtocol};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::Hash;
use std::net::IpAddr;
use std::sync::{Arc, OnceLock};

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
    /// The unified [`Resolver`] run over the active campaign: per-technique
    /// alias sets, merged sets, coverage/agreement statistics and the
    /// per-technique `technique_timings`.
    pub resolution: ResolutionReport,
    /// One keyed pass per protocol over the union store — the only
    /// identifier grouping a render performs.
    passes: Memo<ServiceProtocol, SourceGroups>,
    /// Per-(protocol, source) projections of those passes.
    groupings: Memo<(ServiceProtocol, Option<DataSource>), FamilyGrouping>,
    /// The six cross-protocol merges the tables and figures quote.
    partitions: Memo<Merge, LabeledPartition>,
    /// Dense id → ASN column over the union store's id space.
    asns: OnceLock<AsnTable>,
    /// Dense id → owning device column over the same id space.
    devices: OnceLock<Vec<Option<DeviceId>>>,
}

/// Lazily computed, shared values: every table and figure asks for the
/// same handful of groupings and merges, so each is computed on first use
/// and handed out behind an `Arc`.  The lock is held while computing, so a
/// value is computed exactly once (the counters below rely on that); the
/// memos only ever nest in one direction — partition → grouping → pass.
struct Memo<K, V>(Mutex<HashMap<K, Arc<V>>>);

impl<K: Eq + Hash, V> Memo<K, V> {
    fn new() -> Self {
        Memo(Mutex::new(HashMap::new()))
    }

    fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        self.0
            .lock()
            .entry(key)
            .or_insert_with(|| Arc::new(compute()))
            .clone()
    }
}

/// Which cross-protocol merge: one address family of one data source
/// (`None` = both sources), or the dual-stack sets of the union data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Merge {
    Family {
        ipv6: bool,
        source: Option<DataSource>,
    },
    DualStack,
}

/// Keyed passes (identifier grouping over store rows) performed on behalf
/// of the rendered document.  One render takes exactly three: one per
/// protocol over the union store.
static RENDER_KEYED_PASSES: LazyCounter = LazyCounter::new(
    "bench.render_keyed_passes",
    DeterminismClass::Deterministic,
    "passes",
    "bench",
);

/// Cross-protocol partitions computed on behalf of the rendered document
/// (one render takes exactly six).
static RENDER_PARTITIONS: LazyCounter = LazyCounter::new(
    "bench.render_partitions",
    DeterminismClass::Deterministic,
    "partitions",
    "bench",
);

impl Experiment {
    /// Build the Internet, collect the Censys snapshot, apply three weeks of
    /// churn, and run the active campaign — the full data-collection story
    /// of the paper, in the same order.  The scan runs on one thread.
    pub fn run(preset: ScalePreset, seed: u64) -> Self {
        Self::run_with_threads(preset, seed, 1)
    }

    /// [`Self::run`] with the campaign's scan phases sharded over `threads`
    /// workers; everything after the scan runs on the calling thread.
    /// Never changes an output byte.
    pub fn run_with_threads(preset: ScalePreset, seed: u64, threads: usize) -> Self {
        let config = InternetConfig::preset(preset, seed);
        let hitlist_coverage = config.visibility.hitlist_coverage;

        let stage = alias_obs::span("bench/build_internet");
        let mut internet = InternetBuilder::new(config).build();
        drop(stage);

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
        let (censys, censys_nonstandard) = snapshot.into_default_port();
        drop(stage);

        // Three weeks pass before the active measurement (the paper's
        // snapshot is dated March 28, the active scan April 18).
        let active_start = SimTime::from_days(21);
        let stage = alias_obs::span("bench/churn");
        internet.apply_churn(SimTime::ZERO, active_start);
        drop(stage);

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
                ..Default::default()
            })
            .build();
        let mut resolution = resolver.resolve(&internet);
        let active = resolution
            .campaign
            .take()
            .expect("the resolver ran the scan itself")
            .into_store();

        // The scalar columns and the interner are copied; the payload
        // records are shared with `active` and `censys`.
        let stage = alias_obs::span("bench/union_store");
        let mut union = active.clone();
        union.extend_from(&censys);
        drop(stage);

        Experiment {
            internet,
            active,
            censys,
            censys_nonstandard,
            union,
            extractor: IdentifierExtractor::new(ExtractionConfig::paper()),
            active_start,
            resolution,
            passes: Memo::new(),
            groupings: Memo::new(),
            partitions: Memo::new(),
            asns: OnceLock::new(),
            devices: OnceLock::new(),
        }
    }

    /// The identifier groups of one protocol over the union store, every
    /// member tagged with the source that observed it — the one keyed pass
    /// per protocol a render performs, memoised.
    pub fn keyed_pass(&self, protocol: ServiceProtocol) -> Arc<SourceGroups> {
        self.passes.get_or_compute(protocol, || {
            RENDER_KEYED_PASSES.incr();
            let view = self.union.select_protocol(protocol, None);
            group_view_by_source(&view, &self.extractor)
        })
    }

    /// Alias sets of one protocol over one data source (`None` = union),
    /// in the union store's id space.
    ///
    /// The union store is exactly the active rows plus the Censys rows, so
    /// each protocol is keyed once over the union store and every source's
    /// grouping is a projection of that pass (active ids are the same in
    /// the union interner).  Passes and projections are memoised: the
    /// tables and figures ask for the same handful over and over.
    pub fn collection(
        &self,
        protocol: ServiceProtocol,
        source: Option<DataSource>,
    ) -> Arc<FamilyGrouping> {
        self.groupings.get_or_compute((protocol, source), || {
            self.keyed_pass(protocol)
                .project(source, self.union.interner())
        })
    }

    /// The three protocols' alias sets of one address family and data
    /// source (`None` = union) merged into one labelled partition, in the
    /// union store's id space.
    pub fn family_partition(
        &self,
        ipv6: bool,
        source: Option<DataSource>,
    ) -> Arc<LabeledPartition> {
        self.partition(Merge::Family { ipv6, source })
    }

    /// The three protocols' dual-stack sets of the union data merged into
    /// one labelled partition.
    pub fn dual_stack_partition(&self) -> Arc<LabeledPartition> {
        self.partition(Merge::DualStack)
    }

    fn partition(&self, merge: Merge) -> Arc<LabeledPartition> {
        self.partitions.get_or_compute(merge, || {
            RENDER_PARTITIONS.incr();
            let groupings = PROTOCOLS.map(|protocol| match merge {
                // SNMPv3 only exists in the active measurements, so next to
                // the Censys sets of the other two it contributes those.
                Merge::Family {
                    source: Some(_), ..
                } if protocol == ServiceProtocol::Snmpv3 => {
                    self.collection(protocol, Some(DataSource::Active))
                }
                Merge::Family { source, .. } => self.collection(protocol, source),
                Merge::DualStack => self.collection(protocol, None),
            });
            let inputs: Vec<(&str, &[CompactAliasSet])> = PROTOCOLS
                .iter()
                .zip(&groupings)
                .map(|(protocol, grouping)| {
                    let sets = match merge {
                        Merge::Family { ipv6, .. } => grouping.family_sets(ipv6),
                        Merge::DualStack => grouping.dual_stack_sets(),
                    };
                    (protocol.name(), sets)
                })
                .collect();
            partition_labeled_compact(&inputs, self.union.interner().len())
        })
    }

    /// Per-protocol responsive addresses of one family in the union data,
    /// as sorted distinct ids of the union store's id space.
    pub fn responsive_ids(&self, protocol: ServiceProtocol, ipv6: bool) -> Vec<AddrId> {
        let interner = self.union.interner();
        let mut ids: Vec<AddrId> = self
            .union
            .protocols()
            .iter()
            .zip(self.union.addr_ids())
            .filter(|&(&p, _)| p == protocol)
            .map(|(_, &id)| id)
            .filter(|&id| interner.addr(id).is_ipv6() == ipv6)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Dense id → ASN annotation column over the union store's id space,
    /// built on first use.
    pub fn asn_table(&self) -> &AsnTable {
        self.asns.get_or_init(|| {
            AsnTable::from_pairs(
                self.union.interner().len(),
                self.union
                    .addr_ids()
                    .iter()
                    .zip(self.union.asns())
                    .filter_map(|(&id, &asn)| asn.map(|asn| (id, asn))),
            )
        })
    }

    /// Dense id → owning device column over the union store's id space
    /// (`None`: an address no device of the post-churn Internet owns),
    /// built on first use — the labels ground-truth scoring reads.
    pub fn device_column(&self) -> &[Option<DeviceId>] {
        self.devices.get_or_init(|| {
            let addrs = self.union.interner().addrs().iter();
            addrs.map(|&addr| self.internet.device_of(addr)).collect()
        })
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
    // One pass per store fills its column: every protocol row, both families.
    let columns = [&exp.active, &exp.censys, &exp.union].map(DatasetSummary::cells_of_store);
    let labels = ["SSH", "BGP", "SNMPv3", "Union"];
    for (family, suffix) in ["", " (IPv6)"].into_iter().enumerate() {
        for (row, label) in labels.into_iter().enumerate() {
            let mut cells = vec![format!("{label}{suffix}")];
            for column in &columns {
                let summary = column[row][family];
                cells.extend([format_count(summary.ips), format_count(summary.asns)]);
            }
            table.row(cells);
        }
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
    // Cross-protocol validation runs in the union store's id space.
    let ssh = exp.collection(ServiceProtocol::Ssh, None);
    let bgp = exp.collection(ServiceProtocol::Bgp, None);
    let snmp = exp.collection(ServiceProtocol::Snmpv3, None);
    let (ssh_sets, bgp_sets, snmp_sets) = (
        ssh.family_sets(false),
        bgp.family_sets(false),
        snmp.family_sets(false),
    );

    let ssh_ids = exp.responsive_ids(ServiceProtocol::Ssh, false);
    let bgp_ids = exp.responsive_ids(ServiceProtocol::Bgp, false);
    let snmp_ids = exp.responsive_ids(ServiceProtocol::Snmpv3, false);

    let mut table = TextTable::new(["Pair", "Sample size", "Agree", "Disagree", "Agreement"]);
    for (label, a_sets, b_sets, a_ids, b_ids) in [
        ("SSH-BGP", ssh_sets, bgp_sets, &ssh_ids, &bgp_ids),
        ("SSH-SNMPv3", ssh_sets, snmp_sets, &ssh_ids, &snmp_ids),
        ("BGP-SNMPv3", bgp_sets, snmp_sets, &bgp_ids, &snmp_ids),
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

    // SSH vs MIDAR on a sample of sets with at most ten addresses: the
    // first 2,000 in report order, probed set by set in address order.
    // Probing advances device state, so the sample *is* the result.
    let interner = exp.union.interner();
    let sample: Vec<Vec<IpAddr>> = ssh_sets
        .iter()
        .filter(|s| s.len() <= 10)
        .take(2_000)
        .map(|set| {
            let mut addrs: Vec<IpAddr> = set.iter().map(|id| interner.addr(id)).collect();
            addrs.sort_unstable();
            addrs
        })
        .collect();
    // MIDAR names a target by its position in the list it was given, so
    // the comparison runs in that index space: target `i` is id `i`.
    let targets: Vec<ResolvedTarget> = (sample.iter().flatten())
        .map(|&addr| exp.internet.lookup(addr))
        .collect();
    let midar = Midar::new(MidarConfig::default()).resolve(
        &exp.internet,
        &targets,
        exp.active_start + SimTime::from_days(1),
    );
    let mut next = 0u32;
    let sample_compact: Vec<CompactAliasSet> = sample
        .iter()
        .map(|set| {
            let ids = (next..next + set.len() as u32).map(AddrId).collect();
            next += set.len() as u32;
            CompactAliasSet::from_ids(ids)
        })
        .collect();
    let midar_compact: Vec<CompactAliasSet> = (midar.alias_sets.iter())
        .map(|set| CompactAliasSet::from_ids(set.iter().map(|&i| AddrId(i as u32)).collect()))
        .collect();
    // "Verifiable" follows the paper's reading: MIDAR made a positive
    // aliasing claim about the addresses (grouped at least two of them).
    // Addresses whose counters were individually sampleable but never
    // corroborated into a set (per-interface counters, high velocity) leave
    // the sampled set unverified rather than contradicted.
    let mut grouped_ids: Vec<AddrId> = midar_compact.iter().flat_map(|s| s.iter()).collect();
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

/// `"sets (covered addresses)"`, as Table 3 prints a cell.
fn sets_and_addresses(sets: &[CompactAliasSet]) -> String {
    let addrs: usize = sets.iter().map(CompactAliasSet::len).sum();
    format!("{} ({})", format_count(sets.len()), format_count(addrs))
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
            let cell =
                |protocol| sets_and_addresses(exp.collection(protocol, source).family_sets(ipv6));
            let snmpv3 = if source == Some(DataSource::Censys) {
                // SNMPv3 only exists in the active measurements.
                "n.a.".to_owned()
            } else {
                cell(ServiceProtocol::Snmpv3)
            };
            let source_label = match source {
                Some(DataSource::Active) => "Active",
                Some(DataSource::Censys) => "Censys",
                None => "Union",
            };
            table.row([
                if ipv6 { "IPv6" } else { "IPv4" }.to_owned(),
                source_label.to_owned(),
                cell(ServiceProtocol::Ssh),
                cell(ServiceProtocol::Bgp),
                snmpv3,
                sets_and_addresses(&exp.family_partition(ipv6, source).sets),
            ]);
        }
    }
    let mut out = String::from("Table 3: Alias Sets Overview — sets (covered addresses)\n");
    out.push_str(&table.render());
    out
}

/// Table 4: dual-stack sets.
pub fn table4(exp: &Experiment) -> String {
    let interner = exp.union.interner();
    let mut table = TextTable::new(["Protocol", "IPv4 addr", "IPv6 addr", "Dual-stack sets"]);
    let mut ssh_sets = 0;
    for protocol in PROTOCOLS {
        let report = DualStackReport::from_grouping(&exp.collection(protocol, None), interner);
        table.row([
            protocol.name().to_uppercase(),
            format_count(report.ipv4_addresses()),
            format_count(report.ipv6_addresses()),
            format_count(report.set_count()),
        ]);
        if protocol == ServiceProtocol::Ssh {
            ssh_sets = report.set_count();
        }
    }
    let merged = exp.dual_stack_partition();
    let v6: usize = merged
        .sets
        .iter()
        .map(|set| set.iter().filter(|&id| interner.addr(id).is_ipv6()).count())
        .sum();
    let members: usize = merged.sets.iter().map(CompactAliasSet::len).sum();
    table.row([
        "Union".to_owned(),
        format_count(members - v6),
        format_count(v6),
        format_count(merged.sets.len()),
    ]);
    let attribution = ProtocolAttribution::of_partition(&merged);
    // Size split over the merged dual-stack sets.
    let share = |sizes: std::ops::RangeInclusive<usize>| {
        let sets = merged.sets.iter().filter(|set| sizes.contains(&set.len()));
        sets.count() as f64 / merged.sets.len().max(1) as f64
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
        format_pct(share(2..=2)),
        format_pct(share(3..=10)),
        format_pct(share(11..=usize::MAX))
    ));
    out.push_str(&format!(
        "SSH alone contributes {} dual-stack sets.\n",
        format_count(ssh_sets)
    ));
    out
}

/// One cell of a top-ASes table: `"asn (sets)"`, or `-` past the end.
fn top_as_cell(column: &[(u32, usize)], rank: usize) -> String {
    column
        .get(rank)
        .map(|(asn, count)| format!("{asn} ({})", format_count(*count)))
        .unwrap_or_else(|| "-".to_owned())
}

/// Table 5: top 10 ASes for IPv4 alias sets, per protocol and union.
pub fn table5(exp: &Experiment) -> String {
    let asns = exp.asn_table();
    let mut columns: Vec<Vec<(u32, usize)>> = PROTOCOLS
        .iter()
        .map(|&p| analysis::top_ases(exp.collection(p, None).family_sets(false), asns, 10))
        .collect();
    let union = exp.family_partition(false, None);
    columns.push(analysis::top_ases(&union.sets, asns, 10));

    let mut table = TextTable::new(["Rank", "SSH", "BGP", "SNMPv3", "Union"]);
    for rank in 0..10 {
        table.row([
            (rank + 1).to_string(),
            top_as_cell(&columns[0], rank),
            top_as_cell(&columns[1], rank),
            top_as_cell(&columns[2], rank),
            top_as_cell(&columns[3], rank),
        ]);
    }
    let mut out = String::from("Table 5: Top 10 ASes for IPv4 alias sets\n");
    out.push_str(&table.render());
    out
}

/// Table 6: top 10 ASes for IPv6 alias sets and dual-stack sets.
pub fn table6(exp: &Experiment) -> String {
    let asns = exp.asn_table();
    let v6_union = exp.family_partition(true, None);
    let ds_union = exp.dual_stack_partition();
    let v6_top = analysis::top_ases(&v6_union.sets, asns, 10);
    let ds_top = analysis::top_ases(&ds_union.sets, asns, 10);

    let mut table = TextTable::new(["Rank", "IPv6", "Dual-stack"]);
    for rank in 0..10 {
        table.row([
            (rank + 1).to_string(),
            top_as_cell(&v6_top, rank),
            top_as_cell(&ds_top, rank),
        ]);
    }
    let mut out = String::from("Table 6: Top 10 ASes for IPv6 alias and dual-stack sets\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nIPv6 alias sets spread over {} ASes; dual-stack sets over {} ASes.\n",
        format_count(analysis::ases_with_sets(&v6_union.sets, asns)),
        format_count(analysis::ases_with_sets(&ds_union.sets, asns)),
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

/// The set-size ECDF of one (protocol, source) grouping and family.
fn set_size_ecdf(
    exp: &Experiment,
    protocol: ServiceProtocol,
    source: DataSource,
    ipv6: bool,
) -> Ecdf {
    Ecdf::from_counts(exp.collection(protocol, Some(source)).set_sizes(ipv6))
}

/// Figure 3: ECDF of IPv4 addresses per alias set.
pub fn figure3(exp: &Experiment) -> String {
    let series = [
        ("Censys BGP", ServiceProtocol::Bgp, DataSource::Censys),
        ("Active BGP", ServiceProtocol::Bgp, DataSource::Active),
        ("Censys SSH", ServiceProtocol::Ssh, DataSource::Censys),
        ("Active SSH", ServiceProtocol::Ssh, DataSource::Active),
        ("Active SNMPv3", ServiceProtocol::Snmpv3, DataSource::Active),
    ]
    .map(|(label, protocol, source)| (label, set_size_ecdf(exp, protocol, source, false)));
    ecdf_series(
        "Figure 3: IPv4 addresses per alias set (ECDF)",
        series.into(),
    )
}

/// Figure 4: ECDF of IPv6 addresses per alias set.
pub fn figure4(exp: &Experiment) -> String {
    let series = [
        ("Active SSH", ServiceProtocol::Ssh),
        ("Active BGP", ServiceProtocol::Bgp),
        ("Active SNMPv3", ServiceProtocol::Snmpv3),
    ]
    .map(|(label, protocol)| {
        (
            label,
            set_size_ecdf(exp, protocol, DataSource::Active, true),
        )
    });
    ecdf_series(
        "Figure 4: IPv6 addresses per alias set (ECDF)",
        series.into(),
    )
}

/// Figure 5: ECDF of ASes per IPv4 alias set.
pub fn figure5(exp: &Experiment) -> String {
    let asns = exp.asn_table();
    let mut series = Vec::new();
    let mut notes = String::new();
    for protocol in PROTOCOLS {
        let counts =
            analysis::asns_per_set(exp.collection(protocol, None).family_sets(false), asns);
        let multi = counts.iter().filter(|&&c| c >= 2).count();
        notes.push_str(&format!(
            "# {}: {} of sets span 2+ ASes\n",
            protocol.name(),
            format_pct(multi as f64 / counts.len().max(1) as f64)
        ));
        series.push((protocol.name(), Ecdf::from_counts(counts)));
    }
    ecdf_series("Figure 5: ASNs per IPv4 alias set (ECDF)", series) + &notes
}

/// Figure 6: ECDF of the number of alias / dual-stack sets per AS.
pub fn figure6(exp: &Experiment) -> String {
    let asns = exp.asn_table();
    let sets_per_as = |partition: &LabeledPartition| -> Vec<usize> {
        analysis::sets_per_as(&partition.sets, asns)
            .into_values()
            .collect()
    };
    let alias_counts = sets_per_as(&exp.family_partition(false, None));
    let ds_counts = sets_per_as(&exp.dual_stack_partition());
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
    let key_only = IdentifierExtractor::new(ExtractionConfig {
        ssh: alias_core::identifier::SshIdentifierPolicy::KeyOnly,
        ..ExtractionConfig::paper()
    });
    // Only the number of key-grouped sets is quoted, and the host key is
    // part of the full identifier: the full pass's groups, merged where
    // they share a key, are the key-only groups — no second pass.
    let key_sets = exp
        .keyed_pass(ServiceProtocol::Ssh)
        .coarser_set_count(&exp.union, &key_only);
    // The full identifier splits a key-grouped set whenever interfaces of
    // the same host advertise diverging capabilities (the paper's 0.4%).
    let full_sets = exp.collection(ServiceProtocol::Ssh, None).sets().len();
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
        let attribution = ProtocolAttribution::of_partition(&exp.family_partition(ipv6, None));
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
    let devices = exp.device_column();
    for protocol in PROTOCOLS {
        let collection = exp.collection(protocol, None);
        let sets = collection.family_sets(false).iter();
        let score = PairwiseScore::of_labelled_sets(
            sets.map(|set| set.iter().map(|id| (id, devices[id.index()]))),
        );
        out.push_str(&format!(
            "Ground truth ({}): pairwise precision {:.3}, recall {:.3}\n",
            protocol.name(),
            score.precision(),
            score.recall()
        ));
    }
    out
}

/// Renders one section of the document.
type Section = fn(&Experiment) -> String;

/// Every section of the document: title, name (its span's last segment and
/// the argument `run_all <section>` takes), renderer.
const SECTIONS: [(&str, &str, Section); 11] = [
    ("Table 1", "table1", table1),
    ("Table 2", "table2", table2),
    ("Table 3", "table3", table3),
    ("Table 4", "table4", table4),
    ("Table 5", "table5", table5),
    ("Table 6", "table6", table6),
    ("Figure 3", "figure3", figure3),
    ("Figure 4", "figure4", figure4),
    ("Figure 5", "figure5", figure5),
    ("Figure 6", "figure6", figure6),
    ("Narrative statistics", "stats", stats),
];

fn render_under_span(exp: &Experiment, name: &str, section: Section) -> String {
    let _span = alias_obs::span!("bench/render/{}", name);
    section(exp)
}

/// Run every experiment, each under a `bench/render/<section>` span, and
/// return `(section title, rendered text)` pairs.
pub fn run_all(exp: &Experiment) -> Vec<(&'static str, String)> {
    SECTIONS
        .iter()
        .map(|&(title, name, section)| (title, render_under_span(exp, name, section)))
        .collect()
}

/// The section names [`render_section`] accepts, in document order.
pub fn section_names() -> [&'static str; 11] {
    SECTIONS.map(|(_, name, _)| name)
}

/// Render the one section `name` spells (`table1` … `figure6`, `stats`)
/// under the same span [`run_all`] opens for it; `None` for any other name.
pub fn render_section(exp: &Experiment, name: &str) -> Option<String> {
    let &(_, _, section) = SECTIONS.iter().find(|entry| entry.1 == name)?;
    Some(render_under_span(exp, name, section))
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
    writeln!(doc, "## Ground truth by technique\n").unwrap();
    writeln!(doc, "```text\n{}```\n", study.render_truth()).unwrap();
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
    /// Every technique's alias sets scored against the true aliasing
    /// relation, in registration order, then the merged sets (`"merged"`).
    pub truth: Vec<(String, PairwiseScore)>,
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
    /// the result against ground truth.  `threads` shards the campaign's
    /// scan phases and nothing else; it never changes an output byte.
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
        // Who is wrong: each technique's sets and the merged sets against
        // the device every address really sits on.
        let mut truth: Vec<(String, PairwiseScore)> = Vec::new();
        for technique in &report.techniques {
            let addrs = technique.interner().addrs();
            let sets = technique.compact_sets().iter();
            let score =
                internet.score_sets(sets.map(|set| set.ids().iter().map(|id| &addrs[id.index()])));
            truth.push((technique.technique.clone(), score));
        }
        let merged = internet.score_sets(report.merged.iter().map(|set| set.addrs.iter()));
        truth.push(("merged".to_owned(), merged));
        RateLimitStudy {
            report,
            truth,
            silent_total,
            silent_resolvable,
            silent_aliased,
            ratelimit_only_sets,
        }
    }

    /// Render the study: per-technique coverage, the agreement rows
    /// involving the new technique, and the silent-router ground-truth
    /// score only this technique can reach.  Wall-clock stays out of the
    /// rendered text — the document must be byte-identical across thread
    /// counts and repeats.
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

    /// Render the ground-truth block: per technique and for the merged
    /// sets, the address pairs it claims, how many of them really share a
    /// device, and the pairwise precision and recall that makes — which
    /// technique the false merges come from.
    pub fn render_truth(&self) -> String {
        let mut table = TextTable::new([
            "Technique",
            "Inferred pairs",
            "True-positive pairs",
            "Precision",
            "Recall",
        ]);
        for (technique, score) in &self.truth {
            table.row([
                technique.clone(),
                score.inferred_pairs.to_string(),
                score.true_positive_pairs.to_string(),
                format!("{:.3}", score.precision()),
                format!("{:.3}", score.recall()),
            ]);
        }
        let mut out = String::from("Ground truth by technique (silent-router population)\n");
        out.push_str(&table.render());
        out
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
    fn every_section_name_renders_its_block_of_the_document() {
        // What `run_all <section>` prints is what the document fences under
        // that section's heading.
        let exp = tiny_experiment();
        let doc = render_document(&exp, ScalePreset::Tiny);
        let blocks: Vec<&str> = doc
            .split("```text\n")
            .skip(1)
            .map(|rest| {
                rest.split("```")
                    .next()
                    .expect("split yields a first piece")
            })
            .collect();
        assert_eq!(blocks.len(), section_names().len());
        for (name, block) in section_names().into_iter().zip(blocks) {
            assert_eq!(render_section(&exp, name).as_deref(), Some(block), "{name}");
        }
        // Names, not titles; nothing past the eleven.
        assert_eq!(render_section(&exp, "Table 3"), None);
        assert_eq!(render_section(&exp, "table7"), None);
    }

    #[test]
    fn union_contains_both_sources() {
        let exp = tiny_experiment();
        let sources = exp.union.sources();
        assert!(sources.contains(&DataSource::Active));
        assert!(sources.contains(&DataSource::Censys));
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
                dedicated job — CI runs `tests/metrics_determinism.rs` at tiny and \
                paper scale"]
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
        // The truth block: the eight techniques as registered, merged last,
        // scored alike at every thread count, printed after the study.
        let scored: Vec<&str> = study.truth.iter().map(|(name, _)| name.as_str()).collect();
        let registered = study.report.techniques.iter().map(|t| t.technique.as_str());
        assert_eq!(scored, registered.chain(["merged"]).collect::<Vec<_>>());
        assert_eq!(serial.truth, study.truth);
        let (_, merged) = &study.truth[8];
        assert!(merged.inferred_pairs >= merged.true_positive_pairs);
        assert!(merged.true_positive_pairs > 0);
        assert!(doc.ends_with(&format!("```text\n{}```\n\n", study.render_truth())));
    }

    #[test]
    fn ssh_dominates_alias_sets() {
        let exp = tiny_experiment();
        let sets = |protocol| exp.collection(protocol, None).family_sets(false).len();
        let (ssh, bgp) = (sets(ServiceProtocol::Ssh), sets(ServiceProtocol::Bgp));
        assert!(ssh > bgp, "ssh={ssh} bgp={bgp}");
    }
}
