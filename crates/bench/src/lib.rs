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
use alias_core::merge::{
    partition_labeled_compact, LabeledPartition, MultiServiceStats, ProtocolAttribution,
};
use alias_core::report::{format_count, format_pct, render_ecdf, TextTable};
use alias_core::validation::{
    common_ids, cross_validate, validate_against_midar, ValidationResult,
};
use alias_intern::{AddrId, CompactAliasSet};
use alias_netsim::{
    DeviceId, DeviceKind, Internet, InternetBuilder, InternetConfig, PairwiseScore, ScalePreset,
    SimTime, VantageKind,
};
use alias_obs::{DeterminismClass, LazyCounter};
use alias_resolve::{midar_resolve, ResolutionReport, Resolver, TechniqueResult};
use alias_scan::campaign::{ActiveCampaign, CampaignConfig};
use alias_scan::{DataSource, ObservationStore, RateProbeConfig, ServiceProtocol};
use std::collections::HashMap;
use std::hash::Hash;
use std::net::IpAddr;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

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
    pub(crate) censys_nonstandard: usize,
    /// Union of active and Censys default-port observations (active rows
    /// first, so row order matches the historical concatenation).
    pub union: ObservationStore,
    /// The identifier extractor (paper policies).
    pub extractor: IdentifierExtractor,
    /// Simulated time of the active campaign start.
    pub(crate) active_start: SimTime,
    /// The paper's three identifier techniques over the active campaign:
    /// per-technique alias sets and merged sets, agreement rows on demand.
    /// Each technique result is the active projection of the
    /// run's one keyed pass per protocol over the union store, and keeps
    /// that pass ([`Self::keyed_pass`]).
    pub resolution: ResolutionReport,
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
/// value is computed exactly once (the counter below relies on that); the
/// memos only ever nest in one direction — partition → grouping.
struct Memo<K, V>(Mutex<HashMap<K, Arc<V>>>);

impl<K: Eq + Hash, V> Memo<K, V> {
    fn new() -> Self {
        Memo(Mutex::new(HashMap::new()))
    }

    fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
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

        // Active campaign from a single vantage point.
        let data = ActiveCampaign::new(CampaignConfig {
            vantage: VantageKind::SingleVp,
            start: active_start,
            hitlist_coverage,
            seed,
            threads,
            ..Default::default()
        })
        .run(&internet);
        let finished_at = data.finished_at;
        let active = data.into_store();

        // The scalar columns and the interner are copied; the payload
        // records are shared with `active` and `censys`.
        let stage = alias_obs::span("bench/union_store");
        let mut union = active.clone();
        union.extend_from(&censys);
        drop(stage);

        // One keyed pass per protocol over the union store.  Active rows
        // come first in it, so active ids are union ids and each pass's
        // active projection is what the identifier technique would have
        // concluded over the active store alone; the cross-technique merge
        // runs over those projections.
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        let techniques = PROTOCOLS.map(|protocol| {
            let stage = alias_obs::span!("bench/group/{}", protocol.name());
            let pass = group_view_by_source(&union.select_protocol(protocol, None), &extractor);
            drop(stage);
            TechniqueResult::from_groups(
                protocol.name().to_owned(),
                Arc::new(pass),
                Some(DataSource::Active),
                finished_at,
                union.interner().clone(),
            )
        });
        let resolution = ResolutionReport::from_techniques(techniques.into(), union.interner());

        Experiment {
            internet,
            active,
            censys,
            censys_nonstandard,
            union,
            extractor,
            active_start,
            resolution,
            groupings: Memo::new(),
            partitions: Memo::new(),
            asns: OnceLock::new(),
            devices: OnceLock::new(),
        }
    }

    /// The identifier groups of one protocol over the union store, every
    /// member tagged with the source that observed it — the run's one keyed
    /// pass for that protocol, kept by [`Self::resolution`].
    pub fn keyed_pass(&self, protocol: ServiceProtocol) -> &SourceGroups {
        let technique = self.resolution.technique(protocol.name());
        technique
            .and_then(TechniqueResult::groups)
            .expect("`Experiment::run` builds every protocol's technique from its keyed pass (`TechniqueResult::from_groups`), which keeps it")
    }

    /// Alias sets of one protocol over one data source (`None` = union),
    /// in the union store's id space.
    ///
    /// The union store is exactly the active rows plus the Censys rows, so
    /// every source's grouping is a projection of the protocol's one keyed
    /// pass over it (active ids are the same in the union interner).
    /// Projections are memoised: the tables and figures ask for the same
    /// handful over and over.
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
    pub(crate) fn responsive_ids(&self, protocol: ServiceProtocol, ipv6: bool) -> Vec<AddrId> {
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
    pub(crate) fn asn_table(&self) -> &AsnTable {
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
            let truth = self.internet.ground_truth();
            let addrs = self.union.interner().addrs().iter();
            addrs.map(|&addr| truth.device_of(addr)).collect()
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
            format_agreement(&result),
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
    let targets: Vec<_> = (sample.iter().flatten())
        .map(|&addr| exp.internet.route(addr))
        .collect();
    let midar = midar_resolve(
        &exp.internet,
        &targets,
        VantageKind::SingleVp,
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
        format_agreement(&validation.result),
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
pub(crate) fn run_all(exp: &Experiment) -> Vec<(&'static str, String)> {
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
/// under the same span `run_all` opens for it; `None` for any other name.
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

/// Append a `## {name}` section holding `text` in a code fence to `doc`.
fn push_section(doc: &mut String, name: &str, text: &str) {
    for part in ["## ", name, "\n\n```text\n", text, "```\n\n"] {
        doc.push_str(part);
    }
}

/// Render the full `EXPERIMENTS_MEASURED.md` document for one experiment.
pub fn render_document(exp: &Experiment, preset: ScalePreset) -> String {
    let mut doc = String::from("# EXPERIMENTS — measured reproduction results\n\n");
    doc.push_str(&format!(
        "Generated by `cargo run --release -p alias-bench --bin run_all` at scale preset {preset:?}.\n"
    ));
    doc.push_str(
        "The synthetic population is ~1/400 of the paper's SSH/SNMPv3 scale and ~1/40 of its BGP scale \
         (see docs/TECHNIQUES.md), so absolute counts are smaller; the comparisons below therefore quote the \
         paper's value alongside the measured one and comment on the *shape*.\n\n",
    );
    for (name, text) in run_all(exp) {
        push_section(&mut doc, name, &text);
    }
    doc
}

/// A validation row's agreement as a percentage, or `n/a` when no set
/// could be compared.
fn format_agreement(result: &ValidationResult) -> String {
    result
        .agreement_rate()
        .map_or_else(|| "n/a".to_owned(), format_pct)
}

/// [`render_document`] plus the ICMP rate-limiting study as a final
/// section — the form `run_all` writes to `EXPERIMENTS_MEASURED.md`.
pub fn render_document_with_study(
    exp: &Experiment,
    preset: ScalePreset,
    study: &RateLimitStudy,
) -> String {
    let mut doc = render_document(exp, preset);
    push_section(&mut doc, "ICMP rate-limiting study", &study.render());
    push_section(&mut doc, "Ground truth by technique", &study.render_truth());
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
    pub(crate) silent_resolvable: usize,
    /// Resolvable silent routers whose IPv4 interfaces the rate-limiting
    /// technique grouped into one alias set, completely.
    pub(crate) silent_aliased: usize,
    /// Merged sets carrying *only* the `ratelimit` label — aliases no
    /// other technique corroborates.
    pub(crate) ratelimit_only_sets: usize,
    /// The agreement of each technique registered before `ratelimit` with
    /// it, in registration order.
    agreements: Vec<(String, ValidationResult)>,
    /// The study's Internet, kept for [`truth`](Self::truth): scoring reads
    /// its IP index and is done only when asked.
    internet: Internet,
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
    /// rate-probing phase and resolve with all eight techniques; the
    /// result is scored against ground truth only when the truth block is
    /// rendered.  `threads` shards the campaign's scan phases and nothing
    /// else; it never changes an output byte.
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
                rate_probe: Some(RateProbeConfig),
                ..Default::default()
            })
            .build();
        let report = resolver.resolve(&internet);

        // Each campaign address's (disjoint) ratelimit set, if it has one.
        let ratelimit = report.technique("ratelimit");
        let mut set_of = vec![None; ratelimit.map_or(0, |t| t.interner().len())];
        for (index, set) in ratelimit.iter().flat_map(|t| t.compact_sets()).enumerate() {
            for id in set.iter() {
                set_of[id.index()] = Some(index);
            }
        }
        let set_of_addr = |addr: IpAddr| set_of[ratelimit?.interner().get(addr)?.index()];
        let mut silent_total = 0;
        let mut silent_resolvable = 0;
        let mut silent_aliased = 0;
        for device in internet.devices() {
            if device.kind() != DeviceKind::SilentRouter {
                continue;
            }
            silent_total += 1;
            let v4: Vec<IpAddr> = device.ipv4_addrs().into_iter().map(IpAddr::V4).collect();
            if v4.len() < 2 {
                continue;
            }
            silent_resolvable += 1;
            let set = set_of_addr(v4[0]);
            if set.is_some() && v4[1..].iter().all(|&addr| set_of_addr(addr) == set) {
                silent_aliased += 1;
            }
        }
        let agreements = (report.techniques.iter())
            .map(|t| t.technique.as_str())
            .take_while(|&name| name != "ratelimit")
            .filter_map(|name| Some((name.to_owned(), report.agreement(name, "ratelimit")?)))
            .collect();
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
            agreements,
            internet,
        }
    }

    /// Who is wrong: every technique's alias sets, in registration order,
    /// then the merged sets (`"merged"`), each scored against the device
    /// every address really sits on.
    pub(crate) fn truth(&self) -> Vec<(String, PairwiseScore)> {
        let ground_truth = self.internet.ground_truth();
        let techniques = self.report.techniques.iter().map(|technique| {
            let addrs = technique.interner().addrs();
            let sets = (technique.compact_sets().iter())
                .map(|set| set.ids().iter().map(|id| &addrs[id.index()]));
            (technique.technique.clone(), ground_truth.score_sets(sets))
        });
        let merged = ground_truth.score_sets(self.report.merged.iter().map(|set| set.addrs.iter()));
        techniques.chain([("merged".to_owned(), merged)]).collect()
    }

    /// Render the study: per-technique coverage, the agreement rows
    /// involving the new technique, and the silent-router ground-truth
    /// score only this technique can reach.  Wall-clock stays out of the
    /// rendered text — the document must be byte-identical across thread
    /// counts and repeats.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(["Technique", "Alias sets", "Covered", "Testable"]);
        for technique in &self.report.techniques {
            table.row([
                technique.technique.clone(),
                format_count(technique.set_count()),
                format_count(technique.covered_addresses()),
                format_count(technique.testable_count()),
            ]);
        }
        let mut out = String::from("ICMP rate-limiting study (silent-router population)\n");
        out.push_str(&table.render());

        let mut agreement = TextTable::new(["Pair", "Sample", "Agree", "Disagree", "Agreement"]);
        for (technique, result) in &self.agreements {
            agreement.row([
                format!("{technique}-ratelimit"),
                format_count(result.sample_size),
                format_count(result.agree),
                format_count(result.disagree),
                format_agreement(result),
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
    pub(crate) fn render_truth(&self) -> String {
        let mut table = TextTable::new([
            "Technique",
            "Inferred pairs",
            "True-positive pairs",
            "Precision",
            "Recall",
        ]);
        for (technique, score) in self.truth() {
            table.row([
                technique,
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
        let truth = study.truth();
        let scored: Vec<&str> = truth.iter().map(|(name, _)| name.as_str()).collect();
        let registered = study.report.techniques.iter().map(|t| t.technique.as_str());
        assert_eq!(scored, registered.chain(["merged"]).collect::<Vec<_>>());
        assert_eq!(serial.truth(), truth);
        let (_, merged) = &truth[8];
        assert!(merged.inferred_pairs >= merged.true_positive_pairs);
        assert!(merged.true_positive_pairs > 0);
        assert!(doc.ends_with(&format!("```text\n{}```\n\n", study.render_truth())));
    }

    /// Paper-scale quality of the silent-router study at four seeds, each
    /// technique's sets and the merged sets scored against ground truth
    /// (`cargo test --release -p alias-bench --lib -- --ignored four_seeds`,
    /// a CI step).  SSH's floor is lower for the factory-default host keys
    /// the builder hands whole device fleets; every other technique, and
    /// so the merge, has nothing that fuses two devices, and `ratelimit`'s
    /// group bursts are exact.
    #[test]
    #[ignore = "paper scale: four silent-router studies, about a second each in release"]
    fn paper_scale_study_quality_holds_at_four_seeds() {
        // Each seed with the true pairs the merge finds once `ratelimit`
        // checks every member against every root: recall is over the
        // merged sets' own members, so dropping a false merge can raise it
        // while true pairs are lost, and the count catches that.  Last, the
        // FNV-1a 64 digests of `render()` and `render_truth()`: the study's
        // bytes, which no tiny golden file pins at the scale where iffinder
        // finds sources the campaign never observed (`render()` at the
        // first seed is `silent-study-1t`'s `doc_digest`).
        const SEEDS: [(u64, u64, u64, u64); 4] = [
            (
                20230418,
                517_453,
                0x2aab_ab9d_f567_94bb,
                0x2276_ec41_4fab_0bb8,
            ),
            (
                777001,
                491_990,
                0x49db_2773_46b1_1e67,
                0x86ba_ddf6_5d02_a218,
            ),
            (
                9160016,
                665_558,
                0x527a_80db_8cde_9cc2,
                0x1b6e_c9bc_3c50_0a3c,
            ),
            (
                31337007,
                614_127,
                0xf3bb_4d95_4e17_011f,
                0xbaf5_7821_8c81_640d,
            ),
        ];
        for (seed, true_pairs_found, render, truth) in SEEDS {
            // A thread of its own, for a registry that holds this study's
            // counters alone.
            let (study, counters) = std::thread::spawn(move || {
                let study = RateLimitStudy::run(ScalePreset::PaperShape, seed, 1);
                (study, alias_obs::registry().snapshot().counters)
            })
            .join()
            .expect("the study runs");
            let counter = |name: &str| {
                let sample = counters.iter().find(|c| c.name == name);
                sample
                    .unwrap_or_else(|| panic!("seed {seed}: no {name}"))
                    .value
            };
            assert_eq!(fnv1a(&study.render()), render, "seed {seed}: render()");
            assert_eq!(
                fnv1a(&study.render_truth()),
                truth,
                "seed {seed}: render_truth()"
            );
            let truth = study.truth();
            assert_eq!(truth.len(), 9, "eight techniques and the merge");
            let space = study.report.techniques[0].interner();
            for technique in &study.report.techniques {
                let name = &technique.technique;
                assert!(
                    Arc::ptr_eq(technique.interner(), space),
                    "seed {seed}: {name} in its own id space"
                );
            }
            for (technique, score) in &truth {
                let floor = match technique.as_str() {
                    "ssh" => 0.98,
                    "merged" => 0.997,
                    "ratelimit" => 1.0,
                    _ => 0.999,
                };
                assert!(
                    score.precision() >= floor,
                    "seed {seed}: {technique} precision {:.4} < {floor} ({score:?})",
                    score.precision()
                );
                if matches!(technique.as_str(), "ratelimit" | "merged") {
                    assert!(
                        score.recall() >= 0.99,
                        "seed {seed}: {technique} recall {:.4} < 0.99 ({score:?})",
                        score.recall()
                    );
                }
            }
            let (name, merged) = &truth[8];
            assert_eq!(name, "merged");
            assert!(
                merged.true_positive_pairs >= true_pairs_found,
                "seed {seed}: the merge found {} true pairs < {true_pairs_found}",
                merged.true_positive_pairs
            );
            // One `ratelimit` set per lossy limiter, with no member given up.
            let ratelimit = (study.report.techniques.iter())
                .find(|t| t.technique == "ratelimit")
                .expect("ratelimit ran");
            let ladders = counter("scan.rate_probe_ladders");
            assert_eq!(ratelimit.set_count() as u64, ladders, "seed {seed}");
            assert_eq!(counter("resolve.rate_gave_up"), 0, "seed {seed}");
        }
    }

    /// FNV-1a 64 of a rendered text: the digest `benchmark/` records as a
    /// workload's `doc_digest`.
    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn ssh_dominates_alias_sets() {
        let exp = tiny_experiment();
        let sets = |protocol| exp.collection(protocol, None).family_sets(false).len();
        let (ssh, bgp) = (sets(ServiceProtocol::Ssh), sets(ServiceProtocol::Bgp));
        assert!(ssh > bgp, "ssh={ssh} bgp={bgp}");
    }
}
