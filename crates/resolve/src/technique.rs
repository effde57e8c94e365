//! The [`ResolutionTechnique`] trait: one interface for every way of
//! grouping addresses into alias sets.
//!
//! Results live in id space: a [`TechniqueResult`] stores
//! [`CompactAliasSet`]s plus the [`AddrInterner`] its ids are relative to
//! (normally the campaign's, shared behind an `Arc`), and resolves them
//! back to `BTreeSet<IpAddr>` only through the report-boundary accessors
//! ([`alias_sets`](TechniqueResult::alias_sets),
//! [`testable`](TechniqueResult::testable)).  An identifier technique's
//! result also keeps the keyed pass it was projected from
//! ([`groups`](TechniqueResult::groups)).

use crate::baselines::ProbeTargets;
use alias_core::alias_set::SourceGroups;
use alias_intern::{sort_canonical_compact, AddrId, AddrInterner, CompactAliasSet};
use alias_netsim::{Internet, SimTime, VantageKind};
use alias_scan::{CampaignData, DataSource};
use std::collections::BTreeSet;
use std::net::IpAddr;
use std::sync::Arc;

/// Read-only context a technique resolves against: the measurement
/// substrate for follow-up probing and where and when to probe it from.
#[derive(Clone, Copy)]
pub struct TechniqueCtx<'a> {
    /// The measurement substrate (for techniques that probe).
    pub internet: &'a Internet,
    /// Simulated time at which follow-up probing may begin (usually the
    /// campaign's `finished_at`).
    pub probe_start: SimTime,
    /// Vantage point for follow-up probing.
    pub vantage: VantageKind,
    /// The campaign's addresses as probe targets, shared by every probing
    /// technique of the run.
    pub targets: &'a ProbeTargets<'a>,
}

/// What one technique concluded.  Deterministic for a given campaign and
/// substrate state — wall-clock timing lives in the technique's
/// `resolve/technique/<name>` span, not here, so results can be compared
/// across runs.
///
/// Alias sets are stored compactly as sorted [`AddrId`] vectors relative
/// to the result's interner; the address-set views are materialised on
/// demand at the report boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TechniqueResult {
    /// Name of the technique that produced the result.
    pub technique: String,
    /// Inferred alias sets (two or more members each), in canonical order:
    /// sorted by smallest member address.
    sets: Vec<CompactAliasSet>,
    /// Ids of the addresses the technique could make claims about at all,
    /// sorted and distinct.
    testable: Vec<AddrId>,
    /// Simulated time the technique finished (follow-up probing takes
    /// simulated time; identifier techniques finish with the campaign).
    pub finished_at: SimTime,
    /// The id space the sets refer to — the campaign interner, possibly
    /// extended with probe-discovered addresses.
    interner: Arc<AddrInterner>,
    /// The keyed pass an identifier technique's sets were projected from.
    groups: Option<Arc<SourceGroups>>,
}

impl TechniqueResult {
    /// Assemble a result from id-space sets sharing `interner` (sets are
    /// brought into canonical order, testable ids sorted and deduplicated).
    pub(crate) fn from_compact(
        technique: String,
        mut sets: Vec<CompactAliasSet>,
        testable: Vec<AddrId>,
        finished_at: SimTime,
        interner: Arc<AddrInterner>,
    ) -> Self {
        sort_canonical_compact(&mut sets, &interner);
        // Ids are dense below `interner.len()`: mark them, read them back
        // in order.
        let mut marked = vec![false; interner.len()];
        for id in testable {
            marked[id.index()] = true;
        }
        let testable = (0..)
            .zip(marked)
            .filter_map(|(id, m)| m.then_some(AddrId(id)))
            .collect();
        TechniqueResult {
            technique,
            sets,
            testable,
            finished_at,
            interner,
            groups: None,
        }
    }

    /// Project a keyed pass onto one data source (`None` = every source):
    /// the sets are [`SourceGroups::source_sets`] in canonical order, the
    /// testable ids [`SourceGroups::source_ids`].  The result keeps the
    /// pass ([`groups`](Self::groups)); `interner` is the grouped store's.
    pub fn from_groups(
        technique: String,
        groups: Arc<SourceGroups>,
        source: Option<DataSource>,
        finished_at: SimTime,
        interner: Arc<AddrInterner>,
    ) -> Self {
        let sets = groups.source_sets(source);
        let testable = groups.source_ids(source).collect();
        let mut result = Self::from_compact(technique, sets, testable, finished_at, interner);
        result.groups = Some(groups);
        result
    }

    /// Refer the result's ids to `interner`, which holds the result's own
    /// interner as a prefix.
    pub(crate) fn set_interner(&mut self, interner: Arc<AddrInterner>) {
        self.interner = interner;
    }

    /// The alias sets in id space, canonical order (smallest member address
    /// ascending).
    pub fn compact_sets(&self) -> &[CompactAliasSet] {
        &self.sets
    }

    /// The testable addresses as sorted distinct ids.
    pub(crate) fn testable_ids(&self) -> &[AddrId] {
        &self.testable
    }

    /// The id space the result's ids are relative to.
    pub fn interner(&self) -> &Arc<AddrInterner> {
        &self.interner
    }

    /// The keyed pass the sets were projected from
    /// ([`from_groups`](Self::from_groups)); `None` for a technique that
    /// keys nothing.
    pub fn groups(&self) -> Option<&Arc<SourceGroups>> {
        self.groups.as_ref()
    }

    /// The inferred alias sets as address sets (materialised on demand —
    /// the report/rendering boundary).
    // id-space: report boundary — resolves ids for rendering
    pub fn alias_sets(&self) -> Vec<BTreeSet<IpAddr>> {
        self.sets
            .iter()
            .map(|set| set.to_addr_set(&self.interner))
            .collect()
    }

    /// The addresses the technique could make claims about at all
    /// (identifiable addresses for identifier techniques, usable counters
    /// for the IPID baselines, answering targets for iffinder) —
    /// materialised on demand.
    // id-space: report boundary — resolves ids for rendering
    pub fn testable(&self) -> BTreeSet<IpAddr> {
        self.testable
            .iter()
            .map(|&id| self.interner.addr(id))
            .collect()
    }

    /// Number of testable addresses (id-space, no materialisation).
    pub fn testable_count(&self) -> usize {
        self.testable.len()
    }

    /// Number of inferred alias sets.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Addresses covered by the alias sets (the sets are disjoint, so this
    /// is also the sum of set sizes).
    pub fn covered_addresses(&self) -> usize {
        self.sets.iter().map(CompactAliasSet::len).sum()
    }
}

/// One alias-resolution technique, as an interchangeable trait object.
///
/// Implementations wrap the paper's identifier extraction (SSH, BGP,
/// SNMPv3) and the classic IPID/ICMP baselines (MIDAR, Ally, Speedtrap,
/// iffinder) behind a single entry point, so composing, comparing or adding
/// techniques needs no bespoke glue: a [`Resolver`](crate::Resolver) takes
/// any mix of `Box<dyn ResolutionTechnique>` and orchestrates them.
pub trait ResolutionTechnique: Send + Sync {
    /// Short lowercase name, used as the merge label and in reports.
    fn name(&self) -> &'static str;

    /// Resolve alias sets from campaign data (and, for probing techniques,
    /// follow-up measurements against `ctx.internet`).
    fn resolve(&self, data: &CampaignData, ctx: &TechniqueCtx<'_>) -> TechniqueResult;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(list: &[&str]) -> Vec<IpAddr> {
        list.iter().map(|a| a.parse().unwrap()).collect()
    }

    fn set(list: &[&str]) -> BTreeSet<IpAddr> {
        addrs(list).into_iter().collect()
    }

    fn interner_of(addrs: impl IntoIterator<Item = IpAddr>) -> AddrInterner {
        let mut interner = AddrInterner::new();
        for addr in addrs {
            interner.intern(addr);
        }
        interner
    }

    #[test]
    fn result_accessors_count_sets_and_addresses() {
        let interner = Arc::new(interner_of(addrs(&[
            "10.0.0.1", "10.0.0.2", "10.1.0.1", "10.1.0.2", "10.2.0.1",
        ])));
        let ids = |list: &[&str]| -> Vec<AddrId> {
            (addrs(list).into_iter())
                .map(|addr| interner.get(addr).expect("interned above"))
                .collect()
        };
        let result = TechniqueResult::from_compact(
            "test".into(),
            vec![
                CompactAliasSet::from_ids(ids(&["10.1.0.1", "10.1.0.2"])),
                CompactAliasSet::from_ids(ids(&["10.0.0.1", "10.0.0.2"])),
            ],
            ids(&["10.0.0.1", "10.0.0.2", "10.1.0.1", "10.1.0.2", "10.2.0.1"]),
            SimTime::ZERO,
            interner.clone(),
        );
        assert_eq!(result.set_count(), 2);
        assert_eq!(result.covered_addresses(), 4);
        assert_eq!(result.testable_count(), 5);
        assert_eq!(result.testable().len(), 5);
        // Canonical order: the set with the smaller smallest address first.
        assert_eq!(
            result.alias_sets(),
            vec![
                set(&["10.0.0.1", "10.0.0.2"]),
                set(&["10.1.0.1", "10.1.0.2"]),
            ]
        );
        // The campaign interner is shared, not copied.
        assert!(Arc::ptr_eq(result.interner(), &interner));
    }

    #[test]
    fn from_compact_sorts_and_dedups_testable_ids() {
        let interner = Arc::new(interner_of((1..=6).map(|i| IpAddr::from([10, 0, 0, i]))));
        let last = AddrId(interner.len() as u32 - 1);
        let testable = |ids: Vec<AddrId>| {
            let result = TechniqueResult::from_compact(
                "t".into(),
                vec![],
                ids,
                SimTime::ZERO,
                interner.clone(),
            );
            result.testable_ids().to_vec()
        };
        assert_eq!(
            testable(vec![
                AddrId(3),
                last,
                AddrId(0),
                AddrId(3),
                last,
                AddrId(1),
                AddrId(0)
            ]),
            vec![AddrId(0), AddrId(1), AddrId(3), last]
        );
        assert_eq!(testable(vec![]), vec![]);
        assert_eq!(testable(vec![last, last]), vec![last]);
    }

    /// The per-comparison comparator canonical order was sorted with before
    /// each set's key was read once (the oracle `alias-intern` tests the
    /// keyed sort against): smallest address, larger set first, then the
    /// members in address order.
    fn oracle_cmp(
        a: &CompactAliasSet,
        b: &CompactAliasSet,
        interner: &AddrInterner,
    ) -> std::cmp::Ordering {
        let addr_order = |set: &CompactAliasSet| {
            let mut addrs: Vec<IpAddr> = set.iter().map(|id| interner.addr(id)).collect();
            addrs.sort_unstable();
            addrs
        };
        a.min_addr(interner)
            .cmp(&b.min_addr(interner))
            .then_with(|| b.len().cmp(&a.len()))
            .then_with(|| addr_order(a).cmp(&addr_order(b)))
    }

    /// The paper-scale Censys ∪ active store resolved by the three
    /// identifier techniques, as `snapshot-resolve-1t` resolves it: every
    /// result, and each one's projections onto one source, has its sets in
    /// the oracle's order and its testable ids strictly ascending
    /// (`cargo test --release -p alias-resolve --lib -- --ignored
    /// canonical_order`, a CI step).
    #[test]
    #[ignore = "paper scale: one world, crawl and campaign, a few seconds in release"]
    fn paper_scale_identifier_results_are_in_canonical_order() {
        use crate::Resolver;
        use alias_censys::{CensysConfig, CensysSnapshot};
        use alias_netsim::{InternetBuilder, InternetConfig, ScalePreset};
        use alias_scan::campaign::{ActiveCampaign, CampaignConfig};

        let seed = 20230418;
        let config = InternetConfig::preset(ScalePreset::PaperShape, seed);
        let hitlist_coverage = config.visibility.hitlist_coverage;
        let mut internet = InternetBuilder::new(config).build();
        let snapshot = CensysConfig {
            snapshot_time: SimTime::ZERO,
            seed,
        };
        let (censys, _) = CensysSnapshot::collect(&internet, snapshot).into_default_port();
        let start = SimTime::from_days(21);
        internet.apply_churn(SimTime::ZERO, start);
        let campaign = CampaignConfig {
            vantage: VantageKind::SingleVp,
            start,
            hitlist_coverage,
            seed,
            ..Default::default()
        };
        let mut union = ActiveCampaign::new(campaign).run(&internet).into_store();
        union.extend_from(&censys);
        let data = CampaignData::from_store(union);
        let report = Resolver::builder()
            .paper_techniques()
            .build()
            .resolve_data(&internet, &data);
        assert_eq!(report.techniques.len(), 3);
        for result in &report.techniques {
            let groups = result
                .groups()
                .expect("an identifier result keeps its pass");
            let projections = [DataSource::Active, DataSource::Censys].map(|source| {
                TechniqueResult::from_groups(
                    result.technique.clone(),
                    groups.clone(),
                    Some(source),
                    result.finished_at,
                    result.interner().clone(),
                )
            });
            for (checked, view) in [result]
                .into_iter()
                .chain(&projections)
                .zip(["all", "active", "censys"])
            {
                let name = format!("{} ({view})", checked.technique);
                let (sets, interner) = (checked.compact_sets(), checked.interner());
                for (i, pair) in sets.windows(2).enumerate() {
                    assert_ne!(
                        oracle_cmp(&pair[0], &pair[1], interner),
                        std::cmp::Ordering::Greater,
                        "{name}: sets {i} and {} out of order",
                        i + 1
                    );
                }
                let testable = checked.testable_ids();
                assert!(testable.windows(2).all(|w| w[0] < w[1]), "{name}");
            }
        }
    }
}
