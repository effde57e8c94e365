//! The [`ResolutionTechnique`] trait: one interface for every way of
//! grouping addresses into alias sets.
//!
//! Results live in id space: a [`TechniqueResult`] stores
//! [`CompactAliasSet`]s plus the [`AddrInterner`] its ids are relative to
//! (normally the campaign's, shared behind an `Arc`), and resolves them
//! back to `BTreeSet<IpAddr>` only through the report-boundary accessors
//! ([`alias_sets`](TechniqueResult::alias_sets),
//! [`testable`](TechniqueResult::testable)).

use crate::baselines::ProbeTargets;
use alias_core::extract::IdentifierExtractor;
use alias_core::intern::{sort_canonical_compact, AddrId, AddrInterner, CompactAliasSet};
use alias_netsim::{Internet, ServiceProtocol, SimTime, VantageKind};
use alias_scan::CampaignData;
use std::collections::BTreeSet;
use std::net::IpAddr;
use std::sync::Arc;

/// What a technique consumes, declared up front so callers can check a
/// campaign before running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataRequirement {
    /// Service observations of one protocol from the campaign data.
    Observations(ServiceProtocol),
    /// Live follow-up probing against the measurement substrate (IPID /
    /// fragment-identifier sampling, ICMP error elicitation).
    ///
    /// Probing advances shared per-device counter state.  The
    /// [`Resolver`](crate::Resolver) runs *every* technique one at a time,
    /// in registration order, so probes always replay in the same order.
    LiveProbing,
}

/// Read-only context a technique resolves against: the measurement
/// substrate for follow-up probing plus the shared policies of the run.
#[derive(Clone, Copy)]
pub struct TechniqueCtx<'a> {
    /// The measurement substrate (for techniques that probe).
    pub internet: &'a Internet,
    /// Identifier-extraction policies shared by the identifier techniques.
    pub extractor: &'a IdentifierExtractor,
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
/// substrate state — wall-clock timing lives in
/// [`TechniqueTiming`](crate::TechniqueTiming), not here, so results can be
/// compared across runs.
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
}

impl TechniqueResult {
    /// Assemble a result from id-space sets sharing `interner` (sets are
    /// brought into canonical order, testable ids sorted and deduplicated).
    pub fn from_compact(
        technique: String,
        mut sets: Vec<CompactAliasSet>,
        mut testable: Vec<AddrId>,
        finished_at: SimTime,
        interner: Arc<AddrInterner>,
    ) -> Self {
        sort_canonical_compact(&mut sets, &interner);
        testable.sort_unstable();
        testable.dedup();
        TechniqueResult {
            technique,
            sets,
            testable,
            finished_at,
            interner,
        }
    }

    /// Assemble a result from address lists, interning the members against
    /// `interner` (members need not be sorted or distinct —
    /// [`from_compact`](Self::from_compact) canonicalises).  Addresses the
    /// interner has never seen — follow-up probing can discover interfaces
    /// the campaign did not observe, e.g. iffinder's ICMP source addresses
    /// — extend a private copy of the id space (existing ids stay valid;
    /// the campaign interner itself is never mutated).
    pub fn from_addr_sets(
        technique: String,
        sets: Vec<Vec<IpAddr>>,
        testable: Vec<IpAddr>,
        finished_at: SimTime,
        interner: Arc<AddrInterner>,
    ) -> Self {
        let mut interner = interner;
        let all_known = sets
            .iter()
            .flatten()
            .chain(testable.iter())
            .all(|&addr| interner.contains(addr));
        if !all_known {
            let extended = Arc::make_mut(&mut interner);
            for &addr in sets.iter().flatten().chain(testable.iter()) {
                extended.intern(addr);
            }
        }
        let compact = sets
            .iter()
            .map(|set| {
                CompactAliasSet::from_ids(
                    set.iter()
                        .map(|&addr| interner.get(addr).expect("member interned above"))
                        .collect(),
                )
            })
            .collect();
        let testable_ids = testable
            .iter()
            .map(|&addr| interner.get(addr).expect("member interned above"))
            .collect();
        Self::from_compact(technique, compact, testable_ids, finished_at, interner)
    }

    /// The alias sets in id space, canonical order (smallest member address
    /// ascending).
    pub fn compact_sets(&self) -> &[CompactAliasSet] {
        &self.sets
    }

    /// The testable addresses as sorted distinct ids.
    pub fn testable_ids(&self) -> &[AddrId] {
        &self.testable
    }

    /// The id space the result's ids are relative to.
    pub fn interner(&self) -> &Arc<AddrInterner> {
        &self.interner
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

/// Sort alias sets into the canonical order every technique reports:
/// ascending by smallest member.  Alias sets partition their universe, so
/// smallest members are distinct and the order is total — the same
/// convention `alias-core`'s merge output uses.  Generic over the member
/// type: address sets at the report boundary, id sets anywhere else.
pub fn canonical_sets<T: Ord>(mut sets: Vec<BTreeSet<T>>) -> Vec<BTreeSet<T>> {
    sets.sort_by(|a, b| a.iter().next().cmp(&b.iter().next()));
    sets
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

    /// The data sources the technique consumes.
    fn required_sources(&self) -> Vec<DataRequirement>;

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

    #[test]
    fn canonical_sets_sorts_by_smallest_member() {
        let sets = canonical_sets(vec![
            set(&["10.9.0.1", "10.9.0.2"]),
            set(&["10.0.0.5", "10.0.0.6"]),
            set(&["10.4.0.1", "10.4.0.2"]),
        ]);
        let firsts: Vec<IpAddr> = sets.iter().map(|s| *s.iter().next().unwrap()).collect();
        let mut sorted = firsts.clone();
        sorted.sort();
        assert_eq!(firsts, sorted);
    }

    #[test]
    fn result_accessors_count_sets_and_addresses() {
        let interner = Arc::new(AddrInterner::from_addrs(
            ["10.0.0.1", "10.0.0.2", "10.1.0.1", "10.1.0.2", "10.2.0.1"]
                .iter()
                .map(|s| s.parse().unwrap()),
        ));
        let result = TechniqueResult::from_addr_sets(
            "test".into(),
            vec![
                addrs(&["10.1.0.1", "10.1.0.2"]),
                addrs(&["10.0.0.1", "10.0.0.2"]),
            ],
            addrs(&["10.0.0.1", "10.0.0.2", "10.1.0.1", "10.1.0.2", "10.2.0.1"]),
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
        // No novel addresses: the campaign interner is shared, not copied.
        assert!(Arc::ptr_eq(result.interner(), &interner));
    }

    #[test]
    fn novel_addresses_extend_a_private_interner_copy() {
        let base = Arc::new(AddrInterner::from_addrs(
            ["10.0.0.1"].iter().map(|s| s.parse().unwrap()),
        ));
        let result = TechniqueResult::from_addr_sets(
            "iffinder".into(),
            vec![addrs(&["10.0.0.1", "192.0.2.7"])],
            addrs(&["10.0.0.1", "192.0.2.7"]),
            SimTime::ZERO,
            base.clone(),
        );
        assert!(!Arc::ptr_eq(result.interner(), &base));
        assert_eq!(base.len(), 1, "the campaign id space is never mutated");
        assert_eq!(result.interner().len(), 2);
        assert_eq!(
            result.interner().get("10.0.0.1".parse().unwrap()),
            base.get("10.0.0.1".parse().unwrap()),
            "base ids stay valid in the extension"
        );
        assert_eq!(result.alias_sets(), vec![set(&["10.0.0.1", "192.0.2.7"])]);
    }
}
