//! The structured output of a [`Resolver`](crate::Resolver) run.

use crate::baselines::resolve_counter;
use crate::technique::TechniqueResult;
use alias_core::merge::{merge_labeled_compact, MergedSet};
use alias_core::validation::{common_ids, cross_validate, ValidationResult};
use alias_intern::{AddrInterner, CompactAliasSet};
use alias_obs::LazyCounter;
use alias_scan::CampaignData;
use std::sync::Arc;

/// Technique pairs whose agreement row [`ResolutionReport::agreement`]
/// computed.
static AGREEMENT_PAIRS: LazyCounter = resolve_counter("resolve.agreement_pairs", "pairs");

/// Everything one [`Resolver`](crate::Resolver) run produced.
#[derive(Debug, Clone)]
pub struct ResolutionReport {
    /// The campaign data, when the resolver ran the scan itself
    /// ([`Resolver::resolve`](crate::Resolver::resolve)); `None` when
    /// pre-collected data was supplied
    /// ([`Resolver::resolve_data`](crate::Resolver::resolve_data)) or the
    /// results were merged directly
    /// ([`ResolutionReport::from_techniques`]).
    pub campaign: Option<CampaignData>,
    /// Per-technique results, in registration order, all in one id space.
    pub techniques: Vec<TechniqueResult>,
    /// Cross-technique merged sets (sets sharing an address unioned), in
    /// canonical order.
    pub merged: Vec<MergedSet>,
}

impl ResolutionReport {
    /// Bring per-technique results into one id space and merge them, under
    /// the `resolve/merge` span: sets sharing an address are unioned across
    /// techniques — the paper's consolidation.  The space is `base` (the
    /// campaign's interner) or the one result interner that extends it
    /// (iffinder's, when an ICMP error came from an address the campaign
    /// never observed); afterwards every result refers to it and campaign
    /// ids keep their values.  `campaign` is `None`.
    ///
    /// # Panics
    /// Panics if a result's interner does not start with `base`'s
    /// addresses, or two results extend `base` in different interners.
    pub fn from_techniques(mut techniques: Vec<TechniqueResult>, base: &Arc<AddrInterner>) -> Self {
        let _stage = alias_obs::span("resolve/merge");
        let mut interner = base.clone();
        for technique in &techniques {
            let space = technique.interner();
            if Arc::ptr_eq(space, base) || Arc::ptr_eq(space, &interner) {
                continue;
            }
            assert!(
                Arc::ptr_eq(&interner, base),
                "two results extend the base in different interners"
            );
            assert!(
                space.addrs().starts_with(base.addrs()),
                "{}'s interner does not extend the base",
                technique.technique
            );
            interner = space.clone();
        }
        for technique in &mut techniques {
            technique.set_interner(interner.clone());
        }
        let inputs: Vec<(&str, &[CompactAliasSet])> = (techniques.iter())
            .map(|t| (t.technique.as_str(), t.compact_sets()))
            .collect();
        let merged = merge_labeled_compact(&inputs, &interner);
        ResolutionReport {
            campaign: None,
            techniques,
            merged,
        }
    }

    /// The result of one technique, by name.
    pub fn technique(&self, name: &str) -> Option<&TechniqueResult> {
        self.techniques.iter().find(|t| t.technique == name)
    }

    /// The agreement of technique `a` with technique `b`, computed the way
    /// the paper's Table 2 does: both partitions are projected onto the
    /// addresses testable by *both* and `a`'s sets are sampled, each
    /// checked for an exact membership match among `b`'s.  `None` if
    /// either name is not in the report.
    pub fn agreement(&self, a: &str, b: &str) -> Option<ValidationResult> {
        let (a, b) = (self.technique(a)?, self.technique(b)?);
        let _span = alias_obs::span("resolve/agreement");
        AGREEMENT_PAIRS.add(1);
        let common = common_ids(a.testable_ids(), b.testable_ids());
        Some(cross_validate(a.compact_sets(), b.compact_sets(), &common))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_core::merge::MergedSet;
    use alias_intern::AddrId;
    use alias_netsim::SimTime;
    use std::collections::BTreeSet;
    use std::net::IpAddr;

    fn addrs(list: &[&str]) -> Vec<IpAddr> {
        list.iter().map(|a| a.parse().unwrap()).collect()
    }

    fn interner_of(list: &[&str]) -> AddrInterner {
        let mut interner = AddrInterner::new();
        for addr in addrs(list) {
            interner.intern(addr);
        }
        interner
    }

    /// A result named `name` over `interner`, its sets and testable
    /// addresses given as addresses the interner holds.
    fn result(
        name: &str,
        sets: &[&[&str]],
        testable: &[&str],
        interner: &Arc<AddrInterner>,
    ) -> TechniqueResult {
        let ids = |list: &[&str]| -> Vec<AddrId> {
            (addrs(list).into_iter())
                .map(|addr| interner.get(addr).expect("the test interned it"))
                .collect()
        };
        let sets = sets.iter().map(|set| CompactAliasSet::from_ids(ids(set)));
        TechniqueResult::from_compact(
            name.to_owned(),
            sets.collect(),
            ids(testable),
            SimTime::ZERO,
            interner.clone(),
        )
    }

    fn address_set(list: &[&str]) -> BTreeSet<IpAddr> {
        addrs(list).into_iter().collect()
    }

    #[test]
    fn results_are_brought_into_one_id_space() {
        let base = Arc::new(interner_of(&[
            "10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4", "10.0.0.5", "10.0.0.6",
        ]));
        let before = base.addrs().to_vec();
        // Shares the base.
        let shared = result(
            "shared",
            &[&["10.0.0.1", "10.0.0.2"], &["10.0.0.3", "10.0.0.4"]],
            &["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"],
            &base,
        );
        // Extends a copy of the base with a novel address.
        let mut copy = (*base).clone();
        copy.intern("192.0.2.7".parse().unwrap());
        let extended = result(
            "extended",
            &[&["10.0.0.3", "192.0.2.7"]],
            &["10.0.0.3", "10.0.0.4", "10.0.0.6", "192.0.2.7"],
            &Arc::new(copy),
        );
        let report = ResolutionReport::from_techniques(vec![shared, extended], &base);

        let space = report.techniques[0].interner();
        for technique in &report.techniques {
            assert!(
                Arc::ptr_eq(technique.interner(), space),
                "{}",
                technique.technique
            );
        }
        assert_eq!(base.addrs(), before, "the base is never mutated");
        assert_eq!(space.len(), before.len() + 1, "the extension is adopted");
        for (id, &addr) in before.iter().enumerate() {
            assert_eq!(space.get(addr), Some(AddrId(id as u32)), "{addr}");
        }
        // Every result keeps its sets and testable ids.
        let sets = |name: &str| report.technique(name).unwrap().alias_sets();
        assert_eq!(
            sets("shared"),
            [
                address_set(&["10.0.0.1", "10.0.0.2"]),
                address_set(&["10.0.0.3", "10.0.0.4"])
            ]
        );
        assert_eq!(sets("extended"), [address_set(&["10.0.0.3", "192.0.2.7"])]);
        let extended = report.technique("extended").unwrap();
        assert_eq!(
            extended.testable(),
            address_set(&["10.0.0.3", "10.0.0.4", "10.0.0.6", "192.0.2.7"])
        );

        let merged = |list: &[&str], labels: &[&str]| MergedSet {
            addrs: address_set(list),
            labels: labels.iter().map(|&l| l.to_owned()).collect(),
        };
        assert_eq!(
            report.merged,
            [
                merged(&["10.0.0.1", "10.0.0.2"], &["shared"]),
                merged(
                    &["10.0.0.3", "10.0.0.4", "192.0.2.7"],
                    &["extended", "shared"]
                ),
            ]
        );

        // Common testable {.3, .4}: `shared`'s second set survives the
        // projection, `extended` splits it.
        let row = report.agreement("shared", "extended").unwrap();
        assert_eq!((row.sample_size, row.agree, row.disagree), (1, 0, 1));
        assert_eq!(report.agreement("shared", "midar"), None);
        assert_eq!(report.agreement("midar", "shared"), None);
    }

    #[test]
    #[should_panic(expected = "does not extend the base")]
    fn a_result_in_another_numbering_is_refused() {
        let base = Arc::new(interner_of(&["10.0.0.1", "10.0.0.2"]));
        let foreign = Arc::new(interner_of(&["10.0.0.2", "10.0.0.1"]));
        let foreign = result("foreign", &[&["10.0.0.1", "10.0.0.2"]], &[], &foreign);
        let _ = ResolutionReport::from_techniques(vec![foreign], &base);
    }
}
