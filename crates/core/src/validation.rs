//! Cross-technique validation (the paper's Table 2).
//!
//! Lacking ground truth, the paper validates its alias sets by comparing the
//! partitions produced by different techniques over the addresses responsive
//! to *both*: a set "agrees" when the other technique groups exactly the
//! same addresses together.  The same machinery compares against MIDAR.
//!
//! Everything here runs in the id space: inputs are [`CompactAliasSet`]s
//! plus sorted [`AddrId`] universes interned against one shared
//! [`AddrInterner`](alias_intern::AddrInterner).  Agreement counting is
//! invariant under the (bijective) address ↔ id relabeling, so the results
//! are identical to the former `BTreeSet<IpAddr>` formulation — the parity
//! suite pins that down — while projection becomes one dense membership
//! table over the universe, probed once per set member, instead of
//! per-address tree probes.

use alias_intern::{AddrId, CompactAliasSet};
use std::collections::HashSet;

/// Outcome of one pairwise validation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationResult {
    /// Number of sets (from technique A) that could be tested.
    pub sample_size: usize,
    /// Sets whose membership exactly matches a set of technique B.
    pub agree: usize,
    /// Sets with mismatching membership.
    pub disagree: usize,
}

impl ValidationResult {
    /// Agreement rate in `[0, 1]`; `None` when nothing could be tested.
    pub fn agreement_rate(&self) -> Option<f64> {
        (self.sample_size > 0).then(|| self.agree as f64 / self.sample_size as f64)
    }
}

/// Ids present in both sorted id slices, as a sorted vector.
pub fn common_ids(a: &[AddrId], b: &[AddrId]) -> Vec<AddrId> {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a must be sorted");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b must be sorted");
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Dense membership table of an id universe: built once per comparison,
/// then every set is projected by probing its own members, so a comparison
/// costs O(universe + members) however many sets there are.
struct Universe {
    member: Vec<bool>,
}

impl Universe {
    fn new(ids: &[AddrId]) -> Self {
        let len = ids.iter().max().map_or(0, |max| max.index() + 1);
        let mut member = vec![false; len];
        for id in ids {
            member[id.index()] = true;
        }
        Universe { member }
    }

    fn contains(&self, id: AddrId) -> bool {
        self.member.get(id.index()).copied().unwrap_or(false)
    }

    /// `sets` restricted to the universe, without the sets left with fewer
    /// than two members.  Only a surviving set allocates.
    fn project(&self, sets: &[CompactAliasSet]) -> Vec<CompactAliasSet> {
        let mut projected = Vec::with_capacity(sets.len());
        let mut kept: Vec<AddrId> = Vec::new();
        for set in sets {
            kept.clear();
            kept.extend(set.iter().filter(|&id| self.contains(id)));
            if kept.len() >= 2 {
                projected.push(CompactAliasSet::from_ids(kept.clone()));
            }
        }
        projected
    }
}

/// Count the sets of `projected_a` whose exact membership also appears in
/// `projected_b`.
fn agreement(projected_a: &[CompactAliasSet], projected_b: &[CompactAliasSet]) -> ValidationResult {
    let b_lookup: HashSet<&[AddrId]> = projected_b.iter().map(|s| s.ids()).collect();
    let agree = projected_a
        .iter()
        .filter(|set| b_lookup.contains(set.ids()))
        .count();
    ValidationResult {
        sample_size: projected_a.len(),
        agree,
        disagree: projected_a.len() - agree,
    }
}

/// Compare technique A's sets against technique B's sets over the ids
/// responsive to both techniques.
///
/// Both set lists are first projected onto `common`; every projected A set
/// is then checked for an exact membership match among the projected B sets.
/// Both inputs must share one interner — comparing ids minted by different
/// interners is meaningless (the resolver translates first).
pub fn cross_validate(
    sets_a: &[CompactAliasSet],
    sets_b: &[CompactAliasSet],
    common: &[AddrId],
) -> ValidationResult {
    let universe = Universe::new(common);
    agreement(&universe.project(sets_a), &universe.project(sets_b))
}

/// Validation against an IPID-based technique such as MIDAR.
///
/// MIDAR can only test addresses with a usable (monotonic, sampleable) IPID
/// counter, so most sampled sets cannot be verified at all.  `testable`
/// is the set of addresses for which MIDAR produced usable measurements;
/// sampled sets whose projection onto `testable` retains fewer than two
/// addresses are reported as `unverifiable`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MidarValidation {
    /// Sets in the sample.
    pub sampled: usize,
    /// Sets MIDAR could not test (insufficient usable addresses).
    pub(crate) unverifiable: usize,
    /// The pairwise comparison over the verifiable sets.
    pub result: ValidationResult,
}

impl MidarValidation {
    /// Fraction of sampled sets MIDAR could verify at all.
    pub fn coverage(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.result.sample_size as f64 / self.sampled as f64
        }
    }
}

/// Compare sampled alias sets against a MIDAR-style partition, with
/// `testable` the sorted ids MIDAR could measure at all.
pub fn validate_against_midar(
    sampled_sets: &[CompactAliasSet],
    midar_sets: &[CompactAliasSet],
    testable: &[AddrId],
) -> MidarValidation {
    let universe = Universe::new(testable);
    let projected = universe.project(sampled_sets);
    MidarValidation {
        sampled: sampled_sets.len(),
        unverifiable: sampled_sets.len() - projected.len(),
        result: agreement(&projected, &universe.project(midar_sets)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Restrict `sets` to the ids in `universe`, dropping sets that no
    /// longer have at least two members.
    fn project_compact(sets: &[CompactAliasSet], universe: &[AddrId]) -> Vec<CompactAliasSet> {
        Universe::new(universe).project(sets)
    }
    use proptest::prelude::*;

    fn ids(raw: &[u32]) -> Vec<AddrId> {
        raw.iter().copied().map(AddrId).collect()
    }

    fn set(raw: &[u32]) -> CompactAliasSet {
        CompactAliasSet::from_ids(ids(raw))
    }

    #[test]
    fn identical_partitions_agree_fully() {
        let a = vec![set(&[0, 1]), set(&[2, 3])];
        let common = ids(&[0, 1, 2, 3]);
        let result = cross_validate(&a, &a, &common);
        assert_eq!(result.sample_size, 2);
        assert_eq!(result.agree, 2);
        assert_eq!(result.disagree, 0);
        assert_eq!(result.agreement_rate(), Some(1.0));
    }

    #[test]
    fn split_sets_disagree() {
        let a = vec![set(&[0, 1, 2])];
        // Technique B splits the set in two.
        let b = vec![set(&[0, 1]), set(&[2, 3])];
        let common = ids(&[0, 1, 2]);
        let result = cross_validate(&a, &b, &common);
        assert_eq!(result.sample_size, 1);
        assert_eq!(result.disagree, 1);
        assert_eq!(result.agreement_rate(), Some(0.0));
    }

    #[test]
    fn projection_respects_the_common_universe() {
        // A's set contains an id B never saw; after projection onto the
        // common universe they agree.
        let a = vec![set(&[0, 1, 9])];
        let b = vec![set(&[0, 1])];
        let common = ids(&[0, 1]);
        let result = cross_validate(&a, &b, &common);
        assert_eq!(result.agree, 1);
    }

    #[test]
    fn sets_that_vanish_after_projection_are_not_counted() {
        let a = vec![set(&[0, 1]), set(&[5, 6])];
        let b = vec![set(&[0, 1])];
        // Only the first set intersects the common universe with ≥2 ids.
        let common = ids(&[0, 1, 5]);
        let result = cross_validate(&a, &b, &common);
        assert_eq!(result.sample_size, 1);
        assert_eq!(result.agree, 1);
    }

    #[test]
    fn an_empty_sample_has_no_agreement_rate() {
        let result = cross_validate(&[], &[], &[]);
        assert_eq!(result.sample_size, 0);
        assert_eq!(result.agreement_rate(), None);
    }

    #[test]
    fn midar_validation_reports_coverage() {
        let sampled = vec![
            set(&[0, 1]), // testable, agrees
            set(&[2, 3]), // untestable (random IPIDs)
            set(&[4, 5]), // testable, MIDAR splits it
        ];
        let midar = vec![set(&[0, 1]), set(&[4, 9])];
        let testable = ids(&[0, 1, 4, 5]);
        let validation = validate_against_midar(&sampled, &midar, &testable);
        assert_eq!(validation.sampled, 3);
        assert_eq!(validation.unverifiable, 1);
        assert_eq!(validation.result.sample_size, 2);
        assert_eq!(validation.result.agree, 1);
        assert!((validation.coverage() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn common_ids_is_a_sorted_intersection() {
        assert_eq!(common_ids(&ids(&[0, 1]), &ids(&[1, 2])), ids(&[1]));
        assert_eq!(common_ids(&ids(&[0, 2, 4]), &ids(&[1, 3, 5])), ids(&[]));
        assert_eq!(common_ids(&ids(&[0, 1, 2, 3]), &ids(&[1, 3])), ids(&[1, 3]));
    }

    /// Projection as a sorted-slice merge walk of every set against the
    /// whole universe — what `project_compact` did before the membership
    /// table, kept as the reference.
    fn project_by_merge_walk(
        sets: &[CompactAliasSet],
        universe: &[AddrId],
    ) -> Vec<CompactAliasSet> {
        sets.iter()
            .map(|set| CompactAliasSet::from_ids(common_ids(set.ids(), universe)))
            .filter(|set| set.len() >= 2)
            .collect()
    }

    fn cross_validate_by_merge_walk(
        sets_a: &[CompactAliasSet],
        sets_b: &[CompactAliasSet],
        common: &[AddrId],
    ) -> ValidationResult {
        agreement(
            &project_by_merge_walk(sets_a, common),
            &project_by_merge_walk(sets_b, common),
        )
    }

    #[test]
    fn empty_universe_and_ids_beyond_it_project_to_nothing() {
        let sets = vec![set(&[0, 1]), set(&[7, 900_000])];
        assert!(project_compact(&sets, &[]).is_empty());
        // 900_000 lies far above the universe's largest id.
        assert_eq!(
            project_compact(&sets, &ids(&[1, 7, 8])),
            Vec::<CompactAliasSet>::new()
        );
        assert_eq!(project_compact(&sets, &ids(&[0, 1, 7])), vec![set(&[0, 1])]);
    }

    fn sorted_ids(raw: Vec<u32>) -> Vec<AddrId> {
        let mut out: Vec<AddrId> = raw.into_iter().map(AddrId).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    proptest! {
        #[test]
        fn membership_projection_agrees_with_the_merge_walk(
            // Set members range past the universe's largest possible id.
            raw_sets in prop::collection::vec(prop::collection::vec(0u32..48, 0..7), 0..12),
            raw_other in prop::collection::vec(prop::collection::vec(0u32..48, 0..7), 0..12),
            raw_universe in prop::collection::vec(0u32..32, 0..24),
        ) {
            let to_sets = |raw: Vec<Vec<u32>>| -> Vec<CompactAliasSet> {
                raw.into_iter()
                    .map(|members| CompactAliasSet::from_ids(members.into_iter().map(AddrId).collect()))
                    .collect()
            };
            let (sets, other) = (to_sets(raw_sets), to_sets(raw_other));
            let universe = sorted_ids(raw_universe);
            prop_assert_eq!(
                project_compact(&sets, &universe),
                project_by_merge_walk(&sets, &universe)
            );
            prop_assert_eq!(
                cross_validate(&sets, &other, &universe),
                cross_validate_by_merge_walk(&sets, &other, &universe)
            );
            // Comparing a partition with itself always agrees.
            let own = cross_validate(&sets, &sets, &universe);
            prop_assert_eq!(own.agree, own.sample_size);
        }
    }
}
