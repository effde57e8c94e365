//! The structured output of a [`Resolver`](crate::Resolver) run.

use crate::technique::TechniqueResult;
use alias_core::merge::{merge_labeled_compact, MergedSet};
use alias_core::validation::{common_ids, cross_validate, ValidationResult};
use alias_intern::{AddrId, AddrInterner, CompactAliasSet};
use alias_obs::{DeterminismClass, LazyCounter};
use alias_scan::CampaignData;
use std::sync::Arc;

/// Technique pairs whose agreement the coverage statistics computed: one
/// per unordered pair of registered techniques.
static AGREEMENT_PAIRS: LazyCounter = LazyCounter::new(
    "resolve.agreement_pairs",
    DeterminismClass::Deterministic,
    "pairs",
    "resolve",
);

/// Coverage of one technique: how many sets it produced and how many
/// addresses they span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TechniqueCoverage {
    /// The technique's name.
    pub technique: String,
    /// Inferred alias sets (two or more members).
    pub alias_sets: usize,
    /// Addresses covered by those sets.
    pub covered_addresses: usize,
    /// Addresses the technique could make claims about at all.
    pub testable_addresses: usize,
}

/// Pairwise agreement between two techniques, computed the way the paper's
/// Table 2 does: both partitions are projected onto the addresses testable
/// by *both* techniques and compared set-by-set for exact membership match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TechniqueAgreement {
    /// First technique (the one whose sets are sampled).
    pub a: String,
    /// Second technique (the one matched against).
    pub b: String,
    /// The comparison outcome.
    pub result: ValidationResult,
}

/// Coverage and cross-technique agreement statistics of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageStats {
    /// Per-technique coverage, in registration order.
    pub per_technique: Vec<TechniqueCoverage>,
    /// Number of merged (cross-technique) sets.
    pub merged_sets: usize,
    /// Addresses covered by the merged sets.
    pub merged_addresses: usize,
    /// Pairwise agreement for every technique pair, in registration order.
    pub agreements: Vec<TechniqueAgreement>,
}

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
    /// Per-technique results, in registration order.
    pub techniques: Vec<TechniqueResult>,
    /// Cross-technique merged sets (per the resolver's merge policy), in
    /// canonical order.
    pub merged: Vec<MergedSet>,
    /// Coverage and agreement statistics.
    pub coverage: CoverageStats,
}

impl ResolutionReport {
    /// Merge per-technique results and compute their coverage and agreement
    /// statistics, under the `resolve/merge` span: sets sharing an address
    /// are unioned across techniques — the paper's consolidation — in one
    /// id space built once over `base` (the campaign's interner) and shared
    /// by the merge and the agreement statistics.  `campaign` is `None`.
    pub fn from_techniques(techniques: Vec<TechniqueResult>, base: &Arc<AddrInterner>) -> Self {
        let _stage = alias_obs::span("resolve/merge");
        let unified = UnifiedSpace::build(base, &techniques);
        let inputs: Vec<(&str, &[CompactAliasSet])> = techniques
            .iter()
            .enumerate()
            .map(|(i, t)| (t.technique.as_str(), unified.sets_of(i, t)))
            .collect();
        let merged = merge_labeled_compact(&inputs, &unified.interner);
        let coverage = coverage(&unified, &techniques, &merged);
        ResolutionReport {
            campaign: None,
            techniques,
            merged,
            coverage,
        }
    }

    /// The result of one technique, by name.
    pub fn technique(&self, name: &str) -> Option<&TechniqueResult> {
        self.techniques.iter().find(|t| t.technique == name)
    }
}

/// Per-technique coverage, and the agreement of every technique pair, in
/// the unified id space.
fn coverage(
    unified: &UnifiedSpace,
    techniques: &[TechniqueResult],
    merged: &[MergedSet],
) -> CoverageStats {
    let per_technique = techniques
        .iter()
        .map(|t| TechniqueCoverage {
            technique: t.technique.clone(),
            alias_sets: t.set_count(),
            covered_addresses: t.covered_addresses(),
            testable_addresses: t.testable_count(),
        })
        .collect();
    // The pairwise agreement statistics run entirely in the unified id
    // space.  Agreement counts only compare memberships, which the
    // bijective address ↔ id relabeling preserves, so the numbers are
    // identical to the former address-set formulation.
    let span = alias_obs::span("agreement");
    let mut agreements = Vec::new();
    for i in 0..techniques.len() {
        for j in i + 1..techniques.len() {
            let (a, b) = (&techniques[i], &techniques[j]);
            let common = common_ids(unified.testable_of(i, a), unified.testable_of(j, b));
            agreements.push(TechniqueAgreement {
                a: a.technique.clone(),
                b: b.technique.clone(),
                result: cross_validate(unified.sets_of(i, a), unified.sets_of(j, b), &common),
            });
        }
    }
    AGREEMENT_PAIRS.add(agreements.len() as u64);
    drop(span);
    CoverageStats {
        per_technique,
        merged_sets: merged.len(),
        // The merged sets are a partition: no address is in two of them.
        merged_addresses: merged.iter().map(|set| set.addrs.len()).sum(),
        agreements,
    }
}

/// Every technique result brought into one id space.
///
/// Techniques normally share the campaign interner as-is; one that
/// extended it (or used a foreign interner) has its sets and testable ids
/// re-interned into the unified space — ids of campaign addresses are
/// preserved, so the common case stays translation-free (`None` entries
/// borrow straight from the result).
struct UnifiedSpace {
    interner: Arc<AddrInterner>,
    sets: Vec<Option<Vec<CompactAliasSet>>>,
    testables: Vec<Option<Vec<AddrId>>>,
}

impl UnifiedSpace {
    fn build(base: &Arc<AddrInterner>, techniques: &[TechniqueResult]) -> Self {
        let mut interner: Arc<AddrInterner> = base.clone();
        let mut sets = Vec::with_capacity(techniques.len());
        let mut testables = Vec::with_capacity(techniques.len());
        for t in techniques {
            // Campaign-interner ids stay valid in the unified space (it
            // only ever extends the base), so results that share the
            // campaign id space need no translation.
            if Arc::ptr_eq(t.interner(), base) {
                sets.push(None);
                testables.push(None);
                continue;
            }
            let target = Arc::make_mut(&mut interner);
            sets.push(Some(
                t.compact_sets()
                    .iter()
                    .map(|set| {
                        CompactAliasSet::from_ids(
                            set.iter()
                                .map(|id| target.intern(t.interner().addr(id)))
                                .collect(),
                        )
                    })
                    .collect(),
            ));
            let mut ids: Vec<AddrId> = t
                .testable_ids()
                .iter()
                .map(|&id| target.intern(t.interner().addr(id)))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            testables.push(Some(ids));
        }
        UnifiedSpace {
            interner,
            sets,
            testables,
        }
    }

    /// Technique `i`'s sets in the unified space.
    fn sets_of<'a>(&'a self, i: usize, t: &'a TechniqueResult) -> &'a [CompactAliasSet] {
        self.sets[i].as_deref().unwrap_or_else(|| t.compact_sets())
    }

    /// Technique `i`'s sorted distinct testable ids in the unified space.
    fn testable_of<'a>(&'a self, i: usize, t: &'a TechniqueResult) -> &'a [AddrId] {
        self.testables[i]
            .as_deref()
            .unwrap_or_else(|| t.testable_ids())
    }
}
