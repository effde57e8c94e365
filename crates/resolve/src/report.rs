//! The structured output of a [`Resolver`](crate::Resolver) run.

use crate::technique::TechniqueResult;
use alias_core::merge::MergedSet;
use alias_core::validation::ValidationResult;
use alias_scan::CampaignData;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Wall-clock cost of one technique's `resolve()` call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TechniqueTiming {
    /// The technique's name.
    pub technique: String,
    /// Wall-clock milliseconds spent in `resolve()`.
    pub resolve_ms: u64,
}

/// Coverage of one technique: how many sets it produced and how many
/// addresses they span.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TechniqueAgreement {
    /// First technique (the one whose sets are sampled).
    pub a: String,
    /// Second technique (the one matched against).
    pub b: String,
    /// The comparison outcome.
    pub result: ValidationResult,
}

/// Coverage and cross-technique agreement statistics of one run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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
    /// ([`Resolver::resolve_data`](crate::Resolver::resolve_data)).
    pub campaign: Option<CampaignData>,
    /// Per-technique results, in registration order.
    pub techniques: Vec<TechniqueResult>,
    /// Cross-technique merged sets (per the resolver's merge policy), in
    /// canonical order.
    pub merged: Vec<MergedSet>,
    /// Coverage and agreement statistics.
    pub coverage: CoverageStats,
    /// Wall-clock of each technique's `resolve()` call, in registration
    /// order — the duration of its `resolve/technique/<name>` span.  The
    /// campaign and merge stages are timed by the `resolve/campaign` and
    /// `resolve/merge` spans in the `alias-obs` registry only.
    pub technique_timings: Vec<TechniqueTiming>,
}

/// Distinct addresses covered by a slice of merged sets — shared by the
/// report accessor and the resolver's coverage computation so the two can
/// never diverge.
pub(crate) fn distinct_addresses(merged: &[MergedSet]) -> usize {
    merged
        .iter()
        .flat_map(|m| m.addrs.iter())
        .collect::<BTreeSet<_>>()
        .len()
}

impl ResolutionReport {
    /// The result of one technique, by name.
    pub fn technique(&self, name: &str) -> Option<&TechniqueResult> {
        self.techniques.iter().find(|t| t.technique == name)
    }

    /// Distinct addresses covered by the merged sets.
    pub fn merged_addresses(&self) -> usize {
        distinct_addresses(&self.merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_types_round_trip_through_json() {
        let timing = TechniqueTiming {
            technique: "ssh".into(),
            resolve_ms: 12,
        };
        let json = serde_json::to_string(&timing).unwrap();
        let parsed: TechniqueTiming = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.technique, "ssh");
        assert_eq!(parsed.resolve_ms, 12);
    }
}
