//! The common-source-address technique (iffinder).
//!
//! The oldest alias-resolution trick: send a UDP datagram to a closed port;
//! if the ICMP port-unreachable error comes back from a *different* address
//! than the one probed, the two addresses belong to the same device.  Most
//! modern routers answer from the probed address (or not at all), which is
//! why the technique is described as impractical in the paper's
//! introduction — the simulator reproduces that, and this implementation
//! exists mainly as the historical baseline.

use crate::baselines::FamilyTargets;
use crate::technique::{ResolutionTechnique, TechniqueCtx, TechniqueResult};
use alias_core::union_find::UnionFind;
use alias_intern::{AddrId, CompactAliasSet};
use alias_netsim::{ProbeContext, SimTime};
use alias_scan::CampaignData;
use std::sync::Arc;

/// Simulated time between two targets' datagrams.
const PROBE_SPACING: SimTime = SimTime(1);

/// The iffinder baseline: UDP datagrams to a closed port on every
/// responsive IPv4 address, aliasing addresses whose ICMP error comes back
/// from a different source.
#[derive(Debug, Clone, Copy, Default)]
pub struct IffinderTechnique;

impl ResolutionTechnique for IffinderTechnique {
    fn name(&self) -> &'static str {
        "iffinder"
    }

    fn resolve(&self, data: &CampaignData, ctx: &TechniqueCtx<'_>) -> TechniqueResult {
        let FamilyTargets { ids, routes } = ctx.targets.ipv4();
        let mut interner = data.interner().clone();
        // ICMP errors can come from interfaces the campaign never observed:
        // the first such source copies the campaign interner, and every one
        // is interned into that copy (campaign ids keep their values).  An
        // unrouted target never answers.
        let mut pairs: Vec<(AddrId, AddrId)> = Vec::new();
        let mut now = ctx.probe_start;
        for (&id, route) in ids.iter().zip(routes) {
            now += PROBE_SPACING;
            let probe = ProbeContext {
                vantage: ctx.vantage,
                time: now,
            };
            let source =
                route.and_then(|route| ctx.internet.udp_closed_port_probe_at(route, &probe));
            let Some(source) = source.filter(|&source| source != interner.addr(id)) else {
                continue;
            };
            let source = match interner.get(source) {
                Some(source) => source,
                None => Arc::make_mut(&mut interner).intern(source),
            };
            pairs.push((id, source));
        }
        let mut uf = UnionFind::new(interner.len());
        for &(a, b) in &pairs {
            uf.union(a.index(), b.index());
        }
        let sets = (uf.groups().into_iter())
            .map(|group| group.into_iter().map(|id| AddrId(id as u32)).collect())
            .map(CompactAliasSet::from_ids)
            .collect();
        // Positive alias evidence is the only per-address signal the scan
        // reports, so "testable" is the addresses involved in a discovered
        // pair.
        let testable = pairs.into_iter().flat_map(|(a, b)| [a, b]).collect();
        TechniqueResult::from_compact(self.name().to_owned(), sets, testable, now, interner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::tests::setup;
    use crate::ProbeTargets;
    use alias_netsim::VantageKind;

    #[test]
    fn discovered_pairs_are_true_aliases() {
        let (internet, data) = setup(3030);
        let targets = ProbeTargets::new(&data, &internet);
        let ctx = TechniqueCtx {
            internet: &internet,
            probe_start: data.finished_at,
            vantage: VantageKind::Distributed,
            targets: &targets,
        };
        let result = IffinderTechnique.resolve(&data, &ctx);
        assert!(result.set_count() > 0);
        let truth = internet.ground_truth();
        for set in result.alias_sets() {
            let first = set.first().expect("a set has members");
            assert!(truth.device_of(*first).is_some());
            assert!(set
                .iter()
                .all(|addr| truth.device_of(*addr) == truth.device_of(*first)));
        }
    }

    #[test]
    fn coverage_is_limited_by_router_behaviour() {
        // Only devices configured with a fixed ICMP error source yield alias
        // evidence; the rest answer from the probed address or stay silent.
        let (internet, data) = setup(3030);
        let targets = ProbeTargets::new(&data, &internet);
        let ctx = TechniqueCtx {
            internet: &internet,
            probe_start: data.finished_at,
            vantage: VantageKind::Distributed,
            targets: &targets,
        };
        let result = IffinderTechnique.resolve(&data, &ctx);
        let ipv4 = targets.ipv4();
        assert!(result.testable_count() < ipv4.ids.len() / 2);
        // One millisecond a target, from the probe start.
        assert_eq!(
            result.finished_at,
            data.finished_at + SimTime(ipv4.ids.len() as u64)
        );
        let probe = ProbeContext {
            vantage: VantageKind::Distributed,
            time: data.finished_at,
        };
        let silent = (ipv4.routes.iter())
            .filter(|route| {
                route
                    .and_then(|r| internet.udp_closed_port_probe_at(r, &probe))
                    .is_none()
            })
            .count();
        assert!(silent > 0);
    }
}
