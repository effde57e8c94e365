//! What the classic baselines share.  MIDAR, Ally, Speedtrap and iffinder
//! (modules `midar`, `ally` and `iffinder`) are techniques behind
//! [`ResolutionTechnique`](crate::ResolutionTechnique), interchangeable
//! with the identifier techniques.
//!
//! All four perform **live follow-up probing** against the measurement
//! substrate, starting at `ctx.probe_start` with targets drawn from the campaign's responsive
//! addresses — one address-sorted list per family, shared by all four
//! through [`ProbeTargets`], so a technique works on positions in that
//! list and hands back ids by one array read.  Probing advances shared
//! per-device counter state, so the [`Resolver`](crate::Resolver) runs
//! them one at a time in registration order, and each technique holds the
//! substrate's one [`ProbeSession`](alias_netsim::ProbeSession) for its
//! whole sweep.

use alias_intern::{AddrId, CompactAliasSet};
use alias_netsim::{Internet, Route};
use alias_obs::{DeterminismClass, LazyCounter};
use alias_scan::CampaignData;
use std::net::IpAddr;
use std::sync::OnceLock;

/// A deterministic counter of the resolve stage.
pub(crate) const fn resolve_counter(name: &'static str, unit: &'static str) -> LazyCounter {
    LazyCounter::new(name, DeterminismClass::Deterministic, unit, "resolve")
}

/// The campaign's addresses of one family as probe targets: two parallel
/// arrays, to which a baseline adds its own (a series or a testable flag
/// per target).
#[derive(Debug)]
pub struct FamilyTargets {
    /// The campaign ids of the family's addresses, in address order.
    pub ids: Vec<AddrId>,
    /// Each target's route, read off the IP index once.
    pub(crate) routes: Vec<Option<Route>>,
}

/// The target lists the probing baselines work from: the campaign's
/// distinct addresses per family, sorted by address, as ids with their
/// routes.  One instance serves a whole
/// [`Resolver::resolve_data`](crate::Resolver::resolve_data); each family
/// is collected, sorted and looked up the first time a technique asks for
/// it, so a run with no probing baseline never pays for it and a run with
/// four pays once.
pub struct ProbeTargets<'a> {
    data: &'a CampaignData,
    internet: &'a Internet,
    ipv4: OnceLock<FamilyTargets>,
    ipv6: OnceLock<FamilyTargets>,
}

impl<'a> ProbeTargets<'a> {
    /// Target lists over `data`'s addresses, routed through `internet`.
    pub fn new(data: &'a CampaignData, internet: &'a Internet) -> Self {
        ProbeTargets {
            data,
            internet,
            ipv4: OnceLock::new(),
            ipv6: OnceLock::new(),
        }
    }

    /// The campaign's IPv4 addresses.
    pub fn ipv4(&self) -> &FamilyTargets {
        self.ipv4.get_or_init(|| self.family(false))
    }

    /// The campaign's IPv6 addresses.
    pub(crate) fn ipv6(&self) -> &FamilyTargets {
        self.ipv6.get_or_init(|| self.family(true))
    }

    /// The campaign interner already holds every observed address exactly
    /// once, so this is a filter + sort of the id table rather than a scan
    /// over all observations.  Within a family, address order is the order
    /// of the addresses' bits, which sorts as plain integers.
    fn family(&self, ipv6: bool) -> FamilyTargets {
        let _span = alias_obs::span("targets");
        let interner = self.data.interner();
        let addrs = interner.addrs().iter().zip(0u32..);
        let ids = if ipv6 {
            sorted_ids(
                addrs.filter_map(|(addr, id)| match *addr {
                    IpAddr::V6(v6) => Some((u128::from(v6), id)),
                    IpAddr::V4(_) => None,
                }),
                |(_, id)| id,
            )
        } else {
            // An IPv4 address and its id pack into one `u64` key, which
            // sorts in address order.
            sorted_ids(
                addrs.filter_map(|(addr, id)| match *addr {
                    IpAddr::V4(v4) => Some(u64::from(u32::from(v4)) << 32 | u64::from(id)),
                    IpAddr::V6(_) => None,
                }),
                |key| key as u32,
            )
        };
        FamilyTargets {
            routes: (ids.iter())
                .map(|&id| self.internet.route(interner.addr(id)))
                .collect(),
            ids,
        }
    }
}

/// The ids of `keys`, each read off its key by `id`, in key order.
fn sorted_ids<K: Ord>(keys: impl Iterator<Item = K>, id: impl Fn(K) -> u32) -> Vec<AddrId> {
    let mut keys: Vec<K> = keys.collect();
    keys.sort_unstable();
    keys.into_iter().map(|key| AddrId(id(key))).collect()
}

/// Index groups over `ids` (a baseline's alias sets, by target position)
/// as id-space sets.
pub(crate) fn compact_sets(groups: &[Vec<usize>], ids: &[AddrId]) -> Vec<CompactAliasSet> {
    groups
        .iter()
        .map(|group| CompactAliasSet::from_ids(group.iter().map(|&i| ids[i]).collect()))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{
        AllyTechnique, IffinderTechnique, MidarTechnique, ResolutionTechnique, SpeedtrapTechnique,
        TechniqueCtx,
    };
    use alias_netsim::{InternetBuilder, InternetConfig, VantageKind};
    use alias_scan::campaign::{ActiveCampaign, CampaignConfig};

    /// A tiny world and its active campaign.
    pub(crate) fn setup(seed: u64) -> (alias_netsim::Internet, CampaignData) {
        let internet = InternetBuilder::new(InternetConfig::tiny(seed)).build();
        let data = ActiveCampaign::new(CampaignConfig {
            hitlist_coverage: internet.config().visibility.hitlist_coverage,
            ..Default::default()
        })
        .run(&internet);
        (internet, data)
    }

    #[test]
    fn probe_targets_are_the_campaign_addresses_in_address_order() {
        // What every baseline derived for itself before the list was
        // shared: the distinct observed addresses of one family, sorted.
        let (internet, data) = setup(77);
        let targets = ProbeTargets::new(&data, &internet);
        for (family, ipv6) in [(targets.ipv4(), false), (targets.ipv6(), true)] {
            let mut observed: Vec<IpAddr> = (data.store().to_observations())
                .iter()
                .map(|o| o.addr)
                .filter(|a| a.is_ipv6() == ipv6)
                .collect();
            observed.sort_unstable();
            observed.dedup();
            assert!(observed.len() > 1, "ipv6={ipv6}");
            let addrs: Vec<IpAddr> = (family.ids.iter())
                .map(|&id| data.interner().addr(id))
                .collect();
            assert_eq!(addrs, observed);
            // Every route leads back to its own address.
            let routed = family
                .routes
                .iter()
                .map(|route| route.map(|r| internet.addr_at(r)));
            assert!(routed.eq(addrs.iter().copied().map(Some)));
        }
    }

    #[test]
    fn probing_baselines_only_claim_true_aliases() {
        let (internet, data) = setup(77);
        let targets = ProbeTargets::new(&data, &internet);
        let ctx = TechniqueCtx {
            internet: &internet,
            probe_start: data.finished_at,
            vantage: VantageKind::SingleVp,
            targets: &targets,
        };
        let techniques: Vec<Box<dyn ResolutionTechnique>> = vec![
            Box::new(MidarTechnique),
            Box::new(AllyTechnique),
            Box::new(SpeedtrapTechnique),
            Box::new(IffinderTechnique),
        ];
        for technique in &techniques {
            let result = technique.resolve(&data, &ctx);
            assert_eq!(result.technique, technique.name());
            let addrs = result.interner().addrs();
            let sets = result.compact_sets().iter();
            let precision = internet
                .ground_truth()
                .score_sets(sets.map(|set| set.ids().iter().map(|id| &addrs[id.index()])))
                .precision();
            assert!(
                precision > 0.95,
                "{}: precision {:.3} over {} sets",
                technique.name(),
                precision,
                result.set_count()
            );
        }
    }

    #[test]
    fn midar_and_speedtrap_counters_add_up_to_the_summed_ones() {
        // A thread of its own: a fresh registry that only these two runs
        // (and the campaign before them) write.
        let counts = std::thread::spawn(|| {
            let (internet, data) = setup(79);
            let targets = ProbeTargets::new(&data, &internet);
            let ctx = TechniqueCtx {
                internet: &internet,
                probe_start: data.finished_at,
                vantage: VantageKind::SingleVp,
                targets: &targets,
            };
            let before = alias_obs::registry().snapshot();
            MidarTechnique.resolve(&data, &ctx);
            SpeedtrapTechnique.resolve(&data, &ctx);
            let after = alias_obs::registry().snapshot();
            let read = |snapshot: &alias_obs::MetricsSnapshot, name: &str| {
                (snapshot.counters.iter())
                    .find(|c| c.name == name)
                    .map_or(0, |c| c.value)
            };
            move |name: &str| read(&after, name) - read(&before, name)
        })
        .join()
        .expect("the runs finish");
        for (sum, share) in [
            ("midar.mbt_tests", "mbt_tests"),
            ("midar.candidates", "candidates"),
            ("scan.ipid_probes", "ipid_probes"),
            ("scan.ipid_pair_stops", "ipid_pair_stops"),
        ] {
            let (midar, speedtrap) = (
                counts(&format!("resolve.midar_{share}")),
                counts(&format!("resolve.speedtrap_{share}")),
            );
            assert_eq!(counts(sum), midar + speedtrap, "{sum}");
        }
        // Both runs tested and probed something (the tiny world stops no
        // pair early).
        for share in ["mbt_tests", "ipid_probes"] {
            assert!(counts(&format!("resolve.midar_{share}")) > 0, "{share}");
            assert!(counts(&format!("resolve.speedtrap_{share}")) > 0, "{share}");
        }
    }

    #[test]
    fn speedtrap_groups_ipv6_counters() {
        let (internet, data) = setup(78);
        let targets = ProbeTargets::new(&data, &internet);
        let ctx = TechniqueCtx {
            internet: &internet,
            probe_start: data.finished_at,
            vantage: VantageKind::SingleVp,
            targets: &targets,
        };
        let result = SpeedtrapTechnique.resolve(&data, &ctx);
        // Every address it reasons about is IPv6.
        assert!(result.testable().iter().all(|a| a.is_ipv6()));
        assert!(result.alias_sets().iter().flatten().all(|a| a.is_ipv6()));
        assert!(
            result.testable_count() > 0,
            "the tiny campaign observes IPv6 addresses with usable counters"
        );
    }
}
