//! The common-source-address technique (iffinder).
//!
//! The oldest alias-resolution trick: send a UDP datagram to a closed port;
//! if the ICMP port-unreachable error comes back from a *different* address
//! than the one probed, the two addresses belong to the same device.  Most
//! modern routers answer from the probed address (or not at all), which is
//! why the technique is described as impractical in the paper's
//! introduction — the simulator reproduces that, and this implementation
//! exists mainly as the historical baseline.

use alias_core::union_find::UnionFind;
use alias_netsim::{Internet, ProbeContext, SimTime, VantageKind};
use std::collections::{BTreeSet, HashMap};
use std::net::IpAddr;

/// Result of an iffinder run.
#[derive(Debug, Clone, Default)]
pub struct IffinderOutcome {
    /// Alias pairs discovered (probed address, responding address).
    pub pairs: Vec<(IpAddr, IpAddr)>,
    /// Targets that returned no ICMP error at all.
    pub silent: usize,
    /// Alias sets formed by merging the discovered pairs.
    // id-space: ICMP error sources are addresses the campaign never interned — there is no id to hold
    pub alias_sets: Vec<BTreeSet<IpAddr>>,
}

/// Probe every target with a UDP datagram to a closed port and collect
/// common-source-address evidence.
pub fn iffinder_scan(
    internet: &Internet,
    targets: &[IpAddr],
    vantage: VantageKind,
    start: SimTime,
) -> IffinderOutcome {
    let mut outcome = IffinderOutcome::default();
    let mut now = start;
    for &addr in targets {
        now += SimTime(1);
        let ctx = ProbeContext { vantage, time: now };
        match internet.udp_closed_port_probe(addr, &ctx) {
            Some(source) if source != addr => outcome.pairs.push((addr, source)),
            Some(_) => {}
            None => outcome.silent += 1,
        }
    }
    // Merge pairs into sets: number each address in first-seen order,
    // `addrs[i]` being the address numbered `i`.
    // id-space: ICMP error sources are addresses the campaign never interned — this map is what numbers them
    let mut index: HashMap<IpAddr, usize> = HashMap::new();
    let mut addrs: Vec<IpAddr> = Vec::new();
    for (a, b) in &outcome.pairs {
        for &addr in [a, b] {
            index.entry(addr).or_insert_with(|| {
                addrs.push(addr);
                addrs.len() - 1
            });
        }
    }
    let mut uf = UnionFind::new(addrs.len());
    for (a, b) in &outcome.pairs {
        uf.union(index[a], index[b]);
    }
    outcome.alias_sets = uf
        .groups()
        .into_iter()
        .filter(|g| g.len() >= 2)
        .map(|g| g.into_iter().map(|i| addrs[i]).collect())
        .collect();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::{InternetBuilder, InternetConfig};

    #[test]
    fn discovered_pairs_are_true_aliases() {
        let internet = InternetBuilder::new(InternetConfig::tiny(3030)).build();
        let truth = internet.ground_truth();
        let targets: Vec<IpAddr> = internet
            .devices()
            .iter()
            .filter(|d| d.ipv4_addrs().len() >= 2)
            .flat_map(|d| d.ipv4_addrs().into_iter().map(IpAddr::V4))
            .collect();
        let outcome = iffinder_scan(&internet, &targets, VantageKind::Distributed, SimTime::ZERO);
        for (a, b) in &outcome.pairs {
            assert!(truth.are_aliases(*a, *b));
        }
        for set in &outcome.alias_sets {
            assert!(set.len() >= 2);
        }
    }

    #[test]
    fn coverage_is_limited_by_router_behaviour() {
        // Only devices configured with a fixed ICMP error source yield alias
        // evidence; the rest answer from the probed address or stay silent.
        let internet = InternetBuilder::new(InternetConfig::tiny(3030)).build();
        let targets: Vec<IpAddr> = internet
            .devices()
            .iter()
            .flat_map(|d| d.ipv4_addrs().into_iter().map(IpAddr::V4))
            .collect();
        let outcome = iffinder_scan(&internet, &targets, VantageKind::Distributed, SimTime::ZERO);
        assert!(outcome.pairs.len() < targets.len() / 2);
        assert!(outcome.silent > 0);
    }
}
