//! The common-source-address technique (iffinder).
//!
//! The oldest alias-resolution trick: send a UDP datagram to a closed port;
//! if the ICMP port-unreachable error comes back from a *different* address
//! than the one probed, the two addresses belong to the same device.  Most
//! modern routers answer from the probed address (or not at all), which is
//! why the technique is described as impractical in the paper's
//! introduction — the simulator reproduces that, and this implementation
//! exists mainly as the historical baseline.

use alias_netsim::{Internet, ProbeContext, Route, SimTime, VantageKind};
use std::net::IpAddr;

/// Result of an iffinder run.
#[derive(Debug, Clone, Default)]
pub struct IffinderOutcome {
    /// Alias pairs discovered: the probed target's position in the target
    /// list and the address the ICMP error came from.
    pub pairs: Vec<(usize, IpAddr)>,
    /// Targets that returned no ICMP error at all.
    pub(crate) silent: usize,
}

/// Probe every target with a UDP datagram to a closed port and collect
/// common-source-address evidence.  Each target comes with the route the
/// caller resolved once ([`Internet::route`]); an unrouted one never
/// answers.  Merging the pairs into sets is the
/// caller's: an error source may be an address the caller never numbered.
pub fn iffinder_scan(
    internet: &Internet,
    targets: impl IntoIterator<Item = (IpAddr, Option<Route>)>,
    vantage: VantageKind,
    start: SimTime,
) -> IffinderOutcome {
    let mut outcome = IffinderOutcome::default();
    let mut now = start;
    for (i, (addr, target)) in targets.into_iter().enumerate() {
        now += SimTime(1);
        let ctx = ProbeContext { vantage, time: now };
        let source = target.and_then(|route| internet.udp_closed_port_probe_at(route, &ctx));
        match source {
            Some(source) if source != addr => outcome.pairs.push((i, source)),
            Some(_) => {}
            None => outcome.silent += 1,
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::{InternetBuilder, InternetConfig};

    /// `addrs`, each with its interface.
    fn resolved<'a>(
        internet: &'a Internet,
        addrs: &'a [IpAddr],
    ) -> impl Iterator<Item = (IpAddr, Option<Route>)> + 'a {
        addrs.iter().map(|&addr| (addr, internet.route(addr)))
    }

    #[test]
    fn discovered_pairs_are_true_aliases() {
        let internet = InternetBuilder::new(InternetConfig::tiny(3030)).build();
        let truth = internet.ground_truth();
        let targets: Vec<IpAddr> = internet
            .devices()
            .filter(|d| d.ipv4_addrs().len() >= 2)
            .flat_map(|d| d.ipv4_addrs().into_iter().map(IpAddr::V4))
            .collect();
        let outcome = iffinder_scan(
            &internet,
            resolved(&internet, &targets),
            VantageKind::Distributed,
            SimTime::ZERO,
        );
        for &(i, source) in &outcome.pairs {
            let probed = targets[i];
            assert_ne!(probed, source);
            assert!(truth.device_of(probed).is_some());
            assert_eq!(truth.device_of(probed), truth.device_of(source));
        }
    }

    #[test]
    fn coverage_is_limited_by_router_behaviour() {
        // Only devices configured with a fixed ICMP error source yield alias
        // evidence; the rest answer from the probed address or stay silent.
        let internet = InternetBuilder::new(InternetConfig::tiny(3030)).build();
        let targets: Vec<IpAddr> = internet
            .devices()
            .flat_map(|d| d.ipv4_addrs().into_iter().map(IpAddr::V4))
            .collect();
        let outcome = iffinder_scan(
            &internet,
            resolved(&internet, &targets),
            VantageKind::Distributed,
            SimTime::ZERO,
        );
        assert!(outcome.pairs.len() < targets.len() / 2);
        assert!(outcome.silent > 0);
    }
}
