//! IPv6 hitlists.
//!
//! The IPv6 address space cannot be swept, so the paper relies on a public
//! IPv6 hitlist (Gasser et al.) to know which addresses are worth probing.
//! The hitlist is inherently incomplete and biased, which caps the IPv6 and
//! dual-stack numbers — an effect the paper discusses.  Here the hitlist is
//! a seeded sample of the simulator's truly-active IPv6 service addresses,
//! optionally diluted with unresponsive addresses (hitlists contain plenty
//! of those, too).

use alias_netsim::Internet;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::net::Ipv6Addr;

/// A list of candidate IPv6 addresses to probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv6Hitlist {
    /// Candidate addresses, deduplicated, in hitlist order.
    pub(crate) addrs: Vec<Ipv6Addr>,
}

impl Ipv6Hitlist {
    /// Build a hitlist covering roughly `coverage` of the truly active IPv6
    /// service addresses, plus `stale_fraction` of additional unresponsive
    /// addresses (relative to the active count).
    pub fn generate(internet: &Internet, coverage: f64, stale_fraction: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&coverage),
            "coverage must be a probability"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6c15_7135);
        let active = internet.active_ipv6_service_addrs();
        let mut addrs: Vec<Ipv6Addr> = active
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(coverage))
            .collect();

        // Stale / unresponsive entries: addresses inside announced prefixes
        // that no device currently holds.
        let stale_target = (active.len() as f64 * stale_fraction) as usize;
        let prefixes: Vec<_> = internet.ases().iter().map(|a| a.ipv6_prefix).collect();
        let mut added = 0;
        while added < stale_target && !prefixes.is_empty() {
            let prefix = prefixes[rng.gen_range(0..prefixes.len())];
            let offset: u64 = rng.gen_range(1_000_000..u32::MAX as u64);
            let addr = Ipv6Addr::from(u128::from(prefix.base) + offset as u128);
            if internet.route(std::net::IpAddr::V6(addr)).is_none() {
                addrs.push(addr);
                added += 1;
            }
        }
        addrs.sort();
        addrs.dedup();
        addrs.shuffle(&mut rng);
        Ipv6Hitlist { addrs }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the hitlist is empty.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::{InternetBuilder, InternetConfig};
    use std::collections::HashSet;

    fn internet() -> Internet {
        InternetBuilder::new(InternetConfig::tiny(31)).build()
    }

    #[test]
    fn coverage_controls_active_overlap() {
        let internet = internet();
        let expected_active: HashSet<Ipv6Addr> =
            internet.active_ipv6_service_addrs().into_iter().collect();
        assert!(!expected_active.is_empty());

        let full = Ipv6Hitlist::generate(&internet, 1.0, 0.0, 9);
        let full_set: HashSet<Ipv6Addr> = full.addrs.iter().copied().collect();
        assert_eq!(full_set, expected_active);

        let none = Ipv6Hitlist::generate(&internet, 0.0, 0.0, 9);
        assert!(none.is_empty());

        let half = Ipv6Hitlist::generate(&internet, 0.5, 0.0, 9);
        assert!(half.len() < full.len());
    }

    #[test]
    fn stale_entries_are_not_active_addresses() {
        let internet = internet();
        let expected_active: HashSet<Ipv6Addr> =
            internet.active_ipv6_service_addrs().into_iter().collect();
        let with_stale = Ipv6Hitlist::generate(&internet, 1.0, 0.5, 4);
        assert!(with_stale.len() > expected_active.len());
        let stale_count = with_stale
            .addrs
            .iter()
            .filter(|a| !expected_active.contains(a))
            .count();
        assert!(stale_count > 0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let internet = internet();
        let a = Ipv6Hitlist::generate(&internet, 0.7, 0.2, 5);
        let b = Ipv6Hitlist::generate(&internet, 0.7, 0.2, 5);
        assert_eq!(a, b);
        let c = Ipv6Hitlist::generate(&internet, 0.7, 0.2, 6);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "coverage must be a probability")]
    fn bad_coverage_is_rejected() {
        let internet = internet();
        let _ = Ipv6Hitlist::generate(&internet, 1.5, 0.0, 1);
    }
}
