//! Dual-stack inference: pairing IPv4 and IPv6 addresses of the same device.
//!
//! A dual-stack set is any identifier observed on at least one IPv4 *and* at
//! least one IPv6 address.  Unlike alias sets, a dual-stack set does not need
//! two addresses of the same family — a single IPv4 paired with a single
//! IPv6 address (by far the most common case, 88% in the paper) already
//! counts.

use crate::alias_set::FamilyGrouping;
use crate::intern::{AddrId, AddrInterner, CompactAliasSet};
use serde::{Deserialize, Serialize};

/// One dual-stack set, in the id space of the grouping it came from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DualStackSet {
    /// IPv4 members, sorted and distinct.
    pub ipv4: Vec<AddrId>,
    /// IPv6 members, sorted and distinct.
    pub ipv6: Vec<AddrId>,
}

impl DualStackSet {
    /// Total number of member addresses.
    pub fn len(&self) -> usize {
        self.ipv4.len() + self.ipv6.len()
    }

    /// Whether the set is empty (never the case for constructed sets).
    pub fn is_empty(&self) -> bool {
        self.ipv4.is_empty() && self.ipv6.is_empty()
    }

    /// Whether the set is the minimal one-IPv4 / one-IPv6 pairing.
    pub fn is_simple_pair(&self) -> bool {
        self.ipv4.len() == 1 && self.ipv6.len() == 1
    }
}

/// All dual-stack sets of a grouping, plus the counters the paper reports
/// in Table 4.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DualStackReport {
    /// The dual-stack sets, largest first.
    pub sets: Vec<DualStackSet>,
}

impl DualStackReport {
    /// Split a grouping's dual-stack sets by family (`interner` is the
    /// grouped store's).
    pub fn from_grouping(grouping: &FamilyGrouping, interner: &AddrInterner) -> Self {
        let sets = grouping
            .dual_stack_sets()
            .iter()
            .map(|set| {
                let (ipv6, ipv4) = set.iter().partition(|&id| interner.addr(id).is_ipv6());
                DualStackSet { ipv4, ipv6 }
            })
            .collect();
        DualStackReport { sets }
    }

    /// Number of dual-stack sets.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Distinct IPv4 addresses covered.
    pub fn ipv4_addresses(&self) -> usize {
        distinct(self.sets.iter().flat_map(|s| &s.ipv4))
    }

    /// Distinct IPv6 addresses covered.
    pub fn ipv6_addresses(&self) -> usize {
        distinct(self.sets.iter().flat_map(|s| &s.ipv6))
    }

    /// Fraction of sets that are a single IPv4 + single IPv6 pair.
    pub fn simple_pair_fraction(&self) -> f64 {
        if self.sets.is_empty() {
            return 0.0;
        }
        self.sets.iter().filter(|s| s.is_simple_pair()).count() as f64 / self.sets.len() as f64
    }

    /// Fraction of sets with a total of 2–10 addresses that are not simple
    /// pairs, and fraction with more than 10 addresses (the three-way split
    /// the paper reports).
    pub fn size_split(&self) -> (f64, f64, f64) {
        if self.sets.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let total = self.sets.len() as f64;
        let simple = self.sets.iter().filter(|s| s.is_simple_pair()).count() as f64;
        let medium = self
            .sets
            .iter()
            .filter(|s| !s.is_simple_pair() && s.len() <= 10)
            .count() as f64;
        let large = self.sets.iter().filter(|s| s.len() > 10).count() as f64;
        (simple / total, medium / total, large / total)
    }
}

/// Number of distinct ids among `ids`.
fn distinct<'a>(ids: impl Iterator<Item = &'a AddrId>) -> usize {
    CompactAliasSet::from_ids(ids.copied().collect()).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alias_set::group_view_by_source;
    use crate::extract::{ExtractionConfig, IdentifierExtractor};
    use alias_netsim::SimTime;
    use alias_scan::{DataSource, ObservationStore, ServiceObservation, ServicePayload};
    use alias_wire::ssh::{Banner, HostKey, HostKeyAlgorithm, KexInit, SshObservation};

    fn ssh_obs(addr: &str, key_byte: u8) -> ServiceObservation {
        ServiceObservation {
            addr: addr.parse().unwrap(),
            port: 22,
            source: DataSource::Active,
            timestamp: SimTime::ZERO,
            asn: Some(1),
            payload: ServicePayload::Ssh(SshObservation {
                banner: Banner::new("OpenSSH_8.9p1", None).unwrap(),
                kex_init: Some(KexInit::typical_openssh()),
                host_key: Some(HostKey::new(HostKeyAlgorithm::Ed25519, vec![key_byte; 32])),
            }),
        }
    }

    fn report(observations: &[ServiceObservation]) -> DualStackReport {
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        let store = ObservationStore::from_observations(observations.to_vec());
        let grouping = group_view_by_source(&store.select(None, None), &extractor)
            .project(None, store.interner());
        DualStackReport::from_grouping(&grouping, store.interner())
    }

    #[test]
    fn single_pair_is_a_dual_stack_set() {
        let report = report(&[ssh_obs("10.0.0.1", 1), ssh_obs("2001:db8::1", 1)]);
        assert_eq!(report.set_count(), 1);
        assert_eq!(report.ipv4_addresses(), 1);
        assert_eq!(report.ipv6_addresses(), 1);
        assert!(report.sets[0].is_simple_pair());
        assert_eq!(report.simple_pair_fraction(), 1.0);
        assert_eq!(report.sets[0].len(), 2);
        assert!(!report.sets[0].is_empty());
    }

    #[test]
    fn v4_only_and_v6_only_devices_are_excluded() {
        let report = report(&[
            ssh_obs("10.0.0.1", 1),
            ssh_obs("10.0.0.2", 1),
            ssh_obs("2001:db8::7", 2),
        ]);
        assert_eq!(report.set_count(), 0);
        assert_eq!(report.simple_pair_fraction(), 0.0);
    }

    #[test]
    fn size_split_accounts_for_every_set() {
        let mut obs = vec![
            // Simple pair.
            ssh_obs("10.0.1.1", 1),
            ssh_obs("2001:db8:1::1", 1),
            // Medium set: 3 v4 + 2 v6.
            ssh_obs("10.0.2.1", 2),
            ssh_obs("10.0.2.2", 2),
            ssh_obs("10.0.2.3", 2),
            ssh_obs("2001:db8:2::1", 2),
            ssh_obs("2001:db8:2::2", 2),
        ];
        // Large set: 8 v4 + 4 v6 = 12 addresses.
        for i in 0..8 {
            obs.push(ssh_obs(&format!("10.0.3.{}", i + 1), 3));
        }
        for i in 0..4 {
            obs.push(ssh_obs(&format!("2001:db8:3::{}", i + 1), 3));
        }
        let report = report(&obs);
        assert_eq!(report.set_count(), 3);
        let (simple, medium, large) = report.size_split();
        assert!((simple + medium + large - 1.0).abs() < 1e-9);
        assert!((simple - 1.0 / 3.0).abs() < 1e-9);
        assert!((medium - 1.0 / 3.0).abs() < 1e-9);
        assert!((large - 1.0 / 3.0).abs() < 1e-9);
        // The largest set is sorted first.
        assert_eq!(report.sets[0].len(), 12);
    }

    #[test]
    fn empty_input_is_harmless() {
        let report = report(&[]);
        assert_eq!(report.set_count(), 0);
        assert_eq!(report.size_split(), (0.0, 0.0, 0.0));
    }
}
