//! The flattened routed IPv4 address space, and who lives where in it.
//!
//! Internet-wide sweeps (ZMap's SYN scan, the SNMPv3 discovery scan, the
//! rate-probe ping sweep) all iterate the same object: the concatenation of
//! every routed IPv4 prefix, treated as one index space `[0, len)`.
//! [`RoutedSpace`] maps indices to addresses and back, and is also the IPv4
//! half of the simulator's IP index: a dense slot table says, for every
//! index, which device interface holds that address, if any.  A sweep walks
//! *indices* and asks [`RoutedSpace::owner_at`] — one table read, no hashing
//! — and turns an index into an address only for the minority that exist.
//! Addresses are never materialised as a list: at the larger scale tiers the
//! space runs to tens of millions of them.

use crate::device::Device;
use crate::ids::DeviceId;
use crate::topology::Ipv4Prefix;
use std::net::{IpAddr, Ipv4Addr};

/// Slot value of an address no interface holds.
const VACANT: u32 = u32::MAX;

/// The routed IPv4 prefixes of an [`Internet`](crate::Internet), flattened
/// into a single index space, with the interface that owns each address.
#[derive(Debug, Clone)]
pub struct RoutedSpace {
    /// Disjoint, in ascending address order — so the index order is the
    /// address order and one binary search serves both directions.
    prefixes: Vec<Ipv4Prefix>,
    /// `offsets[i]` is the index of `prefixes[i]`'s first address.
    offsets: Vec<u64>,
    total: u64,
    /// Per routed address: its entry in `owners`, or [`VACANT`].
    slots: Vec<u32>,
    /// `(device, interface index)` of every IPv4 interface.
    owners: Vec<(DeviceId, u32)>,
}

impl RoutedSpace {
    /// Flatten `prefixes` (the ASes' announcements, in AS order) and index
    /// every IPv4 interface of `devices`.
    ///
    /// # Panics
    /// Panics if the prefixes overlap or are not in ascending order, or if
    /// an IPv4 interface lies outside all of them: the builder allocates
    /// prefixes bottom-up and addresses only from inside them.
    pub(crate) fn new(prefixes: Vec<Ipv4Prefix>, devices: &[Device]) -> Self {
        let mut offsets = Vec::with_capacity(prefixes.len());
        let mut total: u64 = 0;
        let mut next_free: u64 = 0;
        for prefix in &prefixes {
            let base = u64::from(u32::from(prefix.base));
            assert!(
                base >= next_free,
                "routed prefix {prefix:?} overlaps or precedes its predecessor"
            );
            next_free = base + prefix.size();
            offsets.push(total);
            total += prefix.size();
        }
        let mut space = RoutedSpace {
            prefixes,
            offsets,
            total,
            slots: vec![VACANT; total as usize],
            owners: Vec::new(),
        };
        for device in devices {
            for (iface_idx, iface) in device.interfaces.iter().enumerate() {
                let IpAddr::V4(addr) = iface.addr else {
                    continue;
                };
                let index = space
                    .index_of(addr)
                    .unwrap_or_else(|| panic!("{addr} of {:?} is not routed", device.id));
                space.slots[index as usize] = space.owners.len() as u32;
                space.owners.push((device.id, iface_idx as u32));
            }
        }
        space
    }

    /// Number of addresses in the space.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the space holds no addresses.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of addresses an interface holds.
    pub(crate) fn owner_count(&self) -> usize {
        self.owners.len()
    }

    #[cold]
    fn out_of_range(&self, index: u64) -> ! {
        panic!(
            "routed-space index {index} out of range (len {})",
            self.total
        )
    }

    /// The prefix slot holding `index`.
    fn slot_of(&self, index: u64) -> usize {
        if index >= self.total {
            self.out_of_range(index);
        }
        self.offsets.partition_point(|&offset| offset <= index) - 1
    }

    /// The address at `index`, by binary search over the prefix offsets —
    /// the random-access path used with permuted sweep orders.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    pub fn addr_at(&self, index: u64) -> Ipv4Addr {
        self.addr_in(self.slot_of(index), index)
    }

    /// The address at `index`, which prefix slot `slot` holds.
    fn addr_in(&self, slot: usize, index: u64) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(self.prefixes[slot].base) + (index - self.offsets[slot]) as u32)
    }

    /// The index of `addr`, or `None` if no routed prefix covers it.
    pub fn index_of(&self, addr: Ipv4Addr) -> Option<u64> {
        let addr = u32::from(addr);
        let slot = self
            .prefixes
            .partition_point(|prefix| u32::from(prefix.base) <= addr)
            .checked_sub(1)?;
        let within = u64::from(addr - u32::from(self.prefixes[slot].base));
        (within < self.prefixes[slot].size()).then(|| self.offsets[slot] + within)
    }

    /// The device and interface index holding the address at `index`, or
    /// `None` for the unpopulated majority of the space.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    pub fn owner_at(&self, index: u64) -> Option<(DeviceId, usize)> {
        let Some(&slot) = self.slots.get(index as usize) else {
            self.out_of_range(index)
        };
        (slot != VACANT).then(|| {
            let (device_id, iface_idx) = self.owners[slot as usize];
            (device_id, iface_idx as usize)
        })
    }

    /// Exchange the owners of two routed addresses (address churn).
    pub(crate) fn swap_owners(&mut self, a: Ipv4Addr, b: Ipv4Addr) {
        let [a, b] = [a, b].map(|addr| {
            self.index_of(addr)
                .unwrap_or_else(|| panic!("{addr} is not routed")) as usize
        });
        self.slots.swap(a, b);
    }

    /// Iterate the addresses at indices `[start, end)` in index order: one
    /// binary search to find the first prefix, then a linear walk — no
    /// per-address search and no materialised target list.
    pub fn iter_range(&self, start: u64, end: u64) -> impl Iterator<Item = Ipv4Addr> + '_ {
        let end = end.min(self.total);
        let mut slot = if start < end { self.slot_of(start) } else { 0 };
        (start..end).map(move |index| {
            while index - self.offsets[slot] >= self.prefixes[slot].size() {
                slot += 1;
            }
            self.addr_in(slot, index)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Internet, InternetBuilder, InternetConfig, SimTime};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;
    use std::net::Ipv6Addr;

    fn tiny(seed: u64) -> Internet {
        InternetBuilder::new(InternetConfig::tiny(seed)).build()
    }

    /// The announced IPv4 prefixes, in AS order.
    fn prefixes(internet: &Internet) -> Vec<Ipv4Prefix> {
        internet.ases().iter().map(|a| a.ipv4_prefix).collect()
    }

    #[test]
    fn total_matches_prefix_sizes() {
        let internet = tiny(3);
        let space = internet.routed_space();
        let expected: u64 = prefixes(&internet).iter().map(|p| p.size()).sum();
        assert_eq!(space.len(), expected);
        assert!(!space.is_empty());
    }

    #[test]
    fn range_walk_matches_random_access() {
        let internet = tiny(3);
        let space = internet.routed_space();
        let n = space.len();
        for (start, end) in [(0, n), (1, n - 1), (n / 3, 2 * n / 3), (n - 1, n), (5, 5)] {
            let walked: Vec<Ipv4Addr> = space.iter_range(start, end).collect();
            let indexed: Vec<Ipv4Addr> = (start..end).map(|i| space.addr_at(i)).collect();
            assert_eq!(walked, indexed, "range {start}..{end}");
        }
    }

    #[test]
    fn full_walk_matches_prefix_concatenation() {
        let internet = tiny(3);
        let space = internet.routed_space();
        let walked: Vec<Ipv4Addr> = space.iter_range(0, space.len()).collect();
        let expected: Vec<Ipv4Addr> = prefixes(&internet).iter().flat_map(|p| p.iter()).collect();
        assert_eq!(walked, expected);
    }

    #[test]
    fn out_of_bounds_end_is_clamped() {
        let internet = tiny(3);
        let space = internet.routed_space();
        assert_eq!(space.iter_range(0, u64::MAX).count() as u64, space.len());
    }

    #[test]
    fn index_of_inverts_addr_at_on_every_prefix_edge_and_rejects_the_gaps() {
        let internet = tiny(3);
        let space = internet.routed_space();
        let prefixes = prefixes(&internet);
        assert!(prefixes.len() > 3);
        let mut first_index = 0u64;
        for (i, prefix) in prefixes.iter().enumerate() {
            let base = u32::from(prefix.base);
            let last = base + (prefix.size() - 1) as u32;
            let last_index = first_index + prefix.size() - 1;
            assert_eq!(space.index_of(Ipv4Addr::from(base)), Some(first_index));
            assert_eq!(space.addr_at(first_index), Ipv4Addr::from(base));
            assert_eq!(space.index_of(Ipv4Addr::from(last)), Some(last_index));
            assert_eq!(space.addr_at(last_index), Ipv4Addr::from(last));
            // One past the end belongs to the next prefix or to nobody.
            let past = Ipv4Addr::from(last + 1);
            let adjacent = prefixes.get(i + 1).is_some_and(|next| next.base == past);
            assert_eq!(
                space.index_of(past),
                adjacent.then_some(last_index + 1),
                "one past {prefix:?}"
            );
            first_index = last_index + 1;
        }
        assert_eq!(first_index, space.len());
        let lowest = u32::from(prefixes[0].base);
        assert_eq!(space.index_of(Ipv4Addr::from(lowest - 1)), None);
        assert_eq!(space.index_of(Ipv4Addr::new(0, 0, 0, 0)), None);
        assert_eq!(space.index_of(Ipv4Addr::new(255, 255, 255, 255)), None);
    }

    #[test]
    fn out_of_range_panics_name_the_index_and_the_length() {
        let internet = tiny(3);
        let space = internet.routed_space();
        let len = space.len();
        for index in [len, len + 7, u64::MAX] {
            let expected = format!("routed-space index {index} out of range (len {len})");
            let addr = std::panic::catch_unwind(|| space.addr_at(index)).unwrap_err();
            assert_eq!(addr.downcast_ref::<String>(), Some(&expected));
            let owner = std::panic::catch_unwind(|| space.owner_at(index)).unwrap_err();
            assert_eq!(owner.downcast_ref::<String>(), Some(&expected));
        }
    }

    /// The IP index as it was before the routed-space table: one map over
    /// every interface address, rebuilt here from `devices()`.
    fn oracle(internet: &Internet) -> BTreeMap<IpAddr, (DeviceId, usize)> {
        let mut map = BTreeMap::new();
        for device in internet.devices() {
            for (iface_idx, iface) in device.interfaces.iter().enumerate() {
                map.insert(iface.addr, (device.id, iface_idx));
            }
        }
        map
    }

    /// `lookup` against the oracle on every address that could matter:
    /// the whole routed space (hits and misses), every IPv6 interface, and
    /// seeded addresses outside every prefix / unassigned inside the
    /// announced IPv6 prefixes.
    fn assert_index_matches_oracle(internet: &Internet, label: &str) {
        let oracle = oracle(internet);
        let space = internet.routed_space();
        assert_eq!(internet.address_count(), oracle.len(), "{label}");
        let mut hits = 0usize;
        for (index, addr) in space.iter_range(0, space.len()).enumerate() {
            let expected = oracle.get(&IpAddr::V4(addr)).copied();
            assert_eq!(
                internet.lookup(IpAddr::V4(addr)),
                expected,
                "{label} {addr}"
            );
            assert_eq!(space.owner_at(index as u64), expected, "{label} {addr}");
            assert_eq!(space.index_of(addr), Some(index as u64), "{label} {addr}");
            assert_eq!(space.addr_at(index as u64), addr, "{label} {index}");
            hits += usize::from(expected.is_some());
        }
        assert_eq!(hits, space.owner_count(), "{label}");
        let mut v6 = 0usize;
        for (&addr, &owner) in &oracle {
            if addr.is_ipv6() {
                assert_eq!(internet.lookup(addr), Some(owner), "{label} {addr}");
                v6 += 1;
            }
        }
        assert!(hits > 0 && v6 > 0, "{label}: {hits} v4, {v6} v6");
        assert_eq!(hits + v6, oracle.len(), "{label}");

        // Addresses the simulator did not generate.
        let mut rng = ChaCha8Rng::seed_from_u64(internet.config().seed ^ 0x0a11_a5e5);
        let routed = prefixes(internet);
        let mut outside = 0;
        while outside < 1_000 {
            let addr = Ipv4Addr::from(rng.gen::<u32>());
            if routed.iter().any(|p| p.contains(addr)) {
                continue;
            }
            assert_eq!(space.index_of(addr), None, "{label} {addr}");
            assert_eq!(internet.lookup(IpAddr::V4(addr)), None, "{label} {addr}");
            outside += 1;
        }
        let ases = internet.ases();
        let mut unassigned = 0;
        while unassigned < 1_000 {
            let prefix = ases[rng.gen_range(0..ases.len())].ipv6_prefix;
            let addr = Ipv6Addr::from(u128::from(prefix.base) | u128::from(rng.gen::<u64>()));
            assert!(prefix.contains(addr));
            if oracle.contains_key(&IpAddr::V6(addr)) {
                continue;
            }
            assert_eq!(internet.lookup(IpAddr::V6(addr)), None, "{label} {addr}");
            unassigned += 1;
        }
    }

    #[test]
    fn the_index_equals_the_address_map_before_and_after_churn() {
        let mut configs: Vec<(String, InternetConfig)> = [3u64, 77, 404]
            .into_iter()
            .map(|seed| (format!("tiny({seed})"), InternetConfig::tiny(seed)))
            .collect();
        configs.push(("small".to_string(), InternetConfig::small(20_230_418)));
        for (label, mut config) in configs {
            // Every dynamic pair swaps: churn must move the index.
            config.churn.daily_reassign_prob = 1.0;
            let mut internet = InternetBuilder::new(config).build();
            assert_index_matches_oracle(&internet, &label);
            let swapped = internet.apply_churn(SimTime::ZERO, SimTime::from_days(21));
            assert!(swapped > 0, "{label}: churn swapped nothing");
            assert_index_matches_oracle(&internet, &format!("{label} after churn"));
        }
    }
}
