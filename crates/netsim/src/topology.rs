//! AS-level topology and address allocation.
//!
//! The simulated Internet is organised, like the real one, into autonomous
//! systems that announce address space.  The paper's AS-level analysis
//! (Tables 5 and 6, Figures 5 and 6) distinguishes cloud providers — which
//! dominate the SSH alias sets — from ISPs — which dominate BGP and SNMPv3.
//! The generator therefore assigns every device's interfaces addresses from
//! AS-owned prefixes, and border routers receive interfaces from several
//! ASes.

use crate::ids::Asn;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Broad AS categories used by the generator and in the paper's analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum AsKind {
    /// Cloud / hosting provider (DigitalOcean, AWS, OVH, Hetzner, ...).
    CloudProvider,
    /// Internet service provider / telco.
    Isp,
    /// Enterprise, university or other stub network.
    Enterprise,
}

/// A routed IPv4 prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Ipv4Prefix {
    /// Network base address.
    pub(crate) base: Ipv4Addr,
    /// Prefix length.
    pub(crate) len: u8,
}

impl Ipv4Prefix {
    /// Number of addresses covered by the prefix.
    pub(crate) fn size(&self) -> u64 {
        1u64 << (32 - self.len as u32)
    }
}

/// A routed IPv6 prefix, modelled as a 64-bit network identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv6Prefix {
    /// Network base address.
    pub base: Ipv6Addr,
    /// Prefix length (always ≤ 64 in the simulator).
    pub(crate) len: u8,
}

/// An autonomous system: identity, category and its address allocations.
#[derive(Debug, Clone)]
pub struct AutonomousSystem {
    /// The AS number.
    pub(crate) asn: Asn,
    /// Category.
    pub(crate) kind: AsKind,
    /// The IPv4 prefix announced by this AS.
    pub(crate) ipv4_prefix: Ipv4Prefix,
    /// The IPv6 prefix announced by this AS.
    pub ipv6_prefix: Ipv6Prefix,
    /// Next free IPv4 offset inside the prefix (starts at 1 to skip the
    /// network address).
    next_v4: u32,
    /// Next free IPv6 interface identifier.
    next_v6: u64,
}

impl AutonomousSystem {
    /// Create an AS with the given allocations.
    pub(crate) fn new(
        asn: Asn,
        kind: AsKind,
        ipv4_prefix: Ipv4Prefix,
        ipv6_prefix: Ipv6Prefix,
    ) -> Self {
        AutonomousSystem {
            asn,
            kind,
            ipv4_prefix,
            ipv6_prefix,
            next_v4: 1,
            next_v6: 1,
        }
    }

    /// Allocate the next unused IPv4 address in this AS, or `None` if the
    /// prefix is exhausted.
    pub(crate) fn alloc_v4(&mut self) -> Option<Ipv4Addr> {
        if u64::from(self.next_v4) >= self.ipv4_prefix.size() {
            return None;
        }
        let addr = Ipv4Addr::from(u32::from(self.ipv4_prefix.base) + self.next_v4);
        self.next_v4 += 1;
        Some(addr)
    }

    /// Allocate the next unused IPv6 address in this AS.
    pub(crate) fn alloc_v6(&mut self) -> Ipv6Addr {
        let addr = Ipv6Addr::from(u128::from(self.ipv6_prefix.base) + self.next_v6 as u128);
        self.next_v6 += 1;
        addr
    }
}

/// Allocates non-overlapping prefixes to ASes out of a compact synthetic
/// address space.
///
/// The synthetic IPv4 space starts at `10.0.0.0`-style low addresses mapped
/// into globally-unique-looking space beginning at `1.0.0.0`; compactness is
/// what lets the ZMap-like scanner sweep "the whole announced Internet" in
/// milliseconds.
#[derive(Debug, Clone)]
pub(crate) struct PrefixAllocator {
    next_v4_base: u32,
    next_v6_site: u32,
}

impl Default for PrefixAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixAllocator {
    /// Create an allocator starting at the bottom of the synthetic space.
    pub(crate) fn new() -> Self {
        PrefixAllocator {
            next_v4_base: u32::from(Ipv4Addr::new(1, 0, 0, 0)),
            next_v6_site: 1,
        }
    }

    /// Allocate an IPv4 prefix with room for at least `capacity` addresses.
    pub(crate) fn alloc_v4_prefix(&mut self, capacity: u32) -> Ipv4Prefix {
        // Round up to a power of two, minimum /24-equivalent of 256 addresses,
        // plus one slot for the unused network address.
        let needed = (capacity + 1).max(256).next_power_of_two();
        let len = 32 - needed.trailing_zeros() as u8;
        // Align the base to the prefix size.
        let aligned = (self.next_v4_base + needed - 1) & !(needed - 1);
        self.next_v4_base = aligned + needed;
        Ipv4Prefix {
            base: Ipv4Addr::from(aligned),
            len,
        }
    }

    /// Allocate an IPv6 prefix (a synthetic /48 per AS).
    pub(crate) fn alloc_v6_prefix(&mut self) -> Ipv6Prefix {
        let site = self.next_v6_site;
        self.next_v6_site += 1;
        // 2400:xxxx:yyyy::/48 with the site number split across two groups.
        let base: u128 =
            (0x2400u128 << 112) | ((site as u128 >> 16) << 96) | ((site as u128 & 0xffff) << 80);
        Ipv6Prefix {
            base: Ipv6Addr::from(base),
            len: 48,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Ipv4Prefix {
        /// Whether `addr` falls inside the prefix.
        pub(crate) fn contains(&self, addr: Ipv4Addr) -> bool {
            let mask = u32::MAX.checked_shl(32 - self.len as u32).unwrap_or(0);
            (u32::from(addr) & mask) == (u32::from(self.base) & mask)
        }
    }

    impl Ipv6Prefix {
        /// Whether `addr` falls inside the prefix.
        pub(crate) fn contains(&self, addr: Ipv6Addr) -> bool {
            let mask = u128::MAX.checked_shl(128 - self.len as u32).unwrap_or(0);
            (u128::from(addr) & mask) == (u128::from(self.base) & mask)
        }
    }

    #[test]
    fn prefix_contains_and_size() {
        let p = Ipv4Prefix {
            base: Ipv4Addr::new(1, 2, 0, 0),
            len: 22,
        };
        assert_eq!(p.size(), 1024);
        assert!(p.contains(Ipv4Addr::new(1, 2, 3, 200)));
        assert!(!p.contains(Ipv4Addr::new(1, 2, 4, 1)));
    }

    #[test]
    fn ipv6_prefix_contains() {
        let alloc = &mut PrefixAllocator::new();
        let p = alloc.alloc_v6_prefix();
        assert!(p.contains(Ipv6Addr::from(u128::from(p.base) + 12345)));
        let other = alloc.alloc_v6_prefix();
        assert!(!p.contains(other.base));
    }

    #[test]
    fn allocator_prefixes_do_not_overlap() {
        let mut alloc = PrefixAllocator::new();
        let a = alloc.alloc_v4_prefix(1000);
        let b = alloc.alloc_v4_prefix(50);
        let c = alloc.alloc_v4_prefix(5000);
        for (x, y) in [(a, b), (a, c), (b, c)] {
            assert!(
                !x.contains(y.base) && !y.contains(x.base),
                "{x:?} overlaps {y:?}"
            );
        }
    }

    #[test]
    fn as_allocation_is_sequential_and_bounded() {
        let mut alloc = PrefixAllocator::new();
        let prefix = alloc.alloc_v4_prefix(10);
        let mut asys =
            AutonomousSystem::new(Asn(65_000), AsKind::Isp, prefix, alloc.alloc_v6_prefix());
        let first = asys.alloc_v4().unwrap();
        let second = asys.alloc_v4().unwrap();
        assert_eq!(u32::from(second), u32::from(first) + 1);
        assert!(prefix.contains(first));
        // Exhaust the prefix: 256-address minimum, minus the network address.
        let mut count = 2;
        while asys.alloc_v4().is_some() {
            count += 1;
        }
        assert_eq!(count, 255);
        assert_eq!(asys.next_v4 - 1, 255);
    }

    #[test]
    fn ipv6_allocation_is_unique() {
        let mut alloc = PrefixAllocator::new();
        let mut asys = AutonomousSystem::new(
            Asn(1),
            AsKind::CloudProvider,
            alloc.alloc_v4_prefix(8),
            alloc.alloc_v6_prefix(),
        );
        let a = asys.alloc_v6();
        let b = asys.alloc_v6();
        assert_ne!(a, b);
        assert!(asys.ipv6_prefix.contains(a));
    }
}
