//! Devices: the ground-truth unit of aliasing.
//!
//! A device owns one or more interfaces (IPv4 and/or IPv6 addresses).  Alias
//! resolution asks: *given only the addresses, which of them belong to the
//! same device?*  The simulator therefore keeps per-device state exactly
//! where the paper says the signal lives — SSH host keys, BGP identifiers
//! and SNMPv3 engine IDs are device-wide, while ACLs decide on which
//! interfaces each service actually answers.

use crate::ids::{Asn, DeviceId};
use crate::profiles::{BgpProfileId, SshProfileId};
use crate::ratelimit::IcmpRateLimit;
use alias_wire::snmp::EngineId;
use alias_wire::ssh::HostKey;
use std::net::{IpAddr, Ipv4Addr};

/// Broad device archetypes used by the generator and reported in analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// A single-address virtual machine in a cloud provider.
    CloudVm,
    /// A multi-address server / load balancer in a cloud provider.
    CloudServer,
    /// An access or aggregation router inside an ISP.
    IspRouter,
    /// A border router connecting several ASes (the typical BGP speaker).
    BorderRouter,
    /// Customer-premises equipment (DSL/cable modems, small routers).
    Cpe,
    /// A server in an enterprise or hosting network.
    EnterpriseServer,
    /// An ISP router with every identifier service disabled (no SSH, BGP
    /// or SNMP) and a randomised IPID counter: only its router-wide ICMP
    /// rate limiter betrays which interfaces share the device.
    SilentRouter,
}

/// One interface: an address and the AS it is numbered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interface {
    /// The interface address.
    pub addr: IpAddr,
    /// The AS that announces the covering prefix.
    pub asn: Asn,
}

/// SSH service configuration of a device.
#[derive(Debug, Clone)]
pub struct SshService {
    /// Shared implementation profile (banner + algorithm preferences).
    pub profile: SshProfileId,
    /// The device's host key.
    pub host_key: HostKey,
    /// Which interfaces answer on TCP/22 (aligned with `Device::interfaces`).
    pub respond: Vec<bool>,
    /// Interfaces (by index) that advertise a *different* capability profile
    /// than the rest of the device — the 0.4% divergence the paper measures.
    pub divergent_capability_ifaces: Vec<usize>,
    /// The divergent profile used on those interfaces.
    pub divergent_profile: Option<SshProfileId>,
}

/// BGP service configuration of a device.
#[derive(Debug, Clone)]
pub struct BgpService {
    /// Shared implementation profile (hold time, capabilities, behaviour).
    pub profile: BgpProfileId,
    /// The device-wide BGP Identifier placed in OPEN messages.
    pub bgp_identifier: Ipv4Addr,
    /// The ASN announced in the OPEN message.
    pub asn: u32,
    /// Which interfaces answer on TCP/179.
    pub respond: Vec<bool>,
}

/// SNMPv3 service configuration of a device.
#[derive(Debug, Clone)]
pub struct SnmpService {
    /// The device-wide authoritative engine ID.
    pub engine_id: EngineId,
    /// Engine boots counter reported in discovery responses.
    pub engine_boots: i64,
    /// Which interfaces answer on UDP/161.
    pub respond: Vec<bool>,
}

/// A simulated device: everything about it that probing never changes.
///
/// The one thing probing *does* change — the IPID counter shared by all
/// interfaces — is not a field here.  It lives in the [`Internet`]'s
/// probe-state column, indexed by [`DeviceId`] behind a single lock that a
/// [`ProbeSession`] holds for a whole sweep; read a device's counter model
/// with [`Internet::ipid_model`].
///
/// [`Internet`]: crate::Internet
/// [`Internet::ipid_model`]: crate::Internet::ipid_model
/// [`ProbeSession`]: crate::ProbeSession
#[derive(Debug)]
pub struct Device {
    /// Device identity (index into the Internet's device table).
    pub id: DeviceId,
    /// Archetype.
    pub kind: DeviceKind,
    /// All interfaces, IPv4 and IPv6.
    pub interfaces: Vec<Interface>,
    /// SSH configuration, if the device runs SSH.
    pub ssh: Option<SshService>,
    /// BGP configuration, if the device speaks BGP.
    pub bgp: Option<BgpService>,
    /// SNMPv3 configuration, if the device runs an SNMP agent.
    pub snmp: Option<SnmpService>,
    /// Whether the device answers ICMP echo probes.
    pub responds_to_ping: bool,
    /// Router-wide ICMP rate limiter shared by every interface — the
    /// signal the rate-limiting technique correlates.  Ordinary probe
    /// paths ([`crate::Internet::icmp_echo`] and friends) never consult
    /// it; only the dedicated rate bursts do.
    pub icmp_limit: IcmpRateLimit,
    /// Index of the interface used as the source address of ICMP errors, or
    /// `None` if errors are sourced from the probed address (the behaviour
    /// that defeats the iffinder technique).
    pub icmp_error_source: Option<usize>,
    /// Whether the device answers probes arriving from a single-VP scanner
    /// (rate limiting / IDS filtering makes some devices invisible to the
    /// active scan while the distributed Censys scan still sees them).
    pub visible_to_single_vp: bool,
    /// Whether the Censys-like snapshot covers this device at all.
    pub censys_covered: bool,
    /// Whether the device's addresses participate in churn (dynamic pools).
    pub dynamic_addresses: bool,
}

impl Device {
    /// All IPv4 interface addresses.
    pub fn ipv4_addrs(&self) -> Vec<Ipv4Addr> {
        self.interfaces
            .iter()
            .filter_map(|i| match i.addr {
                IpAddr::V4(a) => Some(a),
                IpAddr::V6(_) => None,
            })
            .collect()
    }

    /// All IPv6 interface addresses.
    pub fn ipv6_addrs(&self) -> Vec<std::net::Ipv6Addr> {
        self.interfaces
            .iter()
            .filter_map(|i| match i.addr {
                IpAddr::V6(a) => Some(a),
                IpAddr::V4(_) => None,
            })
            .collect()
    }

    /// Whether the device has at least one IPv4 and one IPv6 interface.
    pub fn is_dual_stack(&self) -> bool {
        let has = |ipv6: bool| self.interfaces.iter().any(|i| i.addr.is_ipv6() == ipv6);
        has(false) && has(true)
    }

    /// The interface index carrying `addr`, if any.
    pub fn interface_index(&self, addr: IpAddr) -> Option<usize> {
        self.interfaces.iter().position(|i| i.addr == addr)
    }

    /// The ASNs this device's interfaces are numbered from (deduplicated,
    /// sorted).
    pub fn asns(&self) -> Vec<Asn> {
        let mut asns: Vec<Asn> = self.interfaces.iter().map(|i| i.asn).collect();
        asns.sort();
        asns.dedup();
        asns
    }

    /// Addresses on which a service with the given respond mask answers.
    fn responding_addrs(&self, respond: &[bool]) -> Vec<IpAddr> {
        self.interfaces
            .iter()
            .enumerate()
            .filter(|(idx, _)| respond.get(*idx).copied().unwrap_or(false))
            .map(|(_, i)| i.addr)
            .collect()
    }

    /// Addresses answering SSH probes.
    pub fn ssh_responding_addrs(&self) -> Vec<IpAddr> {
        self.ssh
            .as_ref()
            .map(|s| self.responding_addrs(&s.respond))
            .unwrap_or_default()
    }

    /// Addresses answering BGP probes.
    pub fn bgp_responding_addrs(&self) -> Vec<IpAddr> {
        self.bgp
            .as_ref()
            .map(|s| self.responding_addrs(&s.respond))
            .unwrap_or_default()
    }

    /// Addresses answering SNMPv3 probes.
    pub fn snmp_responding_addrs(&self) -> Vec<IpAddr> {
        self.snmp
            .as_ref()
            .map(|s| self.responding_addrs(&s.respond))
            .unwrap_or_default()
    }

    /// Whether interface `iface` answers SSH.
    pub fn ssh_responds_on(&self, iface: usize) -> bool {
        self.ssh
            .as_ref()
            .is_some_and(|s| s.respond.get(iface).copied().unwrap_or(false))
    }

    /// Whether interface `iface` answers BGP.
    pub fn bgp_responds_on(&self, iface: usize) -> bool {
        self.bgp
            .as_ref()
            .is_some_and(|s| s.respond.get(iface).copied().unwrap_or(false))
    }

    /// Whether interface `iface` answers SNMPv3.
    pub fn snmp_responds_on(&self, iface: usize) -> bool {
        self.snmp
            .as_ref()
            .is_some_and(|s| s.respond.get(iface).copied().unwrap_or(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_wire::ssh::HostKeyAlgorithm;

    fn test_device() -> Device {
        let interfaces = vec![
            Interface {
                addr: "10.0.0.1".parse().unwrap(),
                asn: Asn(65_001),
            },
            Interface {
                addr: "10.0.1.1".parse().unwrap(),
                asn: Asn(65_001),
            },
            Interface {
                addr: "10.0.2.1".parse().unwrap(),
                asn: Asn(65_002),
            },
            Interface {
                addr: "2001:db8::1".parse().unwrap(),
                asn: Asn(65_001),
            },
        ];
        Device {
            id: DeviceId(0),
            kind: DeviceKind::BorderRouter,
            ssh: Some(SshService {
                profile: SshProfileId(0),
                host_key: HostKey::new(HostKeyAlgorithm::Ed25519, vec![1; 32]),
                respond: vec![true, true, false, true],
                divergent_capability_ifaces: vec![],
                divergent_profile: None,
            }),
            bgp: Some(BgpService {
                profile: BgpProfileId(0),
                bgp_identifier: Ipv4Addr::new(10, 0, 0, 1),
                asn: 65_001,
                respond: vec![true, false, true, false],
            }),
            snmp: None,
            responds_to_ping: true,
            icmp_limit: IcmpRateLimit::new(1_000.0, 8.0),
            icmp_error_source: Some(0),
            visible_to_single_vp: true,
            censys_covered: true,
            dynamic_addresses: false,
            interfaces,
        }
    }

    #[test]
    fn address_family_partition() {
        let dev = test_device();
        assert_eq!(dev.ipv4_addrs().len(), 3);
        assert_eq!(dev.ipv6_addrs().len(), 1);
        assert!(dev.is_dual_stack());
    }

    #[test]
    fn asns_are_deduplicated_and_sorted() {
        let dev = test_device();
        assert_eq!(dev.asns(), vec![Asn(65_001), Asn(65_002)]);
    }

    #[test]
    fn respond_masks_select_addresses() {
        let dev = test_device();
        let ssh = dev.ssh_responding_addrs();
        assert_eq!(ssh.len(), 3);
        assert!(!ssh.contains(&"10.0.2.1".parse().unwrap()));
        let bgp = dev.bgp_responding_addrs();
        assert_eq!(bgp.len(), 2);
        assert!(dev.snmp_responding_addrs().is_empty());
        assert!(dev.ssh_responds_on(0));
        assert!(!dev.ssh_responds_on(2));
        assert!(dev.bgp_responds_on(2));
        assert!(!dev.snmp_responds_on(0));
    }

    #[test]
    fn interface_index_lookup() {
        let dev = test_device();
        assert_eq!(dev.interface_index("10.0.1.1".parse().unwrap()), Some(1));
        assert_eq!(dev.interface_index("192.0.2.9".parse().unwrap()), None);
    }
}
