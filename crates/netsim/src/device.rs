//! Devices: the ground-truth unit of aliasing.
//!
//! A device owns one or more interfaces (IPv4 and/or IPv6 addresses).  Alias
//! resolution asks: *given only the addresses, which of them belong to the
//! same device?*  The simulator therefore keeps per-device state exactly
//! where the paper says the signal lives — SSH host keys, BGP identifiers
//! and SNMPv3 engine IDs are device-wide, while ACLs decide on which
//! interfaces each service actually answers.
//!
//! The devices of an [`Internet`](crate::Internet) are columns, not objects
//! (`DeviceTable`): one interface column, of which every device owns a
//! contiguous run; one answer byte per interface (which services answer
//! there); one flag byte per device (visibility, ping, Censys, churn); one
//! fixed-size row per device (kind, limiter, error source, service
//! configuration); and two byte arenas the rows point into, for host keys
//! and engine IDs.  A sweep reads flag bytes and chases no pointer, and
//! building or dropping the table allocates per column, not per device.
//! Callers read a device through the [`DeviceRef`] view.

use crate::ids::{Asn, DeviceId, Route};
use crate::internet::ServiceProtocol;
use crate::profiles::{BgpProfileId, SshProfileId};
use crate::ratelimit::IcmpRateLimit;
use crate::vantage::VantageKind;
use alias_wire::ssh::{HostKeyAlgorithm, HostKeyRef};
use std::net::{IpAddr, Ipv4Addr};
use std::ops::Range;

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

/// Answer-byte bit: SSH answers on TCP/22 of this interface.
pub(crate) const SSH: u8 = 1;
/// Answer-byte bit: BGP answers on TCP/179.
pub(crate) const BGP: u8 = 1 << 1;
/// Answer-byte bit: an SNMPv3 agent answers on UDP/161.
pub(crate) const SNMP: u8 = 1 << 2;
/// Answer-byte bit: this SSH interface advertises the device's divergent
/// capability profile (the paper's 0.4%).
pub(crate) const SSH_DIVERGENT: u8 = 1 << 3;

/// Device-flag bit: the single-VP scanner can see the device.
pub(crate) const VISIBLE: u8 = 1;
/// Device-flag bit: the device answers ICMP echo.
pub(crate) const PING: u8 = 1 << 1;
/// Device-flag bit: the Censys-like snapshot covers the device.
pub(crate) const CENSYS: u8 = 1 << 2;
/// Device-flag bit: the device's addresses take part in churn.
pub(crate) const DYNAMIC: u8 = 1 << 3;

/// A run `start..end` of one of the byte arenas.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// Append `bytes` to `arena` and name where they went.
    pub(crate) fn push(arena: &mut Vec<u8>, bytes: &[u8]) -> Span {
        let start = arena.len() as u32;
        arena.extend_from_slice(bytes);
        Span {
            start,
            end: arena.len() as u32,
        }
    }

    fn of(self, arena: &[u8]) -> &[u8] {
        &arena[self.start as usize..self.end as usize]
    }
}

/// A device's SSH configuration in its row; the key lives in the arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SshRow {
    pub(crate) profile: SshProfileId,
    /// The profile its [`SSH_DIVERGENT`] interface advertises instead.
    pub(crate) divergent_profile: Option<SshProfileId>,
    pub(crate) algorithm: HostKeyAlgorithm,
    pub(crate) key: Span,
}

/// A device's SNMPv3 configuration in its row; the engine ID lives in the
/// arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SnmpRow {
    pub(crate) engine_id: Span,
    pub(crate) engine_boots: i64,
}

/// Everything about a device that is neither an interface nor a flag: one
/// fixed-size row, no heap field.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeviceRow {
    pub(crate) kind: DeviceKind,
    /// Router-wide ICMP rate limiter shared by every interface.
    pub(crate) icmp_limit: IcmpRateLimit,
    /// Index of the interface ICMP errors are sourced from, or `None` if
    /// from the probed address.
    pub(crate) icmp_error_source: Option<u16>,
    pub(crate) ssh: Option<SshRow>,
    pub(crate) bgp: Option<BgpService>,
    pub(crate) snmp: Option<SnmpRow>,
}

impl DeviceRow {
    /// A device of `kind` with no service, no error source and no limiter.
    pub(crate) fn new(kind: DeviceKind) -> Self {
        DeviceRow {
            kind,
            icmp_limit: IcmpRateLimit::UNLIMITED,
            icmp_error_source: None,
            ssh: None,
            bgp: None,
            snmp: None,
        }
    }
}

/// The device columns of an [`Internet`](crate::Internet), indexed by
/// [`DeviceId`] (rows, flags, starts) or by position in the interface
/// column (interfaces, answers).
#[derive(Debug)]
pub(crate) struct DeviceTable {
    pub(crate) rows: Vec<DeviceRow>,
    pub(crate) flags: Vec<u8>,
    /// Device `d` owns `starts[d]..starts[d + 1]` of the interface columns.
    pub(crate) starts: Vec<u32>,
    pub(crate) ifaces: Vec<Interface>,
    pub(crate) answers: Vec<u8>,
    pub(crate) host_keys: Vec<u8>,
    pub(crate) engine_ids: Vec<u8>,
}

impl DeviceTable {
    /// An empty table with room for `devices` rows.
    pub(crate) fn with_capacity(devices: usize) -> Self {
        let mut starts = Vec::with_capacity(devices + 1);
        starts.push(0);
        DeviceTable {
            rows: Vec::with_capacity(devices),
            flags: Vec::with_capacity(devices),
            starts,
            ifaces: Vec::new(),
            answers: Vec::new(),
            host_keys: Vec::new(),
            engine_ids: Vec::new(),
        }
    }

    /// Device `id`'s run of the interface columns.
    pub(crate) fn range(&self, id: DeviceId) -> Range<usize> {
        self.starts[id.index()] as usize..self.starts[id.index() + 1] as usize
    }

    /// The answer byte of interface `iface` of device `id` (zero past its
    /// last interface).
    pub(crate) fn answers_at(&self, id: DeviceId, iface: usize) -> u8 {
        let range = self.range(id);
        self.answers[range].get(iface).copied().unwrap_or(0)
    }

    /// Whether device `id` answers a probe from `vantage` at all.
    pub(crate) fn visible(&self, id: DeviceId, vantage: VantageKind) -> bool {
        vantage == VantageKind::Distributed || self.flags[id.index()] & VISIBLE != 0
    }

    /// Whether device `id` answers ICMP echo from `vantage`.
    pub(crate) fn pingable(&self, id: DeviceId, vantage: VantageKind) -> bool {
        self.visible(id, vantage) && self.flags[id.index()] & PING != 0
    }

    /// The device with id `id`.
    pub(crate) fn get(&self, id: DeviceId) -> DeviceRef<'_> {
        assert!(id.index() < self.rows.len(), "no device {id}");
        DeviceRef { table: self, id }
    }

    /// The host key of an SSH row.
    pub(crate) fn host_key(&self, ssh: &SshRow) -> HostKeyRef<'_> {
        HostKeyRef {
            algorithm: ssh.algorithm,
            key_material: ssh.key.of(&self.host_keys),
        }
    }

    /// The engine ID of an SNMP row.
    pub(crate) fn engine_id(&self, snmp: &SnmpRow) -> &[u8] {
        snmp.engine_id.of(&self.engine_ids)
    }
}

/// A device's SSH service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SshService<'a> {
    /// Shared implementation profile (banner + algorithm preferences).
    pub profile: SshProfileId,
    /// The device's host key.
    pub host_key: HostKeyRef<'a>,
    /// The one interface advertising a *different* capability profile than
    /// the rest of the device, and that profile — the 0.4% divergence the
    /// paper measures.
    pub divergent: Option<(usize, SshProfileId)>,
}

/// A device's BGP service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BgpService {
    /// Shared implementation profile (hold time, capabilities, behaviour).
    pub profile: BgpProfileId,
    /// The device-wide BGP Identifier placed in OPEN messages.
    pub bgp_identifier: Ipv4Addr,
    /// The ASN announced in the OPEN message.
    pub asn: u32,
}

/// A device's SNMPv3 agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnmpService<'a> {
    /// The device-wide authoritative engine ID.
    pub engine_id: &'a [u8],
    /// Engine boots counter reported in discovery responses.
    pub engine_boots: i64,
}

/// A simulated device, read through the [`Internet`](crate::Internet)'s
/// columns: everything about it that probing never changes.  Its IPID
/// counter, the one thing probing does change, is read through a
/// [`ProbeSession`](crate::ProbeSession).
#[derive(Clone, Copy)]
pub struct DeviceRef<'a> {
    table: &'a DeviceTable,
    id: DeviceId,
}

impl<'a> DeviceRef<'a> {
    fn row(self) -> &'a DeviceRow {
        &self.table.rows[self.id.index()]
    }

    fn flag(self, bit: u8) -> bool {
        self.table.flags[self.id.index()] & bit != 0
    }

    /// Device identity (index into the Internet's device table).
    pub fn id(self) -> DeviceId {
        self.id
    }

    /// Archetype.
    pub fn kind(self) -> DeviceKind {
        self.row().kind
    }

    /// All interfaces, IPv4 and IPv6.
    pub fn interfaces(self) -> &'a [Interface] {
        &self.table.ifaces[self.table.range(self.id)]
    }

    /// The route to interface `iface`, for a crawl that walks the devices
    /// rather than the IP index.
    pub fn route(self, iface: usize) -> Route {
        let iface = (iface < self.interfaces().len()).then_some(iface as u32);
        let iface = iface.unwrap_or_else(|| panic!("{} has no interface", self.id));
        Route {
            device: self.id,
            iface,
        }
    }

    /// Whether `protocol` answers on interface `iface` (the ICMP
    /// pseudo-protocol: whether the device answers echo at all).
    pub fn responds_on(self, protocol: ServiceProtocol, iface: usize) -> bool {
        let bit = match protocol {
            ServiceProtocol::Ssh => SSH,
            ServiceProtocol::Bgp => BGP,
            ServiceProtocol::Snmpv3 => SNMP,
            ServiceProtocol::IcmpRateLimit => return self.responds_to_ping(),
        };
        self.table.answers_at(self.id, iface) & bit != 0
    }

    /// The addresses `protocol` answers on, in interface order.
    pub fn answering(self, protocol: ServiceProtocol) -> impl Iterator<Item = IpAddr> + 'a {
        let ifaces = self.interfaces().iter().enumerate();
        ifaces.filter_map(move |(iface, i)| self.responds_on(protocol, iface).then_some(i.addr))
    }

    /// SSH configuration, if the device runs SSH.
    pub fn ssh(self) -> Option<SshService<'a>> {
        let ssh = self.row().ssh.as_ref()?;
        let answers = &self.table.answers[self.table.range(self.id)];
        let divergent_iface = answers.iter().position(|a| a & SSH_DIVERGENT != 0);
        Some(SshService {
            profile: ssh.profile,
            host_key: self.table.host_key(ssh),
            divergent: divergent_iface.zip(ssh.divergent_profile),
        })
    }

    /// BGP configuration, if the device speaks BGP.
    pub fn bgp(self) -> Option<BgpService> {
        self.row().bgp
    }

    /// SNMPv3 configuration, if the device runs an SNMP agent.
    pub fn snmp(self) -> Option<SnmpService<'a>> {
        let snmp = self.row().snmp.as_ref()?;
        Some(SnmpService {
            engine_id: self.table.engine_id(snmp),
            engine_boots: snmp.engine_boots,
        })
    }

    /// Whether the device answers ICMP echo probes.
    pub fn responds_to_ping(self) -> bool {
        self.flag(PING)
    }

    /// Whether the device answers probes arriving from a single-VP scanner
    /// (rate limiting / IDS filtering makes some devices invisible to the
    /// active scan while the distributed Censys scan still sees them).
    pub fn visible_to_single_vp(self) -> bool {
        self.flag(VISIBLE)
    }

    /// Whether the Censys-like snapshot covers this device at all.
    pub fn censys_covered(self) -> bool {
        self.flag(CENSYS)
    }

    /// Whether the device's addresses participate in churn (dynamic pools).
    pub fn dynamic_addresses(self) -> bool {
        self.flag(DYNAMIC)
    }

    /// Router-wide ICMP rate limiter shared by every interface — the signal
    /// the rate-limiting technique correlates.  Ordinary probe paths never
    /// consult it; only the dedicated rate bursts do.
    pub fn icmp_limit(self) -> IcmpRateLimit {
        self.row().icmp_limit
    }

    /// Index of the interface used as the source address of ICMP errors, or
    /// `None` if errors are sourced from the probed address (the behaviour
    /// that defeats the iffinder technique).
    pub fn icmp_error_source(self) -> Option<usize> {
        self.row().icmp_error_source.map(usize::from)
    }

    /// All IPv4 interface addresses.
    pub fn ipv4_addrs(self) -> Vec<Ipv4Addr> {
        let v4 = self.interfaces().iter().map(|i| i.addr);
        v4.filter_map(|addr| match addr {
            IpAddr::V4(a) => Some(a),
            IpAddr::V6(_) => None,
        })
        .collect()
    }

    /// Whether the device has at least one IPv4 and one IPv6 interface.
    pub fn is_dual_stack(self) -> bool {
        let has = |ipv6: bool| self.interfaces().iter().any(|i| i.addr.is_ipv6() == ipv6);
        has(false) && has(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One border router of four interfaces, written into the columns by
    /// hand.
    fn table() -> DeviceTable {
        let mut table = DeviceTable::with_capacity(1);
        let addrs = ["10.0.0.1", "10.0.1.1", "10.0.2.1", "2001:db8::1"];
        let asns = [65_001, 65_001, 65_002, 65_001];
        let answers = [SSH | BGP, SSH, BGP, SSH | SSH_DIVERGENT];
        for ((addr, asn), answer) in addrs.iter().zip(asns).zip(answers) {
            let (addr, asn) = (addr.parse().unwrap(), Asn(asn));
            table.ifaces.push(Interface { addr, asn });
            table.answers.push(answer);
        }
        let key = Span::push(&mut table.host_keys, &[1; 32]);
        table.rows.push(DeviceRow {
            ssh: Some(SshRow {
                profile: SshProfileId(0),
                divergent_profile: Some(SshProfileId(3)),
                algorithm: HostKeyAlgorithm::Ed25519,
                key,
            }),
            bgp: Some(BgpService {
                profile: BgpProfileId(0),
                bgp_identifier: Ipv4Addr::new(10, 0, 0, 1),
                asn: 65_001,
            }),
            icmp_error_source: Some(0),
            ..DeviceRow::new(DeviceKind::BorderRouter)
        });
        table.flags.push(VISIBLE | PING);
        table.starts.push(4);
        table
    }

    #[test]
    fn address_family_partition() {
        let table = table();
        let dev = table.get(DeviceId(0));
        assert_eq!(dev.ipv4_addrs().len(), 3);
        assert_eq!(
            dev.interfaces().iter().filter(|i| i.addr.is_ipv6()).count(),
            1
        );
        assert!(dev.is_dual_stack());
    }

    #[test]
    fn answer_bytes_select_addresses_and_the_divergent_interface() {
        let table = table();
        let dev = table.get(DeviceId(0));
        let ssh: Vec<IpAddr> = dev.answering(ServiceProtocol::Ssh).collect();
        assert_eq!(ssh.len(), 3);
        assert!(!ssh.contains(&"10.0.2.1".parse().unwrap()));
        assert_eq!(dev.answering(ServiceProtocol::Bgp).count(), 2);
        assert_eq!(dev.answering(ServiceProtocol::Snmpv3).count(), 0);
        assert!(dev.responds_on(ServiceProtocol::Ssh, 0));
        assert!(!dev.responds_on(ServiceProtocol::Ssh, 2));
        assert!(dev.responds_on(ServiceProtocol::Bgp, 2));
        assert!(
            !dev.responds_on(ServiceProtocol::Bgp, 9),
            "past the last interface"
        );
        assert!(dev.responds_on(ServiceProtocol::IcmpRateLimit, 0));
        let ssh = dev.ssh().unwrap();
        assert_eq!(ssh.divergent, Some((3, SshProfileId(3))));
        assert_eq!(ssh.host_key.key_material, &[1; 32]);
        assert!(dev.snmp().is_none());
        assert_eq!(dev.icmp_error_source(), Some(0));
        assert!(dev.visible_to_single_vp() && !dev.censys_covered() && !dev.dynamic_addresses());
    }
}
