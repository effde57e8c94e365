//! The simulated Internet and its probe API.
//!
//! Scanners interact with the simulated Internet exactly the way ZMap,
//! ZGrab2, an SNMP prober or MIDAR interact with the real one: stateless
//! TCP SYN probes, stateful application-layer sessions, UDP datagrams and
//! ICMP echo probes.  Each probe is answered (or not) according to the
//! target device's configuration, its ACLs, the probing vantage point and
//! the current simulated time.

use crate::clock::SimTime;
use crate::config::InternetConfig;
use crate::device::{Device, DeviceKind};
use crate::ground_truth::{GroundTruth, PairwiseScore};
use crate::ids::{Asn, DeviceId};
use crate::ipid::{IpidModel, IpidState};
use crate::profiles::{BgpProfile, SshProfile};
use crate::services;
use crate::space::RoutedSpace;
use crate::topology::AutonomousSystem;
use crate::vantage::VantageKind;
use parking_lot::{Mutex, MutexGuard};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashMap};
use std::net::{IpAddr, Ipv6Addr};

/// Default TCP port of the SSH service.
pub const SSH_PORT: u16 = 22;
/// Default TCP port of BGP.
pub const BGP_PORT: u16 = 179;
/// Default UDP port of SNMP.
pub const SNMP_PORT: u16 = 161;

/// Application protocols the toolkit scans for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ServiceProtocol {
    /// SSH on TCP/22.
    Ssh,
    /// BGP on TCP/179.
    Bgp,
    /// SNMPv3 on UDP/161.
    Snmpv3,
    /// ICMP rate-limit loss measurements — a pseudo-protocol: the probe is
    /// plain ICMP echo (no port), and the "observation" is a per-round loss
    /// count against the target's router-wide limiter rather than service
    /// bytes.
    IcmpRateLimit,
}

impl ServiceProtocol {
    /// The protocol's default port (0 for the portless ICMP pseudo-protocol).
    pub fn default_port(self) -> u16 {
        match self {
            ServiceProtocol::Ssh => SSH_PORT,
            ServiceProtocol::Bgp => BGP_PORT,
            ServiceProtocol::Snmpv3 => SNMP_PORT,
            ServiceProtocol::IcmpRateLimit => 0,
        }
    }

    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ServiceProtocol::Ssh => "ssh",
            ServiceProtocol::Bgp => "bgp",
            ServiceProtocol::Snmpv3 => "snmpv3",
            ServiceProtocol::IcmpRateLimit => "ratelimit",
        }
    }
}

/// Context attached to every probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeContext {
    /// Which measurement infrastructure emitted the probe.
    pub vantage: VantageKind,
    /// Simulated time of the probe.
    pub time: SimTime,
}

impl ProbeContext {
    /// A single-VP probe at the given time.
    pub fn single(time: SimTime) -> Self {
        ProbeContext {
            vantage: VantageKind::SingleVp,
            time,
        }
    }

    /// A distributed-fleet probe at the given time.
    pub fn distributed(time: SimTime) -> Self {
        ProbeContext {
            vantage: VantageKind::Distributed,
            time,
        }
    }
}

/// Outcome of a TCP SYN probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynResult {
    /// The port is open: the target answered SYN-ACK.
    SynAck,
    /// The target answered with RST (host up, port closed).
    Rst,
    /// No answer (no such host, filtered, or rate limited).
    Timeout,
}

/// What an ICMP echo probe observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EchoObservation {
    /// The IPID of the echo reply's IPv4 header.
    pub ipid: u16,
    /// Simulated time the reply was received.
    pub time: SimTime,
}

/// One device's row of the probe-state column: the three things an
/// identifier probe reads.  The two flags are copies of the [`Device`]'s
/// (fixed at build time); the counter state is the one piece of the
/// simulated Internet that probing mutates.
#[derive(Debug)]
pub(crate) struct ProbeState {
    pub(crate) visible_to_single_vp: bool,
    pub(crate) responds_to_ping: bool,
    pub(crate) ipid: IpidState,
}

/// Exclusive access to every device's IPID counter state for a run of
/// identifier probes ([`Internet::probe_session`]).
///
/// The state lives in, and persists in, the [`Internet`]; the session only
/// holds its one lock, so a sweep of millions of probes pays for it once.
/// The lock is not re-entrant: while a session is alive, the one-shot
/// entry points ([`Internet::icmp_echo`], [`Internet::identifier_probe_at`],
/// [`Internet::ipv6_fragment_probe`], [`Internet::ipid_model`]) block — on
/// the same thread, forever.  Hold a session for one collection loop or
/// one technique's sweep and drop it before calling anything that probes
/// on its own.
pub struct ProbeSession<'a> {
    states: MutexGuard<'a, Vec<ProbeState>>,
}

impl ProbeSession<'_> {
    /// One identifier probe of an interface already resolved via
    /// [`Internet::lookup`] — the body behind [`Internet::icmp_echo`] and
    /// [`Internet::ipv6_fragment_probe`]: both families draw from the same
    /// device-wide counter.  Visibility and `responds_to_ping` are checked
    /// on every probe, and only an answered probe advances the counter.
    pub fn identifier_probe_at(
        &mut self,
        device_id: DeviceId,
        iface_idx: usize,
        ctx: &ProbeContext,
    ) -> Option<EchoObservation> {
        let state = &mut self.states[device_id.index()];
        let visible = match ctx.vantage {
            VantageKind::SingleVp => state.visible_to_single_vp,
            VantageKind::Distributed => true,
        };
        if !visible || !state.responds_to_ping {
            return None;
        }
        Some(EchoObservation {
            ipid: state.ipid.next_ipid(ctx.time, iface_idx),
            time: ctx.time,
        })
    }

    /// A device's IPID counter state as it stands (tests compare two runs
    /// through its `Debug` form).
    pub fn ipid_state(&self, device_id: DeviceId) -> &IpidState {
        &self.states[device_id.index()].ipid
    }
}

/// The simulated Internet.
pub struct Internet {
    config: InternetConfig,
    devices: Vec<Device>,
    /// The probe-state column, indexed by [`DeviceId`]: everything an
    /// identifier probe reads or writes, behind one lock.
    probe_states: Mutex<Vec<ProbeState>>,
    ases: Vec<AutonomousSystem>,
    /// The IP index, IPv4 half: the routed space and its slot table.
    space: RoutedSpace,
    /// The IP index, IPv6 half (hitlist-sized, never on a sweep).
    v6_index: HashMap<Ipv6Addr, (DeviceId, usize)>,
    ssh_profiles: Vec<SshProfile>,
    bgp_profiles: Vec<BgpProfile>,
    /// Simulated time each device last (re)booted, for SNMP engine time.
    boot_time: SimTime,
}

impl Internet {
    /// Assemble an Internet from generated parts (used by the builder).
    pub(crate) fn from_parts(
        config: InternetConfig,
        devices: Vec<Device>,
        probe_states: Vec<ProbeState>,
        ases: Vec<AutonomousSystem>,
        ssh_profiles: Vec<SshProfile>,
        bgp_profiles: Vec<BgpProfile>,
    ) -> Self {
        assert_eq!(devices.len(), probe_states.len());
        let space = RoutedSpace::new(ases.iter().map(|a| a.ipv4_prefix).collect(), &devices);
        let mut v6_index = HashMap::new();
        for device in &devices {
            for (iface_idx, iface) in device.interfaces.iter().enumerate() {
                if let IpAddr::V6(addr) = iface.addr {
                    v6_index.insert(addr, (device.id, iface_idx));
                }
            }
        }
        Internet {
            config,
            devices,
            probe_states: Mutex::new(probe_states),
            ases,
            space,
            v6_index,
            ssh_profiles,
            bgp_profiles,
            boot_time: SimTime::ZERO,
        }
    }

    /// The configuration the Internet was generated from.
    pub fn config(&self) -> &InternetConfig {
        &self.config
    }

    /// All devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// A device by id.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.index()]
    }

    /// All autonomous systems.
    pub fn ases(&self) -> &[AutonomousSystem] {
        &self.ases
    }

    /// Number of addresses in the index.
    pub fn address_count(&self) -> usize {
        self.space.owner_count() + self.v6_index.len()
    }

    /// The device and interface index owning `addr`.
    pub fn lookup(&self, addr: IpAddr) -> Option<(DeviceId, usize)> {
        match addr {
            IpAddr::V4(v4) => self.space.owner_at(self.space.index_of(v4)?),
            IpAddr::V6(v6) => self.v6_index.get(&v6).copied(),
        }
    }

    /// The routed IPv4 space — what an Internet-wide sweep iterates, by
    /// index, resolving each index with [`RoutedSpace::owner_at`].
    pub fn routed_space(&self) -> &RoutedSpace {
        &self.space
    }

    /// The AS announcing `addr`, mirroring what a scanner would learn from a
    /// BGP routing table / IP-to-ASN database.
    pub fn ip_to_asn(&self, addr: IpAddr) -> Option<Asn> {
        let (device_id, iface_idx) = self.lookup(addr)?;
        Some(self.asn_at(device_id, iface_idx))
    }

    /// [`Self::ip_to_asn`] for an interface already resolved via
    /// [`Self::lookup`] — lets a scanner that probes and attributes the same
    /// address pay the index lookup once.
    pub fn asn_at(&self, device_id: DeviceId, iface_idx: usize) -> Asn {
        self.device(device_id).interfaces[iface_idx].asn
    }

    /// Every IPv6 address on which at least one service answers — the
    /// population an ideal IPv6 hitlist would contain.
    pub fn active_ipv6_service_addrs(&self) -> Vec<Ipv6Addr> {
        let mut out = Vec::new();
        for device in &self.devices {
            for addr in device
                .ssh_responding_addrs()
                .into_iter()
                .chain(device.bgp_responding_addrs())
                .chain(device.snmp_responding_addrs())
            {
                if let IpAddr::V6(v6) = addr {
                    out.push(v6);
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// The SSH profile table.
    pub fn ssh_profiles(&self) -> &[SshProfile] {
        &self.ssh_profiles
    }

    /// The BGP profile table.
    pub fn bgp_profiles(&self) -> &[BgpProfile] {
        &self.bgp_profiles
    }

    fn device_visible(&self, device: &Device, ctx: &ProbeContext) -> bool {
        match ctx.vantage {
            VantageKind::SingleVp => device.visible_to_single_vp,
            VantageKind::Distributed => true,
        }
    }

    /// Send a TCP SYN to `dst:port`.
    pub fn syn_probe(&self, dst: IpAddr, port: u16, ctx: &ProbeContext) -> SynResult {
        let Some((device_id, iface_idx)) = self.lookup(dst) else {
            return SynResult::Timeout;
        };
        self.syn_probe_at(device_id, iface_idx, port, ctx)
    }

    /// [`Self::syn_probe`] against an interface already resolved via
    /// [`Self::lookup`].  A sweep over a mostly-unpopulated address space
    /// resolves each address once, skips the (vast) unrouted majority, and
    /// probes the hits without re-hashing the address per port.
    pub fn syn_probe_at(
        &self,
        device_id: DeviceId,
        iface_idx: usize,
        port: u16,
        ctx: &ProbeContext,
    ) -> SynResult {
        let device = self.device(device_id);
        if !self.device_visible(device, ctx) {
            return SynResult::Timeout;
        }
        let open = match port {
            SSH_PORT => device.ssh_responds_on(iface_idx),
            BGP_PORT => device.bgp_responds_on(iface_idx),
            _ => false,
        };
        if open {
            SynResult::SynAck
        } else {
            SynResult::Rst
        }
    }

    /// Complete the TCP handshake on `dst:port` and capture the unsolicited
    /// (or banner-exchange) bytes the server sends.
    ///
    /// Returns `None` if no service answers at all, and `Some(Vec::new())`
    /// for services that accept the connection but close without sending
    /// data (the silent BGP majority).
    pub fn service_session(&self, dst: IpAddr, port: u16, ctx: &ProbeContext) -> Option<Vec<u8>> {
        let (device_id, iface_idx) = self.lookup(dst)?;
        self.service_session_at(device_id, iface_idx, port, ctx)
    }

    /// [`Self::service_session`] against an interface already resolved via
    /// [`Self::lookup`].
    pub fn service_session_at(
        &self,
        device_id: DeviceId,
        iface_idx: usize,
        port: u16,
        ctx: &ProbeContext,
    ) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.service_session_into(device_id, iface_idx, port, ctx, &mut out)
            .then_some(out)
    }

    /// [`Self::service_session_at`], capturing the session bytes into a
    /// caller-owned buffer (cleared first) so a scan loop can reuse one
    /// allocation across targets.  Returns whether a service answered at
    /// all; an accepted-then-silent session (the silent BGP majority)
    /// returns `true` with an empty buffer, mirroring `Some(vec![])`.
    pub fn service_session_into(
        &self,
        device_id: DeviceId,
        iface_idx: usize,
        port: u16,
        ctx: &ProbeContext,
        out: &mut Vec<u8>,
    ) -> bool {
        out.clear();
        let device = self.device(device_id);
        if !self.device_visible(device, ctx) {
            return false;
        }
        match port {
            SSH_PORT if device.ssh_responds_on(iface_idx) => {
                let ssh = device.ssh.as_ref().expect("responds implies configured");
                let profile = &self.ssh_profiles[ssh.profile.0 as usize];
                let divergent = if ssh.divergent_capability_ifaces.contains(&iface_idx) {
                    ssh.divergent_profile
                        .map(|p| &self.ssh_profiles[p.0 as usize])
                } else {
                    None
                };
                let cookie_seed = (device_id.0 as u64) << 32
                    | (iface_idx as u64) << 16
                    | (ctx.time.as_millis() & 0xffff);
                services::ssh_session_bytes_into(
                    profile,
                    divergent,
                    &ssh.host_key,
                    cookie_seed,
                    out,
                );
                true
            }
            BGP_PORT if device.bgp_responds_on(iface_idx) => {
                let bgp = device.bgp.as_ref().expect("responds implies configured");
                let profile = &self.bgp_profiles[bgp.profile.0 as usize];
                services::bgp_session_bytes_into(profile, bgp.bgp_identifier, bgp.asn, out);
                true
            }
            _ => false,
        }
    }

    /// Send an SNMPv3 datagram to `dst` and capture the response.
    pub fn snmp_probe(&self, dst: IpAddr, request: &[u8], ctx: &ProbeContext) -> Option<Vec<u8>> {
        let (device_id, iface_idx) = self.lookup(dst)?;
        self.snmp_probe_at(device_id, iface_idx, request, ctx)
    }

    /// [`Self::snmp_probe`] against an interface already resolved via
    /// [`Self::lookup`].
    pub fn snmp_probe_at(
        &self,
        device_id: DeviceId,
        iface_idx: usize,
        request: &[u8],
        ctx: &ProbeContext,
    ) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.snmp_probe_into(device_id, iface_idx, || request, ctx, &mut out)
            .then_some(out)
    }

    /// [`Self::snmp_probe_at`], capturing the response into a caller-owned
    /// buffer (cleared first) so a sweep reuses one allocation across
    /// targets.  Returns whether the agent answered.  The datagram comes
    /// from `request`, called once, and only by an interface that answers
    /// SNMP at all: a sweep builds a request only for an agent that reads
    /// it.
    pub fn snmp_probe_into<'r>(
        &self,
        device_id: DeviceId,
        iface_idx: usize,
        request: impl FnOnce() -> &'r [u8],
        ctx: &ProbeContext,
        out: &mut Vec<u8>,
    ) -> bool {
        out.clear();
        let device = self.device(device_id);
        if !self.device_visible(device, ctx) || !device.snmp_responds_on(iface_idx) {
            return false;
        }
        let snmp = device.snmp.as_ref().expect("responds implies configured");
        services::snmp_report_into(
            &snmp.engine_id,
            snmp.engine_boots,
            self.boot_time,
            ctx.time,
            request(),
            out,
        )
    }

    /// Send an ICMP echo request to `dst` (IPv4 only) and observe the reply's
    /// IPID, advancing the device's IPID counter.
    pub fn icmp_echo(&self, dst: IpAddr, ctx: &ProbeContext) -> Option<EchoObservation> {
        if !dst.is_ipv4() {
            return None;
        }
        let (device_id, iface_idx) = self.lookup(dst)?;
        self.identifier_probe_at(device_id, iface_idx, ctx)
    }

    /// Lock the probe-state column for a run of identifier probes.  See
    /// [`ProbeSession`] for who may hold one and for how long.
    pub fn probe_session(&self) -> ProbeSession<'_> {
        ProbeSession {
            states: self.probe_states.lock(),
        }
    }

    /// The IPID counter model of a device (takes the column's lock for the
    /// read, so not while a [`ProbeSession`] is alive on this thread).
    pub fn ipid_model(&self, device_id: DeviceId) -> IpidModel {
        self.probe_session().ipid_state(device_id).model()
    }

    /// [`ProbeSession::identifier_probe_at`] as a session of one probe.
    pub fn identifier_probe_at(
        &self,
        device_id: DeviceId,
        iface_idx: usize,
        ctx: &ProbeContext,
    ) -> Option<EchoObservation> {
        self.probe_session()
            .identifier_probe_at(device_id, iface_idx, ctx)
    }

    /// Elicit a fragmented reply from an IPv6 address and observe the
    /// fragment header's Identification value (the Speedtrap probe).
    ///
    /// The simulator models the device-wide identifier counter but not IPv6
    /// fragmentation itself (see the substitution note in `alias-midar`'s
    /// `speedtrap` module), so the fragment Identification is drawn from the
    /// same per-device counter state as the IPv4 IPID — which is exactly the
    /// behaviour Speedtrap's shared-counter inference relies on.
    pub fn ipv6_fragment_probe(&self, dst: IpAddr, ctx: &ProbeContext) -> Option<EchoObservation> {
        if !dst.is_ipv6() {
            return None;
        }
        let (device_id, iface_idx) = self.lookup(dst)?;
        self.identifier_probe_at(device_id, iface_idx, ctx)
    }

    /// Whether `dst` answers ICMP echo at all from this vantage — the
    /// stateless discovery check the rate prober sweeps with.  Unlike
    /// [`icmp_echo`](Self::icmp_echo) it never advances the IPID counter,
    /// so sweeping the routed space leaves the substrate untouched.
    pub fn ping_responds(&self, dst: IpAddr, ctx: &ProbeContext) -> bool {
        self.lookup(dst)
            .is_some_and(|(device_id, _)| self.ping_responds_at(device_id, ctx))
    }

    /// [`Self::ping_responds`] for a device already resolved via
    /// [`Self::lookup`] or [`RoutedSpace::owner_at`].
    pub fn ping_responds_at(&self, device_id: DeviceId, ctx: &ProbeContext) -> bool {
        let device = self.device(device_id);
        self.device_visible(device, ctx) && device.responds_to_ping
    }

    /// Probe `dst` (IPv4) with `count` evenly paced ICMP echo requests at
    /// `rate_pps` and count the replies surviving the device's router-wide
    /// rate limiter — the rate-limiting technique's measurement primitive.
    ///
    /// The limiter bucket starts full: the prober enforces an inter-burst
    /// cool-down long enough to refill any configured limiter, which models
    /// the steady state a real limiter returns to *and* makes the reply
    /// count a pure function of (device, rate, count) — bursts against
    /// different targets can run in any order on any number of shard
    /// workers with byte-identical results.  The burst never touches the
    /// IPID counter: rate-probing must not perturb the IPID time series
    /// the other techniques sample.
    pub fn icmp_rate_burst(
        &self,
        dst: IpAddr,
        rate_pps: f64,
        count: u32,
        ctx: &ProbeContext,
    ) -> Option<u32> {
        if !dst.is_ipv4() {
            return None;
        }
        self.rate_burst_any_family(dst, rate_pps, count, ctx)
    }

    /// IPv6 twin of [`icmp_rate_burst`](Self::icmp_rate_burst): echo bursts
    /// against an IPv6 interface drain the same router-wide limiter.
    pub fn ipv6_rate_burst(
        &self,
        dst: IpAddr,
        rate_pps: f64,
        count: u32,
        ctx: &ProbeContext,
    ) -> Option<u32> {
        if !dst.is_ipv6() {
            return None;
        }
        self.rate_burst_any_family(dst, rate_pps, count, ctx)
    }

    fn rate_burst_any_family(
        &self,
        dst: IpAddr,
        rate_pps: f64,
        count: u32,
        ctx: &ProbeContext,
    ) -> Option<u32> {
        let (device_id, _) = self.lookup(dst)?;
        self.rate_burst_at(device_id, rate_pps, count, ctx)
    }

    /// An echo burst against a device already resolved via
    /// [`Self::lookup`].  The limiter is router-wide, so only the device
    /// matters — an escalation ladder that bursts the same target several
    /// times resolves it once.
    pub fn rate_burst_at(
        &self,
        device_id: DeviceId,
        rate_pps: f64,
        count: u32,
        ctx: &ProbeContext,
    ) -> Option<u32> {
        let device = self.device(device_id);
        if !self.device_visible(device, ctx) || !device.responds_to_ping {
            return None;
        }
        Some(crate::ratelimit::solo_burst_replies(
            device.icmp_limit,
            rate_pps,
            count,
        ))
    }

    /// Probe `a` and `b` with interleaved echo requests (a, b, a, b, …) at
    /// a combined `rate_pps`, `count_per_addr` probes each, and count the
    /// per-address replies — the joint test that discriminates a shared
    /// limiter from two independent ones.  Same device: every arrival
    /// drains one bucket, so both addresses lose.  Different devices: each
    /// limiter sees only its own half-rate stream, modelled as two solo
    /// bursts at `rate_pps / 2`.  `None` if either address is unresponsive.
    pub fn icmp_joint_rate_burst(
        &self,
        a: IpAddr,
        b: IpAddr,
        rate_pps: f64,
        count_per_addr: u32,
        ctx: &ProbeContext,
    ) -> Option<(u32, u32)> {
        let (device_a, _) = self.lookup(a)?;
        let (device_b, _) = self.lookup(b)?;
        let dev_a = self.device(device_a);
        let dev_b = self.device(device_b);
        if !self.device_visible(dev_a, ctx)
            || !dev_a.responds_to_ping
            || !self.device_visible(dev_b, ctx)
            || !dev_b.responds_to_ping
        {
            return None;
        }
        if device_a == device_b {
            Some(crate::ratelimit::joint_burst_replies_shared(
                dev_a.icmp_limit,
                rate_pps,
                count_per_addr,
            ))
        } else {
            Some((
                crate::ratelimit::solo_burst_replies(
                    dev_a.icmp_limit,
                    rate_pps / 2.0,
                    count_per_addr,
                ),
                crate::ratelimit::solo_burst_replies(
                    dev_b.icmp_limit,
                    rate_pps / 2.0,
                    count_per_addr,
                ),
            ))
        }
    }

    /// Send a UDP datagram to a closed port on `dst` and observe the source
    /// address of the resulting ICMP port-unreachable (the iffinder /
    /// common-source-address technique).  `None` means no error was returned.
    pub fn udp_closed_port_probe(&self, dst: IpAddr, ctx: &ProbeContext) -> Option<IpAddr> {
        let (device_id, _) = self.lookup(dst)?;
        let device = self.device(device_id);
        if !self.device_visible(device, ctx) || !device.responds_to_ping {
            return None;
        }
        match device.icmp_error_source {
            Some(iface_idx) => Some(device.interfaces[iface_idx].addr),
            None => Some(dst),
        }
    }

    /// Reassign addresses of dynamic devices to model address churn over the
    /// interval `[from, to]`.
    ///
    /// Dynamic devices in the same AS pool swap IPv4 addresses with a
    /// probability derived from [`crate::config::ChurnParams`]; this is what
    /// breaks long-running measurements (the paper attributes part of the
    /// MIDAR disagreement to churn over its three-week run).
    pub fn apply_churn(&mut self, from: SimTime, to: SimTime) -> usize {
        let elapsed_days = (to.since(from).as_secs() as f64) / 86_400.0;
        let prob = (self.config.churn.daily_reassign_prob * elapsed_days).min(1.0);
        if prob <= 0.0 {
            return 0;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ to.as_millis().rotate_left(17));

        // Collect dynamic single-v4 devices per AS.  The map must have a
        // deterministic iteration order: every pool draws from the shared
        // RNG, so iterating a HashMap here would consume the stream in a
        // different order on every process run and break the seed
        // reproducibility guarantee.
        let mut pools: BTreeMap<Asn, Vec<DeviceId>> = BTreeMap::new();
        for device in &self.devices {
            if device.dynamic_addresses {
                if let Some(iface) = device.interfaces.first() {
                    if iface.addr.is_ipv4() {
                        pools.entry(iface.asn).or_default().push(device.id);
                    }
                }
            }
        }

        let mut swapped = 0;
        for (_, pool) in pools {
            if pool.len() < 2 {
                continue;
            }
            let mut shuffled = pool.clone();
            shuffled.shuffle(&mut rng);
            for pair in shuffled.chunks_exact(2) {
                if rand::Rng::gen_bool(&mut rng, prob) {
                    self.swap_first_v4(pair[0], pair[1]);
                    swapped += 1;
                }
            }
        }
        swapped
    }

    fn swap_first_v4(&mut self, a: DeviceId, b: DeviceId) {
        let addr_a = self.devices[a.index()].interfaces[0].addr;
        let addr_b = self.devices[b.index()].interfaces[0].addr;
        self.devices[a.index()].interfaces[0].addr = addr_b;
        self.devices[b.index()].interfaces[0].addr = addr_a;
        let (IpAddr::V4(v4_a), IpAddr::V4(v4_b)) = (addr_a, addr_b) else {
            unreachable!("churn pools hold devices whose first interface is IPv4");
        };
        self.space.swap_owners(v4_a, v4_b);
    }

    /// The true aliasing relation, as an address → device map of its own.
    pub fn ground_truth(&self) -> GroundTruth {
        let mut gt = GroundTruth::default();
        gt.owner.reserve(self.address_count());
        for device in &self.devices {
            for iface in &device.interfaces {
                gt.insert(device.id, iface.addr);
            }
        }
        gt
    }

    /// The device owning `addr`, read off the IP index.
    pub fn device_of(&self, addr: IpAddr) -> Option<DeviceId> {
        self.lookup(addr).map(|(device, _)| device)
    }

    /// Score a collection of inferred alias sets against the true aliasing
    /// relation ([`PairwiseScore::of_labelled_sets`] with each member's
    /// owner read off the IP index — no [`GroundTruth`] map is built).
    pub fn score_sets<'a, I, S>(&self, sets: I) -> PairwiseScore
    where
        I: IntoIterator<Item = S>,
        S: IntoIterator<Item = &'a IpAddr>,
    {
        let labelled = |set: S| set.into_iter().map(|&addr| (addr, self.device_of(addr)));
        PairwiseScore::of_labelled_sets(sets.into_iter().map(labelled))
    }

    /// Summary statistics about the generated population (used by the
    /// `stats` experiment binary and in tests).
    pub fn population_stats(&self) -> PopulationStats {
        let mut stats = PopulationStats::default();
        for device in &self.devices {
            stats.devices += 1;
            match device.kind {
                DeviceKind::CloudVm => stats.cloud_vms += 1,
                DeviceKind::CloudServer => stats.cloud_servers += 1,
                DeviceKind::IspRouter => stats.isp_routers += 1,
                DeviceKind::BorderRouter => stats.border_routers += 1,
                DeviceKind::Cpe => stats.cpe_devices += 1,
                DeviceKind::EnterpriseServer => stats.enterprise_servers += 1,
                DeviceKind::SilentRouter => stats.silent_routers += 1,
            }
            if device.is_dual_stack() {
                stats.dual_stack_devices += 1;
            }
            // A respond mask is aligned with the interfaces; a flag past
            // them answers on nothing.
            let responding = |respond: &[bool]| {
                let flags = respond.iter().take(device.interfaces.len());
                flags.filter(|&&responds| responds).count()
            };
            stats.ssh_responding_addrs += device.ssh.as_ref().map_or(0, |s| responding(&s.respond));
            stats.bgp_responding_addrs += device.bgp.as_ref().map_or(0, |s| responding(&s.respond));
            stats.snmp_responding_addrs +=
                device.snmp.as_ref().map_or(0, |s| responding(&s.respond));
            if let Some(bgp) = &device.bgp {
                let profile = &self.bgp_profiles[bgp.profile.0 as usize];
                if profile.sends_open {
                    stats.bgp_open_senders += 1;
                } else {
                    stats.bgp_silent_closers += 1;
                }
            }
        }
        stats
    }
}

/// Aggregate counts describing the generated population.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PopulationStats {
    /// Total devices.
    pub devices: usize,
    /// Single-address cloud VMs.
    pub cloud_vms: usize,
    /// Multi-address cloud servers.
    pub cloud_servers: usize,
    /// ISP routers.
    pub isp_routers: usize,
    /// Border routers.
    pub border_routers: usize,
    /// CPE devices.
    pub cpe_devices: usize,
    /// Enterprise servers.
    pub enterprise_servers: usize,
    /// Silent routers (no identifier services at all).
    pub silent_routers: usize,
    /// Devices with both IPv4 and IPv6 interfaces.
    pub dual_stack_devices: usize,
    /// Interface addresses answering SSH.
    pub ssh_responding_addrs: usize,
    /// Interface addresses answering BGP.
    pub bgp_responding_addrs: usize,
    /// Interface addresses answering SNMPv3.
    pub snmp_responding_addrs: usize,
    /// BGP speakers that send an OPEN to unsolicited peers.
    pub bgp_open_senders: usize,
    /// BGP speakers that close silently.
    pub bgp_silent_closers: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::InternetBuilder;
    use crate::config::InternetConfig;
    use alias_wire::snmp::Snmpv3Message;

    fn tiny_internet() -> Internet {
        InternetBuilder::new(InternetConfig::tiny(42)).build()
    }

    #[test]
    fn lookup_and_asn_mapping_are_consistent() {
        let internet = tiny_internet();
        let device = internet
            .devices()
            .iter()
            .find(|d| !d.interfaces.is_empty())
            .expect("devices exist");
        let iface = device.interfaces[0];
        assert_eq!(internet.lookup(iface.addr), Some((device.id, 0)));
        assert_eq!(internet.ip_to_asn(iface.addr), Some(iface.asn));
        assert_eq!(internet.ip_to_asn("203.0.113.7".parse().unwrap()), None);
    }

    #[test]
    fn syn_probe_matches_service_configuration() {
        let internet = tiny_internet();
        let ctx = ProbeContext::distributed(SimTime::from_secs(1));
        let mut saw_ssh = false;
        for device in internet.devices() {
            for addr in device.ssh_responding_addrs() {
                assert_eq!(internet.syn_probe(addr, SSH_PORT, &ctx), SynResult::SynAck);
                saw_ssh = true;
            }
        }
        assert!(saw_ssh, "the tiny preset should include SSH hosts");
        // An address that exists but has no BGP service answers RST.
        let non_bgp = internet
            .devices()
            .iter()
            .find(|d| d.bgp.is_none() && !d.interfaces.is_empty())
            .unwrap();
        assert_eq!(
            internet.syn_probe(non_bgp.interfaces[0].addr, BGP_PORT, &ctx),
            SynResult::Rst
        );
        // A hole in the address space times out.
        assert_eq!(
            internet.syn_probe("250.250.250.250".parse().unwrap(), SSH_PORT, &ctx),
            SynResult::Timeout
        );
    }

    #[test]
    fn single_vp_sees_fewer_hosts_than_distributed() {
        let internet = tiny_internet();
        let time = SimTime::from_secs(1);
        let single = ProbeContext::single(time);
        let distributed = ProbeContext::distributed(time);
        let mut single_count = 0;
        let mut distributed_count = 0;
        for device in internet.devices() {
            for addr in device.ssh_responding_addrs() {
                if internet.syn_probe(addr, SSH_PORT, &single) == SynResult::SynAck {
                    single_count += 1;
                }
                if internet.syn_probe(addr, SSH_PORT, &distributed) == SynResult::SynAck {
                    distributed_count += 1;
                }
            }
        }
        assert!(single_count < distributed_count);
        assert!(single_count > 0);
    }

    #[test]
    fn service_session_produces_parseable_ssh() {
        let internet = tiny_internet();
        let ctx = ProbeContext::distributed(SimTime::from_secs(5));
        let device = internet
            .devices()
            .iter()
            .find(|d| !d.ssh_responding_addrs().is_empty())
            .unwrap();
        let addr = device.ssh_responding_addrs()[0];
        let bytes = internet.service_session(addr, SSH_PORT, &ctx).unwrap();
        let (banner, _) = alias_wire::ssh::Banner::parse(&bytes).unwrap();
        assert!(banner.is_v2() || !banner.software.is_empty());
    }

    #[test]
    fn snmp_probe_answers_discovery_only_on_configured_interfaces() {
        let internet = tiny_internet();
        let ctx = ProbeContext::distributed(SimTime::from_secs(9));
        let request = Snmpv3Message::DiscoveryRequest { msg_id: 5 }.to_bytes();
        let device = internet
            .devices()
            .iter()
            .find(|d| !d.snmp_responding_addrs().is_empty())
            .expect("tiny preset has SNMP devices");
        let addr = device.snmp_responding_addrs()[0];
        let reply = internet.snmp_probe(addr, &request, &ctx).unwrap();
        assert!(matches!(
            Snmpv3Message::parse(&reply).unwrap(),
            Snmpv3Message::Report { msg_id: 5, .. }
        ));
        // Garbage requests are ignored.
        assert!(internet.snmp_probe(addr, b"not-snmp", &ctx).is_none());
    }

    #[test]
    fn the_request_writer_runs_once_for_each_visible_listening_interface_only() {
        let internet = tiny_internet();
        let request = Snmpv3Message::DiscoveryRequest { msg_id: 5 }.to_bytes();
        let mut reply = Vec::new();
        for ctx in [
            ProbeContext::single(SimTime::from_secs(9)),
            ProbeContext::distributed(SimTime::from_secs(9)),
        ] {
            let (mut listening, mut silent) = (0, 0);
            for device in internet.devices() {
                let visible = internet.device_visible(device, &ctx);
                for iface in 0..device.interfaces.len() {
                    let reads = visible && device.snmp_responds_on(iface);
                    let mut calls = 0;
                    let answered = internet.snmp_probe_into(
                        device.id,
                        iface,
                        || {
                            calls += 1;
                            &request[..]
                        },
                        &ctx,
                        &mut reply,
                    );
                    assert_eq!((calls, answered), (usize::from(reads), reads));
                    // The same interface, sent garbage: read, never answered.
                    let mut calls = 0;
                    let garbage = || {
                        calls += 1;
                        &b"not-snmp"[..]
                    };
                    assert!(!internet.snmp_probe_into(device.id, iface, garbage, &ctx, &mut reply));
                    assert!(reply.is_empty());
                    assert_eq!(calls, usize::from(reads));
                    if reads {
                        listening += 1;
                    } else {
                        silent += 1;
                    }
                }
            }
            assert!(listening > 10 && silent > 10, "{listening} / {silent}");
        }
    }

    #[test]
    fn icmp_echo_advances_ipid() {
        let internet = tiny_internet();
        let device = internet
            .devices()
            .iter()
            .find(|d| d.responds_to_ping && !d.ipv4_addrs().is_empty())
            .unwrap();
        let addr = IpAddr::V4(device.ipv4_addrs()[0]);
        let a = internet
            .icmp_echo(addr, &ProbeContext::distributed(SimTime::from_secs(1)))
            .unwrap();
        let b = internet
            .icmp_echo(addr, &ProbeContext::distributed(SimTime::from_secs(2)))
            .unwrap();
        // For every model except Constant the two samples differ with
        // overwhelming probability; accept equality only for constant models.
        let model = internet.ipid_model(device.id);
        if !matches!(model, IpidModel::Constant(_)) {
            assert_ne!((a.ipid, a.time), (b.ipid, b.time));
        }
    }

    #[test]
    fn ipv6_fragment_probe_shares_the_device_counter() {
        let internet = tiny_internet();
        let device = internet
            .devices()
            .iter()
            .find(|d| {
                d.responds_to_ping
                    && !d.ipv4_addrs().is_empty()
                    && d.interfaces.iter().any(|i| i.addr.is_ipv6())
                    && internet.ipid_model(d.id).is_shared_monotonic()
            })
            .expect("tiny preset has dual-stack shared-counter devices");
        let v4 = IpAddr::V4(device.ipv4_addrs()[0]);
        let v6 = device
            .interfaces
            .iter()
            .map(|i| i.addr)
            .find(IpAddr::is_ipv6)
            .unwrap();
        // Families are routed to the right probe.
        assert!(internet
            .ipv6_fragment_probe(v4, &ProbeContext::distributed(SimTime::from_secs(1)))
            .is_none());
        assert!(internet
            .icmp_echo(v6, &ProbeContext::distributed(SimTime::from_secs(1)))
            .is_none());
        // Alternating v4/v6 probes of a low-velocity shared counter draw
        // from one sequence: strictly increasing across the families.
        if internet
            .ipid_model(device.id)
            .velocity()
            .unwrap_or(f64::MAX)
            < 100.0
        {
            let a = internet
                .icmp_echo(v4, &ProbeContext::distributed(SimTime::from_secs(2)))
                .unwrap();
            let b = internet
                .ipv6_fragment_probe(v6, &ProbeContext::distributed(SimTime::from_secs(2)))
                .unwrap();
            assert!(b.ipid > a.ipid, "fragment id {} vs ipid {}", b.ipid, a.ipid);
        }
    }

    #[test]
    fn a_session_of_many_probes_equals_as_many_one_shot_probes() {
        // Two same-seed Internets: one probed through a single session,
        // the other through `icmp_echo`, a session of one probe each time.
        let (held, one_shot) = (tiny_internet(), tiny_internet());
        // Two pingable devices of each counter model, two interfaces of
        // each where it has them.
        let mut picked: Vec<(DeviceId, usize, IpAddr)> = Vec::new();
        let mut models = [0usize; 4];
        for device in held.devices().iter().filter(|d| d.responds_to_ping) {
            let slot = match held.ipid_model(device.id) {
                IpidModel::SharedMonotonic { .. } => 0,
                IpidModel::PerInterface { .. } => 1,
                IpidModel::Random => 2,
                IpidModel::Constant(_) => 3,
            };
            let v4 = device.interfaces.iter().enumerate();
            let v4: Vec<_> = v4.filter(|(_, i)| i.addr.is_ipv4()).take(2).collect();
            if models[slot] < 2 && !v4.is_empty() {
                models[slot] += 1;
                picked.extend(v4.iter().map(|&(idx, i)| (device.id, idx, i.addr)));
            }
        }
        assert_eq!(models, [2; 4], "the tiny population has every model");
        // And one device only the distributed vantage can see.
        let hidden = (held.devices().iter())
            .find(|d| d.responds_to_ping && !d.visible_to_single_vp && !d.ipv4_addrs().is_empty())
            .expect("the tiny population has hosts one vantage point cannot see");
        let iface = hidden.interfaces.iter().position(|i| i.addr.is_ipv4());
        picked.extend(iface.map(|idx| (hidden.id, idx, hidden.interfaces[idx].addr)));

        let mut session = held.probe_session();
        let mut answered = [0usize; 2];
        for round in 0..6u64 {
            for (n, &(device, iface, addr)) in picked.iter().enumerate() {
                let time = SimTime(round * 10_000 + n as u64 * 3);
                for (v, ctx) in [ProbeContext::single(time), ProbeContext::distributed(time)]
                    .iter()
                    .enumerate()
                {
                    let sample = session.identifier_probe_at(device, iface, ctx);
                    assert_eq!(sample, one_shot.icmp_echo(addr, ctx), "{addr} {ctx:?}");
                    answered[v] += usize::from(sample.is_some());
                }
            }
        }
        assert!(answered[0] > 0 && answered[1] > answered[0]);
        // Every device — probed or not — ends in the same state.
        let one_shot = one_shot.probe_session();
        for device in held.devices() {
            assert_eq!(
                format!("{:?}", session.ipid_state(device.id)),
                format!("{:?}", one_shot.ipid_state(device.id)),
                "device {:?}",
                device.id
            );
        }
    }

    #[test]
    fn churn_swaps_dynamic_addresses_and_keeps_index_consistent() {
        let mut config = InternetConfig::tiny(7);
        config.churn.daily_reassign_prob = 1.0;
        config.isp.cpe_dynamic_prob = 1.0;
        let mut internet = InternetBuilder::new(config).build();
        let before: Vec<(DeviceId, IpAddr)> = internet
            .devices()
            .iter()
            .filter(|d| d.dynamic_addresses)
            .map(|d| (d.id, d.interfaces[0].addr))
            .collect();
        assert!(before.len() >= 2);
        let swapped = internet.apply_churn(SimTime::ZERO, SimTime::from_days(21));
        assert!(
            swapped > 0,
            "three weeks at probability 1.0 must swap something"
        );
        // The index still maps every address to the device now holding it.
        for device in internet.devices() {
            for (idx, iface) in device.interfaces.iter().enumerate() {
                assert_eq!(internet.lookup(iface.addr), Some((device.id, idx)));
            }
        }
    }

    #[test]
    fn rate_bursts_are_gated_and_family_routed() {
        let mut config = InternetConfig::tiny(13);
        config.devices.silent_routers = 10;
        let internet = InternetBuilder::new(config).build();
        let ctx = ProbeContext::distributed(SimTime::from_secs(1));
        let silent = internet
            .devices()
            .iter()
            .find(|d| d.kind == DeviceKind::SilentRouter)
            .unwrap();
        let v4 = IpAddr::V4(silent.ipv4_addrs()[0]);
        assert!(internet.ping_responds(v4, &ctx));
        // Family routing mirrors icmp_echo / ipv6_fragment_probe.
        assert!(internet.ipv6_rate_burst(v4, 256.0, 24, &ctx).is_none());
        let below = internet.icmp_rate_burst(v4, 50.0, 24, &ctx).unwrap();
        assert_eq!(below, 24, "a 50 pps burst never trips a silent limiter");
        let above = internet
            .icmp_rate_burst(v4, silent.icmp_limit.rate_pps * 4.0, 24, &ctx)
            .unwrap();
        assert!(above < 24, "4x the limiter rate must lose probes");
        // Holes in the address space are unresponsive.
        let hole: IpAddr = "250.250.250.250".parse().unwrap();
        assert!(!internet.ping_responds(hole, &ctx));
        assert!(internet.icmp_rate_burst(hole, 256.0, 24, &ctx).is_none());
    }

    #[test]
    fn joint_burst_separates_shared_from_independent_limiters() {
        let mut config = InternetConfig::tiny(29);
        config.devices.silent_routers = 10;
        let internet = InternetBuilder::new(config).build();
        let ctx = ProbeContext::distributed(SimTime::from_secs(1));
        let silents: Vec<_> = internet
            .devices()
            .iter()
            .filter(|d| d.kind == DeviceKind::SilentRouter && d.ipv4_addrs().len() >= 2)
            .collect();
        assert!(silents.len() >= 2);
        let dev = silents[0];
        let a = IpAddr::V4(dev.ipv4_addrs()[0]);
        let b = IpAddr::V4(dev.ipv4_addrs()[1]);
        // Find the lowest escalation rate that trips the limiter solo.
        let rate = [256.0, 512.0, 1024.0, 2048.0, 4096.0f64]
            .into_iter()
            .find(|&r| internet.icmp_rate_burst(a, r, 24, &ctx).unwrap() < 24)
            .expect("silent limiters trip within the escalation ladder");
        // Same device: the shared bucket makes joint probing lossy at a
        // combined rate whose halves are individually loss-free.
        let (ja, jb) = internet
            .icmp_joint_rate_burst(a, b, rate, 24, &ctx)
            .unwrap();
        assert!(ja + jb < 48, "shared limiter: joint loss at {rate} pps");
        // Different devices: each limiter sees only its own half-rate
        // stream — exactly two solo bursts at rate / 2.  The probed address
        // itself is loss-free there (it lost nothing below `rate`).
        let other = IpAddr::V4(silents[1].ipv4_addrs()[0]);
        let (ia, ib) = internet
            .icmp_joint_rate_burst(a, other, rate, 24, &ctx)
            .unwrap();
        assert_eq!(ia, 24, "half of the first lossy rate is loss-free");
        assert_eq!(
            ib,
            internet
                .icmp_rate_burst(other, rate / 2.0, 24, &ctx)
                .unwrap(),
            "cross-device joint probing is two independent half-rate streams"
        );
    }

    #[test]
    fn ground_truth_covers_every_interface() {
        let internet = tiny_internet();
        let gt = internet.ground_truth();
        assert_eq!(gt.address_count(), internet.address_count());
        for device in internet.devices() {
            for iface in &device.interfaces {
                assert_eq!(gt.device_of(iface.addr), Some(device.id));
            }
        }
    }

    #[test]
    fn population_stats_add_up() {
        let internet = tiny_internet();
        let stats = internet.population_stats();
        assert_eq!(stats.devices, internet.devices().len());
        assert_eq!(
            stats.devices,
            stats.cloud_vms
                + stats.cloud_servers
                + stats.isp_routers
                + stats.border_routers
                + stats.cpe_devices
                + stats.enterprise_servers
                + stats.silent_routers
        );
        assert!(stats.ssh_responding_addrs > 0);
        assert!(stats.snmp_responding_addrs > 0);
        assert!(stats.bgp_open_senders > 0);
    }
}
