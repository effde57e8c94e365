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
use crate::device::{DeviceRef, DeviceTable, BGP, SNMP, SSH, SSH_DIVERGENT};
use crate::ground_truth::GroundTruth;
use crate::ids::{Asn, DeviceId, Route};
use crate::ipid::{IpidModel, IpidState};
use crate::profiles::{BgpProfile, SshProfile};
use crate::ratelimit::IcmpRateLimit;
use crate::services::{self, SshTemplates};
use crate::space::RoutedSpace;
use crate::topology::AutonomousSystem;
use crate::vantage::VantageKind;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashMap};
use std::net::{IpAddr, Ipv6Addr};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default TCP port of the SSH service.
pub(crate) const SSH_PORT: u16 = 22;
/// Default TCP port of BGP.
pub(crate) const BGP_PORT: u16 = 179;
/// Default UDP port of SNMP.
pub const SNMP_PORT: u16 = 161;

/// Probability per simulated day that a dynamic pair's addresses are
/// swapped.  Roughly 6 % of dynamic pools are reassigned over the three
/// weeks separating the Censys snapshot from the active scan — enough to
/// reproduce the churn-driven validation disagreements the paper discusses
/// without letting churn dominate them.
const DAILY_REASSIGN_PROB: f64 = 0.003;
const _: () = assert!(DAILY_REASSIGN_PROB >= 0.0 && DAILY_REASSIGN_PROB <= 1.0);

/// Application protocols the toolkit scans for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// What an identifier probe observed: one sample of an IPID series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IpidSample {
    /// When the reply was received.
    pub time: SimTime,
    /// The IPID of the reply (an echo reply's IPv4 Identification, a
    /// fragment's IPv6 one).
    pub ipid: u16,
}

/// The probe-state column: the one piece of the simulated Internet that
/// probing mutates.  Every device's IPID counter state by [`DeviceId`],
/// and the per-interface probe counts of the `PerInterface` model, one per
/// interface of the interface column.
#[derive(Debug)]
pub(crate) struct ProbeState {
    pub(crate) ipid: Vec<IpidState>,
    pub(crate) per_interface: Vec<u64>,
}

/// Exclusive access to every device's IPID counter state for a run of
/// identifier probes ([`Internet::probe_session`]).
///
/// The state lives in, and persists in, the [`Internet`]; the session only
/// holds its one lock, so a sweep of millions of probes pays for it once.
/// The lock is not re-entrant: while a session is alive, a second
/// [`Internet::probe_session`] or an [`Internet::ipid_model`] blocks — on
/// the same thread, forever.  Hold
/// a session for one collection loop or one technique's sweep and drop it
/// before calling anything that probes on its own.
pub struct ProbeSession<'a> {
    devices: &'a DeviceTable,
    state: MutexGuard<'a, ProbeState>,
}

impl ProbeSession<'_> {
    /// One identifier probe along `route`: an ICMP echo's IPID for an IPv4
    /// address, a fragmented reply's Identification for an IPv6 one (the
    /// Speedtrap probe).  Both families draw from the same device-wide
    /// counter: the simulator models the counter but not IPv6 fragmentation
    /// itself (see docs/TECHNIQUES.md § Speedtrap), which is exactly the
    /// behaviour Speedtrap's shared-counter inference relies on.  Visibility
    /// and ping are checked on every probe, and only an answered probe
    /// advances the counter.
    pub fn identifier_probe_at(&mut self, route: Route, ctx: &ProbeContext) -> Option<IpidSample> {
        let Route { device, .. } = route;
        if !self.devices.pingable(device, ctx.vantage) {
            return None;
        }
        let ProbeState {
            ipid,
            per_interface,
        } = &mut *self.state;
        let per_interface = &mut per_interface[self.devices.range(device)];
        Some(IpidSample {
            ipid: ipid[device.index()].next_ipid(ctx.time, route.iface as usize, per_interface),
            time: ctx.time,
        })
    }

    /// A round robin's identifier probes: route `t` (`None` takes no probe)
    /// once a round, `t` ms after the round's start in `round_starts`.  The
    /// IPIDs of a route's replies go to `ipids[t]` from the front, in round
    /// order; the counts per route are returned.  Whether a probe is
    /// answered depends on the device and the vantage, never on the time,
    /// so a count is 0 or `R`.  A probe moves only its own device's
    /// counter, so the session probes device by device, each one's routes
    /// round by round: the replies the send order gives.
    pub fn identifier_probe_slots<const R: usize>(
        &mut self,
        routes: &[Option<Route>],
        round_starts: &[SimTime; R],
        vantage: VantageKind,
        ipids: &mut [[u16; R]],
    ) -> Vec<u8> {
        const { assert!(R <= u8::MAX as usize, "a count is a u8") };
        assert_eq!(ipids.len(), routes.len(), "one row of IPIDs a route");
        // (device, route) keys: a device's routes together, unrouted last.
        let mut keys: Vec<u64> = (routes.iter().zip(0..))
            .map(|(route, t)| u64::from(route.map_or(u32::MAX, |route| route.device.0)) << 32 | t)
            .collect();
        keys.sort_unstable();
        let mut answered = vec![0u8; routes.len()];
        for device in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
            for &round_start in round_starts {
                for target in device.iter().map(|&key| key as u32 as usize) {
                    let Some(route) = routes[target] else {
                        continue;
                    };
                    let ctx = ProbeContext {
                        vantage,
                        time: round_start + SimTime(target as u64),
                    };
                    if let Some(sample) = self.identifier_probe_at(route, &ctx) {
                        ipids[target][usize::from(answered[target])] = sample.ipid;
                        answered[target] += 1;
                    }
                }
            }
        }
        answered
    }

    /// A device's IPID counter state as it stands, with its per-interface
    /// probe counts (tests compare two runs through its `Debug` form).
    pub fn ipid_state(&self, device_id: DeviceId) -> (&IpidState, &[u64]) {
        let per_interface = &self.state.per_interface[self.devices.range(device_id)];
        (&self.state.ipid[device_id.index()], per_interface)
    }
}

/// The simulated Internet.
pub struct Internet {
    config: InternetConfig,
    /// Every device and interface, as columns.
    devices: DeviceTable,
    /// Everything an identifier probe writes, behind one lock.
    probe_state: Mutex<ProbeState>,
    ases: Vec<AutonomousSystem>,
    /// The IP index, IPv4 half: the routed space and its slot table.
    space: RoutedSpace,
    /// The IP index, IPv6 half (hitlist-sized, never on a sweep): each
    /// address's position in the interface column.
    v6_index: HashMap<Ipv6Addr, u32>,
    /// Each SSH profile's banner line and KEXINIT packet, written once:
    /// all a session needs of the profile table.
    ssh_templates: SshTemplates,
    bgp_profiles: Vec<BgpProfile>,
    /// Simulated time each device last (re)booted, for SNMP engine time.
    boot_time: SimTime,
}

impl Internet {
    /// Assemble an Internet from generated parts (used by the builder).
    pub(crate) fn from_parts(
        config: InternetConfig,
        devices: DeviceTable,
        ipid: Vec<IpidState>,
        ases: Vec<AutonomousSystem>,
        ssh_profiles: Vec<SshProfile>,
        bgp_profiles: Vec<BgpProfile>,
    ) -> Self {
        assert_eq!(devices.rows.len(), ipid.len());
        let space = RoutedSpace::new(ases.iter().map(|a| a.ipv4_prefix).collect(), &devices);
        let v6 = devices.ifaces.iter().enumerate();
        let v6_index = v6
            .filter_map(|(position, iface)| match iface.addr {
                IpAddr::V6(addr) => Some((addr, position as u32)),
                IpAddr::V4(_) => None,
            })
            .collect();
        let per_interface = vec![0; devices.ifaces.len()];
        Internet {
            config,
            devices,
            probe_state: Mutex::new(ProbeState {
                ipid,
                per_interface,
            }),
            ases,
            space,
            v6_index,
            ssh_templates: SshTemplates::new(&ssh_profiles),
            bgp_profiles,
            boot_time: SimTime::ZERO,
        }
    }

    /// The configuration the Internet was generated from.
    pub fn config(&self) -> &InternetConfig {
        &self.config
    }

    /// All devices, in id order.
    pub fn devices(&self) -> impl ExactSizeIterator<Item = DeviceRef<'_>> + Clone {
        let ids = 0..self.devices.rows.len() as u32;
        ids.map(|id| self.devices.get(DeviceId(id)))
    }

    /// A device by id.
    pub fn device(&self, id: DeviceId) -> DeviceRef<'_> {
        self.devices.get(id)
    }

    /// All autonomous systems.
    pub fn ases(&self) -> &[AutonomousSystem] {
        &self.ases
    }

    /// Number of addresses in the index.
    pub fn address_count(&self) -> usize {
        self.devices.ifaces.len()
    }

    /// The route to the interface holding `addr`, read off the IP index;
    /// `None` for an address no device holds.
    pub fn route(&self, addr: IpAddr) -> Option<Route> {
        match addr {
            IpAddr::V4(v4) => self.space.owner_at(self.space.index_of(v4)?),
            IpAddr::V6(v6) => self.v6_index.get(&v6).map(|&iface| self.space.owner(iface)),
        }
    }

    /// The routed IPv4 space — what an Internet-wide sweep iterates, by
    /// index, resolving each index with `RoutedSpace::owner_at`.
    pub fn routed_space(&self) -> &RoutedSpace {
        &self.space
    }

    /// The address `route` leads to: what a scanner that kept only the
    /// route reads back when it records an answer.
    pub fn addr_at(&self, route: Route) -> IpAddr {
        self.device(route.device).interfaces()[route.iface as usize].addr
    }

    /// The AS announcing the address `route` leads to, mirroring what a
    /// scanner would learn from a BGP routing table / IP-to-ASN database; a
    /// scanner that probes and attributes the same address pays the index
    /// lookup once.
    pub fn asn_at(&self, route: Route) -> Asn {
        self.device(route.device).interfaces()[route.iface as usize].asn
    }

    /// Every IPv6 address on which at least one service answers — the
    /// population an ideal IPv6 hitlist would contain, sorted.  One walk of
    /// the interface column counts them and a second fills the output, its
    /// one allocation.
    pub fn active_ipv6_service_addrs(&self) -> Vec<Ipv6Addr> {
        let table = &self.devices;
        let answering = || {
            let ifaces = table.ifaces.iter().zip(&table.answers);
            ifaces.filter_map(|(iface, &answers)| match iface.addr {
                IpAddr::V6(v6) if answers & (SSH | BGP | SNMP) != 0 => Some(v6),
                _ => None,
            })
        };
        let mut out = Vec::with_capacity(answering().count());
        out.extend(answering());
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Send a TCP SYN to `port` along `route`.  A sweep over a
    /// mostly-unpopulated address space resolves each address once, skips
    /// the (vast) unrouted majority, and probes the hits by reading one
    /// device flag byte and one interface answer byte.
    pub fn syn_probe_at(&self, route: Route, port: u16, ctx: &ProbeContext) -> SynResult {
        let Route { device, .. } = route;
        if !self.devices.visible(device, ctx.vantage) {
            return SynResult::Timeout;
        }
        let service = match port {
            SSH_PORT => SSH,
            BGP_PORT => BGP,
            _ => 0,
        };
        if self.devices.answers_at(device, route.iface as usize) & service != 0 {
            SynResult::SynAck
        } else {
            SynResult::Rst
        }
    }

    /// Complete the TCP handshake on `port` along `route` and capture the
    /// unsolicited (or banner-exchange) bytes the server sends into a
    /// caller-owned buffer (cleared first), so a scan loop can reuse one
    /// allocation across targets.  Returns whether a service answered at
    /// all; an accepted-then-silent session (the silent BGP majority)
    /// returns `true` with an empty buffer.
    pub fn service_session_into(
        &self,
        route: Route,
        port: u16,
        ctx: &ProbeContext,
        out: &mut Vec<u8>,
    ) -> bool {
        out.clear();
        let Route { device, .. } = route;
        if !self.devices.visible(device, ctx.vantage) {
            return false;
        }
        let answers = self.devices.answers_at(device, route.iface as usize);
        let row = &self.devices.rows[device.index()];
        match port {
            SSH_PORT if answers & SSH != 0 => {
                let ssh = row.ssh.as_ref().expect("answers imply configured");
                let profile = match ssh.divergent_profile {
                    Some(other) if answers & SSH_DIVERGENT != 0 => other,
                    _ => ssh.profile,
                };
                let cookie_seed = u64::from(device.0) << 32
                    | u64::from(route.iface) << 16
                    | (ctx.time.as_millis() & 0xffff);
                let host_key = self.devices.host_key(ssh);
                (self.ssh_templates).session_into(profile.0 as usize, host_key, cookie_seed, out);
                true
            }
            BGP_PORT if answers & BGP != 0 => {
                let bgp = row.bgp.as_ref().expect("answers imply configured");
                let profile = &self.bgp_profiles[bgp.profile.0 as usize];
                services::bgp_session_bytes_into(profile, bgp.bgp_identifier, bgp.asn, out);
                true
            }
            _ => false,
        }
    }

    /// Send an SNMPv3 datagram along `route`, capturing the response into a
    /// caller-owned buffer (cleared first) so a sweep reuses one allocation
    /// across targets.  Returns whether the agent answered.  The datagram
    /// comes from `request`, called once, and only by an interface that
    /// answers SNMP at all: a sweep builds a request only for an agent that
    /// reads it.
    pub fn snmp_probe_into<'r>(
        &self,
        route: Route,
        request: impl FnOnce() -> &'r [u8],
        ctx: &ProbeContext,
        out: &mut Vec<u8>,
    ) -> bool {
        out.clear();
        let Route { device, .. } = route;
        if !self.devices.visible(device, ctx.vantage)
            || self.devices.answers_at(device, route.iface as usize) & SNMP == 0
        {
            return false;
        }
        let row = &self.devices.rows[device.index()];
        let snmp = row.snmp.as_ref().expect("answers imply configured");
        services::snmp_report_into(
            self.devices.engine_id(snmp),
            snmp.engine_boots,
            self.boot_time,
            ctx.time,
            request(),
            out,
        )
    }

    /// Lock the probe-state column for a run of identifier probes.  See
    /// [`ProbeSession`] for who may hold one and for how long.
    pub fn probe_session(&self) -> ProbeSession<'_> {
        // Probes leave whole counter values: a poisoned lock is taken as is.
        let state = self.probe_state.lock();
        ProbeSession {
            devices: &self.devices,
            state: state.unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// The IPID counter model of a device (takes the column's lock for the
    /// read, so not while a [`ProbeSession`] is alive on this thread).
    /// Simulator ground truth that no pipeline stage reads: tests pick the
    /// devices an IPID technique can confirm by it.
    pub fn ipid_model(&self, device_id: DeviceId) -> IpidModel {
        let state = self.probe_state.lock();
        state.unwrap_or_else(PoisonError::into_inner).ipid[device_id.index()].model()
    }

    /// Whether `route` answers ICMP echo at all from this vantage — the
    /// stateless discovery check the rate prober sweeps with: one read of
    /// a flag byte.  Unlike an identifier probe it never advances the IPID
    /// counter, so sweeping the routed space leaves the substrate
    /// untouched.
    pub fn ping_responds_at(&self, route: Route, ctx: &ProbeContext) -> bool {
        self.devices.pingable(route.device, ctx.vantage)
    }

    /// The ICMP limiter answering echo along `route`, with a key equal for
    /// exactly the routes it answers: today the device's router-wide
    /// limiter, keyed by the device.  Everything netsim memoises per limiter
    /// reads the key here.
    pub(crate) fn limiter(&self, route: Route) -> (usize, IcmpRateLimit) {
        let device = route.device.index();
        (device, self.devices.rows[device].icmp_limit)
    }

    /// The number of limiter keys: every [`Self::limiter`] key is below it.
    pub(crate) fn limiters(&self) -> usize {
        self.devices.rows.len()
    }

    /// Probe `route` with `count` evenly paced ICMP echo requests at
    /// `rate_pps` and count the replies surviving the limiter that answers
    /// it — the rate-limiting technique's measurement primitive.
    ///
    /// The limiter bucket starts full: the prober enforces an inter-burst
    /// cool-down long enough to refill any configured limiter, which models
    /// the steady state a real limiter returns to *and* makes the reply
    /// count a pure function of (limiter, rate, count) — bursts against
    /// different targets can run in any order on any number of shard
    /// workers with byte-identical results, and
    /// [`Self::rate_ladders`] steps each limiter once.  The burst never
    /// touches the IPID counter: rate-probing must not perturb the IPID
    /// time series the other techniques sample.
    pub(crate) fn rate_burst_at(
        &self,
        route: Route,
        rate_pps: f64,
        count: u32,
        ctx: &ProbeContext,
    ) -> Option<u32> {
        let (_, limit) = self.limiter(route);
        (self.ping_responds_at(route, ctx))
            .then(|| crate::ratelimit::solo_burst_replies(limit, rate_pps, count))
    }

    /// Send a UDP datagram to a closed port along `route` and observe the
    /// source address of the resulting ICMP port-unreachable (the iffinder /
    /// common-source-address technique).  `None` means no error was
    /// returned.  A device with a common error source answers from it only
    /// in the probed interface's family (an ICMPv6 error cannot leave from
    /// an IPv4 address); otherwise it answers from the probed address.
    pub fn udp_closed_port_probe_at(&self, route: Route, ctx: &ProbeContext) -> Option<IpAddr> {
        if !self.ping_responds_at(route, ctx) {
            return None;
        }
        let ifaces = &self.devices.ifaces[self.devices.range(route.device)];
        let probed = ifaces[route.iface as usize].addr;
        let source = self.device(route.device).icmp_error_source();
        let source = source.map(|iface| ifaces[iface].addr);
        Some(
            source
                .filter(|source| source.is_ipv4() == probed.is_ipv4())
                .unwrap_or(probed),
        )
    }

    /// Reassign addresses of dynamic devices to model address churn over the
    /// interval `[from, to]`.
    ///
    /// Dynamic devices in the same AS pool are paired at random, and each
    /// pair swaps IPv4 addresses with probability 0.003 per elapsed day
    /// (certain from about 333 days on); this is what breaks long-running
    /// measurements (the paper attributes part of the MIDAR disagreement to
    /// churn over its three-week run).
    pub fn apply_churn(&mut self, from: SimTime, to: SimTime) -> usize {
        let elapsed_days = (to.since(from).as_secs() as f64) / 86_400.0;
        let prob = (DAILY_REASSIGN_PROB * elapsed_days).min(1.0);
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
        for device in self.devices().filter(|device| device.dynamic_addresses()) {
            if let Some(iface) = device.interfaces().first() {
                if iface.addr.is_ipv4() {
                    pools.entry(iface.asn).or_default().push(device.id());
                }
            }
        }

        let mut swapped = 0;
        for (_, mut pool) in pools {
            if pool.len() < 2 {
                continue;
            }
            pool.shuffle(&mut rng);
            for pair in pool.chunks_exact(2) {
                if rand::Rng::gen_bool(&mut rng, prob) {
                    self.swap_first_v4(pair[0], pair[1]);
                    swapped += 1;
                }
            }
        }
        swapped
    }

    /// Exchange the first interfaces' addresses of two devices, in the
    /// interface column and in the slot table.
    fn swap_first_v4(&mut self, a: DeviceId, b: DeviceId) {
        let [a, b] = [a, b].map(|device| self.devices.starts[device.index()] as usize);
        let (addr_a, addr_b) = (self.devices.ifaces[a].addr, self.devices.ifaces[b].addr);
        self.devices.ifaces[a].addr = addr_b;
        self.devices.ifaces[b].addr = addr_a;
        let (IpAddr::V4(v4_a), IpAddr::V4(v4_b)) = (addr_a, addr_b) else {
            unreachable!("churn pools hold devices whose first interface is IPv4");
        };
        self.space.swap_owners(v4_a, v4_b);
    }

    /// The true aliasing relation: a view of the IP index.
    pub fn ground_truth(&self) -> GroundTruth<'_> {
        GroundTruth { internet: self }
    }

    /// How many BGP speakers send an OPEN to an unsolicited peer and how
    /// many close silently: what the `stats` section quotes (§2.3).
    pub fn population_stats(&self) -> PopulationStats {
        let mut stats = PopulationStats::default();
        for bgp in self.devices().filter_map(|device| device.bgp()) {
            if self.bgp_profiles[bgp.profile.0 as usize].sends_open {
                stats.bgp_open_senders += 1;
            } else {
                stats.bgp_silent_closers += 1;
            }
        }
        stats
    }
}

/// What the `stats` section quotes of the generated population.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PopulationStats {
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
    use crate::device::DeviceKind;
    use alias_wire::snmp::Snmpv3Message;

    fn tiny_internet() -> Internet {
        InternetBuilder::new(InternetConfig::tiny(42)).build()
    }

    fn single(time: SimTime) -> ProbeContext {
        ProbeContext {
            vantage: VantageKind::SingleVp,
            time,
        }
    }

    fn distributed(time: SimTime) -> ProbeContext {
        ProbeContext {
            vantage: VantageKind::Distributed,
            time,
        }
    }

    /// The device and interface index a route leads to.
    fn owner(route: Option<Route>) -> Option<(DeviceId, usize)> {
        route.map(|route| (route.device, route.iface as usize))
    }

    /// A SYN to `dst`, resolved the way a sweep resolves it.
    fn syn(internet: &Internet, dst: IpAddr, port: u16, ctx: &ProbeContext) -> SynResult {
        match internet.route(dst) {
            Some(route) => internet.syn_probe_at(route, port, ctx),
            None => SynResult::Timeout,
        }
    }

    /// The SNMP reply of the interface behind `dst`, if it answers.
    fn snmp(
        internet: &Internet,
        dst: IpAddr,
        request: &[u8],
        ctx: &ProbeContext,
    ) -> Option<Vec<u8>> {
        let route = internet.route(dst)?;
        let mut out = Vec::new();
        internet
            .snmp_probe_into(route, || request, ctx, &mut out)
            .then_some(out)
    }

    /// The reply count of an echo burst at `dst`.
    fn burst(internet: &Internet, dst: IpAddr, rate_pps: f64, ctx: &ProbeContext) -> Option<u32> {
        internet.rate_burst_at(internet.route(dst)?, rate_pps, 24, ctx)
    }

    /// Whether `dst` answers echo.
    fn pings(internet: &Internet, dst: IpAddr, ctx: &ProbeContext) -> bool {
        (internet.route(dst)).is_some_and(|route| internet.ping_responds_at(route, ctx))
    }

    #[test]
    fn lookup_and_asn_mapping_are_consistent() {
        let internet = tiny_internet();
        let device = internet
            .devices()
            .find(|d| !d.interfaces().is_empty())
            .expect("devices exist");
        let iface = device.interfaces()[0];
        assert_eq!(owner(internet.route(iface.addr)), Some((device.id(), 0)));
        assert_eq!(internet.asn_at(device.route(0)), iface.asn);
        assert_eq!(internet.addr_at(device.route(0)), iface.addr);
        assert!(internet.route("203.0.113.7".parse().unwrap()).is_none());
    }

    #[test]
    fn syn_probe_matches_service_configuration() {
        let internet = tiny_internet();
        let ctx = distributed(SimTime::from_secs(1));
        let mut saw_ssh = false;
        for device in internet.devices() {
            for addr in device.answering(ServiceProtocol::Ssh) {
                assert_eq!(syn(&internet, addr, SSH_PORT, &ctx), SynResult::SynAck);
                saw_ssh = true;
            }
        }
        assert!(saw_ssh, "the tiny preset should include SSH hosts");
        // An address that exists but has no BGP service answers RST.
        let non_bgp = internet
            .devices()
            .find(|d| d.bgp().is_none() && !d.interfaces().is_empty())
            .unwrap();
        assert_eq!(
            syn(&internet, non_bgp.interfaces()[0].addr, BGP_PORT, &ctx),
            SynResult::Rst
        );
        // A hole in the address space times out.
        assert_eq!(
            syn(
                &internet,
                "250.250.250.250".parse().unwrap(),
                SSH_PORT,
                &ctx
            ),
            SynResult::Timeout
        );
    }

    #[test]
    fn single_vp_sees_fewer_hosts_than_distributed() {
        let internet = tiny_internet();
        let time = SimTime::from_secs(1);
        let single = single(time);
        let distributed = distributed(time);
        let mut single_count = 0;
        let mut distributed_count = 0;
        for device in internet.devices() {
            for addr in device.answering(ServiceProtocol::Ssh) {
                if syn(&internet, addr, SSH_PORT, &single) == SynResult::SynAck {
                    single_count += 1;
                }
                if syn(&internet, addr, SSH_PORT, &distributed) == SynResult::SynAck {
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
        let ctx = distributed(SimTime::from_secs(5));
        let addr = internet
            .devices()
            .find_map(|d| d.answering(ServiceProtocol::Ssh).next())
            .unwrap();
        let route = internet.route(addr).unwrap();
        let mut bytes = Vec::new();
        assert!(internet.service_session_into(route, SSH_PORT, &ctx, &mut bytes));
        let (banner, _) = alias_wire::ssh::Banner::parse_borrowed(&bytes).unwrap();
        assert_eq!(banner.proto_version, "2.0");
    }

    #[test]
    fn snmp_probe_answers_discovery_only_on_configured_interfaces() {
        let internet = tiny_internet();
        let ctx = distributed(SimTime::from_secs(9));
        let mut request = Vec::new();
        Snmpv3Message::DiscoveryRequest { msg_id: 5 }.encode_into(&mut request);
        let addr = internet
            .devices()
            .find_map(|d| d.answering(ServiceProtocol::Snmpv3).next())
            .expect("tiny preset has SNMP devices");
        let reply = snmp(&internet, addr, &request, &ctx).unwrap();
        assert!(matches!(
            Snmpv3Message::parse(&reply).unwrap(),
            Snmpv3Message::Report { msg_id: 5, .. }
        ));
        // Garbage requests are ignored.
        assert!(snmp(&internet, addr, b"not-snmp", &ctx).is_none());
    }

    #[test]
    fn the_request_writer_runs_once_for_each_visible_listening_interface_only() {
        let internet = tiny_internet();
        let mut request = Vec::new();
        Snmpv3Message::DiscoveryRequest { msg_id: 5 }.encode_into(&mut request);
        let mut reply = Vec::new();
        for ctx in [
            single(SimTime::from_secs(9)),
            distributed(SimTime::from_secs(9)),
        ] {
            let (mut listening, mut silent) = (0, 0);
            for device in internet.devices() {
                let visible =
                    ctx.vantage == VantageKind::Distributed || device.visible_to_single_vp();
                for iface in 0..device.interfaces().len() {
                    let reads = visible && device.responds_on(ServiceProtocol::Snmpv3, iface);
                    let mut calls = 0;
                    let answered = internet.snmp_probe_into(
                        device.route(iface),
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
                    assert!(!internet.snmp_probe_into(
                        device.route(iface),
                        garbage,
                        &ctx,
                        &mut reply
                    ));
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

    /// One identifier probe of `addr`, resolved by address, in a session
    /// of its own.
    fn probe(internet: &Internet, addr: IpAddr, ctx: &ProbeContext) -> Option<IpidSample> {
        let route = internet.route(addr)?;
        let mut session = internet.probe_session();
        session.identifier_probe_at(route, ctx)
    }

    #[test]
    fn an_identifier_probe_advances_ipid() {
        let internet = tiny_internet();
        let device = internet
            .devices()
            .find(|d| d.responds_to_ping() && !d.ipv4_addrs().is_empty())
            .unwrap();
        let addr = IpAddr::V4(device.ipv4_addrs()[0]);
        let a = probe(&internet, addr, &distributed(SimTime::from_secs(1))).unwrap();
        let b = probe(&internet, addr, &distributed(SimTime::from_secs(2))).unwrap();
        // For every model except Constant the two samples differ with
        // overwhelming probability; accept equality only for constant models.
        let model = internet.ipid_model(device.id());
        if !matches!(model, IpidModel::Constant(_)) {
            assert_ne!((a.ipid, a.time), (b.ipid, b.time));
        }
    }

    #[test]
    fn both_families_share_the_device_counter() {
        let internet = tiny_internet();
        let device = internet
            .devices()
            .find(|d| {
                d.responds_to_ping()
                    && !d.ipv4_addrs().is_empty()
                    && d.interfaces().iter().any(|i| i.addr.is_ipv6())
                    && matches!(
                        internet.ipid_model(d.id()),
                        IpidModel::SharedMonotonic { .. }
                    )
            })
            .expect("tiny preset has dual-stack shared-counter devices");
        let v4 = IpAddr::V4(device.ipv4_addrs()[0]);
        let v6 = device
            .interfaces()
            .iter()
            .map(|i| i.addr)
            .find(IpAddr::is_ipv6)
            .unwrap();
        // Alternating v4/v6 probes of a low-velocity shared counter draw
        // from one sequence: strictly increasing across the families.
        let velocity = internet.ipid_model(device.id()).velocity();
        if velocity.unwrap_or(f64::MAX) < 100.0 {
            let a = probe(&internet, v4, &distributed(SimTime::from_secs(2))).unwrap();
            let b = probe(&internet, v6, &distributed(SimTime::from_secs(2))).unwrap();
            assert!(b.ipid > a.ipid, "fragment id {} vs ipid {}", b.ipid, a.ipid);
        }
    }

    #[test]
    fn a_session_of_many_probes_equals_as_many_one_shot_probes() {
        // Two same-seed Internets: one probed through a single session,
        // the other through a session of one probe each time.
        let (held, one_shot) = (tiny_internet(), tiny_internet());
        // Two pingable devices of each counter model, two interfaces of
        // each where it has them.
        let mut picked: Vec<(DeviceId, usize, IpAddr)> = Vec::new();
        let mut models = [0usize; 4];
        for device in held.devices().filter(|d| d.responds_to_ping()) {
            let slot = match held.ipid_model(device.id()) {
                IpidModel::SharedMonotonic { .. } => 0,
                IpidModel::PerInterface { .. } => 1,
                IpidModel::Random => 2,
                IpidModel::Constant(_) => 3,
            };
            let v4 = device.interfaces().iter().enumerate();
            let v4: Vec<_> = v4.filter(|(_, i)| i.addr.is_ipv4()).take(2).collect();
            if models[slot] < 2 && !v4.is_empty() {
                models[slot] += 1;
                picked.extend(v4.iter().map(|&(idx, i)| (device.id(), idx, i.addr)));
            }
        }
        assert_eq!(models, [2; 4], "the tiny population has every model");
        // And one device only the distributed vantage can see.
        let hidden = held
            .devices()
            .find(|d| {
                d.responds_to_ping() && !d.visible_to_single_vp() && !d.ipv4_addrs().is_empty()
            })
            .expect("the tiny population has hosts one vantage point cannot see");
        let iface = hidden.interfaces().iter().position(|i| i.addr.is_ipv4());
        picked.extend(iface.map(|idx| (hidden.id(), idx, hidden.interfaces()[idx].addr)));

        let mut session = held.probe_session();
        let mut answered = [0usize; 2];
        for round in 0..6u64 {
            for (n, &(device, iface, addr)) in picked.iter().enumerate() {
                let time = SimTime(round * 10_000 + n as u64 * 3);
                for (v, ctx) in [single(time), distributed(time)].iter().enumerate() {
                    let sample = session.identifier_probe_at(held.device(device).route(iface), ctx);
                    assert_eq!(sample, probe(&one_shot, addr, ctx), "{addr} {ctx:?}");
                    answered[v] += usize::from(sample.is_some());
                }
            }
        }
        assert!(answered[0] > 0 && answered[1] > answered[0]);
        // Every device — probed or not — ends in the same state.
        let one_shot = one_shot.probe_session();
        for device in held.devices() {
            assert_eq!(
                format!("{:?}", session.ipid_state(device.id())),
                format!("{:?}", one_shot.ipid_state(device.id())),
                "device {:?}",
                device.id()
            );
        }
    }

    #[test]
    fn a_common_error_source_answers_only_in_the_probed_family() {
        let internet = tiny_internet();
        let ctx = distributed(SimTime::from_secs(1));
        let (mut v4, mut v6) = (0, 0);
        for device in internet.devices().filter(|d| d.responds_to_ping()) {
            let Some(source) = device.icmp_error_source() else {
                continue;
            };
            let source = device.interfaces()[source].addr;
            assert!(source.is_ipv4());
            for (iface_idx, iface) in device.interfaces().iter().enumerate() {
                assert_eq!(
                    owner(internet.route(iface.addr)),
                    Some((device.id(), iface_idx))
                );
                let answer = internet.udp_closed_port_probe_at(device.route(iface_idx), &ctx);
                if iface.addr.is_ipv4() {
                    assert_eq!(answer, Some(source), "{}", iface.addr);
                    v4 += 1;
                } else {
                    assert_eq!(
                        answer,
                        Some(iface.addr),
                        "an ICMPv6 error from an IPv6 source"
                    );
                    v6 += 1;
                }
            }
        }
        assert!(
            v4 > 10 && v6 > 2,
            "{v4} IPv4 and {v6} IPv6 interfaces probed"
        );
    }

    #[test]
    fn churn_swaps_dynamic_addresses_and_keeps_index_consistent() {
        let mut internet = InternetBuilder::new(InternetConfig::tiny(7)).build();
        let before: Vec<(DeviceId, IpAddr)> = internet
            .devices()
            .filter(|d| d.dynamic_addresses())
            .map(|d| (d.id(), d.interfaces()[0].addr))
            .collect();
        assert!(before.len() >= 2);
        // 400 days make every pair's swap certain.
        let swapped = internet.apply_churn(SimTime::ZERO, SimTime::from_days(400));
        assert!(swapped > 0, "certain churn must swap something");
        // The index still maps every address to the device now holding it.
        for device in internet.devices() {
            for (idx, iface) in device.interfaces().iter().enumerate() {
                assert_eq!(owner(internet.route(iface.addr)), Some((device.id(), idx)));
            }
        }
    }

    #[test]
    fn rate_bursts_are_gated_and_family_routed() {
        let mut config = InternetConfig::tiny(13);
        config.devices.silent_routers = 10;
        let internet = InternetBuilder::new(config).build();
        let ctx = distributed(SimTime::from_secs(1));
        let silent = internet
            .devices()
            .find(|d| d.kind() == DeviceKind::SilentRouter)
            .unwrap();
        let v4 = IpAddr::V4(silent.ipv4_addrs()[0]);
        assert!(pings(&internet, v4, &ctx));
        let below = burst(&internet, v4, 50.0, &ctx).unwrap();
        assert_eq!(below, 24, "a 50 pps burst never trips a silent limiter");
        let above = burst(&internet, v4, silent.icmp_limit().rate_pps * 4.0, &ctx).unwrap();
        assert!(above < 24, "4x the limiter rate must lose probes");
        // Holes in the address space are unresponsive.
        let hole: IpAddr = "250.250.250.250".parse().unwrap();
        assert!(!pings(&internet, hole, &ctx));
        assert!(burst(&internet, hole, 256.0, &ctx).is_none());
    }

    #[test]
    fn joint_burst_separates_shared_from_independent_limiters() {
        let mut config = InternetConfig::tiny(29);
        config.devices.silent_routers = 10;
        let internet = InternetBuilder::new(config).build();
        let ctx = distributed(SimTime::from_secs(1));
        let silents: Vec<_> = internet
            .devices()
            .filter(|d| d.kind() == DeviceKind::SilentRouter && d.ipv4_addrs().len() >= 2)
            .collect();
        assert!(silents.len() >= 2);
        let dev = silents[0];
        let a = IpAddr::V4(dev.ipv4_addrs()[0]);
        let b = IpAddr::V4(dev.ipv4_addrs()[1]);
        // Find the lowest escalation rate that trips the limiter solo.
        let rate = [256.0, 512.0, 1024.0, 2048.0, 4096.0f64]
            .into_iter()
            .find(|&r| burst(&internet, a, r, &ctx).unwrap() < 24)
            .expect("silent limiters trip within the escalation ladder");
        // Same device, probed round robin at half the rate each: the shared
        // bucket makes the pair lossy at a combined rate whose halves are
        // individually loss-free.  The pair door this group burst replaced
        // answered (11, 19) here.
        let route = |addr| internet.route(addr).expect("routed");
        let mut bursts = internet.group_bursts();
        let mut pair = |x, y| {
            let replies = bursts.burst(&[route(x), route(y)], rate / 2.0, 24, &ctx);
            <[u32; 2]>::try_from(replies.expect("both answer echo")).expect("two routes")
        };
        assert_eq!(rate, 512.0);
        assert_eq!(
            pair(a, b),
            [11, 19],
            "shared limiter: joint loss at {rate} pps"
        );
        // Different devices: each limiter sees only its own half-rate
        // stream — exactly two solo bursts at rate / 2.  The probed address
        // itself is loss-free there (it lost nothing below `rate`).
        let other = IpAddr::V4(silents[1].ipv4_addrs()[0]);
        let [ia, ib] = pair(a, other);
        assert_eq!(ia, 24, "half of the first lossy rate is loss-free");
        assert_eq!(
            ib,
            burst(&internet, other, rate / 2.0, &ctx).unwrap(),
            "cross-device joint probing is two independent half-rate streams"
        );
        assert_eq!(ib, 24);
    }

    #[test]
    fn ground_truth_covers_every_interface() {
        let internet = tiny_internet();
        let gt = internet.ground_truth();
        let mut interfaces = 0;
        for device in internet.devices() {
            for iface in device.interfaces() {
                assert_eq!(gt.device_of(iface.addr), Some(device.id()));
                interfaces += 1;
            }
            // Two interfaces of one device are aliases.
            if let [a, b, ..] = device.interfaces() {
                assert_eq!(gt.device_of(a.addr), gt.device_of(b.addr));
            }
        }
        assert_eq!(interfaces, internet.address_count());
        // Interfaces of two devices are not, nor is an address nobody holds.
        let firsts: Vec<IpAddr> = (internet.devices().take(2))
            .map(|device| device.interfaces()[0].addr)
            .collect();
        assert_ne!(gt.device_of(firsts[0]), gt.device_of(firsts[1]));
        let nobody: IpAddr = "192.0.2.1".parse().unwrap();
        assert!(internet.route(nobody).is_none());
        assert_eq!(gt.device_of(nobody), None);
    }

    #[test]
    fn population_stats_add_up() {
        let internet = tiny_internet();
        let stats = internet.population_stats();
        let speakers = internet.devices().filter(|d| d.bgp().is_some()).count();
        assert_eq!(stats.bgp_open_senders + stats.bgp_silent_closers, speakers);
        assert!(stats.bgp_open_senders > 0 && stats.bgp_silent_closers > 0);
    }
}
