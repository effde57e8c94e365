//! Deterministic generation of a synthetic Internet from an
//! [`InternetConfig`].
//!
//! The builder creates the AS topology, populates it with devices of the six
//! archetypes, wires up services, anomalies and measurement-visibility
//! flags, and returns an [`Internet`] ready to be scanned.  The
//! configuration chooses the seed and how many ASes and devices of each
//! kind there are; how each archetype is shaped — its probabilities,
//! address ranges, IPID mix and ICMP limiter — is calibrated to the paper's
//! Table 1 and fixed by this module's constants, each checked at compile
//! time.  Everything is derived from a `ChaCha8` stream seeded with
//! `config.seed`, so identical configurations produce identical Internets.
//! Devices are written straight into the Internet's columns
//! ([`crate::device`]): an interface is pushed onto the interface column as
//! it is allocated, an ACL sets answer bits in place, and a device is closed
//! by pushing its row.

use crate::config::InternetConfig;
use crate::device::{
    BgpService, DeviceKind, DeviceRow, DeviceTable, Interface, SnmpRow, Span, SshRow, BGP, CENSYS,
    DYNAMIC, PING, SNMP, SSH, SSH_DIVERGENT, VISIBLE,
};
use crate::ids::Asn;
use crate::internet::Internet;
use crate::ipid::{IpidModel, IpidState};
use crate::profiles::{bgp_profiles, ssh_profiles, BgpProfileId, SshProfileId, WeightedSet};
use crate::ratelimit::IcmpRateLimit;
use crate::topology::{AsKind, AutonomousSystem, PrefixAllocator};
use alias_wire::snmp::EngineId;
use alias_wire::ssh::HostKeyAlgorithm;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::net::{IpAddr, Ipv4Addr};
use std::ops::RangeInclusive;

/// Real-world cloud-provider ASNs (from the paper's Table 5/6) used for the
/// first generated cloud ASes so reports read naturally.
const CLOUD_ASNS: &[u32] = &[
    14_061, 16_509, 16_276, 24_940, 14_618, 45_102, 396_982, 46_606, 63_949, 20_473, 26_347, 8_560,
    197_695, 12_876, 51_167, 8_972,
];

/// Real-world ISP ASNs (from the paper's Tables 5/6) used for the first
/// generated ISP ASes.
const ISP_ASNS: &[u32] = &[
    22_927, 4_134, 3_269, 30_722, 3_320, 12_874, 8_881, 5_089, 3_301, 7_018, 7_029, 21_859, 701,
    42_689, 19_429, 12_389, 852, 17_511, 4_837, 6_939, 9_808, 7_922, 7_684, 197_540, 20_857, 7_506,
    24_940, 3_356, 1_299, 6_453, 2_914, 6_762, 1_273, 5_511, 3_491, 6_461,
];

// ----------------------------------------------------------------------
// The population's shape, calibrated to the paper's Table 1
// ----------------------------------------------------------------------

/// `p`, checked at compile time to be a probability.
const fn probability(p: f64) -> f64 {
    assert!(p >= 0.0 && p <= 1.0, "not a probability");
    p
}

/// Probability that a single-address cloud VM also has one IPv6 address.
const VM_DUAL_STACK_PROB: f64 = probability(0.035);
/// Probability that a cloud VM is IPv6-only (no IPv4 interface).
const VM_IPV6_ONLY_PROB: f64 = probability(0.012);
/// IPv4 addresses on a multi-address cloud server.
const SERVER_V4: RangeInclusive<usize> = 2..=6;
/// Fraction of cloud servers that are large load-balancer clusters.
const SERVER_LB_FRACTION: f64 = probability(0.03);
/// Most IPv4 addresses on a load-balancer cluster.
const SERVER_LB_MAX: usize = 220;
/// Probability that a cloud server is dual-stack.
const SERVER_DUAL_STACK_PROB: f64 = probability(0.22);
/// IPv6 addresses on a dual-stack cloud server.
const SERVER_V6: RangeInclusive<usize> = 2..=8;
/// Probability that a cloud server also runs SNMPv3.
const SERVER_SNMP_PROB: f64 = probability(0.04);

/// Probability that an ISP router runs SNMPv3.
const ROUTER_SNMP_PROB: f64 = probability(0.88);
/// Probability that an ISP router also answers SSH.
const ROUTER_SSH_PROB: f64 = probability(0.14);
/// Mean number of IPv4 interfaces on an ISP or silent router (a heavy tail).
const ROUTER_IFACES_MEAN: f64 = 9.0;
/// Most interfaces on an ISP or silent router.
const ROUTER_IFACES_MAX: usize = 400;
/// Probability that an ISP or silent router is dual-stack.
const ROUTER_DUAL_STACK_PROB: f64 = probability(0.06);
/// Most IPv6 interfaces on a dual-stack ISP or silent router.
const ROUTER_V6_MAX: usize = 6;
/// Probability that an ISP router has TCP/179 open but closes silently
/// (the "5.8M close immediately" population).
const ROUTER_SILENT_BGP_PROB: f64 = probability(0.55);
/// Probability that a CPE device runs SNMPv3.
const CPE_SNMP_PROB: f64 = probability(0.62);
/// Probability that a CPE device runs SSH (dropbear-style).
const CPE_SSH_PROB: f64 = probability(0.22);
/// Probability that a CPE device has a second IPv4 address.
const CPE_TWO_ADDR_PROB: f64 = probability(0.04);
/// Probability that a CPE device is dual-stack.
const CPE_DUAL_STACK_PROB: f64 = probability(0.015);
/// Probability that a CPE device sits in a dynamic (churning) pool.
const CPE_DYNAMIC_PROB: f64 = probability(0.5);

/// Mean number of IPv4 interfaces on a border router.
const BORDER_IFACES_MEAN: f64 = 11.0;
/// Most interfaces on a border router.
const BORDER_IFACES_MAX: usize = 500;
/// Probability that each interface after a border router's first is
/// numbered from a neighbouring AS — the multi-AS alias sets of Fig. 5.
const BORDER_FOREIGN_AS_PROB: f64 = probability(0.28);
/// Probability that a border router also runs SNMPv3.
const BORDER_SNMP_PROB: f64 = probability(0.45);
/// Probability that a border router also answers SSH.
const BORDER_SSH_PROB: f64 = probability(0.12);
/// Probability that a border router is dual-stack.
const BORDER_DUAL_STACK_PROB: f64 = probability(0.14);
/// Most IPv6 interfaces on a dual-stack border router.
const BORDER_V6_MAX: usize = 8;

/// Probability that an enterprise server answers SSH.
const ENTERPRISE_SSH_PROB: f64 = probability(0.92);
/// Probability that an enterprise server has a second address.
const ENTERPRISE_TWO_ADDR_PROB: f64 = probability(0.08);

/// The probability that a deployed SSH service answers on a given interface
/// (firewalls and ACLs limit alias discovery); cloud VMs and CPE answer on
/// every interface.
const SSH_COVERAGE: f64 = probability(0.9);
/// ACL coverage of BGP, as [`SSH_COVERAGE`].
const BGP_COVERAGE: f64 = probability(0.75);
/// ACL coverage of SNMPv3, as [`SSH_COVERAGE`].
const SNMP_COVERAGE: f64 = probability(0.85);

/// Fraction of SSH devices shipping a factory-default (shared) host key.
const DEFAULT_KEY_FRACTION: f64 = probability(0.003);
/// Fraction of multi-interface SSH devices whose interfaces advertise
/// diverging algorithm capabilities (the paper measures 0.4%).
const CAPABILITY_DIVERGENCE_FRACTION: f64 = probability(0.004);
/// Fraction of BGP speakers with a misconfigured, non-unique identifier.
const DUPLICATE_BGP_IDENTIFIER_FRACTION: f64 = probability(0.01);

/// Fraction of devices that do not answer the single-VP active scan (rate
/// limiting / IDS filtering) but do answer distributed scans.
const SINGLE_VP_INVISIBLE_FRACTION: f64 = probability(0.27);
/// Fraction of devices covered by the Censys-like snapshot.
const CENSYS_COVERAGE: f64 = probability(0.88);

/// Probability that a router (ISP, border, CPE) answers echo probes.
const ROUTER_PING_PROB: f64 = probability(0.85);
/// Probability that a server answers echo probes.
const SERVER_PING_PROB: f64 = probability(0.6);
/// Probability that a router or cloud server sources ICMP errors from one
/// interface (what the iffinder technique detects).
const COMMON_SOURCE_PROB: f64 = probability(0.3);

/// A device class's mixture of IPID counter behaviours; what the three
/// kinds leave of the probability is a constant (zero) IPID.
struct IpidMix {
    /// Probability of a shared monotonic counter (the MIDAR-friendly case).
    shared_monotonic: f64,
    /// Probability of per-interface counters.
    per_interface: f64,
    /// Probability of random IPIDs.
    random: f64,
    /// Given a shared monotonic counter, probability that its velocity is
    /// too high for reliable sampling.
    high_velocity_given_shared: f64,
}

impl IpidMix {
    /// What the three kinds leave: the probability of a constant IPID.
    const fn constant(&self) -> f64 {
        1.0 - (self.shared_monotonic + self.per_interface + self.random)
    }
}

/// Routers (ISP, border, CPE): some shared counters, many alternatives.
const ROUTER_IPID: IpidMix = IpidMix {
    shared_monotonic: probability(0.35),
    per_interface: probability(0.25),
    random: probability(0.25),
    high_velocity_given_shared: probability(0.35),
};
/// Servers: shared counters are rare on modern server stacks.
const SERVER_IPID: IpidMix = IpidMix {
    shared_monotonic: probability(0.12),
    per_interface: probability(0.08),
    random: probability(0.55),
    high_velocity_given_shared: probability(0.25),
};
const _: () = assert!(ROUTER_IPID.constant() >= 0.0 && SERVER_IPID.constant() >= 0.0);

/// A limiter's sustained-rate range (pps), checked at compile time to be
/// positive and ordered.
const fn rate_range(lo: f64, hi: f64) -> RangeInclusive<f64> {
    assert!(lo > 0.0 && hi >= lo, "not a rate range");
    RangeInclusive::new(lo, hi)
}

/// Every device polices ICMP replies with one router-wide token bucket
/// (Vermeulen et al., arXiv 2002.00252) whose sustained rate is drawn from
/// its class's range; this is the range of ISP and border routers.
///
/// The ranges let escalating-rate probing (256 → 4096 pps, 24 probes per
/// round) fingerprint every router-class limiter while endpoint limiters
/// never trip, which keeps the technique's candidates, and its probing
/// cost, to the router population, as in the paper.  Below ~90 pps
/// independent same-signature devices would be lossy even at half the
/// first escalation rate, breaking the joint-probe discrimination; keep
/// [`SILENT_ICMP_PPS`]'s floor well above that.
const ROUTER_ICMP_PPS: RangeInclusive<f64> = rate_range(300.0, 2_500.0);
/// Endpoint-class limiters (cloud VMs and servers, enterprise servers,
/// CPE): high enough that probing never trips them.
const ENDPOINT_ICMP_PPS: RangeInclusive<f64> = rate_range(8_000.0, 40_000.0);
/// Silent routers' limiters.
const SILENT_ICMP_PPS: RangeInclusive<f64> = rate_range(120.0, 1_000.0);
/// Bucket capacity (replies answered back-to-back from a full bucket),
/// shared by every class.
const ICMP_BURST: f64 = 8.0;
const _: () = assert!(ICMP_BURST >= 1.0);

/// Builds a synthetic [`Internet`] from a configuration.
pub struct InternetBuilder {
    config: InternetConfig,
}

/// The ASes of each kind, drawn by Zipf-style weight.
struct AsPool {
    cloud: WeightedSet,
    isp: WeightedSet,
    enterprise: WeightedSet,
}

impl AsPool {
    fn of(&self, kind: AsKind) -> &WeightedSet {
        match kind {
            AsKind::CloudProvider => &self.cloud,
            AsKind::Isp => &self.isp,
            AsKind::Enterprise => &self.enterprise,
        }
    }
}

impl InternetBuilder {
    /// Create a builder for the given configuration.
    pub fn new(config: InternetConfig) -> Self {
        let problems = config.validate();
        assert!(problems.is_empty(), "invalid InternetConfig: {problems:?}");
        InternetBuilder { config }
    }

    /// Generate the Internet.
    pub fn build(self) -> Internet {
        let config = self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let ssh_profile_table = ssh_profiles();
        let bgp_profile_table = bgp_profiles();

        let (mut ases, pool) = build_ases(&config, &mut rng);

        // Profile subsets by context, each weighted once.
        let ssh_subset = |keep: fn(&str) -> bool| {
            let profiles = ssh_profile_table.iter().enumerate();
            WeightedSet::new(
                profiles
                    .filter(|(_, p)| keep(p.name))
                    .map(|(i, p)| (i, p.weight)),
            )
        };
        let all_ssh = ssh_subset(|_| true);
        let server_ssh = ssh_subset(|name| name.starts_with("openssh"));
        let embedded_ssh =
            ssh_subset(|name| name.starts_with("dropbear") || name.contains("mikrotik"));
        let router_ssh = ssh_subset(|name| {
            name.contains("cisco") || name.contains("mikrotik") || name.contains("juniper")
        });
        let bgp = bgp_profile_table.iter().enumerate();
        let open_bgp = WeightedSet::new(
            bgp.filter(|(_, p)| p.sends_open)
                .map(|(i, p)| (i, p.weight)),
        );
        let silent_bgp_profile = bgp_profile_table
            .iter()
            .position(|p| !p.sends_open)
            .expect("profile table contains a silent profile");

        let mut devices = DeviceTable::with_capacity(config.total_devices());
        // Factory-default host keys shared by a small number of devices.
        let default_keys: [Span; 3] =
            std::array::from_fn(|i| Span::push(&mut devices.host_keys, &[0xd0 + i as u8; 32]));
        // Misconfigured BGP identifiers shared by unrelated speakers.
        let duplicate_bgp_ids = [Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(192, 168, 1, 1)];

        let mut ipid = Vec::with_capacity(config.total_devices());
        let mut ctx = GenContext {
            rng: &mut rng,
            ases: &mut ases,
            pool: &pool,
            devices: &mut devices,
            ipid: &mut ipid,
            all_ssh: &all_ssh,
            server_ssh: &server_ssh,
            embedded_ssh: &embedded_ssh,
            router_ssh: &router_ssh,
            ssh_profiles: ssh_profile_table.len(),
            open_bgp: &open_bgp,
            silent_bgp_profile,
            default_keys,
            duplicate_bgp_ids: &duplicate_bgp_ids,
        };

        for _ in 0..config.devices.cloud_vms {
            ctx.gen_cloud_vm();
        }
        for _ in 0..config.devices.cloud_servers {
            ctx.gen_cloud_server();
        }
        for _ in 0..config.devices.enterprise_servers {
            ctx.gen_enterprise_server();
        }
        for _ in 0..config.devices.isp_routers {
            ctx.gen_isp_router();
        }
        for _ in 0..config.devices.border_routers {
            ctx.gen_border_router();
        }
        for _ in 0..config.devices.cpe_devices {
            ctx.gen_cpe();
        }
        for _ in 0..config.devices.silent_routers {
            ctx.gen_silent_router();
        }

        assign_icmp_limits(config.seed, &mut devices.rows);

        Internet::from_parts(
            config,
            devices,
            ipid,
            ases,
            ssh_profile_table,
            bgp_profile_table,
        )
    }
}

/// Build the AS population and per-kind sampling pools.
fn build_ases(config: &InternetConfig, rng: &mut ChaCha8Rng) -> (Vec<AutonomousSystem>, AsPool) {
    let mut allocator = PrefixAllocator::new();
    let mut ases = Vec::new();
    let (mut cloud, mut isp, mut enterprise) = (Vec::new(), Vec::new(), Vec::new());

    // Expected IPv4 addresses per kind, used to size prefixes generously.
    let d = &config.devices;
    let cloud_expected = d.cloud_vms + d.cloud_servers * 8;
    let isp_expected = (d.isp_routers as f64 * ROUTER_IFACES_MEAN) as usize
        + (d.silent_routers as f64 * ROUTER_IFACES_MEAN) as usize
        + (d.border_routers as f64 * BORDER_IFACES_MEAN) as usize
        + d.cpe_devices * 2;
    let enterprise_expected = d.enterprise_servers * 2;

    let push_as = |kind: AsKind,
                   asn: u32,
                   capacity: u32,
                   allocator: &mut PrefixAllocator,
                   ases: &mut Vec<AutonomousSystem>| {
        let v4 = allocator.alloc_v4_prefix(capacity);
        let v6 = allocator.alloc_v6_prefix();
        ases.push(AutonomousSystem::new(Asn(asn), kind, v4, v6));
        ases.len() - 1
    };

    // Zipf-style weights: the first ASes of each kind are the giants.  An
    // AS's share of its kind's addresses is its weight over the kind's total.
    let zipf = |rank: usize| -> u32 { (10_000.0 / (rank as f64 + 1.0).powf(0.82)) as u32 + 1 };
    let total = |count: usize| (0..count).map(zipf).sum::<u32>() as f64;

    let cloud_total = total(config.as_counts.cloud);
    for rank in 0..config.as_counts.cloud {
        let asn = CLOUD_ASNS
            .get(rank)
            .copied()
            .unwrap_or_else(|| 210_000 + rank as u32);
        let weight = zipf(rank);
        let share = weight as f64 / cloud_total;
        let capacity = ((cloud_expected as f64 * share) * 2.5) as u32 + 128;
        let idx = push_as(
            AsKind::CloudProvider,
            asn,
            capacity,
            &mut allocator,
            &mut ases,
        );
        cloud.push((idx, weight));
    }
    let isp_total = total(config.as_counts.isp);
    for rank in 0..config.as_counts.isp {
        let asn = ISP_ASNS
            .get(rank)
            .copied()
            .unwrap_or_else(|| 220_000 + rank as u32);
        let weight = zipf(rank);
        let share = weight as f64 / isp_total;
        let capacity = ((isp_expected as f64 * share) * 2.5) as u32 + 128;
        let idx = push_as(AsKind::Isp, asn, capacity, &mut allocator, &mut ases);
        isp.push((idx, weight));
    }
    let enterprise_total = total(config.as_counts.enterprise);
    for rank in 0..config.as_counts.enterprise {
        let asn = 64_512 + rng.gen_range(0..50_000u32) + rank as u32;
        let weight = zipf(rank);
        let share = weight as f64 / enterprise_total;
        let capacity = ((enterprise_expected as f64 * share) * 2.5) as u32 + 64;
        let idx = push_as(AsKind::Enterprise, asn, capacity, &mut allocator, &mut ases);
        enterprise.push((idx, weight));
    }
    let pool = AsPool {
        cloud: WeightedSet::new(cloud),
        isp: WeightedSet::new(isp),
        enterprise: WeightedSet::new(enterprise),
    };
    (ases, pool)
}

/// Mutable state shared by the per-archetype generators.  The device being
/// generated owns the interfaces pushed since the last row was closed.
struct GenContext<'a> {
    rng: &'a mut ChaCha8Rng,
    ases: &'a mut Vec<AutonomousSystem>,
    pool: &'a AsPool,
    devices: &'a mut DeviceTable,
    ipid: &'a mut Vec<IpidState>,
    all_ssh: &'a WeightedSet,
    server_ssh: &'a WeightedSet,
    embedded_ssh: &'a WeightedSet,
    router_ssh: &'a WeightedSet,
    ssh_profiles: usize,
    open_bgp: &'a WeightedSet,
    silent_bgp_profile: usize,
    default_keys: [Span; 3],
    duplicate_bgp_ids: &'a [Ipv4Addr; 2],
}

impl GenContext<'_> {
    fn pick_as(&mut self, kind: AsKind) -> usize {
        let roll = self.rng.gen::<u32>();
        self.pool.of(kind).pick(roll)
    }

    /// The open device's first position in the interface columns.
    fn first_iface(&self) -> usize {
        self.devices.starts[self.devices.starts.len() - 1] as usize
    }

    /// The open device's answer bytes.
    fn open_answers(&mut self) -> &mut [u8] {
        let first = self.first_iface();
        &mut self.devices.answers[first..]
    }

    fn push_iface(&mut self, addr: IpAddr, asn: Asn) {
        self.devices.ifaces.push(Interface { addr, asn });
        self.devices.answers.push(0);
    }

    /// Give the open device an IPv4 interface in the AS at `as_idx`,
    /// falling back to other ASes of the same kind if its prefix is
    /// exhausted.
    fn push_v4(&mut self, as_idx: usize) {
        let kind = self.ases[as_idx].kind;
        let fallback = self.pool.of(kind).members();
        for idx in std::iter::once(as_idx).chain(fallback.iter().copied()) {
            if let Some(addr) = self.ases[idx].alloc_v4() {
                return self.push_iface(IpAddr::V4(addr), self.ases[idx].asn);
            }
        }
        panic!("all {kind:?} prefixes exhausted; increase prefix slack in build_ases");
    }

    /// Give the open device an IPv6 interface in the AS at `as_idx`.
    fn push_v6(&mut self, as_idx: usize) {
        let addr = self.ases[as_idx].alloc_v6();
        self.push_iface(IpAddr::V6(addr), self.ases[as_idx].asn);
    }

    /// Sample from a capped Pareto-like heavy tail with the given minimum and
    /// approximate mean.
    fn heavy_tail(&mut self, min: usize, mean: f64, max: usize) -> usize {
        let min_f = min as f64;
        let alpha = if mean > min_f {
            (mean / (mean - min_f)).max(1.05)
        } else {
            10.0
        };
        let u: f64 = self.rng.gen_range(1e-6..1.0);
        let value = min_f * u.powf(-1.0 / alpha);
        (value.round() as usize).clamp(min, max)
    }

    /// Open a service's ACL on each of the open device's interfaces with
    /// the given coverage probability, and on at least one.
    fn acl_mask(&mut self, coverage: f64, service: u8) {
        let first = self.first_iface();
        let answers = &mut self.devices.answers[first..];
        let mut any = false;
        for answer in answers.iter_mut() {
            if self.rng.gen_bool(coverage) {
                *answer |= service;
                any = true;
            }
        }
        if !any && !answers.is_empty() {
            let idx = self.rng.gen_range(0..answers.len());
            answers[idx] |= service;
        }
    }

    fn unique_host_key(&mut self) -> (HostKeyAlgorithm, Span) {
        if self.rng.gen_bool(DEFAULT_KEY_FRACTION) {
            let idx = self.rng.gen_range(0..self.default_keys.len());
            return (HostKeyAlgorithm::Rsa, self.default_keys[idx]);
        }
        let mut material = [0u8; 32];
        self.rng.fill(&mut material[..]);
        let algorithm = if self.rng.gen_bool(0.7) {
            HostKeyAlgorithm::Ed25519
        } else {
            HostKeyAlgorithm::Rsa
        };
        (
            algorithm,
            Span::push(&mut self.devices.host_keys, &material),
        )
    }

    fn pick_ssh_profile(&mut self, profiles: &WeightedSet) -> SshProfileId {
        let roll = self.rng.gen::<u32>();
        SshProfileId(profiles.pick(roll) as u16)
    }

    fn ipid_state(&mut self, mix: IpidMix) -> IpidState {
        let roll: f64 = self.rng.gen();
        let model = if roll < mix.shared_monotonic {
            let velocity = if self.rng.gen_bool(mix.high_velocity_given_shared) {
                self.rng.gen_range(20_000.0..80_000.0)
            } else {
                self.rng.gen_range(1.0..200.0)
            };
            IpidModel::SharedMonotonic { velocity }
        } else if roll < mix.shared_monotonic + mix.per_interface {
            IpidModel::PerInterface {
                velocity: self.rng.gen_range(1.0..200.0),
            }
        } else if roll < mix.shared_monotonic + mix.per_interface + mix.random {
            IpidModel::Random
        } else {
            IpidModel::Constant(0)
        };
        IpidState::new(model, self.rng.gen())
    }

    /// The visibility and Censys flags.
    fn visibility(&mut self) -> u8 {
        let visible_to_single_vp = !self.rng.gen_bool(SINGLE_VP_INVISIBLE_FRACTION);
        let censys_covered = self.rng.gen_bool(CENSYS_COVERAGE);
        flag(VISIBLE, visible_to_single_vp) | flag(CENSYS, censys_covered)
    }

    fn ssh_service(&mut self, profiles: &WeightedSet, coverage: f64) -> SshRow {
        let profile = self.pick_ssh_profile(profiles);
        self.acl_mask(coverage, SSH);
        let answers = self.open_answers();
        let responding = answers.iter().filter(|&&a| a & SSH != 0).count();
        let last = answers.iter().rposition(|&a| a & SSH != 0);
        let mut divergent_profile = None;
        if responding >= 2 && self.rng.gen_bool(CAPABILITY_DIVERGENCE_FRACTION) {
            if let Some(last) = last {
                self.open_answers()[last] |= SSH_DIVERGENT;
            }
            // Diverge to some other profile.
            let other = self.pick_ssh_profile(self.all_ssh);
            divergent_profile = Some(if other != profile {
                other
            } else {
                SshProfileId(((other.0 as usize + 1) % self.ssh_profiles) as u16)
            });
        }
        let (algorithm, key) = self.unique_host_key();
        SshRow {
            profile,
            divergent_profile,
            algorithm,
            key,
        }
    }

    fn snmp_service(&mut self, coverage: f64) -> SnmpRow {
        let enterprise = [9u32, 2636, 30065, 25461, 14988, 2011][self.rng.gen_range(0..6usize)];
        let mac: [u8; 6] = self.rng.gen();
        let engine_id = EngineId::enterprise_mac_bytes(enterprise, mac);
        let engine_boots = self.rng.gen_range(1..60);
        self.acl_mask(coverage, SNMP);
        SnmpRow {
            engine_id: Span::push(&mut self.devices.engine_ids, &engine_id),
            engine_boots,
        }
    }

    /// The open device's BGP service, answering on the interfaces the ACL
    /// opens.
    fn bgp_service(
        &mut self,
        profile: usize,
        bgp_identifier: Ipv4Addr,
        as_idx: usize,
    ) -> BgpService {
        self.acl_mask(BGP_COVERAGE, BGP);
        BgpService {
            profile: BgpProfileId(profile as u16),
            bgp_identifier,
            asn: self.ases[as_idx].asn.0,
        }
    }

    /// The open device's first address, if it is IPv4.
    fn first_v4(&self) -> Option<Ipv4Addr> {
        match self.devices.ifaces.get(self.first_iface())?.addr {
            IpAddr::V4(addr) => Some(addr),
            IpAddr::V6(_) => None,
        }
    }

    /// Close the open device: push its row, its flags and its IPID state.
    fn push_device(&mut self, row: DeviceRow, flags: u8, ipid: IpidState) {
        let devices = &mut *self.devices;
        devices.rows.push(row);
        devices.flags.push(flags);
        devices.starts.push(devices.ifaces.len() as u32);
        self.ipid.push(ipid);
    }

    /// Give the open device an ISP or silent router's interfaces, in an ISP
    /// it picks; returns the ISP.
    fn push_router_ifaces(&mut self) -> usize {
        let as_idx = self.pick_as(AsKind::Isp);
        let v4_count = self.heavy_tail(2, ROUTER_IFACES_MEAN, ROUTER_IFACES_MAX);
        let dual_stack = self.rng.gen_bool(ROUTER_DUAL_STACK_PROB);
        let v6_count = if dual_stack {
            self.rng.gen_range(1..=ROUTER_V6_MAX)
        } else {
            0
        };
        for _ in 0..v4_count {
            self.push_v4(as_idx);
        }
        for _ in 0..v6_count {
            self.push_v6(as_idx);
        }
        as_idx
    }

    // ------------------------------------------------------------------
    // Archetype generators
    // ------------------------------------------------------------------

    fn gen_cloud_vm(&mut self) {
        let as_idx = self.pick_as(AsKind::CloudProvider);
        let ipv6_only = self.rng.gen_bool(VM_IPV6_ONLY_PROB);
        if !ipv6_only {
            self.push_v4(as_idx);
        }
        if ipv6_only || self.rng.gen_bool(VM_DUAL_STACK_PROB) {
            self.push_v6(as_idx);
        }
        let ssh = self.ssh_service(self.server_ssh, 1.0);
        let ipid = self.ipid_state(SERVER_IPID);
        let visibility = self.visibility();
        let ping = self.rng.gen_bool(SERVER_PING_PROB);
        let row = DeviceRow {
            ssh: Some(ssh),
            ..DeviceRow::new(DeviceKind::CloudVm)
        };
        self.push_device(row, visibility | flag(PING, ping), ipid);
    }

    fn gen_cloud_server(&mut self) {
        let as_idx = self.pick_as(AsKind::CloudProvider);
        let v4_count = if self.rng.gen_bool(SERVER_LB_FRACTION) {
            self.heavy_tail(8, 24.0, SERVER_LB_MAX)
        } else {
            self.rng.gen_range(SERVER_V4)
        };
        let dual_stack = self.rng.gen_bool(SERVER_DUAL_STACK_PROB);
        let v6_count = if dual_stack {
            self.rng.gen_range(SERVER_V6)
        } else {
            0
        };
        for _ in 0..v4_count {
            self.push_v4(as_idx);
        }
        for _ in 0..v6_count {
            self.push_v6(as_idx);
        }
        let ssh = self.ssh_service(self.server_ssh, SSH_COVERAGE);
        let snmp = self
            .rng
            .gen_bool(SERVER_SNMP_PROB)
            .then(|| self.snmp_service(SNMP_COVERAGE));
        let ipid = self.ipid_state(SERVER_IPID);
        let visibility = self.visibility();
        let ping = self.rng.gen_bool(SERVER_PING_PROB);
        let common_source = self.rng.gen_bool(COMMON_SOURCE_PROB);
        let has_iface = self.devices.ifaces.len() > self.first_iface();
        let row = DeviceRow {
            ssh: Some(ssh),
            snmp,
            icmp_error_source: (common_source && has_iface).then_some(0),
            ..DeviceRow::new(DeviceKind::CloudServer)
        };
        self.push_device(row, visibility | flag(PING, ping), ipid);
    }

    fn gen_enterprise_server(&mut self) {
        let as_idx = self.pick_as(AsKind::Enterprise);
        self.push_v4(as_idx);
        if self.rng.gen_bool(ENTERPRISE_TWO_ADDR_PROB) {
            self.push_v4(as_idx);
        }
        let ssh = self
            .rng
            .gen_bool(ENTERPRISE_SSH_PROB)
            .then(|| self.ssh_service(self.server_ssh, SSH_COVERAGE));
        let ipid = self.ipid_state(SERVER_IPID);
        let visibility = self.visibility();
        let ping = self.rng.gen_bool(SERVER_PING_PROB);
        let row = DeviceRow {
            ssh,
            ..DeviceRow::new(DeviceKind::EnterpriseServer)
        };
        self.push_device(row, visibility | flag(PING, ping), ipid);
    }

    fn gen_isp_router(&mut self) {
        let as_idx = self.push_router_ifaces();
        let snmp = self
            .rng
            .gen_bool(ROUTER_SNMP_PROB)
            .then(|| self.snmp_service(SNMP_COVERAGE));
        let ssh = self
            .rng
            .gen_bool(ROUTER_SSH_PROB)
            .then(|| self.ssh_service(self.router_ssh, SSH_COVERAGE));
        let bgp = self.rng.gen_bool(ROUTER_SILENT_BGP_PROB).then(|| {
            let identifier = self.first_v4().unwrap_or(Ipv4Addr::new(10, 0, 0, 1));
            self.bgp_service(self.silent_bgp_profile, identifier, as_idx)
        });
        let ipid = self.ipid_state(ROUTER_IPID);
        let visibility = self.visibility();
        let ping = self.rng.gen_bool(ROUTER_PING_PROB);
        let common_source = self.rng.gen_bool(COMMON_SOURCE_PROB);
        let row = DeviceRow {
            ssh,
            bgp,
            snmp,
            icmp_error_source: common_source.then_some(0),
            ..DeviceRow::new(DeviceKind::IspRouter)
        };
        self.push_device(row, visibility | flag(PING, ping), ipid);
    }

    fn gen_border_router(&mut self) {
        let primary_as = self.pick_as(AsKind::Isp);
        let v4_count = self.heavy_tail(2, BORDER_IFACES_MEAN, BORDER_IFACES_MAX);
        let dual_stack = self.rng.gen_bool(BORDER_DUAL_STACK_PROB);
        let v6_count = if dual_stack {
            self.rng.gen_range(1..=BORDER_V6_MAX)
        } else {
            0
        };
        for i in 0..v4_count {
            // The first interface is always in the primary AS; the rest may be
            // numbered from neighbouring ASes (inter-AS links).
            let as_idx = if i > 0 && self.rng.gen_bool(BORDER_FOREIGN_AS_PROB) {
                self.pick_as(AsKind::Isp)
            } else {
                primary_as
            };
            self.push_v4(as_idx);
        }
        for _ in 0..v6_count {
            self.push_v6(primary_as);
        }

        let roll = self.rng.gen::<u32>();
        let bgp_profile = self.open_bgp.pick(roll);
        let bgp_identifier = if self.rng.gen_bool(DUPLICATE_BGP_IDENTIFIER_FRACTION) {
            self.duplicate_bgp_ids[self.rng.gen_range(0..self.duplicate_bgp_ids.len())]
        } else {
            self.first_v4().unwrap_or(Ipv4Addr::new(172, 16, 0, 1))
        };
        let bgp = self.bgp_service(bgp_profile, bgp_identifier, primary_as);
        let snmp = self
            .rng
            .gen_bool(BORDER_SNMP_PROB)
            .then(|| self.snmp_service(SNMP_COVERAGE));
        let ssh = self
            .rng
            .gen_bool(BORDER_SSH_PROB)
            .then(|| self.ssh_service(self.router_ssh, SSH_COVERAGE));
        let ipid = self.ipid_state(ROUTER_IPID);
        let visibility = self.visibility();
        let ping = self.rng.gen_bool(ROUTER_PING_PROB);
        let common_source = self.rng.gen_bool(COMMON_SOURCE_PROB);
        let row = DeviceRow {
            ssh,
            bgp: Some(bgp),
            snmp,
            icmp_error_source: common_source.then_some(0),
            ..DeviceRow::new(DeviceKind::BorderRouter)
        };
        self.push_device(row, visibility | flag(PING, ping), ipid);
    }

    fn gen_cpe(&mut self) {
        let as_idx = self.pick_as(AsKind::Isp);
        self.push_v4(as_idx);
        if self.rng.gen_bool(CPE_TWO_ADDR_PROB) {
            self.push_v4(as_idx);
        }
        if self.rng.gen_bool(CPE_DUAL_STACK_PROB) {
            self.push_v6(as_idx);
        }
        let snmp = self
            .rng
            .gen_bool(CPE_SNMP_PROB)
            .then(|| self.snmp_service(1.0));
        let ssh = self
            .rng
            .gen_bool(CPE_SSH_PROB)
            .then(|| self.ssh_service(self.embedded_ssh, 1.0));
        let ipid = self.ipid_state(ROUTER_IPID);
        let visibility = self.visibility();
        let ping = self.rng.gen_bool(ROUTER_PING_PROB);
        let dynamic = self.rng.gen_bool(CPE_DYNAMIC_PROB);
        let row = DeviceRow {
            ssh,
            snmp,
            ..DeviceRow::new(DeviceKind::Cpe)
        };
        let flags = visibility | flag(PING, ping) | flag(DYNAMIC, dynamic);
        self.push_device(row, flags, ipid);
    }

    /// An ISP router with every identifier service disabled: no SSH, BGP
    /// or SNMP, a random IPID counter (defeats MIDAR/Ally/Speedtrap) and
    /// ICMP errors sourced from the probed address (defeats iffinder).
    /// It still answers ICMP echo, so only the router-wide rate limiter
    /// can reveal which of its interfaces are aliases.
    fn gen_silent_router(&mut self) {
        self.push_router_ifaces();
        let ipid = IpidState::new(IpidModel::Random, self.rng.gen());
        // Deterministically visible: the population exists to measure what
        // *only* rate-limiting can resolve, so its reachability must not
        // depend on the visibility roll.
        let censys = self.visibility() & CENSYS;
        let row = DeviceRow::new(DeviceKind::SilentRouter);
        self.push_device(row, VISIBLE | PING | censys, ipid);
    }
}

/// `bit` if `on`, else no bit.
fn flag(bit: u8, on: bool) -> u8 {
    if on {
        bit
    } else {
        0
    }
}

/// Seed salt for the limiter-assignment RNG stream (an arbitrary constant;
/// any fixed value works, it only has to differ from the main stream).
const ICMP_LIMIT_SEED_SALT: u64 = 0x1c3d_11a5_b0c4_e7f2;

/// Post-pass assigning every device its router-wide ICMP rate limiter.  A
/// dedicated RNG stream keeps the main generation stream untouched, so
/// every population generated before the limiter existed stays
/// byte-identical field-for-field.
fn assign_icmp_limits(seed: u64, devices: &mut [DeviceRow]) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ICMP_LIMIT_SEED_SALT);
    for device in devices {
        let rate_pps = rng.gen_range(icmp_rate_range(device.kind));
        device.icmp_limit = IcmpRateLimit::new(rate_pps, ICMP_BURST);
    }
}

/// The sustained-rate range a device class's limiter is drawn from.
fn icmp_rate_range(kind: DeviceKind) -> RangeInclusive<f64> {
    match kind {
        DeviceKind::IspRouter | DeviceKind::BorderRouter => ROUTER_ICMP_PPS,
        DeviceKind::SilentRouter => SILENT_ICMP_PPS,
        DeviceKind::CloudVm
        | DeviceKind::CloudServer
        | DeviceKind::EnterpriseServer
        | DeviceKind::Cpe => ENDPOINT_ICMP_PPS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScalePreset;
    use crate::ServiceProtocol;

    #[test]
    fn builds_are_deterministic_in_the_seed() {
        let a = InternetBuilder::new(InternetConfig::tiny(11)).build();
        let b = InternetBuilder::new(InternetConfig::tiny(11)).build();
        assert_eq!(a.devices().len(), b.devices().len());
        for (da, db) in a.devices().zip(b.devices()) {
            assert_eq!(da.interfaces(), db.interfaces());
            assert_eq!(da.kind(), db.kind());
            assert_eq!(da.ssh(), db.ssh());
        }
        let c = InternetBuilder::new(InternetConfig::tiny(12)).build();
        let differs = a
            .devices()
            .zip(c.devices())
            .any(|(da, dc)| da.interfaces() != dc.interfaces());
        assert!(differs, "different seeds must produce different Internets");
    }

    #[test]
    fn device_counts_match_config() {
        let config = InternetConfig::tiny(3);
        let expected = config.total_devices();
        let internet = InternetBuilder::new(config).build();
        assert_eq!(internet.devices().len(), expected);
        let kinds = |kind| internet.devices().filter(|d| d.kind() == kind).count();
        assert_eq!(
            kinds(DeviceKind::CloudVm),
            internet.config().devices.cloud_vms
        );
        assert_eq!(
            kinds(DeviceKind::BorderRouter),
            internet.config().devices.border_routers
        );
    }

    #[test]
    fn every_interface_is_unique_and_indexed() {
        let internet = InternetBuilder::new(InternetConfig::tiny(5)).build();
        let mut seen = std::collections::HashSet::new();
        for device in internet.devices() {
            assert!(!device.interfaces().is_empty());
            for iface in device.interfaces() {
                assert!(
                    seen.insert(iface.addr),
                    "duplicate address {:?}",
                    iface.addr
                );
                let route = internet.route(iface.addr).unwrap();
                assert_eq!(route.device, device.id());
                assert_eq!(internet.addr_at(route), iface.addr);
            }
        }
    }

    #[test]
    fn addresses_fall_inside_their_as_prefix() {
        let internet = InternetBuilder::new(InternetConfig::tiny(9)).build();
        for device in internet.devices() {
            for iface in device.interfaces() {
                let asys = internet.ases().iter().find(|a| a.asn == iface.asn).unwrap();
                match iface.addr {
                    IpAddr::V4(a) => assert!(asys.ipv4_prefix.contains(a)),
                    IpAddr::V6(a) => assert!(asys.ipv6_prefix.contains(a)),
                }
            }
        }
    }

    #[test]
    fn border_routers_span_multiple_ases() {
        let as_count = |device: crate::DeviceRef<'_>| {
            let mut asns: Vec<Asn> = device.interfaces().iter().map(|i| i.asn).collect();
            asns.sort();
            asns.dedup();
            asns.len()
        };
        let internet = InternetBuilder::new(InternetConfig::tiny(21)).build();
        let multi_as_border = internet
            .devices()
            .filter(|&d| d.kind() == DeviceKind::BorderRouter && as_count(d) >= 2)
            .count();
        assert!(
            multi_as_border > 0,
            "some border routers must span several ASes"
        );
        // Non-border devices never span ASes.
        for device in internet.devices() {
            if matches!(device.kind(), DeviceKind::CloudVm | DeviceKind::Cpe) {
                assert_eq!(as_count(device), 1);
            }
        }
    }

    #[test]
    fn bgp_identifier_is_device_wide_and_mostly_unique() {
        let internet = InternetBuilder::new(InternetConfig::small(2)).build();
        let ids: Vec<Ipv4Addr> = internet
            .devices()
            .filter(|d| d.kind() == DeviceKind::BorderRouter)
            .filter_map(|d| d.bgp())
            .map(|b| b.bgp_identifier)
            .collect();
        assert!(!ids.is_empty());
        let unique: std::collections::HashSet<_> = ids.iter().collect();
        // Most identifiers are unique; duplicates (misconfiguration) are rare.
        assert!(unique.len() as f64 >= ids.len() as f64 * 0.9);
    }

    #[test]
    fn host_keys_are_mostly_unique() {
        let internet = InternetBuilder::new(InternetConfig::small(4)).build();
        let keys: Vec<String> = internet
            .devices()
            .filter_map(|d| d.ssh())
            .map(|s| s.host_key.to_owned().fingerprint())
            .collect();
        let unique: std::collections::HashSet<_> = keys.iter().collect();
        assert!(unique.len() as f64 >= keys.len() as f64 * 0.98);
    }

    #[test]
    fn small_preset_population_shape_is_plausible() {
        let internet = InternetBuilder::new(InternetConfig::preset(ScalePreset::Small, 8)).build();
        let stats = internet.population_stats();
        let answering = |protocol| {
            let devices = internet.devices();
            devices
                .map(|d| d.answering(protocol).count())
                .sum::<usize>()
        };
        // SSH is the dominant responsive service, as in the paper's Table 1
        // (note that BGP's count holds every open port 179, including the
        // silent majority that never sends an OPEN).
        assert!(answering(ServiceProtocol::Ssh) > answering(ServiceProtocol::Bgp) * 2);
        // SNMP responds on many addresses but fewer than SSH.
        assert!(answering(ServiceProtocol::Snmpv3) > 0);
        assert!(stats.bgp_silent_closers > 0);
        assert!(internet.devices().any(|d| d.is_dual_stack()));
    }

    #[test]
    fn every_device_gets_a_class_appropriate_icmp_limit() {
        let mut config = InternetConfig::tiny(17);
        config.devices.silent_routers = 10;
        let internet = InternetBuilder::new(config).build();
        for device in internet.devices() {
            let (lo, hi) = icmp_rate_range(device.kind()).into_inner();
            let limit = device.icmp_limit();
            assert!(
                (lo..=hi).contains(&limit.rate_pps),
                "{:?}: rate {} outside [{lo}, {hi}]",
                device.kind(),
                limit.rate_pps
            );
            assert_eq!(limit.burst, ICMP_BURST);
        }
    }

    #[test]
    fn silent_routers_have_no_identifier_services() {
        let mut config = InternetConfig::tiny(19);
        config.devices.silent_routers = 25;
        let internet = InternetBuilder::new(config).build();
        let silent: Vec<_> = internet
            .devices()
            .filter(|d| d.kind() == DeviceKind::SilentRouter)
            .collect();
        assert_eq!(silent.len(), 25);
        for device in silent {
            assert!(device.ssh().is_none());
            assert!(device.bgp().is_none());
            assert!(device.snmp().is_none());
            assert!(device.responds_to_ping());
            assert!(device.visible_to_single_vp());
            assert!(device.icmp_error_source().is_none());
            assert!(device.interfaces().len() >= 2);
        }
    }

    #[test]
    fn silent_routers_do_not_perturb_the_existing_population() {
        // Appending silent routers (and the limiter post-pass) must leave
        // every previously generated device byte-identical: the seed-stable
        // contract that keeps pre-existing campaigns reproducible.
        let base = InternetBuilder::new(InternetConfig::tiny(23)).build();
        let mut config = InternetConfig::tiny(23);
        config.devices.silent_routers = 15;
        let extended = InternetBuilder::new(config).build();
        assert_eq!(extended.devices().len(), base.devices().len() + 15,);
        for (a, b) in base.devices().zip(extended.devices()) {
            assert_eq!(a.kind(), b.kind());
            assert_eq!(a.interfaces(), b.interfaces());
            assert_eq!(a.responds_to_ping(), b.responds_to_ping());
            assert_eq!(a.icmp_limit(), b.icmp_limit());
        }
    }

    #[test]
    #[should_panic(expected = "invalid InternetConfig")]
    fn invalid_config_is_rejected() {
        let mut config = InternetConfig::tiny(1);
        config.visibility.hitlist_coverage = 2.0;
        let _ = InternetBuilder::new(config);
    }
}
