//! Deterministic generation of a synthetic Internet from an
//! [`InternetConfig`].
//!
//! The builder creates the AS topology, populates it with devices of the six
//! archetypes, wires up services, anomalies and measurement-visibility
//! flags, and returns an [`Internet`] ready to be scanned.  Everything is
//! derived from a `ChaCha8` stream seeded with `config.seed`, so identical
//! configurations produce identical Internets.

use crate::config::{InternetConfig, IpidMix};
use crate::device::{BgpService, Device, DeviceKind, Interface, SnmpService, SshService};
use crate::ids::{Asn, DeviceId};
use crate::internet::{Internet, ProbeState};
use crate::ipid::{IpidModel, IpidState};
use crate::profiles::{bgp_profiles, pick_weighted, ssh_profiles, BgpProfileId, SshProfileId};
use crate::ratelimit::IcmpRateLimit;
use crate::topology::{AsKind, AutonomousSystem, PrefixAllocator};
use alias_wire::snmp::EngineId;
use alias_wire::ssh::{HostKey, HostKeyAlgorithm};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::net::{IpAddr, Ipv4Addr};

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

/// Builds a synthetic [`Internet`] from a configuration.
pub struct InternetBuilder {
    config: InternetConfig,
}

struct AsPool {
    /// Indices into the AS vector, by kind.
    cloud: Vec<usize>,
    isp: Vec<usize>,
    enterprise: Vec<usize>,
    /// Zipf-style weights aligned with the index vectors.
    cloud_weights: Vec<u32>,
    isp_weights: Vec<u32>,
    enterprise_weights: Vec<u32>,
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

        let ssh_weights: Vec<u32> = ssh_profile_table.iter().map(|p| p.weight).collect();
        // Profile subsets by context (indices into the profile table).
        let server_profiles: Vec<usize> = ssh_profile_table
            .iter()
            .enumerate()
            .filter(|(_, p)| p.name.starts_with("openssh"))
            .map(|(i, _)| i)
            .collect();
        let embedded_profiles: Vec<usize> = ssh_profile_table
            .iter()
            .enumerate()
            .filter(|(_, p)| p.name.starts_with("dropbear") || p.name.contains("mikrotik"))
            .map(|(i, _)| i)
            .collect();
        let router_profiles: Vec<usize> = ssh_profile_table
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                p.name.contains("cisco")
                    || p.name.contains("mikrotik")
                    || p.name.contains("juniper")
            })
            .map(|(i, _)| i)
            .collect();
        let open_bgp_profiles: Vec<usize> = bgp_profile_table
            .iter()
            .enumerate()
            .filter(|(_, p)| p.sends_open)
            .map(|(i, _)| i)
            .collect();
        let open_bgp_weights: Vec<u32> = open_bgp_profiles
            .iter()
            .map(|&i| bgp_profile_table[i].weight)
            .collect();
        let silent_bgp_profile = bgp_profile_table
            .iter()
            .position(|p| !p.sends_open)
            .expect("profile table contains a silent profile");

        // Factory-default host keys shared by a small number of devices.
        let default_keys: Vec<HostKey> = (0..3)
            .map(|i| HostKey::new(HostKeyAlgorithm::Rsa, vec![0xd0 + i as u8; 32]))
            .collect();
        // Misconfigured BGP identifiers shared by unrelated speakers.
        let duplicate_bgp_ids = [Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(192, 168, 1, 1)];

        let mut devices: Vec<Device> = Vec::with_capacity(config.total_devices());
        let mut probe_states: Vec<ProbeState> = Vec::with_capacity(config.total_devices());
        let mut ctx = GenContext {
            config: &config,
            rng: &mut rng,
            ases: &mut ases,
            pool: &pool,
            devices: &mut devices,
            probe_states: &mut probe_states,
            ssh_weights: &ssh_weights,
            server_profiles: &server_profiles,
            embedded_profiles: &embedded_profiles,
            router_profiles: &router_profiles,
            open_bgp_profiles: &open_bgp_profiles,
            open_bgp_weights: &open_bgp_weights,
            silent_bgp_profile,
            default_keys: &default_keys,
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

        assign_icmp_limits(&config, &mut devices);

        Internet::from_parts(
            config,
            devices,
            probe_states,
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
    let mut pool = AsPool {
        cloud: Vec::new(),
        isp: Vec::new(),
        enterprise: Vec::new(),
        cloud_weights: Vec::new(),
        isp_weights: Vec::new(),
        enterprise_weights: Vec::new(),
    };

    // Expected IPv4 addresses per kind, used to size prefixes generously.
    let d = &config.devices;
    let cloud_expected = d.cloud_vms + d.cloud_servers * 8;
    let isp_expected = (d.isp_routers as f64 * config.isp.router_ifaces_mean) as usize
        + (d.silent_routers as f64 * config.isp.router_ifaces_mean) as usize
        + (d.border_routers as f64 * config.border.ifaces_mean) as usize
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

    // Zipf-style weights: the first ASes of each kind are the giants.
    let zipf = |rank: usize| -> u32 { (10_000.0 / (rank as f64 + 1.0).powf(0.82)) as u32 + 1 };

    for rank in 0..config.as_counts.cloud {
        let asn = CLOUD_ASNS
            .get(rank)
            .copied()
            .unwrap_or_else(|| 210_000 + rank as u32);
        let weight = zipf(rank);
        let share = weight as f64 / (0..config.as_counts.cloud).map(zipf).sum::<u32>() as f64;
        let capacity = ((cloud_expected as f64 * share) * 2.5) as u32 + 128;
        let idx = push_as(
            AsKind::CloudProvider,
            asn,
            capacity,
            &mut allocator,
            &mut ases,
        );
        pool.cloud.push(idx);
        pool.cloud_weights.push(weight);
    }
    for rank in 0..config.as_counts.isp {
        let asn = ISP_ASNS
            .get(rank)
            .copied()
            .unwrap_or_else(|| 220_000 + rank as u32);
        let weight = zipf(rank);
        let share = weight as f64 / (0..config.as_counts.isp).map(zipf).sum::<u32>() as f64;
        let capacity = ((isp_expected as f64 * share) * 2.5) as u32 + 128;
        let idx = push_as(AsKind::Isp, asn, capacity, &mut allocator, &mut ases);
        pool.isp.push(idx);
        pool.isp_weights.push(weight);
    }
    for rank in 0..config.as_counts.enterprise {
        let asn = 64_512 + rng.gen_range(0..50_000u32) + rank as u32;
        let weight = zipf(rank);
        let share = weight as f64 / (0..config.as_counts.enterprise).map(zipf).sum::<u32>() as f64;
        let capacity = ((enterprise_expected as f64 * share) * 2.5) as u32 + 64;
        let idx = push_as(AsKind::Enterprise, asn, capacity, &mut allocator, &mut ases);
        pool.enterprise.push(idx);
        pool.enterprise_weights.push(weight);
    }
    (ases, pool)
}

/// Mutable state shared by the per-archetype generators.
struct GenContext<'a> {
    config: &'a InternetConfig,
    rng: &'a mut ChaCha8Rng,
    ases: &'a mut Vec<AutonomousSystem>,
    pool: &'a AsPool,
    devices: &'a mut Vec<Device>,
    probe_states: &'a mut Vec<ProbeState>,
    ssh_weights: &'a [u32],
    server_profiles: &'a [usize],
    embedded_profiles: &'a [usize],
    router_profiles: &'a [usize],
    open_bgp_profiles: &'a [usize],
    open_bgp_weights: &'a [u32],
    silent_bgp_profile: usize,
    default_keys: &'a [HostKey],
    duplicate_bgp_ids: &'a [Ipv4Addr; 2],
}

impl GenContext<'_> {
    fn next_id(&self) -> DeviceId {
        DeviceId(self.devices.len() as u32)
    }

    fn pick_as(&mut self, kind: AsKind) -> usize {
        let (indices, weights) = match kind {
            AsKind::CloudProvider => (&self.pool.cloud, &self.pool.cloud_weights),
            AsKind::Isp => (&self.pool.isp, &self.pool.isp_weights),
            AsKind::Enterprise => (&self.pool.enterprise, &self.pool.enterprise_weights),
        };
        let roll = self.rng.gen::<u32>();
        indices[pick_weighted(weights, roll)]
    }

    /// Allocate an IPv4 address in the AS at `as_idx`, falling back to other
    /// ASes of the same kind if its prefix is exhausted.
    fn alloc_v4(&mut self, as_idx: usize) -> (Ipv4Addr, Asn) {
        if let Some(addr) = self.ases[as_idx].alloc_v4() {
            return (addr, self.ases[as_idx].asn);
        }
        let kind = self.ases[as_idx].kind;
        let candidates: Vec<usize> = match kind {
            AsKind::CloudProvider => self.pool.cloud.clone(),
            AsKind::Isp => self.pool.isp.clone(),
            AsKind::Enterprise => self.pool.enterprise.clone(),
        };
        for idx in candidates {
            if let Some(addr) = self.ases[idx].alloc_v4() {
                return (addr, self.ases[idx].asn);
            }
        }
        panic!("all {kind:?} prefixes exhausted; increase prefix slack in build_ases");
    }

    fn alloc_v6(&mut self, as_idx: usize) -> (std::net::Ipv6Addr, Asn) {
        (self.ases[as_idx].alloc_v6(), self.ases[as_idx].asn)
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

    /// An ACL mask over `n` interfaces with the given coverage probability,
    /// guaranteed to allow at least one interface.
    fn acl_mask(&mut self, n: usize, coverage: f64) -> Vec<bool> {
        let mut mask: Vec<bool> = (0..n).map(|_| self.rng.gen_bool(coverage)).collect();
        if !mask.iter().any(|&b| b) && n > 0 {
            let idx = self.rng.gen_range(0..n);
            mask[idx] = true;
        }
        mask
    }

    fn unique_host_key(&mut self) -> HostKey {
        let default_fraction = self.config.anomalies.default_key_fraction;
        if !self.default_keys.is_empty() && self.rng.gen_bool(default_fraction) {
            let idx = self.rng.gen_range(0..self.default_keys.len());
            return self.default_keys[idx].clone();
        }
        let mut material = vec![0u8; 32];
        self.rng.fill(&mut material[..]);
        let algorithm = if self.rng.gen_bool(0.7) {
            HostKeyAlgorithm::Ed25519
        } else {
            HostKeyAlgorithm::Rsa
        };
        HostKey::new(algorithm, material)
    }

    fn pick_ssh_profile(&mut self, subset: &[usize]) -> SshProfileId {
        if subset.is_empty() {
            let roll = self.rng.gen::<u32>();
            return SshProfileId(pick_weighted(self.ssh_weights, roll) as u16);
        }
        let weights: Vec<u32> = subset.iter().map(|&i| self.ssh_weights[i]).collect();
        let roll = self.rng.gen::<u32>();
        SshProfileId(subset[pick_weighted(&weights, roll)] as u16)
    }

    fn ipid_state(&mut self, mix: IpidMix, interfaces: usize) -> IpidState {
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
        IpidState::new(model, interfaces.max(1), self.rng.gen())
    }

    fn visibility(&mut self) -> (bool, bool) {
        let visible_to_single_vp = !self
            .rng
            .gen_bool(self.config.visibility.single_vp_invisible_fraction);
        let censys_covered = self.rng.gen_bool(self.config.visibility.censys_coverage);
        (visible_to_single_vp, censys_covered)
    }

    fn ssh_service(&mut self, interfaces: usize, subset: &[usize], coverage: f64) -> SshService {
        let profile = self.pick_ssh_profile(subset);
        let respond = self.acl_mask(interfaces, coverage);
        let responding: Vec<usize> = respond
            .iter()
            .enumerate()
            .filter(|(_, &r)| r)
            .map(|(i, _)| i)
            .collect();
        let mut divergent_capability_ifaces = Vec::new();
        let mut divergent_profile = None;
        if responding.len() >= 2
            && self
                .rng
                .gen_bool(self.config.anomalies.capability_divergence_fraction)
        {
            divergent_capability_ifaces.push(responding[responding.len() - 1]);
            // Diverge to some other profile.
            let other = self.pick_ssh_profile(&[]);
            if other != profile {
                divergent_profile = Some(other);
            } else {
                divergent_profile = Some(SshProfileId(
                    ((other.0 as usize + 1) % self.ssh_weights.len()) as u16,
                ));
            }
        }
        SshService {
            profile,
            host_key: self.unique_host_key(),
            respond,
            divergent_capability_ifaces,
            divergent_profile,
        }
    }

    fn snmp_service(&mut self, interfaces: usize, coverage: f64) -> SnmpService {
        let enterprise = [9u32, 2636, 30065, 25461, 14988, 2011][self.rng.gen_range(0..6usize)];
        let mac: [u8; 6] = self.rng.gen();
        SnmpService {
            engine_id: EngineId::from_enterprise_mac(enterprise, mac),
            engine_boots: self.rng.gen_range(1..60),
            respond: self.acl_mask(interfaces, coverage),
        }
    }

    /// A device and its row of the probe-state column, at the same index
    /// of the two parallel vectors.
    fn push_device(&mut self, device: Device, ipid: IpidState) {
        self.probe_states.push(ProbeState {
            visible_to_single_vp: device.visible_to_single_vp,
            responds_to_ping: device.responds_to_ping,
            ipid,
        });
        self.devices.push(device);
    }

    // ------------------------------------------------------------------
    // Archetype generators
    // ------------------------------------------------------------------

    fn gen_cloud_vm(&mut self) {
        let as_idx = self.pick_as(AsKind::CloudProvider);
        let mut interfaces = Vec::with_capacity(2);
        let ipv6_only = self.rng.gen_bool(self.config.cloud.vm_ipv6_only_prob);
        if !ipv6_only {
            let (addr, asn) = self.alloc_v4(as_idx);
            interfaces.push(Interface {
                addr: IpAddr::V4(addr),
                asn,
            });
        }
        if ipv6_only || self.rng.gen_bool(self.config.cloud.vm_dual_stack_prob) {
            let (addr, asn) = self.alloc_v6(as_idx);
            interfaces.push(Interface {
                addr: IpAddr::V6(addr),
                asn,
            });
        }
        let n = interfaces.len();
        let ssh = self.ssh_service(n, self.server_profiles, 1.0);
        let ipid = self.ipid_state(self.config.ipid_servers, n);
        let (visible_to_single_vp, censys_covered) = self.visibility();
        let responds_to_ping = self.rng.gen_bool(self.config.ping.server_prob);
        let device = Device {
            id: self.next_id(),
            kind: DeviceKind::CloudVm,
            interfaces,
            ssh: Some(ssh),
            bgp: None,
            snmp: None,
            responds_to_ping,
            icmp_limit: IcmpRateLimit::UNLIMITED,
            icmp_error_source: None,
            visible_to_single_vp,
            censys_covered,
            dynamic_addresses: false,
        };
        self.push_device(device, ipid);
    }

    fn gen_cloud_server(&mut self) {
        let as_idx = self.pick_as(AsKind::CloudProvider);
        let cloud = &self.config.cloud;
        let v4_count = if self.rng.gen_bool(cloud.server_lb_fraction) {
            self.heavy_tail(8, 24.0, cloud.server_lb_max)
        } else {
            self.rng
                .gen_range(cloud.server_v4_range.0..=cloud.server_v4_range.1)
        };
        let dual_stack = self.rng.gen_bool(cloud.server_dual_stack_prob);
        let v6_count = if dual_stack {
            self.rng
                .gen_range(cloud.server_v6_range.0..=cloud.server_v6_range.1)
        } else {
            0
        };
        let mut interfaces = Vec::with_capacity(v4_count + v6_count);
        for _ in 0..v4_count {
            let (addr, asn) = self.alloc_v4(as_idx);
            interfaces.push(Interface {
                addr: IpAddr::V4(addr),
                asn,
            });
        }
        for _ in 0..v6_count {
            let (addr, asn) = self.alloc_v6(as_idx);
            interfaces.push(Interface {
                addr: IpAddr::V6(addr),
                asn,
            });
        }
        let n = interfaces.len();
        let ssh = self.ssh_service(n, self.server_profiles, self.config.acl.ssh_coverage);
        let snmp = if self.rng.gen_bool(cloud.server_snmp_prob) {
            Some(self.snmp_service(n, self.config.acl.snmp_coverage))
        } else {
            None
        };
        let ipid = self.ipid_state(self.config.ipid_servers, n);
        let (visible_to_single_vp, censys_covered) = self.visibility();
        let responds_to_ping = self.rng.gen_bool(self.config.ping.server_prob);
        let common_source = self.rng.gen_bool(self.config.ping.common_source_prob);
        let device = Device {
            id: self.next_id(),
            kind: DeviceKind::CloudServer,
            ssh: Some(ssh),
            bgp: None,
            snmp,
            responds_to_ping,
            icmp_limit: IcmpRateLimit::UNLIMITED,
            icmp_error_source: if common_source && !interfaces.is_empty() {
                Some(0)
            } else {
                None
            },
            visible_to_single_vp,
            censys_covered,
            dynamic_addresses: false,
            interfaces,
        };
        self.push_device(device, ipid);
    }

    fn gen_enterprise_server(&mut self) {
        let as_idx = self.pick_as(AsKind::Enterprise);
        let mut interfaces = Vec::with_capacity(2);
        let (addr, asn) = self.alloc_v4(as_idx);
        interfaces.push(Interface {
            addr: IpAddr::V4(addr),
            asn,
        });
        if self.rng.gen_bool(self.config.enterprise_two_addr_prob) {
            let (addr, asn) = self.alloc_v4(as_idx);
            interfaces.push(Interface {
                addr: IpAddr::V4(addr),
                asn,
            });
        }
        let n = interfaces.len();
        let ssh = if self.rng.gen_bool(self.config.enterprise_ssh_prob) {
            Some(self.ssh_service(n, self.server_profiles, self.config.acl.ssh_coverage))
        } else {
            None
        };
        let ipid = self.ipid_state(self.config.ipid_servers, n);
        let (visible_to_single_vp, censys_covered) = self.visibility();
        let responds_to_ping = self.rng.gen_bool(self.config.ping.server_prob);
        let device = Device {
            id: self.next_id(),
            kind: DeviceKind::EnterpriseServer,
            ssh,
            bgp: None,
            snmp: None,
            responds_to_ping,
            icmp_limit: IcmpRateLimit::UNLIMITED,
            icmp_error_source: None,
            visible_to_single_vp,
            censys_covered,
            dynamic_addresses: false,
            interfaces,
        };
        self.push_device(device, ipid);
    }

    fn gen_isp_router(&mut self) {
        let as_idx = self.pick_as(AsKind::Isp);
        let isp = self.config.isp;
        let v4_count = self.heavy_tail(2, isp.router_ifaces_mean, isp.router_ifaces_max);
        let dual_stack = self.rng.gen_bool(isp.router_dual_stack_prob);
        let v6_count = if dual_stack {
            self.rng.gen_range(1..=isp.router_v6_max.max(1))
        } else {
            0
        };
        let mut interfaces = Vec::with_capacity(v4_count + v6_count);
        for _ in 0..v4_count {
            let (addr, asn) = self.alloc_v4(as_idx);
            interfaces.push(Interface {
                addr: IpAddr::V4(addr),
                asn,
            });
        }
        for _ in 0..v6_count {
            let (addr, asn) = self.alloc_v6(as_idx);
            interfaces.push(Interface {
                addr: IpAddr::V6(addr),
                asn,
            });
        }
        let n = interfaces.len();
        let snmp = if self.rng.gen_bool(isp.router_snmp_prob) {
            Some(self.snmp_service(n, self.config.acl.snmp_coverage))
        } else {
            None
        };
        let ssh = if self.rng.gen_bool(isp.router_ssh_prob) {
            Some(self.ssh_service(n, self.router_profiles, self.config.acl.ssh_coverage))
        } else {
            None
        };
        let bgp = if self.rng.gen_bool(isp.router_silent_bgp_prob) {
            Some(BgpService {
                profile: BgpProfileId(self.silent_bgp_profile as u16),
                bgp_identifier: match interfaces.first().map(|i| i.addr) {
                    Some(IpAddr::V4(a)) => a,
                    _ => Ipv4Addr::new(10, 0, 0, 1),
                },
                asn: self.ases[as_idx].asn.0,
                respond: self.acl_mask(n, self.config.acl.bgp_coverage),
            })
        } else {
            None
        };
        let ipid = self.ipid_state(self.config.ipid_routers, n);
        let (visible_to_single_vp, censys_covered) = self.visibility();
        let responds_to_ping = self.rng.gen_bool(self.config.ping.router_prob);
        let common_source = self.rng.gen_bool(self.config.ping.common_source_prob);
        let device = Device {
            id: self.next_id(),
            kind: DeviceKind::IspRouter,
            ssh,
            bgp,
            snmp,
            responds_to_ping,
            icmp_limit: IcmpRateLimit::UNLIMITED,
            icmp_error_source: if common_source { Some(0) } else { None },
            visible_to_single_vp,
            censys_covered,
            dynamic_addresses: false,
            interfaces,
        };
        self.push_device(device, ipid);
    }

    fn gen_border_router(&mut self) {
        let primary_as = self.pick_as(AsKind::Isp);
        let border = self.config.border;
        let v4_count = self.heavy_tail(2, border.ifaces_mean, border.ifaces_max);
        let dual_stack = self.rng.gen_bool(border.dual_stack_prob);
        let v6_count = if dual_stack {
            self.rng.gen_range(1..=border.v6_max.max(1))
        } else {
            0
        };

        let mut interfaces = Vec::with_capacity(v4_count + v6_count);
        for i in 0..v4_count {
            // The first interface is always in the primary AS; the rest may be
            // numbered from neighbouring ASes (inter-AS links).
            let as_idx = if i > 0 && self.rng.gen_bool(border.foreign_as_prob) {
                self.pick_as(AsKind::Isp)
            } else {
                primary_as
            };
            let (addr, asn) = self.alloc_v4(as_idx);
            interfaces.push(Interface {
                addr: IpAddr::V4(addr),
                asn,
            });
        }
        for _ in 0..v6_count {
            let (addr, asn) = self.alloc_v6(primary_as);
            interfaces.push(Interface {
                addr: IpAddr::V6(addr),
                asn,
            });
        }
        let n = interfaces.len();

        let roll = self.rng.gen::<u32>();
        let bgp_profile =
            BgpProfileId(self.open_bgp_profiles[pick_weighted(self.open_bgp_weights, roll)] as u16);
        let bgp_identifier = if self
            .rng
            .gen_bool(self.config.anomalies.duplicate_bgp_identifier_fraction)
        {
            self.duplicate_bgp_ids[self.rng.gen_range(0..self.duplicate_bgp_ids.len())]
        } else {
            match interfaces.first().map(|i| i.addr) {
                Some(IpAddr::V4(a)) => a,
                _ => Ipv4Addr::new(172, 16, 0, 1),
            }
        };
        let bgp = BgpService {
            profile: bgp_profile,
            bgp_identifier,
            asn: self.ases[primary_as].asn.0,
            respond: self.acl_mask(n, self.config.acl.bgp_coverage),
        };
        let snmp = if self.rng.gen_bool(border.snmp_prob) {
            Some(self.snmp_service(n, self.config.acl.snmp_coverage))
        } else {
            None
        };
        let ssh = if self.rng.gen_bool(border.ssh_prob) {
            Some(self.ssh_service(n, self.router_profiles, self.config.acl.ssh_coverage))
        } else {
            None
        };
        let ipid = self.ipid_state(self.config.ipid_routers, n);
        let (visible_to_single_vp, censys_covered) = self.visibility();
        let responds_to_ping = self.rng.gen_bool(self.config.ping.router_prob);
        let common_source = self.rng.gen_bool(self.config.ping.common_source_prob);
        let device = Device {
            id: self.next_id(),
            kind: DeviceKind::BorderRouter,
            ssh,
            bgp: Some(bgp),
            snmp,
            responds_to_ping,
            icmp_limit: IcmpRateLimit::UNLIMITED,
            icmp_error_source: if common_source { Some(0) } else { None },
            visible_to_single_vp,
            censys_covered,
            dynamic_addresses: false,
            interfaces,
        };
        self.push_device(device, ipid);
    }

    fn gen_cpe(&mut self) {
        let as_idx = self.pick_as(AsKind::Isp);
        let isp = self.config.isp;
        let mut interfaces = Vec::with_capacity(2);
        let (addr, asn) = self.alloc_v4(as_idx);
        interfaces.push(Interface {
            addr: IpAddr::V4(addr),
            asn,
        });
        if self.rng.gen_bool(isp.cpe_two_addr_prob) {
            let (addr, asn) = self.alloc_v4(as_idx);
            interfaces.push(Interface {
                addr: IpAddr::V4(addr),
                asn,
            });
        }
        if self.rng.gen_bool(isp.cpe_dual_stack_prob) {
            let (addr, asn) = self.alloc_v6(as_idx);
            interfaces.push(Interface {
                addr: IpAddr::V6(addr),
                asn,
            });
        }
        let n = interfaces.len();
        let snmp = if self.rng.gen_bool(isp.cpe_snmp_prob) {
            Some(self.snmp_service(n, 1.0))
        } else {
            None
        };
        let ssh = if self.rng.gen_bool(isp.cpe_ssh_prob) {
            Some(self.ssh_service(n, self.embedded_profiles, 1.0))
        } else {
            None
        };
        let ipid = self.ipid_state(self.config.ipid_routers, n);
        let (visible_to_single_vp, censys_covered) = self.visibility();
        let responds_to_ping = self.rng.gen_bool(self.config.ping.router_prob);
        let dynamic_addresses = self.rng.gen_bool(isp.cpe_dynamic_prob);
        let device = Device {
            id: self.next_id(),
            kind: DeviceKind::Cpe,
            ssh,
            bgp: None,
            snmp,
            responds_to_ping,
            icmp_limit: IcmpRateLimit::UNLIMITED,
            icmp_error_source: None,
            visible_to_single_vp,
            censys_covered,
            dynamic_addresses,
            interfaces,
        };
        self.push_device(device, ipid);
    }

    /// An ISP router with every identifier service disabled: no SSH, BGP
    /// or SNMP, a random IPID counter (defeats MIDAR/Ally/Speedtrap) and
    /// ICMP errors sourced from the probed address (defeats iffinder).
    /// It still answers ICMP echo, so only the router-wide rate limiter
    /// can reveal which of its interfaces are aliases.
    fn gen_silent_router(&mut self) {
        let as_idx = self.pick_as(AsKind::Isp);
        let isp = self.config.isp;
        let v4_count = self.heavy_tail(2, isp.router_ifaces_mean, isp.router_ifaces_max);
        let dual_stack = self.rng.gen_bool(isp.router_dual_stack_prob);
        let v6_count = if dual_stack {
            self.rng.gen_range(1..=isp.router_v6_max.max(1))
        } else {
            0
        };
        let mut interfaces = Vec::with_capacity(v4_count + v6_count);
        for _ in 0..v4_count {
            let (addr, asn) = self.alloc_v4(as_idx);
            interfaces.push(Interface {
                addr: IpAddr::V4(addr),
                asn,
            });
        }
        for _ in 0..v6_count {
            let (addr, asn) = self.alloc_v6(as_idx);
            interfaces.push(Interface {
                addr: IpAddr::V6(addr),
                asn,
            });
        }
        let n = interfaces.len();
        let ipid = IpidState::new(IpidModel::Random, n.max(1), self.rng.gen());
        let (_, censys_covered) = self.visibility();
        let device = Device {
            id: self.next_id(),
            kind: DeviceKind::SilentRouter,
            ssh: None,
            bgp: None,
            snmp: None,
            responds_to_ping: true,
            icmp_limit: IcmpRateLimit::UNLIMITED,
            icmp_error_source: None,
            // Deterministically visible: the population exists to measure
            // what *only* rate-limiting can resolve, so its reachability
            // must not depend on the visibility roll.
            visible_to_single_vp: true,
            censys_covered,
            dynamic_addresses: false,
            interfaces,
        };
        self.push_device(device, ipid);
    }
}

/// Seed salt for the limiter-assignment RNG stream (an arbitrary constant;
/// any fixed value works, it only has to differ from the main stream).
const ICMP_LIMIT_SEED_SALT: u64 = 0x1c3d_11a5_b0c4_e7f2;

/// Post-pass assigning every device its router-wide ICMP rate limiter.  A
/// dedicated RNG stream keeps the main generation stream untouched, so
/// every population generated before the limiter existed stays
/// byte-identical field-for-field.
fn assign_icmp_limits(config: &InternetConfig, devices: &mut [Device]) {
    let limits = &config.icmp_limits;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ ICMP_LIMIT_SEED_SALT);
    for device in devices {
        let (lo, hi) = match device.kind {
            DeviceKind::IspRouter | DeviceKind::BorderRouter => limits.router_rate_range,
            DeviceKind::SilentRouter => limits.silent_rate_range,
            DeviceKind::CloudVm
            | DeviceKind::CloudServer
            | DeviceKind::EnterpriseServer
            | DeviceKind::Cpe => limits.endpoint_rate_range,
        };
        let rate_pps = rng.gen_range(lo..=hi);
        device.icmp_limit = IcmpRateLimit::new(rate_pps, limits.burst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScalePreset;

    #[test]
    fn builds_are_deterministic_in_the_seed() {
        let a = InternetBuilder::new(InternetConfig::tiny(11)).build();
        let b = InternetBuilder::new(InternetConfig::tiny(11)).build();
        assert_eq!(a.devices().len(), b.devices().len());
        for (da, db) in a.devices().iter().zip(b.devices()) {
            assert_eq!(da.interfaces, db.interfaces);
            assert_eq!(da.kind, db.kind);
            assert_eq!(da.ssh.is_some(), db.ssh.is_some());
            if let (Some(sa), Some(sb)) = (&da.ssh, &db.ssh) {
                assert_eq!(sa.host_key, sb.host_key);
                assert_eq!(sa.profile, sb.profile);
            }
        }
        let c = InternetBuilder::new(InternetConfig::tiny(12)).build();
        let differs = a
            .devices()
            .iter()
            .zip(c.devices())
            .any(|(da, dc)| da.interfaces != dc.interfaces);
        assert!(differs, "different seeds must produce different Internets");
    }

    #[test]
    fn device_counts_match_config() {
        let config = InternetConfig::tiny(3);
        let expected = config.total_devices();
        let internet = InternetBuilder::new(config).build();
        assert_eq!(internet.devices().len(), expected);
        let stats = internet.population_stats();
        assert_eq!(stats.cloud_vms, internet.config().devices.cloud_vms);
        assert_eq!(
            stats.border_routers,
            internet.config().devices.border_routers
        );
    }

    #[test]
    fn every_interface_is_unique_and_indexed() {
        let internet = InternetBuilder::new(InternetConfig::tiny(5)).build();
        let mut seen = std::collections::HashSet::new();
        for device in internet.devices() {
            assert!(!device.interfaces.is_empty());
            for iface in &device.interfaces {
                assert!(
                    seen.insert(iface.addr),
                    "duplicate address {:?}",
                    iface.addr
                );
                let (owner, idx) = internet.lookup(iface.addr).unwrap();
                assert_eq!(owner, device.id);
                assert_eq!(device.interfaces[idx].addr, iface.addr);
            }
        }
    }

    #[test]
    fn addresses_fall_inside_their_as_prefix() {
        let internet = InternetBuilder::new(InternetConfig::tiny(9)).build();
        for device in internet.devices() {
            for iface in &device.interfaces {
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
        let internet = InternetBuilder::new(InternetConfig::tiny(21)).build();
        let multi_as_border = internet
            .devices()
            .iter()
            .filter(|d| d.kind == DeviceKind::BorderRouter && d.asns().len() >= 2)
            .count();
        assert!(
            multi_as_border > 0,
            "some border routers must span several ASes"
        );
        // Non-border devices never span ASes.
        for device in internet.devices() {
            if matches!(device.kind, DeviceKind::CloudVm | DeviceKind::Cpe) {
                assert_eq!(device.asns().len(), 1);
            }
        }
    }

    #[test]
    fn bgp_identifier_is_device_wide_and_mostly_unique() {
        let internet = InternetBuilder::new(InternetConfig::small(2)).build();
        let ids: Vec<Ipv4Addr> = internet
            .devices()
            .iter()
            .filter(|d| d.kind == DeviceKind::BorderRouter)
            .filter_map(|d| d.bgp.as_ref())
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
            .iter()
            .filter_map(|d| d.ssh.as_ref())
            .map(|s| s.host_key.fingerprint())
            .collect();
        let unique: std::collections::HashSet<_> = keys.iter().collect();
        assert!(unique.len() as f64 >= keys.len() as f64 * 0.98);
    }

    #[test]
    fn small_preset_population_shape_is_plausible() {
        let internet = InternetBuilder::new(InternetConfig::preset(ScalePreset::Small, 8)).build();
        let stats = internet.population_stats();
        // SSH is the dominant responsive service, as in the paper's Table 1
        // (note that `bgp_responding_addrs` counts every open port 179,
        // including the silent majority that never sends an OPEN).
        assert!(stats.ssh_responding_addrs > stats.bgp_responding_addrs * 2);
        // SNMP responds on many addresses but fewer than SSH.
        assert!(stats.snmp_responding_addrs > 0);
        // Silent BGP speakers outnumber OPEN senders.
        assert!(stats.bgp_silent_closers > 0);
        assert!(stats.dual_stack_devices > 0);
    }

    #[test]
    fn every_device_gets_a_class_appropriate_icmp_limit() {
        let mut config = InternetConfig::tiny(17);
        config.devices.silent_routers = 10;
        let limits = config.icmp_limits;
        let internet = InternetBuilder::new(config).build();
        for device in internet.devices() {
            let (lo, hi) = match device.kind {
                DeviceKind::IspRouter | DeviceKind::BorderRouter => limits.router_rate_range,
                DeviceKind::SilentRouter => limits.silent_rate_range,
                _ => limits.endpoint_rate_range,
            };
            assert!(
                (lo..=hi).contains(&device.icmp_limit.rate_pps),
                "{:?}: rate {} outside [{lo}, {hi}]",
                device.kind,
                device.icmp_limit.rate_pps
            );
            assert_eq!(device.icmp_limit.burst, limits.burst);
        }
    }

    #[test]
    fn silent_routers_have_no_identifier_services() {
        let mut config = InternetConfig::tiny(19);
        config.devices.silent_routers = 25;
        let internet = InternetBuilder::new(config).build();
        let silent: Vec<_> = internet
            .devices()
            .iter()
            .filter(|d| d.kind == DeviceKind::SilentRouter)
            .collect();
        assert_eq!(silent.len(), 25);
        for device in &silent {
            assert!(device.ssh.is_none());
            assert!(device.bgp.is_none());
            assert!(device.snmp.is_none());
            assert!(device.responds_to_ping);
            assert!(device.visible_to_single_vp);
            assert!(device.icmp_error_source.is_none());
            assert!(device.interfaces.len() >= 2);
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
        for (a, b) in base.devices().iter().zip(extended.devices()) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.interfaces, b.interfaces);
            assert_eq!(a.responds_to_ping, b.responds_to_ping);
            assert_eq!(a.icmp_limit, b.icmp_limit);
        }
    }

    #[test]
    #[should_panic(expected = "invalid InternetConfig")]
    fn invalid_config_is_rejected() {
        let mut config = InternetConfig::tiny(1);
        config.acl.ssh_coverage = 2.0;
        let _ = InternetBuilder::new(config);
    }
}
