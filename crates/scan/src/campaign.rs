//! The full active-measurement campaign.
//!
//! This module reproduces the paper's data-collection pipeline end to end:
//!
//! 1. ZMap SYN scan of the routed IPv4 space on ports 22 and 179,
//! 2. ZGrab2 service scans of the responsive addresses (SSH and BGP),
//! 3. an Internet-wide SNMPv3 engine-discovery scan,
//! 4. an IPv6 hitlist, SYN-scanned and service-scanned the same way,
//!
//! all from a single vantage point at a fixed simulated date.  The scan
//! loops emit straight into per-shard column chunks
//! ([`ShardColumns`], addresses interned as they
//! are observed), which the campaign splices into one columnar
//! [`ObservationStore`] — the [`CampaignData`] bundle the resolution
//! pipeline runs on.

use crate::hitlist::Ipv6Hitlist;
use crate::rate_probe::{RateProbeConfig, RateProber};
use crate::snmp::{SnmpScanConfig, SnmpScanner};
use crate::zgrab::{ZgrabConfig, ZgrabScanner};
use crate::zmap::{ZmapConfig, ZmapScanner};
use alias_intern::{AddrId, AddrInterner};
use alias_netsim::{Internet, ServiceProtocol, SimTime, VantageKind};
use alias_store::{DataSource, ObservationStore, ShardColumns};
use std::net::IpAddr;
use std::sync::Arc;

/// Configuration of a measurement campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The vantage point kind (the paper's own scans are single-VP).
    pub vantage: VantageKind,
    /// Campaign start (simulated time).
    pub start: SimTime,
    /// SYN scan rate in packets per second.
    pub syn_rate_pps: f64,
    /// Application-layer scan rate in connections per second.
    pub grab_rate_pps: f64,
    /// IPv6 hitlist coverage of truly active addresses.
    pub hitlist_coverage: f64,
    /// Fraction of stale entries added to the hitlist.
    pub hitlist_stale_fraction: f64,
    /// Seed for permutations and the hitlist sample.
    pub seed: u64,
    /// Worker threads for the scan phases (1 = serial).  The campaign
    /// output is byte-identical for any value — see `alias-exec`'s
    /// shard-reduce contract.
    pub threads: usize,
    /// ICMP rate-limiting probe phase ([`RateProber`]), or `None` to skip
    /// it.  `None` by default so campaigns that predate the eighth
    /// technique — and every byte of their output — are unchanged.
    pub rate_probe: Option<RateProbeConfig>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            vantage: VantageKind::SingleVp,
            start: SimTime::ZERO,
            syn_rate_pps: 200_000.0,
            grab_rate_pps: 50_000.0,
            hitlist_coverage: 0.72,
            hitlist_stale_fraction: 0.15,
            seed: 0xa11a5,
            threads: 1,
            rate_probe: None,
        }
    }
}

/// The output of a campaign: a columnar [`ObservationStore`] of every
/// observation (SSH, BGP, SNMPv3; IPv4 and IPv6) plus campaign metadata.
#[derive(Debug, Clone)]
pub struct CampaignData {
    /// All observations, stored column-wise with every observed address
    /// interned to a dense [`AddrId`] in first-observation order.
    store: ObservationStore,
    /// The IPv6 hitlist used.
    pub hitlist: Ipv6Hitlist,
    /// Simulated time the campaign finished.
    pub finished_at: SimTime,
    /// Total SYN probes sent during discovery.
    pub syn_probes_sent: u64,
}

impl CampaignData {
    /// Bundle a finished store with campaign metadata.
    fn new(
        store: ObservationStore,
        hitlist: Ipv6Hitlist,
        finished_at: SimTime,
        syn_probes_sent: u64,
    ) -> Self {
        CampaignData {
            store,
            hitlist,
            finished_at,
            syn_probes_sent,
        }
    }

    /// Wrap a pre-collected store (a Censys snapshot through
    /// [`ObservationStore::from_observations`], a union of data sources) so
    /// it can be fed to consumers of campaign data — most notably
    /// `alias-resolve`'s techniques — without having run a scan.  The
    /// hitlist is empty and no SYN probes are accounted; `finished_at` is
    /// the latest observation timestamp.
    pub fn from_store(store: ObservationStore) -> Self {
        let finished_at = store
            .timestamps()
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO);
        Self::new(store, Ipv6Hitlist { addrs: Vec::new() }, finished_at, 0)
    }

    /// The columnar observation store.
    pub fn store(&self) -> &ObservationStore {
        &self.store
    }

    /// Consume the campaign data, keeping only the store.
    pub fn into_store(self) -> ObservationStore {
        self.store
    }

    /// Number of observations in the campaign.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the campaign recorded no observations.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The campaign's address interner: every observed address mapped to a
    /// dense [`AddrId`], in first-observation order.  Shared behind an
    /// `Arc` so techniques and reports can reference the id space without
    /// copying it.
    pub fn interner(&self) -> &Arc<AddrInterner> {
        self.store.interner()
    }

    /// The dense id of an observed address ([`None`] for addresses the
    /// campaign never observed).
    pub fn addr_id(&self, addr: IpAddr) -> Option<AddrId> {
        self.store.addr_id(addr)
    }

    /// Number of distinct responsive addresses for a protocol.
    pub fn address_count(&self, protocol: ServiceProtocol) -> usize {
        self.store.address_count(protocol)
    }
}

/// Runs the paper's active-measurement pipeline against a simulated Internet.
#[derive(Debug, Clone)]
pub struct ActiveCampaign {
    config: CampaignConfig,
}

impl ActiveCampaign {
    /// Create a campaign with the given configuration.
    pub fn new(config: CampaignConfig) -> Self {
        ActiveCampaign { config }
    }

    /// Create a campaign with default settings, taking the hitlist coverage
    /// from the Internet's own configuration and the worker-thread count
    /// from the `ALIAS_THREADS` environment variable (unset, empty, `0` or
    /// unparsable values fall back to the available parallelism — see
    /// [`alias_exec::threads_from_env`]).  The thread count is a pure
    /// performance knob and never changes the campaign output.
    pub fn with_defaults(internet: &Internet) -> Self {
        let mut config = CampaignConfig::default();
        config.hitlist_coverage = internet.config().visibility.hitlist_coverage;
        config.threads = alias_exec::threads_from_env();
        Self::new(config)
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Set the worker-thread count for the scan phases (builder style).
    /// A pure performance knob: the campaign output is byte-identical for
    /// any value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Run the campaign.
    ///
    /// Each scan phase runs as shard workers over disjoint slices of its
    /// address space (one worker, one shard), emitting into per-shard
    /// column chunks; splicing the chunks in shard order makes the store
    /// (observations, timestamps, time-dependent payload bytes *and* the
    /// interned id order) byte-identical for any thread count.
    pub fn run(&self, internet: &Internet) -> CampaignData {
        let cfg = &self.config;
        let vantage = cfg.vantage;
        let threads = cfg.threads.max(1);
        let mut store = ObservationStore::new();

        /// Splice a phase's shard chunks onto the store, in shard order,
        /// returning the clock after the phase (the timestamp of its last
        /// observation, or `now` if the phase observed nothing).
        fn absorb_phase(
            store: &mut ObservationStore,
            shards: Vec<ShardColumns>,
            mut now: SimTime,
        ) -> SimTime {
            for shard in shards {
                if let Some(last) = shard.last_timestamp() {
                    now = last;
                }
                store.absorb_shard(shard);
            }
            now
        }

        // The campaign driver is serial (only the scan loops inside each
        // phase shard out), so the phase events land in a fixed order and
        // stay inside the deterministic snapshot subset.
        let _campaign_span = alias_obs::span("campaign");

        // Phase 1: IPv4 SYN discovery on ports 22 and 179.
        alias_obs::event("campaign:syn_v4");
        let zmap = ZmapScanner::new(ZmapConfig {
            ports: vec![22, 179],
            rate_pps: cfg.syn_rate_pps,
            seed: cfg.seed,
        });
        let syn = {
            let _span = alias_obs::span("campaign/syn_v4");
            zmap.scan_ipv4(internet, vantage, cfg.start, threads)
        };
        let mut now = syn.finished_at;

        // Phase 2: service scans of the responsive addresses.
        alias_obs::event("campaign:grab_v4");
        let zgrab = ZgrabScanner::new(ZgrabConfig {
            rate_pps: cfg.grab_rate_pps,
            source: DataSource::Active,
        });
        {
            let _span = alias_obs::span("campaign/grab_v4");
            now = absorb_phase(
                &mut store,
                zgrab.grab(
                    internet,
                    syn.on_port(22),
                    22,
                    ServiceProtocol::Ssh,
                    vantage,
                    now,
                    threads,
                ),
                now,
            );
            now = absorb_phase(
                &mut store,
                zgrab.grab(
                    internet,
                    syn.on_port(179),
                    179,
                    ServiceProtocol::Bgp,
                    vantage,
                    now,
                    threads,
                ),
                now,
            );
        }

        // Phase 3: Internet-wide SNMPv3 engine discovery.
        alias_obs::event("campaign:snmp_v4");
        let snmp = SnmpScanner::new(SnmpScanConfig {
            rate_pps: cfg.syn_rate_pps,
            source: DataSource::Active,
        });
        {
            let _span = alias_obs::span("campaign/snmp_v4");
            now = absorb_phase(
                &mut store,
                snmp.scan_routed_space(internet, vantage, now, threads),
                now,
            );
        }

        // Phase 4: IPv6 — hitlist-driven discovery and service scans.
        alias_obs::event("campaign:ipv6");
        let hitlist = Ipv6Hitlist::generate(
            internet,
            cfg.hitlist_coverage,
            cfg.hitlist_stale_fraction,
            cfg.seed,
        );
        let v6_syn;
        {
            let _span = alias_obs::span("campaign/ipv6");
            v6_syn = zmap.scan_ipv6_list(internet, &hitlist.addrs, vantage, now, threads);
            now = v6_syn.finished_at;
            now = absorb_phase(
                &mut store,
                zgrab.grab(
                    internet,
                    v6_syn.on_port(22),
                    22,
                    ServiceProtocol::Ssh,
                    vantage,
                    now,
                    threads,
                ),
                now,
            );
            now = absorb_phase(
                &mut store,
                zgrab.grab(
                    internet,
                    v6_syn.on_port(179),
                    179,
                    ServiceProtocol::Bgp,
                    vantage,
                    now,
                    threads,
                ),
                now,
            );
            let v6_targets: Vec<IpAddr> = hitlist.addrs.iter().map(|&a| IpAddr::V6(a)).collect();
            now = absorb_phase(
                &mut store,
                snmp.scan(internet, &v6_targets, vantage, now, threads),
                now,
            );
        }

        // Phase 5 (opt-in): ICMP rate-limiting escalation bursts against
        // the echo-responsive population.
        if let Some(rate_cfg) = &cfg.rate_probe {
            alias_obs::event("campaign:rate_probe");
            let _span = alias_obs::span("campaign/rate_probe");
            let prober = RateProber::new(rate_cfg.clone());
            let targets = prober.discover_targets(internet, &hitlist.addrs, vantage, now, threads);
            now = absorb_phase(
                &mut store,
                prober.probe(internet, &targets, vantage, now, threads),
                now,
            );
        }

        CampaignData::new(store, hitlist, now, syn.probes_sent + v6_syn.probes_sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::{InternetBuilder, InternetConfig};

    fn campaign_data() -> (Internet, CampaignData) {
        let internet = InternetBuilder::new(InternetConfig::tiny(404)).build();
        let campaign = ActiveCampaign::with_defaults(&internet);
        let data = campaign.run(&internet);
        (internet, data)
    }

    #[test]
    fn campaign_covers_all_three_protocols_and_both_families() {
        let (_, data) = campaign_data();
        for protocol in [
            ServiceProtocol::Ssh,
            ServiceProtocol::Bgp,
            ServiceProtocol::Snmpv3,
        ] {
            assert!(
                !data.store().select_protocol(protocol, None).is_empty(),
                "{protocol:?}"
            );
        }
        let addrs = data.store().interner().addrs();
        assert!(addrs.iter().any(|a| a.is_ipv6()));
        assert!(addrs.iter().any(|a| !a.is_ipv6()));
        assert!(data.syn_probes_sent > 0);
        assert!(data.finished_at > SimTime::ZERO);
        assert!(!data.is_empty());
    }

    #[test]
    fn every_observation_is_from_the_active_source_with_asn() {
        let (_, data) = campaign_data();
        let view = data.store().select(None, None);
        assert_eq!(view.len(), data.len());
        for obs in view.iter() {
            assert_eq!(obs.source, DataSource::Active);
            assert!(obs.asn.is_some(), "missing ASN annotation for {obs:?}");
            assert!(obs.is_default_port());
        }
    }

    #[test]
    fn sharded_campaign_is_byte_identical_to_serial() {
        // The determinism guarantee of the execution engine: for several
        // seeds and thread counts, the whole columnar store (addresses,
        // interned id order, timestamps, time-dependent payload bytes) and
        // the campaign metadata match the serial run exactly.
        for seed in [404u64, 2023] {
            let internet = InternetBuilder::new(InternetConfig::tiny(seed)).build();
            let serial = ActiveCampaign::new(CampaignConfig {
                seed,
                ..Default::default()
            })
            .run(&internet);
            for threads in [2usize, 7] {
                let sharded = ActiveCampaign::new(CampaignConfig {
                    seed,
                    threads,
                    ..Default::default()
                })
                .run(&internet);
                assert_eq!(
                    sharded.store(),
                    serial.store(),
                    "seed={seed} threads={threads}"
                );
                // The absorbed store is structurally coherent, not just
                // equal to the serial one.
                assert_eq!(
                    sharded.store().validate(),
                    Ok(()),
                    "seed={seed} threads={threads}"
                );
                assert_eq!(sharded.hitlist.addrs, serial.hitlist.addrs);
                assert_eq!(sharded.finished_at, serial.finished_at);
                assert_eq!(sharded.syn_probes_sent, serial.syn_probes_sent);
            }
        }
    }

    #[test]
    #[ignore = "large-scale (10× paper) identity sweep, ~a minute of wall-clock; \
                run with `cargo test --release -p alias-scan -- --ignored` in a \
                dedicated job — CI keeps the tiny- and paper-scale parity tests"]
    fn sharded_campaign_is_byte_identical_to_serial_at_large_scale() {
        // The same guarantee as `sharded_campaign_is_byte_identical_to_serial`
        // at the `ALIAS_SCALE=large` tier: the scratch-pool reuse, batched
        // schedule fast-forwards and hardware-capped shard counts must not
        // leak into the output even when the routed space runs to millions
        // of probes.
        use alias_netsim::ScalePreset;
        let seed = 20230418;
        let internet =
            InternetBuilder::new(InternetConfig::preset(ScalePreset::Large, seed)).build();
        let serial = ActiveCampaign::new(CampaignConfig {
            seed,
            ..Default::default()
        })
        .run(&internet);
        for threads in [2usize, 7] {
            let sharded = ActiveCampaign::new(CampaignConfig {
                seed,
                threads,
                ..Default::default()
            })
            .run(&internet);
            assert_eq!(sharded.store(), serial.store(), "threads={threads}");
            assert_eq!(sharded.hitlist.addrs, serial.hitlist.addrs);
            assert_eq!(sharded.finished_at, serial.finished_at);
            assert_eq!(sharded.syn_probes_sent, serial.syn_probes_sent);
        }
    }

    #[test]
    fn from_store_wraps_pre_collected_records() {
        let (_, data) = campaign_data();
        let rows = data.store().to_observations();
        let wrapped = CampaignData::from_store(ObservationStore::from_observations(rows.clone()));
        assert_eq!(wrapped.store(), data.store());
        assert!(wrapped.hitlist.addrs.is_empty());
        assert_eq!(wrapped.syn_probes_sent, 0);
        assert_eq!(
            wrapped.finished_at,
            rows.iter().map(|o| o.timestamp).max().unwrap()
        );
        assert_eq!(
            CampaignData::from_store(ObservationStore::new()).finished_at,
            SimTime::ZERO
        );
    }

    #[test]
    fn campaign_interner_covers_every_observed_address_exactly_once() {
        let (_, data) = campaign_data();
        let rows = data.store().to_observations();
        let mut distinct: Vec<IpAddr> = rows.iter().map(|o| o.addr).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(data.interner().len(), distinct.len());
        for row in 0..data.len() {
            let obs = data.store().get(row);
            let id = data.addr_id(obs.addr).expect("observed address interned");
            assert_eq!(id, obs.addr_id);
            assert_eq!(data.interner().addr(id), obs.addr);
        }
        assert_eq!(data.addr_id("203.0.113.99".parse().unwrap()), None);
        // The row door builds the same id space for the same records.
        let reimported = ObservationStore::from_observations(rows);
        assert_eq!(reimported.interner().addrs(), data.interner().addrs());
    }

    #[test]
    fn with_defaults_respects_alias_threads() {
        // `with_defaults` takes its thread count from ALIAS_THREADS via
        // `alias_exec::threads_from_env`.  The parsing rule — valid values
        // taken verbatim; unset / 0 / garbage falling back to the available
        // parallelism — is asserted through the env-free seam
        // (`threads_from_value`), because mutating the environment while
        // sibling tests read it concurrently is UB on glibc.
        let fallback = alias_exec::available_parallelism();
        for (value, expected) in [
            (Some("3"), 3),
            (Some("0"), fallback),
            (Some("not-a-number"), fallback),
            (None, fallback),
        ] {
            assert_eq!(
                alias_exec::threads_from_value(value),
                expected,
                "ALIAS_THREADS={value:?}"
            );
        }
        // And `with_defaults` wires that env-derived value straight into
        // the campaign config (read-only env access: race-free).
        let internet = InternetBuilder::new(InternetConfig::tiny(404)).build();
        assert_eq!(
            ActiveCampaign::with_defaults(&internet).config().threads,
            alias_exec::threads_from_env()
        );
    }

    #[test]
    fn rate_probe_phase_is_gated_and_deterministic_across_threads() {
        // Campaigns without the opt-in record no rate observations; with
        // it, the full five-phase store stays byte-identical for any
        // thread count (the satellite determinism contract for the new
        // phase), and rate observations appear for both populations.
        use crate::rate_probe::RateProbeConfig;
        for seed in [404u64, 2023] {
            let mut net_config = InternetConfig::tiny(seed);
            net_config.devices.silent_routers = 8;
            let internet = InternetBuilder::new(net_config).build();
            let base = ActiveCampaign::new(CampaignConfig {
                seed,
                ..Default::default()
            })
            .run(&internet);
            let rate_rows = |data: &CampaignData| {
                data.store()
                    .select_protocol(ServiceProtocol::IcmpRateLimit, None)
                    .len()
            };
            assert_eq!(rate_rows(&base), 0);

            let serial = ActiveCampaign::new(CampaignConfig {
                seed,
                rate_probe: Some(RateProbeConfig::default()),
                ..Default::default()
            })
            .run(&internet);
            assert!(rate_rows(&serial) > 0);
            // The first four phases are untouched by the opt-in.
            for protocol in [
                ServiceProtocol::Ssh,
                ServiceProtocol::Bgp,
                ServiceProtocol::Snmpv3,
            ] {
                let rows = |data: &CampaignData| {
                    data.store()
                        .select_protocol(protocol, None)
                        .to_observations()
                };
                assert_eq!(rows(&serial), rows(&base), "seed={seed} {protocol:?}");
            }
            for threads in [2usize, 7] {
                let sharded = ActiveCampaign::new(CampaignConfig {
                    seed,
                    threads,
                    rate_probe: Some(RateProbeConfig::default()),
                    ..Default::default()
                })
                .run(&internet);
                assert_eq!(
                    sharded.store(),
                    serial.store(),
                    "seed={seed} threads={threads}"
                );
                assert_eq!(sharded.store().validate(), Ok(()));
                assert_eq!(sharded.finished_at, serial.finished_at);
            }
        }
    }

    #[test]
    fn single_vp_campaign_misses_invisible_devices() {
        let internet = InternetBuilder::new(InternetConfig::tiny(404)).build();
        let single = ActiveCampaign::new(CampaignConfig::default()).run(&internet);
        let distributed = ActiveCampaign::new(CampaignConfig {
            vantage: VantageKind::Distributed,
            ..Default::default()
        })
        .run(&internet);
        assert!(
            single.address_count(ServiceProtocol::Ssh)
                < distributed.address_count(ServiceProtocol::Ssh)
        );
    }

    #[test]
    fn observation_addresses_are_really_responsive_in_ground_truth() {
        let (internet, data) = campaign_data();
        for obs in data.store().select(None, None).iter() {
            let (device_id, _) = internet
                .lookup(obs.addr)
                .expect("observed address must exist");
            let device = internet.device(device_id);
            let responding = match obs.protocol() {
                ServiceProtocol::Ssh => device.ssh_responding_addrs(),
                ServiceProtocol::Bgp => device.bgp_responding_addrs(),
                ServiceProtocol::Snmpv3 => device.snmp_responding_addrs(),
                // Rate observations need no identifier service — only an
                // echo-responsive interface of the device.
                ServiceProtocol::IcmpRateLimit => {
                    assert!(device.responds_to_ping);
                    assert!(device.interface_index(obs.addr).is_some());
                    continue;
                }
            };
            assert!(responding.contains(&obs.addr));
        }
    }
}
