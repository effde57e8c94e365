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
use crate::rate_probe::{self, RateProbeConfig};
use crate::{snmp, zgrab, zmap};
use alias_intern::AddrInterner;
use alias_netsim::{Internet, ServiceProtocol, SimTime, VantageKind};
use alias_store::{ObservationStore, ShardColumns};
use std::net::IpAddr;
use std::sync::Arc;

/// Stale entries added to the IPv6 hitlist, as a fraction of its active
/// ones.
const HITLIST_STALE_FRACTION: f64 = 0.15;

/// Configuration of a measurement campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The vantage point kind (the paper's own scans are single-VP).
    pub vantage: VantageKind,
    /// Campaign start (simulated time).
    pub start: SimTime,
    /// IPv6 hitlist coverage of truly active addresses.
    pub hitlist_coverage: f64,
    /// Seed for permutations and the hitlist sample.
    pub seed: u64,
    /// Worker threads for the scan phases (1 = serial).  The campaign
    /// output is byte-identical for any value — see the scan
    /// pool's shard-reduce contract.
    pub threads: usize,
    /// ICMP rate-limiting probe phase ([`rate_probe`]), or `None` to skip
    /// it.  `None` by default so campaigns that predate the eighth
    /// technique — and every byte of their output — are unchanged.
    pub rate_probe: Option<RateProbeConfig>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            vantage: VantageKind::SingleVp,
            start: SimTime::ZERO,
            hitlist_coverage: 0.72,
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
    /// interned to a dense [`AddrId`](alias_intern::AddrId) in first-observation order.
    store: ObservationStore,
    /// Simulated time the campaign finished.
    pub finished_at: SimTime,
}

impl CampaignData {
    /// Wrap a pre-collected store (a Censys snapshot through
    /// [`ObservationStore::from_observations`], a union of data sources) so
    /// it can be fed to consumers of campaign data — most notably
    /// `alias-resolve`'s techniques — without having run a scan;
    /// `finished_at` is the latest observation timestamp.
    pub fn from_store(store: ObservationStore) -> Self {
        let finished_at = store
            .timestamps()
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO);
        CampaignData { store, finished_at }
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
    /// dense [`AddrId`](alias_intern::AddrId), in first-observation order.  Shared behind an
    /// `Arc` so techniques and reports can reference the id space without
    /// copying it.
    pub fn interner(&self) -> &Arc<AddrInterner> {
        self.store.interner()
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
        let syn = {
            let _span = alias_obs::span("campaign/syn_v4");
            zmap::scan_ipv4(internet, vantage, cfg.start, cfg.seed, threads)
        };
        let mut now = syn.finished_at;

        // Phase 2: service scans of the responsive addresses.
        alias_obs::event("campaign:grab_v4");
        {
            let _span = alias_obs::span("campaign/grab_v4");
            now = absorb_phase(
                &mut store,
                zgrab::grab(
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
                zgrab::grab(
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
        {
            let _span = alias_obs::span("campaign/snmp_v4");
            now = absorb_phase(
                &mut store,
                snmp::scan_routed_space(internet, vantage, now, threads),
                now,
            );
        }

        // Phase 4: IPv6 — hitlist-driven discovery and service scans.
        alias_obs::event("campaign:ipv6");
        let hitlist = Ipv6Hitlist::generate(
            internet,
            cfg.hitlist_coverage,
            HITLIST_STALE_FRACTION,
            cfg.seed,
        );
        let v6_syn;
        {
            let _span = alias_obs::span("campaign/ipv6");
            v6_syn = zmap::scan_ipv6_list(internet, &hitlist.addrs, vantage, now, threads);
            now = v6_syn.finished_at;
            now = absorb_phase(
                &mut store,
                zgrab::grab(
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
                zgrab::grab(
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
                snmp::scan(internet, &v6_targets, vantage, now, threads),
                now,
            );
        }

        // Phase 5 (opt-in): ICMP rate-limiting escalation bursts against
        // the echo-responsive population.
        if cfg.rate_probe.is_some() {
            alias_obs::event("campaign:rate_probe");
            let _span = alias_obs::span("campaign/rate_probe");
            let targets =
                rate_probe::discover_targets(internet, &hitlist.addrs, vantage, now, threads);
            now = absorb_phase(
                &mut store,
                rate_probe::probe(internet, &targets, vantage, now, threads),
                now,
            );
        }

        CampaignData {
            store,
            finished_at: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::{InternetBuilder, InternetConfig};
    use alias_store::DataSource;

    fn campaign_data() -> (Internet, CampaignData) {
        let internet = InternetBuilder::new(InternetConfig::tiny(404)).build();
        let campaign = ActiveCampaign::new(CampaignConfig {
            hitlist_coverage: internet.config().visibility.hitlist_coverage,
            ..Default::default()
        });
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
        }
        for obs in data.store().to_observations() {
            assert_eq!(obs.port, obs.protocol().default_port());
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
                assert_eq!(sharded.finished_at, serial.finished_at);
            }
        }
    }

    #[test]
    #[ignore = "large-scale (10× paper) identity sweep, ~a minute of wall-clock; \
                run with `cargo test --release -p alias-scan -- --ignored` in a \
                dedicated job — CI keeps the tiny- and paper-scale parity tests"]
    fn sharded_campaign_is_byte_identical_to_serial_at_large_scale() {
        // The same guarantee as `sharded_campaign_is_byte_identical_to_serial`
        // at the `ALIAS_SCALE=large` tier: the shard split and
        // hardware-capped shard counts must not leak into the output even
        // when the routed space runs to millions of probes.
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
            assert_eq!(sharded.finished_at, serial.finished_at);
        }
    }

    /// The paper-scale campaign, at 1 and 2 threads, dates its probes as
    /// the stepped token bucket does: every scan phase's send times over
    /// its real probe count from its real start (the last answered probe of
    /// the phase before it), and every stored row's timestamp the send time
    /// of its target's place in its phase (`cargo test --release -p
    /// alias-scan -- --ignored send_times`).
    #[test]
    #[ignore = "paper scale: two campaigns and ~3 million stepped probes"]
    fn paper_scale_phase_send_times_equal_the_stepped_reference() {
        use crate::rate::tests::assert_pace_is_the_stepped_bucket;
        use crate::rate::Pace;
        use alias_netsim::internet::SNMP_PORT;
        use alias_netsim::ScalePreset;
        use alias_store::ServiceObservation;
        use std::collections::HashMap;

        let seed = 20230418;
        let config = InternetConfig::preset(ScalePreset::PaperShape, seed);
        let hitlist_coverage = config.visibility.hitlist_coverage;
        let mut internet = InternetBuilder::new(config).build();
        let start = SimTime::from_days(21);
        internet.apply_churn(SimTime::ZERO, start);
        let vantage = VantageKind::SingleVp;
        let (syn, grab, snmp) = ((200_000, 64), (50_000, 32), (200_000, 32));

        /// A phase's targets in probe order, as address → place.
        fn places(addrs: impl Iterator<Item = IpAddr>) -> HashMap<IpAddr, u64> {
            addrs.zip(0..).collect()
        }
        // The routed-space sweep's populated places only.
        let space = internet.routed_space();
        let routed: HashMap<IpAddr, u64> = (0..space.len())
            .filter(|&index| space.owner_at(index).is_some())
            .map(|index| (IpAddr::V4(space.addr_at(index)), index))
            .collect();
        let syn_v4 = zmap::scan_ipv4(&internet, vantage, start, seed, 1);
        let hitlist =
            Ipv6Hitlist::generate(&internet, hitlist_coverage, HITLIST_STALE_FRACTION, seed);
        let syn_v6 = zmap::scan_ipv6_list(&internet, &hitlist.addrs, vantage, start, 1);
        // The phases that store rows, in campaign order: the probes of the
        // SYN sweep before it (if one is), pace, port, places and probes.
        let mut phases = Vec::new();
        let mut snmp_v4 = Some((routed, space.len()));
        for (sweep, results) in [
            (space.len() * 2, &syn_v4),
            (hitlist.len() as u64 * 2, &syn_v6),
        ] {
            for (i, port) in zmap::PORTS.into_iter().enumerate() {
                let targets = results.on_port(port);
                let places = places(targets.iter().copied());
                let sweep = (i == 0).then_some(sweep);
                phases.push((sweep, grab, port, places, targets.len() as u64));
            }
            let (places, probes) = snmp_v4.take().unwrap_or_else(|| {
                let v6 = hitlist.addrs.iter().map(|&a| IpAddr::V6(a));
                (places(v6), hitlist.len() as u64)
            });
            phases.push((None, snmp, SNMP_PORT, places, probes));
        }

        for threads in [1, 2] {
            let data = ActiveCampaign::new(CampaignConfig {
                vantage,
                start,
                hitlist_coverage,
                seed,
                threads,
                rate_probe: None,
            })
            .run(&internet);
            let rows = data.store().to_observations();
            let mut rows = rows.iter().peekable();
            let mut now = start;
            for (sweep, pace, port, places, probes) in &phases {
                if let Some(sweep) = *sweep {
                    assert_pace_is_the_stepped_bucket(syn, now, sweep);
                    now = Pace::new(syn.0, syn.1).finish(now, sweep);
                }
                assert_pace_is_the_stepped_bucket(*pace, now, *probes);
                let phase_pace = Pace::new(pace.0, pace.1);
                let phase_start = now;
                let mut stored = 0;
                let in_phase =
                    |row: &&ServiceObservation| row.port == *port && places.contains_key(&row.addr);
                while let Some(row) = rows.next_if(in_phase) {
                    let place = places[&row.addr];
                    assert_eq!(
                        row.timestamp,
                        phase_pace.send_time(phase_start, place),
                        "{threads} threads: {} at place {place} of {probes}",
                        row.addr
                    );
                    now = row.timestamp;
                    stored += 1;
                }
                assert!(stored > 0, "{threads} threads: a phase stored nothing");
            }
            assert!(rows.next().is_none(), "{threads} threads: rows left");
            assert_eq!(data.finished_at, now);
        }
    }

    #[test]
    fn from_store_wraps_pre_collected_records() {
        let (_, data) = campaign_data();
        let rows = data.store().to_observations();
        let wrapped = CampaignData::from_store(ObservationStore::from_observations(rows.clone()));
        assert_eq!(wrapped.store(), data.store());
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
            let id = data
                .store()
                .addr_id(obs.addr)
                .expect("observed address interned");
            assert_eq!(id, obs.addr_id);
            assert_eq!(data.interner().addr(id), obs.addr);
        }
        assert_eq!(data.store().addr_id("203.0.113.99".parse().unwrap()), None);
        // The row door builds the same id space for the same records.
        let reimported = ObservationStore::from_observations(rows);
        assert_eq!(reimported.interner().addrs(), data.interner().addrs());
    }

    #[test]
    fn rate_probe_phase_is_gated_and_deterministic_across_threads() {
        // Campaigns without the opt-in record no rate observations; with
        // it, the full five-phase store stays byte-identical for any
        // thread count (the satellite determinism contract for the new
        // phase), and rate observations appear for both populations.
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
                rate_probe: Some(RateProbeConfig),
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
                    rate_probe: Some(RateProbeConfig),
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
            single.store().address_count(ServiceProtocol::Ssh)
                < distributed.store().address_count(ServiceProtocol::Ssh)
        );
    }

    #[test]
    fn observation_addresses_are_really_responsive_in_ground_truth() {
        let (internet, data) = campaign_data();
        for obs in data.store().select(None, None).iter() {
            let device_id = internet.ground_truth().device_of(obs.addr);
            let device = internet.device(device_id.expect("observed address must exist"));
            let iface = device.interfaces().iter().position(|i| i.addr == obs.addr);
            let iface = iface.expect("the device holds the address");
            // Rate observations need no identifier service — only an
            // echo-responsive interface of the device.
            assert!(device.responds_on(obs.protocol(), iface), "{obs:?}");
        }
    }
}
