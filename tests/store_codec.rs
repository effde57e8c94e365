//! The payload codec on real data: stores built by a campaign and by a
//! Censys crawl come back from rows as the stores they were, and a session
//! pushed through the scan door (`ShardColumns::push_session`: parsed in
//! place, or written from the banner + KEXINIT prefix the shard parsed
//! before, encoded straight into a shard's arena) is the row the row door
//! (`parse_payload`, then `from_observations`) makes of it — equal stores,
//! which since a store compares its arena record by record means equal
//! record bytes, however either side's arena is chunked.

use alias_resolution::netsim::ProbeContext;
use alias_resolution::prelude::*;
use alias_resolution::store::{parse_payload, SshRef};
use std::fmt::Write;

#[test]
fn real_stores_survive_the_row_doors_and_the_scan_door_matches_the_row_door() {
    for seed in [14u64, 404, 2023] {
        let internet = InternetBuilder::new(InternetConfig::tiny(seed)).build();

        let campaign = ActiveCampaign::new(CampaignConfig {
            seed,
            threads: 1,
            ..Default::default()
        })
        .run(&internet);
        let store = campaign.store();
        assert!(store.len() > 300, "seed {seed}: {} rows", store.len());
        assert_eq!(store.validate(), Ok(()), "seed {seed}");
        assert_eq!(
            &ObservationStore::from_observations(store.to_observations()),
            store,
            "seed {seed}: campaign store"
        );

        let snapshot = CensysSnapshot::collect(
            &internet,
            CensysConfig {
                seed,
                ..Default::default()
            },
        );
        // The crawl fills columns; its one row export, re-imported, is the
        // store the crawl built.
        let exported = snapshot.default_port_observations();
        let (censys, _) = snapshot.into_default_port();
        assert!(censys.len() > 100, "seed {seed}: {} rows", censys.len());
        assert_eq!(censys.validate(), Ok(()), "seed {seed}");
        assert_eq!(
            ObservationStore::from_observations(exported),
            censys,
            "seed {seed}: Censys store"
        );

        let ctx = ProbeContext {
            vantage: VantageKind::Distributed,
            time: SimTime::from_secs(5),
        };
        let mut session = Vec::new();
        let mut shard = ShardColumns::new();
        let mut rows = Vec::new();
        for device in internet.devices() {
            for (protocol, addrs) in [
                (ServiceProtocol::Ssh, device.answering(ServiceProtocol::Ssh)),
                (ServiceProtocol::Bgp, device.answering(ServiceProtocol::Bgp)),
            ] {
                let port = protocol.default_port();
                for addr in addrs {
                    let route = internet.route(addr).expect("a device's own address");
                    if !internet.service_session_into(route, port, &ctx, &mut session) {
                        continue;
                    }
                    let asn = Some(internet.asn_at(route).0);
                    let source = DataSource::Active;
                    let pushed =
                        shard.push_session(addr, port, source, ctx.time, asn, protocol, &session);
                    let row = parse_payload(protocol, &session).map(|payload| ServiceObservation {
                        addr,
                        port,
                        source,
                        timestamp: ctx.time,
                        asn,
                        payload,
                    });
                    assert_eq!(pushed, row.is_some(), "seed {seed}: {addr}");
                    rows.extend(row);
                }
            }
        }
        let protocols = |protocol| rows.iter().filter(|o| o.protocol() == protocol).count();
        assert!(protocols(ServiceProtocol::Ssh) > 100, "seed {seed}");
        assert!(protocols(ServiceProtocol::Bgp) > 5, "seed {seed}");
        let mut scanned = ObservationStore::new();
        scanned.absorb_shard(shard);
        assert_eq!(
            scanned,
            ObservationStore::from_observations(rows),
            "seed {seed}: scan door against row door"
        );
    }
}

/// FNV-1a over whatever is formatted into it.
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, text: &str) -> std::fmt::Result {
        for byte in text.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// One digest over the `Debug` of every column, of the interner's address
/// list and of every payload as an owned row: what `store` holds, whatever
/// its record layout.  (Not the store's own `Debug`: that prints the
/// interner's hash map, whose order no two runs share, and the arena's
/// layout.)
fn digest(store: &ObservationStore) -> u64 {
    let mut digest = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(
        digest,
        "{:?}{:?}{:?}{:?}{:?}{:?}{:?}",
        store.addr_ids(),
        store.protocols(),
        store.sources(),
        store.ports(),
        store.timestamps(),
        store.asns(),
        store.interner().addrs()
    )
    .unwrap();
    for row in 0..store.len() {
        write!(digest, "{:?}", store.payload_at(row).to_owned()).unwrap();
    }
    digest.0
}

/// Entries in the largest SSH profile dictionary among `store`'s chunks:
/// what bounds the walk that finds a pushed profile's entry.
fn largest_dictionary(store: &ObservationStore) -> usize {
    let dictionaries = (0..store.len()).filter_map(|row| match store.payload_at(row) {
        PayloadRef::Ssh(SshRef::Record(record)) => Some(record.profile().0.len()),
        _ => None,
    });
    dictionaries.max().unwrap_or(0)
}

/// The benchmark seed's paper-scale Internet.
fn paper_internet(seed: u64) -> Internet {
    InternetBuilder::new(InternetConfig::preset(ScalePreset::PaperShape, seed)).build()
}

/// One digest over everything the builder decides about every device, in
/// id order — kind and flags; each interface's address, ASN and which
/// services answer on it; the SSH, BGP and SNMP configuration; the ICMP
/// limiter, the error source and the IPID model — then over the IP index's
/// answer for every interface address.
fn internet_digest(internet: &Internet) -> u64 {
    let mut digest = Fnv1a(0xcbf2_9ce4_8422_2325);
    for device in internet.devices() {
        write!(
            digest,
            "{:?}{:?}{:?}{:?}{:?}",
            device.kind(),
            device.visible_to_single_vp(),
            device.censys_covered(),
            device.responds_to_ping(),
            device.dynamic_addresses()
        )
        .unwrap();
        for (iface, interface) in device.interfaces().iter().enumerate() {
            write!(
                digest,
                "{:?}{:?}{:?}{:?}{:?}",
                interface.addr,
                interface.asn,
                device.responds_on(ServiceProtocol::Ssh, iface),
                device.responds_on(ServiceProtocol::Bgp, iface),
                device.responds_on(ServiceProtocol::Snmpv3, iface)
            )
            .unwrap();
        }
        if let Some(ssh) = device.ssh() {
            write!(
                digest,
                "ssh{:?}{:?}{:?}{:?}{:?}",
                ssh.profile,
                ssh.divergent.map(|(_, profile)| profile),
                ssh.divergent.map(|(iface, _)| iface),
                ssh.host_key.algorithm,
                ssh.host_key.key_material
            )
            .unwrap();
        }
        if let Some(bgp) = device.bgp() {
            let (profile, identifier, asn) = (bgp.profile, bgp.bgp_identifier, bgp.asn);
            write!(digest, "bgp{profile:?}{identifier:?}{asn:?}").unwrap();
        }
        if let Some(snmp) = device.snmp() {
            let (engine_id, boots) = (snmp.engine_id, snmp.engine_boots);
            write!(digest, "snmp{engine_id:?}{boots:?}").unwrap();
        }
        write!(
            digest,
            "{:?}{:?}{:?}{:?}",
            device.icmp_limit().rate_pps,
            device.icmp_limit().burst,
            device.icmp_error_source(),
            internet.ipid_model(device.id())
        )
        .unwrap();
    }
    for device in internet.devices() {
        for interface in device.interfaces() {
            write!(digest, "{:?}", internet.route(interface.addr)).unwrap();
        }
    }
    digest.0
}

#[test]
fn the_paper_scale_internet_is_the_parent_commits_device_for_device() {
    // Taken while every device was an object graph of its own, for the
    // paper preset and for the rate-limit study's population (300 silent
    // routers on top), each as built and after three weeks of churn.
    let seed = 20230418;
    let study = {
        let mut config = InternetConfig::preset(ScalePreset::PaperShape, seed);
        config.devices.silent_routers = 300;
        config
    };
    let digests =
        [paper_internet(seed), InternetBuilder::new(study).build()].map(|mut internet| {
            let built = internet_digest(&internet);
            internet.apply_churn(SimTime::ZERO, SimTime::from_days(21));
            [built, internet_digest(&internet)]
        });
    assert_eq!(
        digests,
        [
            [0x20d3_9fbe_819e_87d9, 0x7fee_b4b1_751e_51eb],
            [0xbcf2_2efc_c32f_8d11, 0xa4f2_a2ef_4137_80e7],
        ]
    );
}

#[test]
fn the_paper_scale_censys_store_is_the_parent_commits_byte_for_byte() {
    // Taken at the commit before SSH records pointed into chunk
    // dictionaries.
    let seed = 20230418;
    let internet = paper_internet(seed);
    let snapshot = CensysSnapshot::collect(
        &internet,
        CensysConfig {
            seed,
            ..Default::default()
        },
    );
    let (store, nonstandard) = snapshot.into_default_port();
    assert_eq!(nonstandard, 12_024);
    // Record bytes only: 33,346,366 while every SSH record carried its
    // banner and name-lists, before they moved into the chunk dictionary.
    assert_eq!((store.len(), store.payload_bytes()), (64_412, 3_308_654));
    assert_eq!(digest(&store), 0x0493_4649_b3ed_2728);
    // Well within the bound of 32 profiles a chunk holds.
    assert_eq!(largest_dictionary(&store), 9);
}

#[test]
fn the_paper_scale_campaign_store_is_the_parent_commits_byte_for_byte() {
    // Taken before the grab found a chunk's SSH profiles by comparing
    // fields, the SNMP sweep encoded only the requests an agent reads and
    // a store adopted its first shard's interner; at one and two scan
    // threads, which shard the phases differently.
    let seed = 20230418;
    let internet = paper_internet(seed);
    for threads in [1, 2] {
        let campaign = ActiveCampaign::new(CampaignConfig {
            seed,
            threads,
            ..Default::default()
        })
        .run(&internet);
        let store = campaign.store();
        assert_eq!(store.validate(), Ok(()), "threads={threads}");
        assert_eq!(
            (store.len(), store.payload_bytes()),
            (85_378, 3_661_540),
            "threads={threads}"
        );
        assert_eq!(digest(store), 0xadbd_4bbe_28b4_2e82, "threads={threads}");
        // A phase's one shard keeps 9 profiles in its chunk, well within
        // the bound of 32; more shards' chunks keep subsets of them.
        let largest = largest_dictionary(store);
        assert!(largest <= 9, "threads={threads}: {largest}");
        assert!(threads > 1 || largest == 9, "{largest}");
    }
}
