//! The payload codec on real data: stores built by a campaign and by a
//! Censys crawl come back from rows as the stores they were, and a session
//! pushed through the scan door (parsed in place, encoded straight into a
//! shard's arena) is the row the row door (`parse_payload`, then
//! `from_observations`) makes of it — equal stores, which since a store
//! compares its arena record by record means equal record bytes, however
//! either side's arena is chunked.

use alias_resolution::netsim::ProbeContext;
use alias_resolution::prelude::*;
use alias_resolution::scan::zgrab::parse_payload;
use std::collections::BTreeSet;
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
        let censys = snapshot.default_port();
        assert!(censys.len() > 100, "seed {seed}: {} rows", censys.len());
        assert_eq!(censys.validate(), Ok(()), "seed {seed}");
        assert_eq!(
            &ObservationStore::from_observations(snapshot.default_port_observations()),
            censys,
            "seed {seed}: Censys store"
        );
        let nonstandard = snapshot.nonstandard();
        assert_eq!(nonstandard.validate(), Ok(()), "seed {seed}");
        assert_eq!(
            nonstandard.ports().iter().collect::<BTreeSet<_>>(),
            snapshot.config.extra_ssh_ports.iter().collect(),
            "seed {seed}: non-standard ports"
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
                (ServiceProtocol::Ssh, device.ssh_responding_addrs()),
                (ServiceProtocol::Bgp, device.bgp_responding_addrs()),
            ] {
                let port = protocol.default_port();
                for addr in addrs {
                    let (device_id, iface) = internet.lookup(addr).expect("a device's own address");
                    if !internet.service_session_into(device_id, iface, port, &ctx, &mut session) {
                        continue;
                    }
                    let asn = Some(internet.asn_at(device_id, iface).0);
                    let source = DataSource::Active;
                    let pushed = PayloadRef::parse(protocol, &session)
                        .map(|payload| shard.push(addr, port, source, ctx.time, asn, payload));
                    let row = parse_payload(protocol, &session).map(|payload| ServiceObservation {
                        addr,
                        port,
                        source,
                        timestamp: ctx.time,
                        asn,
                        payload,
                    });
                    assert_eq!(pushed.is_some(), row.is_some(), "seed {seed}: {addr}");
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

#[test]
fn the_paper_scale_censys_store_is_the_parent_commits_byte_for_byte() {
    // One digest over the `Debug` of every column, of the interner's
    // address list and of every payload as the arena hands it out (a stored
    // record prints its raw bytes), taken at the commit before the crawl
    // wrote columns — when these rows were owned observations re-encoded by
    // `from_observations`.  (Not the store's own `Debug`: that prints the
    // interner's hash map, whose order no two runs share.)
    let seed = 20230418;
    let internet =
        InternetBuilder::new(InternetConfig::preset(ScalePreset::PaperShape, seed)).build();
    let snapshot = CensysSnapshot::collect(
        &internet,
        CensysConfig {
            seed,
            ..Default::default()
        },
    );
    assert_eq!(snapshot.nonstandard().len(), 12_024);
    let (store, _) = snapshot.into_default_port();
    assert_eq!((store.len(), store.payload_bytes()), (64_412, 33_346_366));
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
        write!(digest, "{:?}", store.payload_at(row)).unwrap();
    }
    assert_eq!(digest.0, 0xc625_260c_8d06_888a);
}
