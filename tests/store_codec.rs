//! The payload codec on real data: stores built by a campaign and by a
//! Censys collection come back from rows as the stores they were, and a
//! session pushed through the scan door (parsed in place, encoded straight
//! into a shard's arena) is the row the row door (`parse_payload`, then
//! `from_observations`) makes of it — equal stores, which since a store
//! compares its arena byte for byte means equal record bytes.

use alias_resolution::netsim::ProbeContext;
use alias_resolution::prelude::*;
use alias_resolution::scan::zgrab::parse_payload;

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
        let censys = ObservationStore::from_observations(snapshot.default_port_observations());
        assert!(censys.len() > 100, "seed {seed}: {} rows", censys.len());
        assert_eq!(censys.validate(), Ok(()), "seed {seed}");
        assert_eq!(
            ObservationStore::from_observations(censys.to_observations()),
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
