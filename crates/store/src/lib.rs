//! # alias-store
//!
//! Columnar observation storage for the alias-resolution pipeline.
//!
//! A measurement campaign produces millions of
//! [`ServiceObservation`]-shaped records, but the resolution passes that
//! run over them — per-protocol identifier grouping, per-source dataset
//! tables, family splits — filter on a handful of scalar fields and only
//! then read the (much larger) payload of the rows that matched.  Stored
//! row-by-row, every filter pass drags the payloads through cache anyway.
//!
//! This crate stores campaigns **field-by-field** instead:
//!
//! * [`ObservationStore`] — column vectors for the scalars
//!   ([`AddrId`](alias_intern::AddrId), `ServiceProtocol`, [`DataSource`],
//!   port, timestamp, ASN) plus a separate payload column, with every
//!   observed address interned to a dense id at insertion time;
//! * [`ShardColumns`] — per-shard append builders, so parallel scan loops
//!   emit ids straight into shard-local columns (intern **at scan**, no
//!   post-hoc interning pass over the finished campaign);
//! * [`ObservationView`] / [`ObservationRef`] — zero-copy selections
//!   ([`ObservationStore::select`] reads two bytes per row) and borrowed
//!   row accessors.
//!
//! There is one door in per data source and one door out.  Pre-collected
//! rows (a Censys export) enter through
//! [`ObservationStore::from_observations`]; scans enter through
//! [`ShardColumns`] + [`ObservationStore::absorb_shard`]; rows leave only
//! through `to_observations` on a store or a view — the oracle the tests
//! compare against.
//!
//! The crate sits between `alias-intern` and `alias-scan`; the observation
//! record types ([`ServiceObservation`], [`ServicePayload`],
//! [`DataSource`]) live here and are re-exported at `alias-scan`'s root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod records;
mod store;

pub use records::{parse_payload, DataSource, ServiceObservation, ServicePayload};
pub use store::{ObservationRef, ObservationStore, ObservationView, ShardColumns};

#[cfg(test)]
mod proptests {
    use super::*;
    use alias_netsim::{ServiceProtocol, SimTime};
    use alias_wire::bgp::OpenMessage;
    use alias_wire::snmp::EngineId;
    use alias_wire::ssh::{Banner, HostKey, HostKeyAlgorithm, KexInit, SshObservation};
    use proptest::prelude::*;
    use std::net::{IpAddr, Ipv4Addr};

    /// Deterministically expand a compact `(addr, kind, source)` triple
    /// into a full observation — enough variety to exercise interning and
    /// selection without generating wire types directly.
    fn expand(row: (u16, u8, bool)) -> ServiceObservation {
        let (addr_raw, kind, censys) = row;
        let addr = IpAddr::V4(Ipv4Addr::new(10, 0, (addr_raw >> 8) as u8, addr_raw as u8));
        let source = if censys {
            DataSource::Censys
        } else {
            DataSource::Active
        };
        let payload = match kind % 4 {
            0 => ServicePayload::Ssh(SshObservation {
                banner: Banner::new("OpenSSH_8.9p1", None).unwrap(),
                kex_init: (kind & 4 != 0).then(KexInit::typical_openssh),
                host_key: Some(HostKey::new(HostKeyAlgorithm::Ed25519, vec![kind; 32])),
            }),
            1 => ServicePayload::Bgp {
                open: OpenMessage {
                    version: 4,
                    my_as: 64_000 + kind as u16,
                    hold_time: 90,
                    bgp_identifier: Ipv4Addr::new(192, 0, 2, kind),
                    optional_parameters: vec![],
                },
                notification_seen: kind & 8 != 0,
            },
            2 => ServicePayload::Snmpv3 {
                engine_id: EngineId::from_enterprise_mac(9, [kind; 6]),
                engine_boots: kind as i64,
                engine_time: 10 * kind as i64,
            },
            _ => ServicePayload::RateLimit {
                round: kind % 5,
                rate_pps: 256u32 << (kind % 5),
                sent: 24,
                lost: (kind % 25) as u16,
            },
        };
        let port = payload.protocol().default_port();
        ServiceObservation {
            addr,
            port,
            source,
            timestamp: SimTime::from_secs(addr_raw as u64),
            asn: (kind % 5 != 0).then_some(65_000 + kind as u32),
            payload,
        }
    }

    // The parity oracle of the columnar store: for random observation
    // batches, a store built shard-by-shard (at several shard widths,
    // mirroring 1/2/7-thread scan splits) matches the row `Vec` on every
    // axis — materialisation, selection and id assignment.
    proptest! {
        #[test]
        fn columnar_store_matches_the_row_vec_oracle(
            rows in proptest::collection::vec(
                ((0u16..48), any::<u8>(), any::<bool>()),
                0..60,
            ),
        ) {
            let oracle: Vec<ServiceObservation> = rows.into_iter().map(expand).collect();
            let serial = ObservationStore::from_observations(oracle.clone());

            // Shard widths covering the serial path, an even split and a
            // ragged one (the shard counts a 1/2/7-thread campaign uses).
            for shards in [1usize, 2, 7] {
                let chunk = oracle.len().div_ceil(shards).max(1);
                let mut sharded = ObservationStore::new();
                for shard_rows in oracle.chunks(chunk) {
                    let mut shard = ShardColumns::new();
                    for o in shard_rows {
                        shard.push(o.addr, o.port, o.source, o.timestamp, o.asn, o.payload.clone());
                    }
                    sharded.absorb_shard(shard);
                    // Shard splicing must never let the columns drift — the
                    // runtime twin of the parity assertion below.
                    prop_assert_eq!(sharded.validate(), Ok(()));
                }
                prop_assert_eq!(&sharded, &serial);
            }
            prop_assert_eq!(serial.validate(), Ok(()));

            // Materialisation restores the row vec byte for byte.
            prop_assert_eq!(serial.to_observations(), oracle.clone());

            // Ids are dense, first-observation ordered, and every row's id
            // resolves back to its address.
            let mut seen: Vec<IpAddr> = Vec::new();
            for o in &oracle {
                if !seen.contains(&o.addr) {
                    seen.push(o.addr);
                }
            }
            prop_assert_eq!(serial.interner().addrs(), seen.as_slice());
            for (row, o) in oracle.iter().enumerate() {
                prop_assert_eq!(serial.addr_at(row), o.addr);
            }

            // Every (protocol, source) selection matches the filtered vec.
            for protocol in [None, Some(ServiceProtocol::Ssh), Some(ServiceProtocol::Bgp), Some(ServiceProtocol::Snmpv3), Some(ServiceProtocol::IcmpRateLimit)] {
                for source in [None, Some(DataSource::Active), Some(DataSource::Censys)] {
                    let view = serial.select(protocol, source);
                    let expected: Vec<ServiceObservation> = oracle
                        .iter()
                        .filter(|o| protocol.is_none_or(|p| o.protocol() == p))
                        .filter(|o| source.is_none_or(|s| o.source == s))
                        .cloned()
                        .collect();
                    prop_assert_eq!(view.to_observations(), expected);
                }
            }
        }
    }
}
