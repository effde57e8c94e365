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
//!   port, timestamp, ASN) plus one byte arena holding every row's payload
//!   as a record, with every observed address interned to a dense id at
//!   insertion time;
//! * [`ShardColumns`] — per-shard append builders, so parallel scan loops
//!   emit ids straight into shard-local columns (intern **at scan**, no
//!   post-hoc interning pass over the finished campaign);
//! * [`ObservationView`] / [`ObservationRef`] — zero-copy selections
//!   ([`ObservationStore::select`] reads two bytes per row) and borrowed
//!   row accessors;
//! * [`PayloadRef`] — a payload with its variable-length parts borrowed:
//!   the one form payloads are read and written in.
//!
//! **Rows at the doors, bytes inside, every byte written once.**  Whoever
//! observes a payload — a scan phase, the Censys crawl — parses the session
//! in place ([`PayloadRef::parse`]) and pushes it into [`ShardColumns`],
//! which encodes it into an arena chunk; that is the only time its bytes
//! are written.  A campaign splices its shards on with
//! [`ObservationStore::absorb_shard`] (which counts them as the campaign's
//! rows), anyone else's columns become a store through
//! `ObservationStore::from`; both move the chunks in.  Cloning a store or
//! uniting two ([`ObservationStore::extend_from`]) copies the scalar columns
//! and *shares* the chunks; a chunk is freed with the last store holding
//! it.  Rows someone already owns enter through
//! [`ObservationStore::from_observations`], and rows leave only through
//! `to_observations` on a store or a view — the oracle the tests compare
//! against.  A payload is a record in the store's own injective encoding
//! (the table is in `payload.rs`), so two stores are equal exactly when
//! they hold the same records row for row — however their arenas are
//! chunked — and [`ObservationStore::validate`] checks every chunk's
//! offsets, the chunk/row table and every record.
//!
//! The crate sits between `alias-intern` and `alias-scan`; the observation
//! record types ([`ServiceObservation`], [`ServicePayload`],
//! [`DataSource`]) live here and are re-exported at `alias-scan`'s root.

mod payload;
mod records;
mod store;

pub use payload::{BgpOpenRef, BgpParams, PayloadRef, RecordParams, SshRecord, SshRef};
pub use records::{parse_payload, DataSource, ServiceObservation, ServicePayload};
pub use store::{ObservationRef, ObservationStore, ObservationView, ShardColumns};

#[cfg(test)]
mod proptests {
    use super::*;
    use alias_netsim::{ServiceProtocol, SimTime};
    use alias_wire::bgp::{Capability, OpenMessage, OptionalParameter};
    use alias_wire::snmp::EngineId;
    use alias_wire::ssh::{Banner, HostKey, HostKeyAlgorithm, KexInit, NameList, SshObservation};
    use proptest::prelude::*;
    use std::net::{IpAddr, Ipv4Addr};

    /// Deterministically expand a compact `(addr, kind, shape, source)`
    /// tuple into a full observation: `kind` picks the protocol and fills
    /// values, the bits of `shape` pick among every payload shape the wire
    /// parsers can return — parts present or absent, empty and long
    /// fields, every enum variant, the integer extremes.
    fn expand(row: (u16, u8, u32, bool)) -> ServiceObservation {
        let (addr_raw, kind, shape, censys) = row;
        let addr = IpAddr::V4(Ipv4Addr::new(10, 0, (addr_raw >> 8) as u8, addr_raw as u8));
        let source = if censys {
            DataSource::Censys
        } else {
            DataSource::Active
        };
        let bit = |n: u32| shape >> n & 1 == 1;
        // One of `pool`, chosen by the three shape bits from `at`.
        fn pick<T: Clone>(pool: &[T], shape: u32, at: u32) -> T {
            pool[(shape >> at & 7) as usize % pool.len()].clone()
        }
        let payload = match kind % 4 {
            0 => {
                let lists: [NameList; 4] = [
                    NameList::default(),
                    NameList::new(["none"]),
                    NameList::new(["aes128-ctr", "a;b", "zlib@openssh.com"]),
                    NameList::new(["x".repeat(300)]),
                ];
                ServicePayload::Ssh(SshObservation {
                    banner: Banner {
                        proto_version: pick(&["2.0", "1.99", ""], shape, 0).to_owned(),
                        software: pick(&["OpenSSH_8.9p1", "dropbear_2020.81", "a b"], shape, 3)
                            .to_owned(),
                        comments: pick(
                            &[None, Some(""), Some("Ubuntu-3 é"), Some("b c")],
                            shape,
                            6,
                        )
                        .map(str::to_owned),
                    },
                    kex_init: bit(9).then(|| KexInit {
                        cookie: if bit(10) { [kind; 16] } else { [0; 16] },
                        kex_algorithms: pick(&lists, shape, 11),
                        server_host_key_algorithms: pick(&lists, shape, 13),
                        encryption_client_to_server: pick(&lists, shape, 15),
                        encryption_server_to_client: pick(&lists, shape, 17),
                        languages_server_to_client: pick(&lists, shape, 19),
                        first_kex_packet_follows: bit(21),
                        ..KexInit::typical_openssh()
                    }),
                    host_key: bit(22).then(|| {
                        HostKey::new(
                            pick(
                                &[
                                    HostKeyAlgorithm::Ed25519,
                                    HostKeyAlgorithm::Rsa,
                                    HostKeyAlgorithm::EcdsaP256,
                                    HostKeyAlgorithm::Dsa,
                                ],
                                shape,
                                23,
                            ),
                            vec![kind; pick(&[32usize, 1, 0, 279], shape, 25)],
                        )
                    }),
                })
            }
            1 => {
                let pool = [
                    OptionalParameter::Capability(Capability::Multiprotocol { afi: 2, safi: 1 }),
                    OptionalParameter::Capability(Capability::RouteRefresh),
                    OptionalParameter::Capability(Capability::FourOctetAs {
                        asn: 4_200_000_000 + u32::from(kind),
                    }),
                    OptionalParameter::Capability(Capability::RouteRefreshCisco),
                    OptionalParameter::Capability(Capability::Other {
                        code: 70,
                        value: vec![],
                    }),
                    OptionalParameter::Capability(Capability::Other {
                        code: kind,
                        value: vec![kind; 255],
                    }),
                    OptionalParameter::Other {
                        param_type: 1,
                        value: vec![],
                    },
                    OptionalParameter::Other {
                        param_type: kind,
                        value: vec![kind; 255],
                    },
                ];
                ServicePayload::Bgp {
                    open: OpenMessage {
                        version: pick(&[4, 0, u8::MAX], shape, 9),
                        my_as: pick(&[64_000 + u16::from(kind), 0, u16::MAX], shape, 12),
                        hold_time: pick(&[90, 0, u16::MAX], shape, 15),
                        bgp_identifier: Ipv4Addr::new(192, 0, 2, kind),
                        // The parameters whose shape bit is set, in pool
                        // order, the first one once more at the end.
                        optional_parameters: (0..9)
                            .filter(|&n| bit(n))
                            .map(|n| pool[n as usize % pool.len()].clone())
                            .collect(),
                    },
                    notification_seen: bit(18),
                }
            }
            2 => ServicePayload::Snmpv3 {
                engine_id: EngineId(vec![kind; pick(&[11usize, 5, 32, 0], shape, 0)]),
                engine_boots: pick(&[i64::from(kind), -1, i64::MAX, i64::MIN], shape, 3),
                engine_time: pick(&[10 * i64::from(kind), -7, i64::MAX, 0], shape, 6),
            },
            _ => ServicePayload::RateLimit {
                round: pick(&[kind % 5, 0, u8::MAX], shape, 0),
                rate_pps: pick(&[256u32 << (kind % 5), 0, u32::MAX], shape, 3),
                sent: pick(&[24, 0, u16::MAX], shape, 6),
                lost: pick(&[u16::from(kind % 25), 0, u16::MAX], shape, 9),
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
                ((0u16..48), any::<u8>(), any::<u32>(), any::<bool>()),
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
                        shard.push(o.addr, o.port, o.source, o.timestamp, o.asn, o.payload.as_ref());
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

            // A copy and a union are the same rows again: the arena's chunks
            // are shared, not copied.
            let mut twice = serial.clone();
            prop_assert_eq!(&twice, &serial);
            twice.extend_from(&serial);
            prop_assert_eq!(twice.validate(), Ok(()));
            prop_assert_eq!(twice.to_observations(), [oracle.clone(), oracle.clone()].concat());

            // Rows spliced behind shared chunks open new ones: the first
            // half cloned, the second absorbed, is the serial store again,
            // and the store it was cloned from keeps its rows.
            let (head, tail) = oracle.split_at(oracle.len() / 2);
            let head_store = ObservationStore::from_observations(head.to_vec());
            let mut grown = head_store.clone();
            let mut shard = ShardColumns::new();
            for o in tail {
                shard.push(o.addr, o.port, o.source, o.timestamp, o.asn, o.payload.as_ref());
            }
            grown.absorb_shard(shard);
            prop_assert_eq!(grown.validate(), Ok(()));
            prop_assert_eq!(&grown, &serial);
            prop_assert_eq!(head_store.to_observations(), head);

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
