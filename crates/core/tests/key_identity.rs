//! The grouping key against its oracle: under every SSH policy, a
//! `KeyPass` — reading the record a store decodes in place, or the parts an
//! owned row lends — gives two payloads equal keys exactly when
//! `extract_payload` gives the rows the store materialises equal
//! identifiers, and grouping by key yields the sets grouping by identifier
//! does, however the store's SSH profiles are spread over chunks.

use alias_core::alias_set::group_view_compact;
use alias_core::identifier::{ProtocolIdentifier, SshIdentifierPolicy};
use alias_core::{ExtractionConfig, IdentifierExtractor};
use alias_intern::{sort_canonical_compact, AddrId, CompactAliasSet};
use alias_netsim::{InternetBuilder, InternetConfig, ServiceProtocol, SimTime};
use alias_scan::{
    ActiveCampaign, CampaignConfig, DataSource, ObservationStore, PayloadRef, ServiceObservation,
    ServicePayload, ShardColumns, SshRef,
};
use alias_wire::bgp::{Capability, OpenMessage, OptionalParameter};
use alias_wire::snmp::EngineId;
use alias_wire::ssh::{Banner, HostKey, HostKeyAlgorithm, KexInit, NameList, SshObservation};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;
use std::net::Ipv4Addr;

fn extractors() -> [IdentifierExtractor; 2] {
    [SshIdentifierPolicy::KeyOnly, SshIdentifierPolicy::Full]
        .map(|ssh| IdentifierExtractor::new(ExtractionConfig { ssh }))
}

/// `payloads` as the rows of one observation each, one address each.
fn observations(payloads: &[ServicePayload]) -> Vec<ServiceObservation> {
    let row = |(row, payload): (usize, &ServicePayload)| ServiceObservation {
        addr: Ipv4Addr::from(0x0a00_0000 + row as u32).into(),
        port: payload.protocol().default_port(),
        source: DataSource::Active,
        timestamp: SimTime::ZERO,
        asn: None,
        payload: payload.clone(),
    };
    payloads.iter().enumerate().map(row).collect()
}

/// `rows` as a store of one chunk per `shard` rows: one SSH profile under
/// several indices, one index naming several profiles.
fn store_of(rows: &[ServiceObservation], shard: usize) -> ObservationStore {
    let mut store = ObservationStore::new();
    for rows in rows.chunks(shard) {
        let mut columns = ShardColumns::new();
        for o in rows {
            columns.push(
                o.addr,
                o.port,
                o.source,
                o.timestamp,
                o.asn,
                o.payload.as_ref(),
            );
        }
        store.absorb_shard(columns);
    }
    store
}

/// `key(a) == key(b)` ⇔ `extract_payload(a) == extract_payload(b)` over
/// every pair of `payloads` (a payload with itself included), and the key
/// is absent exactly when the identifier is.  Rows are keyed the way
/// grouping keys them — off the record a store decodes in place, three rows
/// to a chunk — and the identifier is extracted from the row the store
/// gives back.
fn assert_keys_match_identifiers(payloads: &[ServicePayload]) -> Result<(), TestCaseError> {
    let store = store_of(&observations(payloads), 3);
    let rows = store.to_observations();
    for extractor in extractors() {
        let mut keys = extractor.key_pass();
        let keyed: Vec<(Option<Vec<u8>>, Option<ProtocolIdentifier>)> = rows
            .iter()
            .enumerate()
            .map(|(row, observation)| {
                (
                    keys.key(store.payload_at(row)).map(<[u8]>::to_vec),
                    extractor.extract_payload(&observation.payload),
                )
            })
            .collect();
        for (i, (key_a, ident_a)) in keyed.iter().enumerate() {
            prop_assert_eq!(&rows[i].payload, &payloads[i]);
            // The owned row lends the same key its record does.
            let lent = keys.key(payloads[i].as_ref()).map(<[u8]>::to_vec);
            prop_assert_eq!(key_a, &lent);
            prop_assert_eq!(key_a.is_some(), ident_a.is_some());
            for (j, (key_b, ident_b)) in keyed.iter().enumerate().skip(i) {
                if ident_a.is_none() || ident_b.is_none() {
                    continue;
                }
                prop_assert!(
                    (key_a == key_b) == (ident_a == ident_b),
                    "{:?}: payloads {i} and {j} — keys equal: {}, identifiers equal: {}\n{:?}\n{:?}",
                    extractor.config(),
                    key_a == key_b,
                    ident_a == ident_b,
                    payloads[i],
                    payloads[j],
                );
            }
        }
    }
    Ok(())
}

// Tiny pools, so that a batch of payloads holds equal identifiers, equal
// parts under different framings, and near misses.

fn pick<T: Clone + 'static>(pool: &[T]) -> BoxedStrategy<T> {
    let pool = pool.to_vec();
    (0..pool.len()).prop_map(move |i| pool[i].clone()).boxed()
}

fn arb_banner() -> impl Strategy<Value = Banner> {
    (
        pick(&["2.0", "1.99"]),
        // The fields are public: `software` may hold what `Banner::new`
        // refuses.
        pick(&["a", "a b", "a b c", "b"]),
        pick(&[None, Some(""), Some("b"), Some("b c"), Some("c")]),
    )
        .prop_map(|(proto_version, software, comments)| Banner {
            proto_version: proto_version.to_owned(),
            software: software.to_owned(),
            comments: comments.map(str::to_owned),
        })
}

/// Capability shapes whose fingerprints collide or nearly do (`;` inside a
/// name, a name moved to the next list), under a random cookie and random
/// client-to-server lists, neither of which an identifier reads.
fn arb_kexinit() -> impl Strategy<Value = KexInit> {
    let shapes: [[&[&str]; 5]; 7] = [
        [&[], &[], &[], &[], &[]],
        [&["a;b"], &[], &[], &[], &[]],
        [&["a"], &["b;"], &[], &[], &[]],
        [&["a"], &["b"], &[], &[], &[]],
        [&["a", "b"], &[], &[], &[], &[]],
        [&["a"], &[], &["b"], &[], &[]],
        [&[";"], &[], &[], &[";"], &[]],
    ];
    (
        pick(&shapes),
        any::<u8>(),
        prop::collection::vec(pick(&["a", "b", ";"]), 0..3),
    )
        .prop_map(|(shape, cookie, client_names)| KexInit {
            cookie: [cookie; 16],
            encryption_client_to_server: NameList::new(client_names),
            ..kex_with(shape)
        })
}

fn arb_host_key() -> impl Strategy<Value = HostKey> {
    pick(&[
        HostKey::new(HostKeyAlgorithm::Ed25519, vec![1]),
        HostKey::new(HostKeyAlgorithm::Rsa, vec![1]),
        HostKey::new(HostKeyAlgorithm::Ed25519, vec![1, 2]),
        HostKey::new(HostKeyAlgorithm::Ed25519, vec![]),
    ])
}

/// Every combination of a few banners, KEXINITs and host keys: pairs that
/// differ in one part only are where a framing mistake shows.
fn arb_ssh_family() -> impl Strategy<Value = Vec<ServicePayload>> {
    (
        prop::collection::vec(arb_banner(), 1..4),
        prop::collection::vec(prop::option::of(arb_kexinit()), 1..4),
        prop::collection::vec(prop::option::of(arb_host_key()), 1..4),
    )
        .prop_map(|(banners, kex_inits, host_keys)| {
            let mut family = Vec::new();
            for banner in &banners {
                for kex_init in &kex_inits {
                    for host_key in &host_keys {
                        family.push(ServicePayload::Ssh(SshObservation {
                            banner: banner.clone(),
                            kex_init: kex_init.clone(),
                            host_key: host_key.clone(),
                        }));
                    }
                }
            }
            family
        })
}

fn other(code: u8, value: &[u8]) -> OptionalParameter {
    OptionalParameter::Capability(Capability::Other {
        code,
        value: value.to_vec(),
    })
}

/// Parameter lists that run into each other when codes and values are
/// written without framing, as hex text or as bytes.
fn abutting_parameter_lists() -> Vec<Vec<OptionalParameter>> {
    vec![
        // "1:23,4:" / "1:,35:04" / "12:03,4:"
        vec![other(1, &[0x23]), other(4, &[])],
        vec![other(1, &[]), other(35, &[0x04])],
        vec![other(12, &[0x03]), other(4, &[])],
        // kind, code, value bytes: 00 01 00 02 either way.
        vec![other(1, &[0, 2])],
        vec![other(1, &[]), other(2, &[])],
    ]
}

fn arb_parameter() -> impl Strategy<Value = OptionalParameter> {
    pick(&[
        OptionalParameter::Capability(Capability::RouteRefresh),
        // Renders like `RouteRefresh`.
        other(2, &[]),
        OptionalParameter::Capability(Capability::Multiprotocol { afi: 1, safi: 1 }),
        // Renders like the `Multiprotocol` above.
        other(1, &[0, 1, 0, 1]),
        OptionalParameter::Capability(Capability::FourOctetAs { asn: 65_000 }),
        // Values and codes that abut when written without framing.
        other(1, &[0x23]),
        other(12, &[0x03]),
        other(1, &[]),
        other(1, &[0x02, 0x03]),
        OptionalParameter::Other {
            param_type: 1,
            value: vec![0x23],
        },
        OptionalParameter::Other {
            param_type: 2,
            value: vec![],
        },
    ])
}

/// Every combination of a few BGP Identifiers, ASNs, hold times and
/// parameter lists.
fn arb_bgp_family() -> impl Strategy<Value = Vec<ServicePayload>> {
    (
        prop::collection::vec(pick(&[[10, 0, 0, 1], [10, 0, 0, 2], [0, 10, 0, 1]]), 1..3),
        prop::collection::vec(pick(&[64_500u16, 23_456, 2_560]), 1..3),
        prop::collection::vec(pick(&[0u16, 90, 10]), 1..3),
        prop::collection::vec(
            prop_oneof![
                pick(&abutting_parameter_lists()),
                prop::collection::vec(arb_parameter(), 0..3),
            ],
            1..4,
        ),
    )
        .prop_map(|(identifiers, ases, hold_times, parameter_lists)| {
            let mut family = Vec::new();
            for identifier in &identifiers {
                for &my_as in &ases {
                    for &hold_time in &hold_times {
                        for parameters in &parameter_lists {
                            family.push(ServicePayload::Bgp {
                                open: OpenMessage {
                                    version: 4,
                                    my_as,
                                    hold_time,
                                    bgp_identifier: Ipv4Addr::from(*identifier),
                                    optional_parameters: parameters.clone(),
                                },
                                notification_seen: family.len() % 2 == 0,
                            });
                        }
                    }
                }
            }
            family
        })
}

fn arb_other_payload() -> impl Strategy<Value = ServicePayload> {
    prop_oneof![
        (
            pick(&[vec![], vec![1u8, 2, 3, 4, 5], vec![1, 2, 3, 4, 5, 6]]),
            0i64..2
        )
            .prop_map(|(engine, engine_boots)| ServicePayload::Snmpv3 {
                engine_id: EngineId(engine),
                engine_boots,
                engine_time: 7,
            }),
        Just(ServicePayload::RateLimit {
            round: 0,
            rate_pps: 256,
            sent: 24,
            lost: 3,
        }),
    ]
}

proptest! {
    #[test]
    fn keys_are_equal_exactly_when_identifiers_are(
        ssh in arb_ssh_family(),
        bgp in arb_bgp_family(),
        others in prop::collection::vec(arb_other_payload(), 0..4),
    ) {
        assert_keys_match_identifiers(&[ssh, bgp, others].concat())?;
    }
}

fn ssh_with(
    software: &str,
    comments: Option<&str>,
    kex_init: Option<KexInit>,
    key_material: &[u8],
) -> ServicePayload {
    ServicePayload::Ssh(SshObservation {
        banner: Banner {
            proto_version: "2.0".to_owned(),
            software: software.to_owned(),
            comments: comments.map(str::to_owned),
        },
        kex_init,
        host_key: Some(HostKey::new(
            HostKeyAlgorithm::Ed25519,
            key_material.to_vec(),
        )),
    })
}

fn ssh(software: &str, comments: Option<&str>, kex_init: Option<KexInit>) -> ServicePayload {
    ssh_with(software, comments, kex_init, &[9; 32])
}

fn kex_with(lists: [&[&str]; 5]) -> KexInit {
    let [kex, host_key, encryption, mac, compression] = lists.map(NameList::new);
    KexInit {
        kex_algorithms: kex,
        server_host_key_algorithms: host_key,
        encryption_server_to_client: encryption,
        mac_server_to_client: mac,
        compression_server_to_client: compression,
        ..KexInit::typical_openssh()
    }
}

fn bgp(parameters: Vec<OptionalParameter>) -> ServicePayload {
    ServicePayload::Bgp {
        open: OpenMessage {
            version: 4,
            my_as: 64_500,
            hold_time: 90,
            bgp_identifier: Ipv4Addr::new(10, 0, 0, 1),
            optional_parameters: parameters,
        },
        notification_seen: true,
    }
}

#[test]
fn crafted_collisions_key_the_way_their_identifiers_compare() {
    let mut payloads = vec![
        // One banner line, two field splits: equal identifiers.
        ssh("a b", None, None),
        ssh("a", Some("b"), None),
        // No KEXINIT renders "", five empty lists render ";;;;".
        ssh("x", None, None),
        ssh("x", None, Some(kex_with([&[], &[], &[], &[], &[]]))),
        // A `;` inside a name: both render "a;b;;;;".
        ssh("x", None, Some(kex_with([&["a;b"], &[], &[], &[], &[]]))),
        ssh("x", None, Some(kex_with([&["a"], &["b;"], &[], &[], &[]]))),
        // …and one that does not: "a;b;;;".
        ssh("x", None, Some(kex_with([&["a"], &["b"], &[], &[], &[]]))),
        // Two values, one rendering ("2:").
        bgp(vec![OptionalParameter::Capability(
            Capability::RouteRefresh,
        )]),
        bgp(vec![other(2, &[])]),
        // A capability against an opaque parameter of the same bytes.
        bgp(vec![OptionalParameter::Other {
            param_type: 2,
            value: vec![],
        }]),
    ];
    payloads.extend(abutting_parameter_lists().into_iter().map(bgp));
    // A banner that ends in what an empty capability frame and a key's
    // first bytes look like: only the banner's own frame tells them apart.
    payloads.push(ssh_with("x", None, None, &[7, 0, 0, 0, 0, 0, 9]));
    payloads.push(ssh_with("x\0\0\0\0\0\x07", None, None, &[9]));
    assert_keys_match_identifiers(&payloads).unwrap();

    // The oracle really does see the collisions the cases are named for.
    let paper = IdentifierExtractor::new(ExtractionConfig::paper());
    let ident = |i: usize| paper.extract_payload(&payloads[i]);
    assert_eq!(ident(0), ident(1));
    assert_ne!(ident(2), ident(3));
    assert_eq!(ident(4), ident(5));
    assert_ne!(ident(5), ident(6));
    assert_eq!(ident(7), ident(8));
    assert_ne!(ident(8), ident(9));
    assert_ne!(ident(10), ident(11));
    assert_ne!(ident(13), ident(14));
}

// The oracle's values leave the map in hash order and are sorted (ids) or
// put in canonical order (sets) before comparing; `ProtocolIdentifier` has
// no `Ord`, so no `BTreeMap` here.
#[allow(clippy::disallowed_methods)]
#[test]
fn keyed_grouping_equals_grouping_by_identifier() {
    let internet = InternetBuilder::new(InternetConfig::tiny(14)).build();
    let data = ActiveCampaign::new(CampaignConfig {
        hitlist_coverage: internet.config().visibility.hitlist_coverage,
        ..Default::default()
    })
    .run(&internet);
    let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
    for protocol in [
        ServiceProtocol::Ssh,
        ServiceProtocol::Bgp,
        ServiceProtocol::Snmpv3,
    ] {
        let view = data.store().select_protocol(protocol, None);
        // The oracle: one map entry per `extract_payload` identifier.
        let mut by_identifier: HashMap<ProtocolIdentifier, Vec<AddrId>> = HashMap::new();
        for i in 0..view.len() {
            if let Some(identifier) = extractor.extract_payload(&view.payload_at(i).to_owned()) {
                by_identifier
                    .entry(identifier)
                    .or_default()
                    .push(view.addr_id_at(i));
            }
        }
        let mut testable: Vec<AddrId> = by_identifier.values().flatten().copied().collect();
        testable.sort_unstable();
        testable.dedup();
        let mut sets: Vec<CompactAliasSet> = by_identifier
            .into_values()
            .map(CompactAliasSet::from_ids)
            .filter(|set| set.len() >= 2)
            .collect();
        sort_canonical_compact(&mut sets, data.interner());
        assert!(!sets.is_empty(), "{}", protocol.name());

        let grouped = group_view_compact(&view, &extractor, 1);
        assert_eq!(grouped.sets, sets, "{}", protocol.name());
        assert_eq!(grouped.testable, testable, "{}", protocol.name());
    }
}

#[test]
fn a_profile_under_two_indices_groups_as_in_one_chunk() {
    // Devices 1 and 2 run profiles P and Q; device 3 shares device 1's host
    // key (a factory default) under profile Q.  The first chunk meets P
    // first, the second Q: P is entry 0 of one dictionary and entry 1 of
    // the other.
    let p = || kex_with([&["curve25519-sha256"], &["ssh-ed25519"], &[], &[], &[]]);
    let q = || {
        kex_with([
            &["diffie-hellman-group14-sha1"],
            &["ssh-rsa"],
            &[],
            &[],
            &[],
        ])
    };
    let device = |key: u8, kex: KexInit| ssh_with("OpenSSH_8.9p1", None, Some(kex), &[key; 32]);
    let rows = observations(&[
        device(1, p()),
        device(2, q()),
        device(2, q()),
        device(1, p()),
        device(1, q()),
    ]);
    let chunked = store_of(&rows, 2);
    let whole = store_of(&rows, rows.len());
    assert_eq!(chunked, whole);
    let index = |row: usize| match chunked.payload_at(row) {
        PayloadRef::Ssh(SshRef::Record(record)) => record.profile().1,
        other => panic!("an SSH record, not {other:?}"),
    };
    assert_eq!((index(0), index(3)), (0, 1));

    let addr = |row: usize| chunked.addr_ids()[row];
    let sets = |rows: &[&[usize]]| -> Vec<CompactAliasSet> {
        let sets = rows
            .iter()
            .map(|rows| rows.iter().map(|&row| addr(row)).collect());
        sets.map(CompactAliasSet::from_ids).collect()
    };
    for (extractor, expected) in extractors().into_iter().zip([
        // Key only: device 3 joins device 1.
        sets(&[&[0, 3, 4], &[1, 2]]),
        // The paper's identifier keeps it apart.
        sets(&[&[0, 3], &[1, 2]]),
    ]) {
        let from_chunks = group_view_compact(&chunked.select(None, None), &extractor, 1);
        let from_one = group_view_compact(&whole.select(None, None), &extractor, 1);
        assert_eq!(from_chunks, from_one, "{:?}", extractor.config());
        assert_eq!(from_chunks.sets, expected, "{:?}", extractor.config());
    }
}
