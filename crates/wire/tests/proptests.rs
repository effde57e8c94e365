//! Property-based tests for the wire codecs: every representation must
//! survive an emit → parse round trip, and parsers must never panic on
//! arbitrary input.

use alias_wire::bgp::{
    BgpMessage, Capability, CeaseSubcode, NotificationMessage, OpenMessage, OptionalParameter,
};
use alias_wire::ip::{IpProtocol, Ipv4Repr, Ipv6Repr};
use alias_wire::snmp::{EngineId, Snmpv3Message, UsmSecurityParameters};
use alias_wire::ssh::{Banner, HostKey, HostKeyAlgorithm, KexInit, NameList, SshPacket};
use alias_wire::tcp::{TcpFlags, TcpRepr};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_capability() -> impl Strategy<Value = Capability> {
    prop_oneof![
        (any::<u16>(), any::<u8>()).prop_map(|(afi, safi)| Capability::Multiprotocol { afi, safi }),
        Just(Capability::RouteRefresh),
        Just(Capability::RouteRefreshCisco),
        any::<u32>().prop_map(|asn| Capability::FourOctetAs { asn }),
        (3u8..=64, prop::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(code, value)| Capability::Other { code, value }),
    ]
}

fn arb_open() -> impl Strategy<Value = OpenMessage> {
    (
        any::<u16>(),
        prop_oneof![Just(0u16), 3u16..=65_535],
        any::<u32>(),
        prop::collection::vec(arb_capability(), 0..5),
    )
        .prop_map(|(my_as, hold_time, ident, caps)| OpenMessage {
            version: 4,
            my_as,
            hold_time,
            bgp_identifier: Ipv4Addr::from(ident),
            optional_parameters: caps
                .into_iter()
                .map(OptionalParameter::Capability)
                .collect(),
        })
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z0-9@.-]{1,20}"
}

fn arb_names() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_name(), 0..6)
}

fn arb_name_list() -> impl Strategy<Value = NameList> {
    arb_names().prop_map(NameList::new)
}

fn arb_kexinit() -> impl Strategy<Value = KexInit> {
    (
        any::<[u8; 16]>(),
        prop::collection::vec(arb_name_list(), 10),
        any::<bool>(),
    )
        .prop_map(|(cookie, mut lists, follows)| KexInit {
            cookie,
            kex_algorithms: lists.remove(0),
            server_host_key_algorithms: lists.remove(0),
            encryption_client_to_server: lists.remove(0),
            encryption_server_to_client: lists.remove(0),
            mac_client_to_server: lists.remove(0),
            mac_server_to_client: lists.remove(0),
            compression_client_to_server: lists.remove(0),
            compression_server_to_client: lists.remove(0),
            languages_client_to_server: lists.remove(0),
            languages_server_to_client: lists.remove(0),
            first_kex_packet_follows: follows,
        })
}

proptest! {
    #[test]
    fn bgp_open_roundtrips(open in arb_open()) {
        let bytes = open.to_bytes();
        let (parsed, consumed) = BgpMessage::parse(&bytes).unwrap();
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(parsed, BgpMessage::Open(open));
    }

    #[test]
    fn bgp_notification_roundtrips(code in 0u8..=8, data in prop::collection::vec(any::<u8>(), 0..32)) {
        let n = NotificationMessage {
            error_code: NotificationMessage::ERROR_CEASE,
            error_subcode: CeaseSubcode::from_code(code).code(),
            data,
        };
        let (parsed, _) = BgpMessage::parse(&n.to_bytes()).unwrap();
        prop_assert_eq!(parsed, BgpMessage::Notification(n));
    }

    #[test]
    fn bgp_parser_never_panics(data in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = BgpMessage::parse(&data);
        let _ = BgpMessage::parse_stream(&data);
    }

    #[test]
    fn ssh_packet_roundtrips(payload in prop::collection::vec(any::<u8>(), 0..512)) {
        let packet = SshPacket::new(payload);
        let bytes = packet.to_bytes();
        let (parsed, consumed) = SshPacket::parse(&bytes).unwrap();
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(parsed, packet);
    }

    #[test]
    fn ssh_packet_parser_never_panics(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = SshPacket::parse(&data);
        let _ = SshPacket::parse_stream(&data);
    }

    #[test]
    fn name_list_roundtrips(names in arb_names()) {
        let list = NameList::new(&names);
        prop_assert_eq!(list.names().count(), list.len());
        prop_assert_eq!(list.names().collect::<Vec<_>>(), names);
        prop_assert_eq!(list.is_empty(), names.is_empty());
        let mut buf = Vec::new();
        list.emit(&mut buf);
        let (parsed, consumed) = NameList::parse(&buf).unwrap();
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(parsed, list);
    }

    #[test]
    fn kexinit_roundtrips(kex in arb_kexinit()) {
        let parsed = KexInit::parse_payload(&kex.to_payload()).unwrap();
        prop_assert_eq!(parsed, kex);
    }

    #[test]
    fn kexinit_parser_never_panics(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = KexInit::parse_payload(&data);
    }

    #[test]
    fn banner_roundtrips(software in "[!-,.-~]{1,40}", comments in prop::option::of("[ -~]{1,40}")) {
        // software: printable ASCII without space or '-'? '-' is allowed in software,
        // the parser splits on the *first* '-' after "SSH-" for proto version only.
        prop_assume!(!software.contains(['\r', '\n', ' ']));
        let comments = comments.filter(|c| !c.contains(['\r', '\n']) && !c.is_empty());
        if let Ok(banner) = Banner::new(&software, comments.as_deref()) {
            let (parsed, consumed) = Banner::parse(&banner.to_bytes()).unwrap();
            prop_assert_eq!(consumed, banner.to_bytes().len());
            prop_assert_eq!(parsed, banner);
        }
    }

    #[test]
    fn banner_parser_never_panics(data in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = Banner::parse(&data);
    }

    #[test]
    fn host_key_roundtrips(material in prop::collection::vec(any::<u8>(), 1..64)) {
        for alg in [HostKeyAlgorithm::Ed25519, HostKeyAlgorithm::Rsa, HostKeyAlgorithm::EcdsaP256, HostKeyAlgorithm::Dsa] {
            let key = HostKey::new(alg, material.clone());
            prop_assert_eq!(HostKey::from_blob(&key.to_blob()).unwrap(), key);
        }
    }

    #[test]
    fn ipv4_roundtrips(src in any::<u32>(), dst in any::<u32>(), ident in any::<u16>(),
                       ttl in any::<u8>(), payload_len in 0usize..1400, df in any::<bool>()) {
        let repr = Ipv4Repr {
            src: Ipv4Addr::from(src),
            dst: Ipv4Addr::from(dst),
            ident,
            ttl,
            protocol: IpProtocol::Tcp,
            payload_len,
            dont_frag: df,
        };
        let (parsed, _) = Ipv4Repr::parse(&repr.to_bytes()).unwrap();
        prop_assert_eq!(parsed, repr);
    }

    #[test]
    fn ipv6_roundtrips(src in any::<u128>(), dst in any::<u128>(), hop in any::<u8>(), len in 0usize..1400) {
        let repr = Ipv6Repr {
            src: src.into(),
            dst: dst.into(),
            hop_limit: hop,
            next_header: IpProtocol::Tcp,
            payload_len: len,
        };
        let (parsed, _) = Ipv6Repr::parse(&repr.to_bytes()).unwrap();
        prop_assert_eq!(parsed, repr);
    }

    #[test]
    fn ip_parsers_never_panic(data in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = Ipv4Repr::parse(&data);
        let _ = Ipv6Repr::parse(&data);
        let _ = TcpRepr::parse(&data);
    }

    #[test]
    fn tcp_roundtrips(sp in any::<u16>(), dp in any::<u16>(), seq in any::<u32>(),
                      ack in any::<u32>(), flags in 0u8..32, window in any::<u16>()) {
        let repr = TcpRepr { src_port: sp, dst_port: dp, seq, ack,
                             flags: TcpFlags::from_bits_retain(flags), window };
        let (parsed, _) = TcpRepr::parse(&repr.to_bytes()).unwrap();
        prop_assert_eq!(parsed, repr);
    }

    #[test]
    fn snmp_report_roundtrips(msg_id in 0i64..=i32::MAX as i64, boots in 0i64..100_000,
                              time in 0i64..100_000_000, enterprise in 1u32..60_000,
                              mac in any::<[u8; 6]>(), counter in 0i64..1_000_000) {
        let usm = UsmSecurityParameters {
            engine_id: EngineId::from_enterprise_mac(enterprise, mac),
            engine_boots: boots,
            engine_time: time,
            user_name: Vec::new(),
        };
        let msg = Snmpv3Message::report_for(msg_id, usm, counter);
        prop_assert_eq!(Snmpv3Message::parse(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn snmp_parser_never_panics(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Snmpv3Message::parse(&data);
    }
}
