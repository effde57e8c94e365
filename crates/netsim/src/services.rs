//! Service response generation.
//!
//! When a simulated device is probed, the responses it produces are real
//! wire bytes built with `alias-wire`.  The scanner on the other side parses
//! those bytes exactly as it would parse responses from the real Internet,
//! so the identifier-extraction code path is identical to the paper's.

use crate::clock::SimTime;
use crate::profiles::{bgp_capabilities_for, BgpProfile, SshProfile};
use alias_wire::bgp::{CeaseSubcode, NotificationMessage, OpenMessage, AS_TRANS};
use alias_wire::snmp::Snmpv3Message;
use alias_wire::ssh::hostkey::emit_kex_reply;
use alias_wire::ssh::HostKeyRef;
use std::net::Ipv4Addr;

/// The server→client byte stream of one scripted SSH service-scan session:
/// identification banner, `SSH_MSG_KEXINIT`, and the key-exchange reply
/// carrying the host key.  The definition of a session's bytes: an
/// `Internet` copies what it writes before the reply from a template.
///
/// `divergent_profile` substitutes a different capability profile, used for
/// the small fraction of devices whose interfaces disagree about their
/// capabilities (the paper's 0.4%).
pub fn ssh_session_bytes(
    profile: &SshProfile,
    divergent_profile: Option<&SshProfile>,
    host_key: HostKeyRef<'_>,
    cookie_seed: u64,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    let effective = divergent_profile.unwrap_or(profile);
    ssh_greeting_into(effective, &session_cookie(cookie_seed), &mut out);
    kex_reply_into(host_key, &mut out);
    out
}

/// The KEXINIT cookie of a session seeded with `cookie_seed`.  The cookie
/// is random per connection on real servers; deriving it from the seed
/// keeps captures deterministic but visibly non-constant.
fn session_cookie(cookie_seed: u64) -> [u8; 16] {
    let seed_bytes = cookie_seed.to_be_bytes();
    std::array::from_fn(|i| seed_bytes[i % 8] ^ (i as u8).wrapping_mul(37))
}

/// Append what `profile` alone decides of a session — the banner line and
/// the KEXINIT packet, carrying `cookie` — to `out`; returns where the
/// cookie starts in `out`.
fn ssh_greeting_into(profile: &SshProfile, cookie: &[u8; 16], out: &mut Vec<u8>) -> usize {
    profile.banner.emit(out);
    // Packet length `u32`, padding length and message number come first.
    let cookie_at = out.len() + 4 + 1 + 1;
    profile.kexinit.emit_packet(cookie, out);
    cookie_at
}

/// Append the key-exchange reply carrying `host_key` to `out`.
fn kex_reply_into(host_key: HostKeyRef<'_>, out: &mut Vec<u8>) {
    // Ephemeral key and signature are opaque to the scanner; deterministic
    // filler derived from the host key keeps captures reproducible.  The
    // material is cycled, so an empty key gives zeros, not a panic.
    let mut ephemeral = [0u8; 32];
    let material = host_key.key_material.iter().cycle();
    for (i, (slot, byte)) in ephemeral.iter_mut().zip(material).enumerate() {
        *slot = byte.wrapping_add(i as u8);
    }
    emit_kex_reply(host_key, &ephemeral, &[0xa5; 64], out);
}

/// Room reserved per profile in [`SshTemplates`], ample for the table's.
const TEMPLATE_BYTES: usize = 1024;

/// Every SSH profile's banner line and KEXINIT packet, written once with a
/// zero cookie by [`ssh_greeting_into`], back to back: a session copies
/// its profile's, writes its cookie in and appends the key-exchange reply.
pub(crate) struct SshTemplates {
    bytes: Vec<u8>,
    /// Per profile: where its template starts, its cookie starts and its
    /// template ends in `bytes`.
    spans: Vec<(usize, usize, usize)>,
}

impl SshTemplates {
    /// The templates of `profiles`, indexed like them.
    pub(crate) fn new(profiles: &[SshProfile]) -> Self {
        let mut bytes = Vec::with_capacity(TEMPLATE_BYTES * profiles.len());
        let mut spans = Vec::with_capacity(profiles.len());
        for profile in profiles {
            let start = bytes.len();
            let cookie_at = ssh_greeting_into(profile, &[0; 16], &mut bytes);
            spans.push((start, cookie_at, bytes.len()));
        }
        SshTemplates { bytes, spans }
    }

    /// Append the session [`ssh_session_bytes`] gives for profile `profile`
    /// (the effective one), `host_key` and `cookie_seed` to `out`.
    pub(crate) fn session_into(
        &self,
        profile: usize,
        host_key: HostKeyRef<'_>,
        cookie_seed: u64,
        out: &mut Vec<u8>,
    ) {
        let (start, cookie_at, end) = self.spans[profile];
        let cookie_at = out.len() + cookie_at - start;
        out.extend_from_slice(&self.bytes[start..end]);
        out[cookie_at..cookie_at + 16].copy_from_slice(&session_cookie(cookie_seed));
        kex_reply_into(host_key, out);
    }
}

/// Append the server→client byte stream of a BGP service-scan session to a
/// caller-owned buffer: an OPEN message followed by a
/// Cease/Connection-Rejected NOTIFICATION, or nothing at all for speakers
/// that close silently.  A session into a warm buffer allocates nothing.
pub(crate) fn bgp_session_bytes_into(
    profile: &BgpProfile,
    bgp_identifier: Ipv4Addr,
    asn: u32,
    out: &mut Vec<u8>,
) {
    if !profile.sends_open {
        return;
    }
    let my_as = u16::try_from(asn).unwrap_or(AS_TRANS);
    let params = bgp_capabilities_for(profile, asn);
    OpenMessage::emit_parts(4, my_as, profile.hold_time, bgp_identifier, params, out);
    NotificationMessage::cease(CeaseSubcode::ConnectionRejected).emit(out);
}

/// Append to `out` the SNMPv3 Report a device sends in response to an
/// engine-discovery request; returns `false`, writing nothing, if the
/// request is not a well-formed discovery.
pub(crate) fn snmp_report_into(
    engine_id: &[u8],
    engine_boots: i64,
    booted_at: SimTime,
    now: SimTime,
    request: &[u8],
    out: &mut Vec<u8>,
) -> bool {
    let Ok(Snmpv3Message::DiscoveryRequest { msg_id }) = Snmpv3Message::parse(request) else {
        return false;
    };
    let engine_time = now.since(booted_at).as_secs() as i64;
    Snmpv3Message::encode_report_into(out, msg_id, engine_id, engine_boots, engine_time, 1);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{bgp_profiles, ssh_profiles};
    use alias_wire::bgp::{messages, BgpMessageRef, CapabilityRef, OpenRef, ParamRef};
    use alias_wire::snmp::{EngineId, UsmSecurityParameters};
    use alias_wire::ssh::hostkey::parse_kex_reply;
    use alias_wire::ssh::{
        packet_payloads, Banner, HostKey, HostKeyAlgorithm, KexInit, SSH_MSG_KEX_ECDH_REPLY,
    };

    fn key() -> HostKey {
        HostKey::new(HostKeyAlgorithm::Ed25519, (0..32).collect())
    }

    /// A session's banner and the payloads of the packets behind it, read
    /// the way the scan reads them.
    fn parse_session(bytes: &[u8]) -> (Banner, Vec<&[u8]>) {
        let (banner, consumed) = Banner::parse_borrowed(bytes).unwrap();
        (
            banner.to_owned(),
            packet_payloads(&bytes[consumed..]).collect(),
        )
    }

    fn kex_init(payload: &[u8]) -> KexInit {
        KexInit::parse_borrowed(payload).unwrap().to_owned()
    }

    fn engine_id() -> EngineId {
        EngineId(EngineId::enterprise_mac_bytes(9, [1, 2, 3, 4, 5, 6]).to_vec())
    }

    /// The ASN `open` advertises in its four-octet capability, if any.
    fn four_octet_asn(open: OpenRef<'_>) -> Option<u32> {
        open.optional_parameters
            .iter()
            .find_map(|param| match param {
                ParamRef::Capability(CapabilityRef::FourOctetAs { asn }) => Some(asn),
                _ => None,
            })
    }

    #[test]
    fn ssh_session_is_parseable_end_to_end() {
        let profiles = ssh_profiles();
        let bytes = ssh_session_bytes(&profiles[0], None, key().as_ref(), 42);
        let (banner, packets) = parse_session(&bytes);
        assert_eq!(banner, profiles[0].banner);
        assert_eq!(packets.len(), 2);
        assert_eq!(
            kex_init(packets[0]).capability_fingerprint(),
            profiles[0].kexinit.capability_fingerprint()
        );
        assert_eq!(packets[1].first(), Some(&SSH_MSG_KEX_ECDH_REPLY));
        assert_eq!(parse_kex_reply(packets[1]).unwrap().to_owned(), key());
    }

    #[test]
    fn the_ephemeral_filler_cycles_the_key_material_as_the_modulo_did() {
        let profile = &ssh_profiles()[0];
        for len in 1..=40u8 {
            let host_key = HostKey::new(
                HostKeyAlgorithm::Rsa,
                (0..len).map(|b| b.wrapping_mul(7)).collect(),
            );
            let material = &host_key.key_material;
            let ephemeral: [u8; 32] =
                std::array::from_fn(|i| material[i % material.len()].wrapping_add(i as u8));
            let mut expected = Vec::new();
            profile.banner.emit(&mut expected);
            let cookie_seed = 99u64.to_be_bytes();
            let cookie: [u8; 16] =
                std::array::from_fn(|i| cookie_seed[i % 8] ^ (i as u8).wrapping_mul(37));
            profile.kexinit.emit_packet(&cookie, &mut expected);
            emit_kex_reply(host_key.as_ref(), &ephemeral, &[0xa5; 64], &mut expected);
            assert_eq!(
                ssh_session_bytes(profile, None, host_key.as_ref(), 99),
                expected,
                "{len}"
            );
        }
    }

    #[test]
    fn a_templated_session_is_the_emitters_session_byte_for_byte() {
        let profiles = ssh_profiles();
        let templates = SshTemplates::new(&profiles);
        let keys = [
            HostKey::new(HostKeyAlgorithm::Ed25519, Vec::new()),
            key(),
            HostKey::new(HostKeyAlgorithm::Rsa, (0..=255).collect()),
        ];
        let mut templated = Vec::new();
        for (index, profile) in profiles.iter().enumerate() {
            let divergents = std::iter::once(None).chain(profiles.iter().enumerate().map(Some));
            for divergent in divergents {
                let effective = divergent.map_or(index, |(other, _)| other);
                for host_key in &keys {
                    for seed in [0, 7, u64::MAX] {
                        let divergent = divergent.map(|(_, profile)| profile);
                        let expected =
                            ssh_session_bytes(profile, divergent, host_key.as_ref(), seed);
                        // Appended after bytes already in the buffer, as
                        // the emitter appends.
                        templated.clear();
                        templated.push(0xee);
                        templates.session_into(effective, host_key.as_ref(), seed, &mut templated);
                        assert_eq!(templated[1..], expected, "{} {seed}", profile.name);
                    }
                }
            }
        }
    }

    #[test]
    fn an_empty_host_key_gives_a_session_without_one() {
        let profiles = ssh_profiles();
        let empty = HostKey::new(HostKeyAlgorithm::Ed25519, Vec::new());
        let bytes = ssh_session_bytes(&profiles[0], None, empty.as_ref(), 7);
        let (banner, packets) = parse_session(&bytes);
        assert_eq!(banner, profiles[0].banner);
        assert_eq!(
            kex_init(packets[0]).capability_fingerprint(),
            profiles[0].kexinit.capability_fingerprint()
        );
        assert!(parse_kex_reply(packets[1]).is_err());
    }

    #[test]
    fn ssh_divergent_profile_changes_capabilities_not_key() {
        let profiles = ssh_profiles();
        let dropbear = profiles
            .iter()
            .find(|p| p.name.starts_with("dropbear"))
            .unwrap();
        let bytes = ssh_session_bytes(&profiles[0], Some(dropbear), key().as_ref(), 1);
        let (banner, packets) = parse_session(&bytes);
        assert_eq!(banner, dropbear.banner);
        assert_eq!(
            kex_init(packets[0]).capability_fingerprint(),
            dropbear.kexinit.capability_fingerprint()
        );
        assert_eq!(parse_kex_reply(packets[1]).unwrap().to_owned(), key());
    }

    #[test]
    fn ssh_cookie_varies_with_seed_but_fingerprint_does_not() {
        let profiles = ssh_profiles();
        let a = ssh_session_bytes(&profiles[0], None, key().as_ref(), 1);
        let b = ssh_session_bytes(&profiles[0], None, key().as_ref(), 2);
        assert_ne!(a, b);
        let parse_fp = |bytes: &[u8]| kex_init(parse_session(bytes).1[0]).capability_fingerprint();
        assert_eq!(parse_fp(&a), parse_fp(&b));
    }

    #[test]
    fn bgp_open_sender_produces_figure2_style_exchange() {
        let profiles = bgp_profiles();
        let cisco = profiles.iter().find(|p| p.name == "cisco-classic").unwrap();
        let mut bytes = Vec::new();
        bgp_session_bytes_into(cisco, Ipv4Addr::new(148, 170, 0, 33), 64_512, &mut bytes);
        let messages: Vec<_> = messages(&bytes).collect();
        assert_eq!(messages.len(), 2);
        match messages[0] {
            BgpMessageRef::Open(open) => {
                assert_eq!(open.bgp_identifier, Ipv4Addr::new(148, 170, 0, 33));
                assert_eq!(open.hold_time, 180);
                assert_eq!((open.my_as, four_octet_asn(open)), (64_512, None));
            }
            other => panic!("expected OPEN, got {other:?}"),
        }
        assert_eq!(messages[1], BgpMessageRef::Notification);
        // Cease (6) / Connection Rejected (5), no data.
        assert_eq!(bytes[bytes.len() - 2..], [6, 5]);
    }

    #[test]
    fn bgp_large_asn_uses_as_trans_and_capability() {
        let profiles = bgp_profiles();
        let frr = profiles.iter().find(|p| p.name == "frr").unwrap();
        let mut bytes = Vec::new();
        bgp_session_bytes_into(frr, Ipv4Addr::new(10, 0, 0, 1), 396_982, &mut bytes);
        let first = messages(&bytes).next();
        match first {
            Some(BgpMessageRef::Open(open)) => {
                assert_eq!(
                    (open.my_as, four_octet_asn(open)),
                    (AS_TRANS, Some(396_982))
                );
            }
            other => panic!("expected OPEN, got {other:?}"),
        }
    }

    #[test]
    fn silent_bgp_speaker_sends_nothing() {
        let profiles = bgp_profiles();
        let silent = profiles.iter().find(|p| !p.sends_open).unwrap();
        let mut bytes = Vec::new();
        bgp_session_bytes_into(silent, Ipv4Addr::new(10, 0, 0, 1), 65_000, &mut bytes);
        assert!(bytes.is_empty());
    }

    #[test]
    fn snmp_discovery_gets_a_report_with_engine_time() {
        let engine = engine_id();
        let mut request = Vec::new();
        Snmpv3Message::DiscoveryRequest { msg_id: 77 }.encode_into(&mut request);
        let booted = SimTime::from_days(1);
        let now = SimTime::from_days(3);
        let mut reply = Vec::new();
        assert!(snmp_report_into(
            engine.as_bytes(),
            4,
            booted,
            now,
            &request,
            &mut reply
        ));
        match Snmpv3Message::parse(&reply).unwrap() {
            Snmpv3Message::Report { msg_id, usm, .. } => {
                assert_eq!(msg_id, 77);
                assert_eq!(usm.engine_id, engine);
                assert_eq!(usm.engine_boots, 4);
                assert_eq!(usm.engine_time, 2 * 24 * 3600);
            }
            other => panic!("expected Report, got {other:?}"),
        }
    }

    #[test]
    fn snmp_garbage_and_non_discovery_requests_are_ignored() {
        let engine = engine_id();
        let mut reply = Vec::new();
        let (t0, out) = (SimTime::ZERO, &mut reply);
        assert!(!snmp_report_into(
            engine.as_bytes(),
            1,
            t0,
            t0,
            b"junk",
            out
        ));
        // A Report is not a discovery request.
        let usm = UsmSecurityParameters {
            engine_id: engine.clone(),
            engine_boots: 1,
            engine_time: 1,
            user_name: vec![],
        };
        let report = Snmpv3Message::Report {
            msg_id: 1,
            usm,
            unknown_engine_ids: 0,
        };
        let mut not_a_request = Vec::new();
        report.encode_into(&mut not_a_request);
        let engine = engine.as_bytes();
        assert!(!snmp_report_into(engine, 1, t0, t0, &not_a_request, out));
        assert!(reply.is_empty());
    }
}
