//! Service response generation.
//!
//! When a simulated device is probed, the responses it produces are real
//! wire bytes built with `alias-wire`.  The scanner on the other side parses
//! those bytes exactly as it would parse responses from the real Internet,
//! so the identifier-extraction code path is identical to the paper's.

use crate::clock::SimTime;
use crate::profiles::{bgp_capabilities_for, BgpProfile, SshProfile};
use alias_wire::bgp::{CeaseSubcode, NotificationMessage, OpenMessage, AS_TRANS};
use alias_wire::snmp::{EngineId, Snmpv3Message};
use alias_wire::ssh::hostkey::KexReply;
use alias_wire::ssh::HostKey;
use std::net::Ipv4Addr;

/// The server→client byte stream of one scripted SSH service-scan session:
/// identification banner, `SSH_MSG_KEXINIT`, and the key-exchange reply
/// carrying the host key.
///
/// `divergent_profile` substitutes a different capability profile, used for
/// the small fraction of devices whose interfaces disagree about their
/// capabilities (the paper's 0.4%).
pub fn ssh_session_bytes(
    profile: &SshProfile,
    divergent_profile: Option<&SshProfile>,
    host_key: &HostKey,
    cookie_seed: u64,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    ssh_session_bytes_into(profile, divergent_profile, host_key, cookie_seed, &mut out);
    out
}

/// [`ssh_session_bytes`], appending to a caller-owned buffer so a scan loop
/// can reuse one allocation across millions of sessions.
pub fn ssh_session_bytes_into(
    profile: &SshProfile,
    divergent_profile: Option<&SshProfile>,
    host_key: &HostKey,
    cookie_seed: u64,
    out: &mut Vec<u8>,
) {
    let effective = divergent_profile.unwrap_or(profile);
    effective.banner.emit(out);

    // The cookie is random per connection on real servers; derive it from the
    // seed so captures are deterministic but visibly non-constant.
    let seed_bytes = cookie_seed.to_be_bytes();
    let cookie: [u8; 16] = std::array::from_fn(|i| seed_bytes[i % 8] ^ (i as u8).wrapping_mul(37));
    effective.kexinit.emit_packet(&cookie, out);

    // Ephemeral key and signature are opaque to the scanner; deterministic
    // filler derived from the host key keeps captures reproducible.
    let material = &host_key.key_material;
    let ephemeral: [u8; 32] =
        std::array::from_fn(|i| material[i % material.len()].wrapping_add(i as u8));
    KexReply::emit_packet_from(host_key, &ephemeral, &[0xa5; 64], out);
}

/// The server→client byte stream of a BGP service-scan session: an OPEN
/// message followed by a Cease/Connection-Rejected NOTIFICATION, or nothing
/// at all for speakers that close silently.
pub fn bgp_session_bytes(profile: &BgpProfile, bgp_identifier: Ipv4Addr, asn: u32) -> Vec<u8> {
    let mut out = Vec::new();
    bgp_session_bytes_into(profile, bgp_identifier, asn, &mut out);
    out
}

/// [`bgp_session_bytes`], appending to a caller-owned buffer: a session
/// into a warm buffer allocates nothing.
pub fn bgp_session_bytes_into(
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
pub fn snmp_report_into(
    engine_id: &EngineId,
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
    use alias_wire::bgp::BgpMessage;
    use alias_wire::snmp::UsmSecurityParameters;
    use alias_wire::ssh::{Banner, HostKeyAlgorithm, KexInit, SshPacket, SSH_MSG_KEX_ECDH_REPLY};

    fn key() -> HostKey {
        HostKey::new(HostKeyAlgorithm::Ed25519, (0..32).collect())
    }

    #[test]
    fn ssh_session_is_parseable_end_to_end() {
        let profiles = ssh_profiles();
        let bytes = ssh_session_bytes(&profiles[0], None, &key(), 42);
        let (banner, consumed) = Banner::parse(&bytes).unwrap();
        assert_eq!(banner, profiles[0].banner);
        let packets = SshPacket::parse_stream(&bytes[consumed..]);
        assert_eq!(packets.len(), 2);
        let kex = KexInit::parse_packet(&packets[0]).unwrap();
        assert_eq!(
            kex.capability_fingerprint(),
            profiles[0].kexinit.capability_fingerprint()
        );
        assert_eq!(packets[1].message_number(), Some(SSH_MSG_KEX_ECDH_REPLY));
        let reply = KexReply::parse_packet(&packets[1]).unwrap();
        assert_eq!(reply.host_key, key());
    }

    #[test]
    fn ssh_divergent_profile_changes_capabilities_not_key() {
        let profiles = ssh_profiles();
        let dropbear = profiles
            .iter()
            .find(|p| p.name.starts_with("dropbear"))
            .unwrap();
        let bytes = ssh_session_bytes(&profiles[0], Some(dropbear), &key(), 1);
        let (banner, consumed) = Banner::parse(&bytes).unwrap();
        assert_eq!(banner, dropbear.banner);
        let packets = SshPacket::parse_stream(&bytes[consumed..]);
        let kex = KexInit::parse_packet(&packets[0]).unwrap();
        assert_eq!(
            kex.capability_fingerprint(),
            dropbear.kexinit.capability_fingerprint()
        );
        assert_eq!(KexReply::parse_packet(&packets[1]).unwrap().host_key, key());
    }

    #[test]
    fn ssh_cookie_varies_with_seed_but_fingerprint_does_not() {
        let profiles = ssh_profiles();
        let a = ssh_session_bytes(&profiles[0], None, &key(), 1);
        let b = ssh_session_bytes(&profiles[0], None, &key(), 2);
        assert_ne!(a, b);
        let parse_fp = |bytes: &[u8]| {
            let (_, consumed) = Banner::parse(bytes).unwrap();
            let packets = SshPacket::parse_stream(&bytes[consumed..]);
            KexInit::parse_packet(&packets[0])
                .unwrap()
                .capability_fingerprint()
        };
        assert_eq!(parse_fp(&a), parse_fp(&b));
    }

    #[test]
    fn bgp_open_sender_produces_figure2_style_exchange() {
        let profiles = bgp_profiles();
        let cisco = profiles.iter().find(|p| p.name == "cisco-classic").unwrap();
        let bytes = bgp_session_bytes(cisco, Ipv4Addr::new(148, 170, 0, 33), 64_512);
        let messages = BgpMessage::parse_stream(&bytes);
        assert_eq!(messages.len(), 2);
        match &messages[0] {
            BgpMessage::Open(open) => {
                assert_eq!(open.bgp_identifier, Ipv4Addr::new(148, 170, 0, 33));
                assert_eq!(open.hold_time, 180);
                assert_eq!(open.effective_asn(), 64_512);
            }
            other => panic!("expected OPEN, got {other:?}"),
        }
        match &messages[1] {
            BgpMessage::Notification(n) => assert!(n.is_connection_rejected()),
            other => panic!("expected NOTIFICATION, got {other:?}"),
        }
    }

    #[test]
    fn bgp_large_asn_uses_as_trans_and_capability() {
        let profiles = bgp_profiles();
        let frr = profiles.iter().find(|p| p.name == "frr").unwrap();
        let bytes = bgp_session_bytes(frr, Ipv4Addr::new(10, 0, 0, 1), 396_982);
        let messages = BgpMessage::parse_stream(&bytes);
        match &messages[0] {
            BgpMessage::Open(open) => {
                assert_eq!(open.my_as, AS_TRANS);
                assert_eq!(open.effective_asn(), 396_982);
            }
            other => panic!("expected OPEN, got {other:?}"),
        }
    }

    #[test]
    fn silent_bgp_speaker_sends_nothing() {
        let profiles = bgp_profiles();
        let silent = profiles.iter().find(|p| !p.sends_open).unwrap();
        assert!(bgp_session_bytes(silent, Ipv4Addr::new(10, 0, 0, 1), 65_000).is_empty());
    }

    #[test]
    fn snmp_discovery_gets_a_report_with_engine_time() {
        let engine = EngineId::from_enterprise_mac(9, [1, 2, 3, 4, 5, 6]);
        let request = Snmpv3Message::DiscoveryRequest { msg_id: 77 }.to_bytes();
        let booted = SimTime::from_days(1);
        let now = SimTime::from_days(3);
        let mut reply = Vec::new();
        assert!(snmp_report_into(
            &engine, 4, booted, now, &request, &mut reply
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
        let engine = EngineId::from_enterprise_mac(9, [1, 2, 3, 4, 5, 6]);
        let mut reply = Vec::new();
        let (t0, out) = (SimTime::ZERO, &mut reply);
        assert!(!snmp_report_into(&engine, 1, t0, t0, b"junk", out));
        // A Report is not a discovery request.
        let usm = UsmSecurityParameters {
            engine_id: engine.clone(),
            engine_boots: 1,
            engine_time: 1,
            user_name: vec![],
        };
        let not_a_request = Snmpv3Message::report_for(1, usm, 0).to_bytes();
        assert!(!snmp_report_into(&engine, 1, t0, t0, &not_a_request, out));
        assert!(reply.is_empty());
    }
}
