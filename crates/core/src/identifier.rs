//! Protocol identifiers: the values that make two addresses aliases.
//!
//! The paper's key observation is that SSH and BGP volunteer, to anyone who
//! completes a TCP handshake, a set of values that together identify the
//! underlying device:
//!
//! * **SSH** — the identification banner, the algorithm-preference lists of
//!   `SSH_MSG_KEXINIT` (RFC 4253 mandates preference order, so they
//!   fingerprint implementation + configuration) and the server host key.
//!   The host key alone is *almost* unique; combining it with the
//!   capabilities guards against factory-default keys and administrators
//!   cloning keys across distinct devices.
//! * **BGP** — every field of the unsolicited OPEN message (version, My AS,
//!   hold time, BGP Identifier, optional capabilities, message length) is
//!   host-wide configuration; the BGP Identifier in particular must be
//!   identical on every interface of the speaker.
//! * **SNMPv3** — the authoritative engine ID (the prior technique the
//!   paper extends).
//!
//! The SSH identifier *policy* exposes the ablation discussed in the paper
//! (key-only vs. combined SSH identifiers).
//!
//! Each identifier type also has a `write_key`: the same material as one
//! run of bytes appended to a caller's buffer, equal for two observations
//! of one keyed pass exactly when their identifiers are equal.  Grouping
//! keys rows by those bytes, read off the borrowed payload a store decodes
//! in place; the `String`-carrying identifiers are what the keys are tested
//! against.  An SSH key names the banner and capabilities by a profile id
//! the pass assigns (`SshProfileIds`), so its bytes are the host key's and
//! a few more.

use alias_intern::IdentInterner;
use alias_scan::{BgpOpenRef, SshRef};
use alias_store::SshProfiles;
use alias_wire::bgp::{CapabilityRef, OpenMessage, OptionalParameter, ParamRef};
use alias_wire::snmp::EngineId;
use alias_wire::ssh::SshObservation;
use std::collections::HashMap;

/// How much of the SSH material to include in the identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SshIdentifierPolicy {
    /// Host key only (what a naive approach would use).
    KeyOnly,
    /// Banner + capability fingerprint + host key — the paper's identifier.
    #[default]
    Full,
}

/// First key byte per protocol, so keys of different protocols never
/// compare equal (as their identifiers never do).
const KEY_SSH: u8 = 1;
const KEY_BGP: u8 = 2;
const KEY_SNMPV3: u8 = 3;

/// Append what `write` appends, prefixed with its length: fields are
/// variable-length and attacker-supplied, so only framing keeps one from
/// running into the next (`"ab" + "c"` vs `"a" + "bc"`).
fn framed(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    write(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// The SSH identifier of one responsive address.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SshIdentifier {
    /// The banner line (software + comments), empty under `KeyOnly`.
    pub(crate) banner: String,
    /// The capability fingerprint, empty under `KeyOnly`.
    pub(crate) capabilities: String,
    /// The host-key fingerprint.
    pub(crate) host_key: String,
}

impl SshIdentifier {
    /// Build the identifier from a parsed SSH observation under `policy`.
    ///
    /// Returns `None` when the observation lacks the host key (the scan did
    /// not get far enough to identify the device).
    pub(crate) fn from_observation(
        obs: &SshObservation,
        policy: SshIdentifierPolicy,
    ) -> Option<Self> {
        let host_key = obs.host_key.as_ref()?.fingerprint();
        let (banner, capabilities) = match policy {
            SshIdentifierPolicy::KeyOnly => (String::new(), String::new()),
            SshIdentifierPolicy::Full => (
                obs.banner.to_line(),
                (obs.kex_init.as_ref())
                    .map(|k| k.capability_fingerprint())
                    .unwrap_or_default(),
            ),
        };
        Some(SshIdentifier {
            banner,
            capabilities,
            host_key,
        })
    }

    /// Append the key of the identifier [`Self::from_observation`] would
    /// build; `false` (nothing appended) where that returns `None`.
    ///
    /// The key is `KEY_SSH`, under [`SshIdentifierPolicy::Full`] the pass's
    /// id of the observation's profile (`u32`), then the host key raw
    /// (algorithm, material), which its fingerprint renders injectively.
    #[inline]
    pub(crate) fn write_key<'a>(
        obs: SshRef<'a>,
        policy: SshIdentifierPolicy,
        profiles: &mut SshProfileIds<'a>,
        out: &mut Vec<u8>,
    ) -> bool {
        let Some(host_key) = obs.host_key() else {
            return false;
        };
        out.push(KEY_SSH);
        if policy == SshIdentifierPolicy::Full {
            out.extend_from_slice(&profiles.id(obs).to_le_bytes());
        }
        out.push(host_key.algorithm as u8);
        out.extend_from_slice(host_key.key_material);
        true
    }
}

/// In [`SshProfileIds`]: a (dictionary, entry) slot not met yet.
const UNSEEN: u32 = u32::MAX;

/// The SSH profile ids of one keyed pass: equal ids exactly for equal
/// banner lines and capability fingerprints — the part of the paper's SSH
/// identifier that server software and configuration decide.
///
/// A profile's *identity bytes* are its banner line and its capability
/// fingerprint, each framed: exactly the bytes of the identifier's `banner`
/// and `capabilities` strings, not the structured fields, which several
/// values can render alike.  They are interned with keyed SipHash and a
/// full compare ([`IdentInterner`]).  A stored record's profile is interned
/// once per chunk dictionary entry and remembered by (dictionary, index),
/// so the pass reads a profile's bytes once per chunk, not once per row; an
/// observation by parts interns its identity bytes on every call.
///
/// The dictionaries are told apart by address: every one met is borrowed
/// for `'a`, longer than the table lives, so no two share one meanwhile.
#[derive(Debug, Default)]
pub(crate) struct SshProfileIds<'a> {
    identities: IdentInterner,
    identity: Vec<u8>,
    /// Per dictionary met: where its entries' ids start in `ids`.
    dictionaries: HashMap<usize, usize>,
    /// The dictionary met last, and where its ids start.
    last: Option<(&'a SshProfiles, usize)>,
    /// The profile id of every entry of every dictionary met ([`UNSEEN`]
    /// until its first row).
    ids: Vec<u32>,
}

impl<'a> SshProfileIds<'a> {
    /// The profile id of `obs`.
    #[inline]
    pub(crate) fn id(&mut self, obs: SshRef<'a>) -> u32 {
        let SshRef::Record(record) = obs else {
            return self.intern(obs);
        };
        let (dictionary, entry) = record.profile();
        let base = match self.last {
            Some((last, base)) if std::ptr::eq(last, dictionary) => base,
            _ => self.enter(dictionary),
        };
        assert!(
            entry < dictionary.len(),
            "a stored record names an entry of its chunk's dictionary"
        );
        if self.ids[base + entry] == UNSEEN {
            self.ids[base + entry] = self.intern(obs);
        }
        self.ids[base + entry]
    }

    /// Where `dictionary`'s ids start, room made for them if it is new.
    fn enter(&mut self, dictionary: &'a SshProfiles) -> usize {
        let next = self.ids.len();
        let address = dictionary as *const SshProfiles as usize;
        let base = *self.dictionaries.entry(address).or_insert(next);
        if base == next {
            self.ids.resize(next + dictionary.len(), UNSEEN);
        }
        self.last = Some((dictionary, base));
        base
    }

    /// Intern `obs`'s identity bytes.
    fn intern(&mut self, obs: SshRef<'_>) -> u32 {
        self.identity.clear();
        framed(&mut self.identity, |out| obs.emit_banner_line(out));
        framed(&mut self.identity, |out| {
            obs.emit_capability_fingerprint(out)
        });
        self.identities.intern(&self.identity).0
    }
}

/// The BGP identifier of one responsive address: every host-wide field of
/// its OPEN message.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BgpIdentifier {
    /// The 4-octet BGP Identifier, rendered dotted-quad.
    pub(crate) bgp_identifier: String,
    /// The ASN from the OPEN message (four-octet capability preferred).
    pub(crate) asn: u32,
    /// Hold time.
    pub(crate) hold_time: u16,
    /// Protocol version.
    pub(crate) version: u8,
    /// OPEN message wire length.
    pub(crate) open_length: u16,
    /// Canonical rendering of the advertised capabilities.
    pub(crate) capabilities: String,
}

impl BgpIdentifier {
    /// Build the identifier from an OPEN message.
    pub(crate) fn from_open(open: &OpenMessage) -> Self {
        BgpIdentifier {
            bgp_identifier: open.bgp_identifier.to_string(),
            asn: open.effective_asn(),
            hold_time: open.hold_time,
            version: open.version,
            open_length: open.wire_length(),
            capabilities: render_capabilities(&open.optional_parameters),
        }
    }

    /// Append the key of the identifier [`Self::from_open`] would build.
    ///
    /// Layout: the protocol byte, the BGP Identifier's four octets, the
    /// hold time, the version, the optional parameters, then the ASN
    /// (`u32`, little-endian).  Each optional parameter goes in as (kind,
    /// code, framed value), which is in bijection with its `code:hex` /
    /// `ptype:hex` rendering; the ASN has a fixed size and comes last, so
    /// the parameter run is what lies between the version and it, and the
    /// key stays unambiguous.  The ASN is the first four-octet-AS
    /// capability's, met in the same walk, else the two-octet field's
    /// ([`OpenMessage::effective_asn`]): the parameters are read once.
    /// `open_length` is left out: it is a function of the parameters'
    /// kinds and value lengths, so it can never tell two keys apart.
    pub(crate) fn write_key(open: BgpOpenRef<'_>, out: &mut Vec<u8>) {
        out.push(KEY_BGP);
        out.extend_from_slice(&open.bgp_identifier.octets());
        out.extend_from_slice(&open.hold_time.to_le_bytes());
        out.push(open.version);
        let mut four_octet_as = None;
        for param in open.params.iter() {
            match param {
                ParamRef::Capability(cap) => {
                    if let CapabilityRef::FourOctetAs { asn } = cap {
                        four_octet_as.get_or_insert(asn);
                    }
                    out.extend_from_slice(&[0, cap.code()]);
                    framed(out, |out| cap.emit_value(out));
                }
                ParamRef::Other { param_type, value } => {
                    out.extend_from_slice(&[1, param_type]);
                    framed(out, |out| out.extend_from_slice(value));
                }
            }
        }
        let asn = four_octet_as.unwrap_or(u32::from(open.my_as));
        out.extend_from_slice(&asn.to_le_bytes());
    }
}

fn render_capabilities(params: &[OptionalParameter]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (index, param) in params.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        match param {
            OptionalParameter::Capability(cap) => {
                write!(out, "{}:", cap.code()).expect("write to String");
                crate::hex::push_hex(&mut out, &cap.value_bytes());
            }
            OptionalParameter::Other { param_type, value } => {
                write!(out, "p{param_type}:").expect("write to String");
                crate::hex::push_hex(&mut out, value);
            }
        }
    }
    out
}

/// The SNMPv3 identifier: the authoritative engine ID.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Snmpv3Identifier {
    /// Hex rendering of the engine ID.
    pub(crate) engine_id: String,
}

impl Snmpv3Identifier {
    /// Build the identifier from an engine ID.
    pub(crate) fn from_engine_id(engine_id: &EngineId) -> Self {
        Snmpv3Identifier {
            engine_id: engine_id.to_hex(),
        }
    }

    /// Append the key of the identifier [`Self::from_engine_id`] would
    /// build: the engine ID's bytes, which the hex rendering is one-to-one
    /// with.
    pub(crate) fn write_key(engine_id: &[u8], out: &mut Vec<u8>) {
        out.push(KEY_SNMPV3);
        out.extend_from_slice(engine_id);
    }
}

/// A protocol identifier of any of the three protocols.
///
/// Identifiers from different protocols never compare equal, even if their
/// textual material coincides: grouping is always per protocol, and only the
/// union analysis (via shared addresses) links protocols together.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProtocolIdentifier {
    /// An SSH identifier.
    Ssh(SshIdentifier),
    /// A BGP identifier.
    Bgp(BgpIdentifier),
    /// An SNMPv3 identifier.
    Snmpv3(Snmpv3Identifier),
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_wire::bgp::Capability;
    use alias_wire::ssh::{Banner, HostKey, HostKeyAlgorithm, KexInit, NameList};
    use std::net::Ipv4Addr;

    fn ssh_obs(key_byte: u8) -> SshObservation {
        SshObservation {
            banner: Banner::new("OpenSSH_8.9p1", Some("Ubuntu-3ubuntu0.1")).unwrap(),
            kex_init: Some(KexInit::typical_openssh()),
            host_key: Some(HostKey::new(HostKeyAlgorithm::Ed25519, vec![key_byte; 32])),
        }
    }

    fn open_msg() -> OpenMessage {
        OpenMessage {
            version: 4,
            my_as: 23_456,
            hold_time: 90,
            bgp_identifier: Ipv4Addr::new(148, 170, 0, 33),
            optional_parameters: vec![
                OptionalParameter::Capability(Capability::RouteRefreshCisco),
                OptionalParameter::Capability(Capability::RouteRefresh),
                OptionalParameter::Capability(Capability::FourOctetAs { asn: 396_982 }),
            ],
        }
    }

    #[test]
    fn ssh_identifier_equal_for_same_device_different_connection() {
        let a = SshIdentifier::from_observation(&ssh_obs(7), SshIdentifierPolicy::Full).unwrap();
        let mut obs_b = ssh_obs(7);
        // Different connection: different KEXINIT cookie, same configuration.
        obs_b.kex_init.as_mut().unwrap().cookie = [9u8; 16];
        let b = SshIdentifier::from_observation(&obs_b, SshIdentifierPolicy::Full).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ssh_identifier_differs_when_key_differs() {
        let a = SshIdentifier::from_observation(&ssh_obs(7), SshIdentifierPolicy::Full).unwrap();
        let b = SshIdentifier::from_observation(&ssh_obs(8), SshIdentifierPolicy::Full).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn key_only_policy_merges_shared_default_keys() {
        // Two devices with the same factory-default key but different
        // software: KeyOnly conflates them, Full keeps them apart.
        let mut obs_b = ssh_obs(7);
        obs_b.banner = Banner::new("dropbear_2020.81", None).unwrap();
        obs_b.kex_init.as_mut().unwrap().encryption_server_to_client =
            NameList::new(["aes128-ctr"]);
        let a_key =
            SshIdentifier::from_observation(&ssh_obs(7), SshIdentifierPolicy::KeyOnly).unwrap();
        let b_key = SshIdentifier::from_observation(&obs_b, SshIdentifierPolicy::KeyOnly).unwrap();
        assert_eq!(a_key, b_key);
        let a_full =
            SshIdentifier::from_observation(&ssh_obs(7), SshIdentifierPolicy::Full).unwrap();
        let b_full = SshIdentifier::from_observation(&obs_b, SshIdentifierPolicy::Full).unwrap();
        assert_ne!(a_full, b_full);
    }

    #[test]
    fn ssh_identifier_requires_host_key() {
        let mut obs = ssh_obs(7);
        obs.host_key = None;
        assert!(SshIdentifier::from_observation(&obs, SshIdentifierPolicy::Full).is_none());
    }

    #[test]
    fn missing_kexinit_still_identifies_by_key_and_banner() {
        let mut obs = ssh_obs(3);
        obs.kex_init = None;
        let id = SshIdentifier::from_observation(&obs, SshIdentifierPolicy::Full).unwrap();
        assert!(id.capabilities.is_empty());
        assert!(!id.host_key.is_empty());
    }

    #[test]
    fn bgp_full_identifier_includes_all_open_fields() {
        let id = BgpIdentifier::from_open(&open_msg());
        assert_eq!(id.bgp_identifier, "148.170.0.33");
        assert_eq!(id.asn, 396_982);
        assert_eq!(id.hold_time, 90);
        assert_eq!(id.version, 4);
        assert!(id.open_length > 29);
        assert!(id.capabilities.contains("128:"));
        assert!(id.capabilities.contains("2:"));
    }

    #[test]
    fn capability_rendering_format_is_locked() {
        // The capability string is part of the BGP identifier, so its exact
        // format is load-bearing: changing it regroups alias sets.  Locked
        // here: `code:hexvalue` / `ptype:hexvalue`, comma-joined, lowercase
        // zero-padded hex, empty string for no parameters.
        assert_eq!(render_capabilities(&[]), "");
        let rendered = render_capabilities(&[
            OptionalParameter::Capability(Capability::RouteRefresh),
            OptionalParameter::Capability(Capability::FourOctetAs { asn: 396_982 }),
            OptionalParameter::Other {
                param_type: 9,
                value: vec![0x00, 0x0f, 0xa0],
            },
        ]);
        assert_eq!(rendered, "2:,65:00060eb6,p9:000fa0");
    }

    #[test]
    fn snmp_identifier_is_engine_hex() {
        let engine = EngineId(EngineId::enterprise_mac_bytes(9, [1, 2, 3, 4, 5, 6]).to_vec());
        let id = Snmpv3Identifier::from_engine_id(&engine);
        assert_eq!(id.engine_id, engine.to_hex());
    }

    #[test]
    fn protocol_identifiers_never_collide_across_protocols() {
        let ssh = ProtocolIdentifier::Ssh(
            SshIdentifier::from_observation(&ssh_obs(1), SshIdentifierPolicy::Full).unwrap(),
        );
        let bgp = ProtocolIdentifier::Bgp(BgpIdentifier::from_open(&open_msg()));
        assert_ne!(ssh, bgp);
    }
}
