//! SSH server host keys and the key-exchange reply that carries them
//! (RFC 4253 §8, RFC 5656, RFC 8731).
//!
//! The host-key blob (`K_S` in the RFCs) is sent in the clear inside the
//! key-exchange reply (`SSH_MSG_KEXDH_REPLY` / `SSH_MSG_KEX_ECDH_REPLY`), so
//! a scanner obtains it without finishing key agreement.  The key is the
//! strongest component of the paper's SSH identifier: host keys are
//! generated at service setup and are expected to be unique per host unless
//! an administrator clones them or a vendor ships factory-default keys.

use super::packet::{
    read_string, write_string, write_string_with, SshPacket, SSH_MSG_KEX_ECDH_REPLY,
};
use crate::{Result, WireError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Host-key algorithms the toolkit recognises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HostKeyAlgorithm {
    /// `ssh-ed25519`.
    Ed25519,
    /// `ssh-rsa` (and its SHA-2 signature variants share the same key blob).
    Rsa,
    /// `ecdsa-sha2-nistp256`.
    EcdsaP256,
    /// `ssh-dss`.
    Dsa,
}

impl HostKeyAlgorithm {
    /// The algorithm name as it appears in the key blob.
    pub fn name(self) -> &'static str {
        match self {
            HostKeyAlgorithm::Ed25519 => "ssh-ed25519",
            HostKeyAlgorithm::Rsa => "ssh-rsa",
            HostKeyAlgorithm::EcdsaP256 => "ecdsa-sha2-nistp256",
            HostKeyAlgorithm::Dsa => "ssh-dss",
        }
    }

    /// Resolve an algorithm name.
    pub fn from_name(name: &str) -> Result<Self> {
        match name {
            "ssh-ed25519" => Ok(HostKeyAlgorithm::Ed25519),
            "ssh-rsa" | "rsa-sha2-256" | "rsa-sha2-512" => Ok(HostKeyAlgorithm::Rsa),
            "ecdsa-sha2-nistp256" => Ok(HostKeyAlgorithm::EcdsaP256),
            "ssh-dss" => Ok(HostKeyAlgorithm::Dsa),
            _ => Err(WireError::BadValue {
                field: "hostkey.algorithm",
            }),
        }
    }
}

impl fmt::Display for HostKeyAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A server host key: algorithm plus the raw public-key material.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HostKey {
    /// Key algorithm.
    pub algorithm: HostKeyAlgorithm,
    /// Raw public-key material (e.g. the 32-byte EdDSA public key).
    pub key_material: Vec<u8>,
}

impl HostKey {
    /// Build a host key from raw material.
    pub fn new(algorithm: HostKeyAlgorithm, key_material: Vec<u8>) -> Self {
        HostKey {
            algorithm,
            key_material,
        }
    }

    /// Encode the key blob (`string algorithm-name, string key material`) as
    /// transmitted inside the key-exchange reply.
    pub fn to_blob(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.key_material.len() + 16);
        self.emit_blob(&mut out);
        out
    }

    /// Append the key blob to `out`.
    pub fn emit_blob(&self, out: &mut Vec<u8>) {
        write_string(out, self.algorithm.name().as_bytes());
        write_string(out, &self.key_material);
    }

    /// The key with its material borrowed.
    pub fn as_ref(&self) -> HostKeyRef<'_> {
        HostKeyRef {
            algorithm: self.algorithm,
            key_material: &self.key_material,
        }
    }

    /// Parse a key blob.
    pub fn from_blob(blob: &[u8]) -> Result<Self> {
        Self::from_blob_borrowed(blob).map(|key| key.to_owned())
    }

    /// [`Self::from_blob`] without the copy: the material as a slice of
    /// `blob`.
    pub fn from_blob_borrowed(blob: &[u8]) -> Result<HostKeyRef<'_>> {
        let (name, consumed) = read_string(blob)?;
        let name = std::str::from_utf8(name).map_err(|_| WireError::BadEncoding {
            field: "hostkey.algorithm",
        })?;
        let algorithm = HostKeyAlgorithm::from_name(name)?;
        let (material, consumed2) = read_string(&blob[consumed..])?;
        if consumed + consumed2 != blob.len() {
            return Err(WireError::BadLength {
                field: "hostkey.blob",
            });
        }
        if material.is_empty() {
            return Err(WireError::BadValue {
                field: "hostkey.material",
            });
        }
        Ok(HostKeyRef {
            algorithm,
            key_material: material,
        })
    }

    /// The lowercase-hex fingerprint of the key material, as used in reports
    /// and identifiers (a stand-in for the usual SHA-256 fingerprint; the
    /// toolkit never needs cryptographic strength, only equality).
    pub fn fingerprint(&self) -> String {
        let mut out = String::with_capacity(self.key_material.len() * 2 + 16);
        out.push_str(self.algorithm.name());
        out.push(':');
        crate::hex::push_hex(&mut out, &self.key_material);
        out
    }
}

/// A [`HostKey`] whose material borrows its bytes — from a key-exchange
/// reply ([`HostKey::from_blob_borrowed`]), an owned key
/// ([`HostKey::as_ref`]) or a stored record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostKeyRef<'a> {
    /// Key algorithm.
    pub algorithm: HostKeyAlgorithm,
    /// Raw public-key material.
    pub key_material: &'a [u8],
}

impl HostKeyRef<'_> {
    /// Copy the key into an owned [`HostKey`].
    pub fn to_owned(&self) -> HostKey {
        HostKey::new(self.algorithm, self.key_material.to_vec())
    }
}

/// The key-exchange reply message carrying the host key.
///
/// The layout matches `SSH_MSG_KEX_ECDH_REPLY` (RFC 5656 §4 / RFC 8731):
/// host key blob, ephemeral public key, signature.  Only the host key is of
/// interest to the scanner; the other fields are carried opaquely.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KexReply {
    /// The server host key.
    pub host_key: HostKey,
    /// The server's ephemeral key-exchange public value (opaque).
    pub ephemeral_public: Vec<u8>,
    /// Signature over the exchange hash (opaque).
    pub signature: Vec<u8>,
}

impl KexReply {
    /// Parse a key-exchange reply payload (starting at the message number).
    pub fn parse_payload(payload: &[u8]) -> Result<Self> {
        Self::parse_borrowed(payload).map(|reply| reply.to_owned())
    }

    /// [`Self::parse_payload`] without the copies: every part as a slice of
    /// `payload`.
    pub fn parse_borrowed(payload: &[u8]) -> Result<KexReplyRef<'_>> {
        if payload.is_empty() {
            return Err(WireError::Truncated {
                needed: 1,
                available: 0,
            });
        }
        if payload[0] != SSH_MSG_KEX_ECDH_REPLY {
            return Err(WireError::UnknownType {
                tag: payload[0] as u16,
            });
        }
        let mut offset = 1;
        let (blob, consumed) = read_string(&payload[offset..])?;
        let host_key = HostKey::from_blob_borrowed(blob)?;
        offset += consumed;
        let (ephemeral_public, consumed) = read_string(&payload[offset..])?;
        offset += consumed;
        let (signature, _) = read_string(&payload[offset..])?;
        Ok(KexReplyRef {
            host_key,
            ephemeral_public,
            signature,
        })
    }

    /// Parse from a binary packet.
    pub fn parse_packet(packet: &SshPacket) -> Result<Self> {
        Self::parse_payload(&packet.payload)
    }

    /// Emit the payload (message number included).
    pub fn to_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        Self::emit_payload_from(
            &self.host_key,
            &self.ephemeral_public,
            &self.signature,
            &mut out,
        );
        out
    }

    fn emit_payload_from(
        host_key: &HostKey,
        ephemeral_public: &[u8],
        signature: &[u8],
        out: &mut Vec<u8>,
    ) {
        out.push(SSH_MSG_KEX_ECDH_REPLY);
        write_string_with(out, |out| host_key.emit_blob(out));
        write_string(out, ephemeral_public);
        write_string(out, signature);
    }

    /// Append a reply, framed as a binary packet, to `out` from borrowed
    /// parts — what [`Self::to_packet`] emits for a `KexReply` holding
    /// them, without building one.
    pub fn emit_packet_from(
        host_key: &HostKey,
        ephemeral_public: &[u8],
        signature: &[u8],
        out: &mut Vec<u8>,
    ) {
        SshPacket::emit_framed(out, |out| {
            Self::emit_payload_from(host_key, ephemeral_public, signature, out)
        });
    }

    /// Wrap the reply in a binary packet.
    pub fn to_packet(&self) -> SshPacket {
        SshPacket::new(self.to_payload())
    }
}

/// A [`KexReply`] whose parts borrow the packet payload
/// ([`KexReply::parse_borrowed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KexReplyRef<'a> {
    /// The server host key.
    pub host_key: HostKeyRef<'a>,
    /// The server's ephemeral key-exchange public value (opaque).
    pub ephemeral_public: &'a [u8],
    /// Signature over the exchange hash (opaque).
    pub signature: &'a [u8],
}

impl KexReplyRef<'_> {
    /// Copy the reply into an owned [`KexReply`].
    pub fn to_owned(&self) -> KexReply {
        KexReply {
            host_key: self.host_key.to_owned(),
            ephemeral_public: self.ephemeral_public.to_vec(),
            signature: self.signature.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_key() -> HostKey {
        HostKey::new(
            HostKeyAlgorithm::Ed25519,
            vec![0x40, 0x9f, 0xa7, 0x37, 0x03, 0x3d],
        )
    }

    #[test]
    fn blob_roundtrip_all_algorithms() {
        for alg in [
            HostKeyAlgorithm::Ed25519,
            HostKeyAlgorithm::Rsa,
            HostKeyAlgorithm::EcdsaP256,
            HostKeyAlgorithm::Dsa,
        ] {
            let key = HostKey::new(alg, vec![1, 2, 3, 4]);
            let parsed = HostKey::from_blob(&key.to_blob()).unwrap();
            assert_eq!(parsed, key);
        }
    }

    #[test]
    fn fingerprint_is_stable_and_distinct() {
        let a = sample_key();
        let b = HostKey::new(
            HostKeyAlgorithm::Ed25519,
            vec![0x40, 0x9f, 0xa7, 0x37, 0x03, 0x3e],
        );
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(a.fingerprint().starts_with("ssh-ed25519:409fa737"));
    }

    #[test]
    fn rsa_signature_names_map_to_rsa() {
        assert_eq!(
            HostKeyAlgorithm::from_name("rsa-sha2-512").unwrap(),
            HostKeyAlgorithm::Rsa
        );
    }

    #[test]
    fn unknown_algorithm_is_rejected() {
        assert!(HostKeyAlgorithm::from_name("ssh-unobtainium").is_err());
    }

    #[test]
    fn empty_key_material_is_rejected() {
        let key = HostKey::new(HostKeyAlgorithm::Rsa, vec![]);
        assert!(HostKey::from_blob(&key.to_blob()).is_err());
    }

    #[test]
    fn trailing_bytes_in_blob_are_rejected() {
        let mut blob = sample_key().to_blob();
        blob.push(0);
        assert!(matches!(
            HostKey::from_blob(&blob),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn kex_reply_roundtrip() {
        let reply = KexReply {
            host_key: sample_key(),
            ephemeral_public: vec![9u8; 32],
            signature: vec![7u8; 64],
        };
        let packet = reply.to_packet();
        let parsed = KexReply::parse_packet(&packet).unwrap();
        assert_eq!(parsed, reply);
    }

    #[test]
    fn kex_reply_rejects_wrong_message_number() {
        let mut payload = KexReply {
            host_key: sample_key(),
            ephemeral_public: vec![],
            signature: vec![],
        }
        .to_payload();
        payload[0] = 30;
        assert!(matches!(
            KexReply::parse_payload(&payload),
            Err(WireError::UnknownType { .. })
        ));
    }
}
