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
    emit_framed, read_string, write_string, write_string_with, SSH_MSG_KEX_ECDH_REPLY,
};
use crate::{Result, WireError};
use std::fmt;

/// Host-key algorithms the toolkit recognises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    pub(crate) fn name(self) -> &'static str {
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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

    /// The key with its material borrowed.
    pub fn as_ref(&self) -> HostKeyRef<'_> {
        HostKeyRef {
            algorithm: self.algorithm,
            key_material: &self.key_material,
        }
    }

    /// Parse a key blob, the material as a slice of `blob`.
    pub(crate) fn from_blob_borrowed(blob: &[u8]) -> Result<HostKeyRef<'_>> {
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
/// reply (`HostKey::from_blob_borrowed`), an owned key
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

    /// Append the key blob (`string algorithm-name, string key material`),
    /// as transmitted inside the key-exchange reply, to `out`.
    pub(crate) fn emit_blob(&self, out: &mut Vec<u8>) {
        write_string(out, self.algorithm.name().as_bytes());
        write_string(out, self.key_material);
    }
}

/// Parse a key-exchange reply payload (starting at the message number)
/// and return the host key it carries, borrowed from `payload`.
///
/// The layout matches `SSH_MSG_KEX_ECDH_REPLY` (RFC 5656 §4 / RFC 8731):
/// host key blob, ephemeral public key, signature.  Only the host key is
/// of interest to the scanner; the other two must be present and are
/// skipped.
pub fn parse_kex_reply(payload: &[u8]) -> Result<HostKeyRef<'_>> {
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
    let (_ephemeral_public, consumed) = read_string(&payload[offset..])?;
    offset += consumed;
    let (_signature, _) = read_string(&payload[offset..])?;
    Ok(host_key)
}

fn emit_kex_reply_payload(
    host_key: HostKeyRef<'_>,
    ephemeral_public: &[u8],
    signature: &[u8],
    out: &mut Vec<u8>,
) {
    out.push(SSH_MSG_KEX_ECDH_REPLY);
    write_string_with(out, |out| host_key.emit_blob(out));
    write_string(out, ephemeral_public);
    write_string(out, signature);
}

/// Append a key-exchange reply carrying `host_key` (the ephemeral key and
/// the signature opaque), framed as a binary packet, to `out`.
pub fn emit_kex_reply(
    host_key: HostKeyRef<'_>,
    ephemeral_public: &[u8],
    signature: &[u8],
    out: &mut Vec<u8>,
) {
    emit_framed(out, |out| {
        emit_kex_reply_payload(host_key, ephemeral_public, signature, out)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emitted;
    use crate::ssh::parse_packet;

    fn from_blob(blob: &[u8]) -> Result<HostKey> {
        HostKey::from_blob_borrowed(blob).map(|key| key.to_owned())
    }

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
            let parsed = from_blob(&emitted(|out| key.as_ref().emit_blob(out))).unwrap();
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
        assert!(from_blob(&emitted(|out| key.as_ref().emit_blob(out))).is_err());
    }

    #[test]
    fn trailing_bytes_in_blob_are_rejected() {
        let mut blob = emitted(|out| sample_key().as_ref().emit_blob(out));
        blob.push(0);
        assert!(matches!(from_blob(&blob), Err(WireError::BadLength { .. })));
    }

    #[test]
    fn kex_reply_roundtrip() {
        let key = sample_key();
        let mut wire = Vec::new();
        emit_kex_reply(key.as_ref(), &[9u8; 32], &[7u8; 64], &mut wire);
        let (payload, consumed) = parse_packet(&wire).unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(parse_kex_reply(payload).unwrap().to_owned(), key);
        // The ephemeral key and the signature must be there.
        for cut in 1..payload.len() {
            assert!(parse_kex_reply(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn kex_reply_rejects_wrong_message_number() {
        let mut payload = Vec::new();
        emit_kex_reply_payload(sample_key().as_ref(), &[], &[], &mut payload);
        payload[0] = 30;
        assert!(matches!(
            parse_kex_reply(&payload),
            Err(WireError::UnknownType { .. })
        ));
    }
}
