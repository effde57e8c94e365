//! The `SSH_MSG_KEXINIT` message (RFC 4253 §7.1).
//!
//! The message carries ten name-lists describing every algorithm the sender
//! supports, **in preference order**.  The server-to-client halves of those
//! lists are the "algorithmic capabilities" component of the paper's SSH
//! identifier: combined with the host key they disambiguate hosts that share
//! a key (e.g. factory-default keys) but run different software or
//! configurations.

use super::names::{NameList, NameListRef};
use super::packet::{emit_framed, SSH_MSG_KEXINIT};
use crate::error::check_len;
use crate::{Result, WireError};

/// A parsed `SSH_MSG_KEXINIT`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KexInit {
    /// 16 random bytes; not part of any identifier.
    pub cookie: [u8; 16],
    /// Key-exchange algorithms.
    pub kex_algorithms: NameList,
    /// Host-key algorithms the server can prove ownership of.
    pub server_host_key_algorithms: NameList,
    /// Ciphers, client to server.
    pub encryption_client_to_server: NameList,
    /// Ciphers, server to client.
    pub encryption_server_to_client: NameList,
    /// MACs, client to server.
    pub mac_client_to_server: NameList,
    /// MACs, server to client.
    pub mac_server_to_client: NameList,
    /// Compression, client to server.
    pub compression_client_to_server: NameList,
    /// Compression, server to client.
    pub compression_server_to_client: NameList,
    /// Languages, client to server (virtually always empty).
    pub languages_client_to_server: NameList,
    /// Languages, server to client (virtually always empty).
    pub languages_server_to_client: NameList,
    /// Whether a guessed key-exchange packet follows.
    pub first_kex_packet_follows: bool,
}

impl KexInit {
    /// The algorithm lists that describe the *server's* capabilities, in the
    /// order the paper's identifier concatenates them: key-exchange, host
    /// key, then the server-to-client cipher/MAC/compression preferences.
    pub(crate) fn server_capability_lists(&self) -> [&NameList; 5] {
        let lists = self.name_lists();
        KexInitRef::SERVER_CAPABILITY_LISTS.map(|at| lists[at])
    }

    /// A canonical textual fingerprint of the server capability lists
    /// (semicolon-joined comma-lists).  Two servers with identical
    /// configurations produce identical fingerprints regardless of the
    /// random cookie.
    pub fn capability_fingerprint(&self) -> String {
        self.server_capability_lists()
            .map(NameList::joined)
            .join(";")
    }

    /// A typical OpenSSH server KEXINIT, useful for tests and simulation
    /// defaults.
    pub fn typical_openssh() -> Self {
        KexInit {
            cookie: [0u8; 16],
            kex_algorithms: NameList::new([
                "curve25519-sha256",
                "curve25519-sha256@libssh.org",
                "ecdh-sha2-nistp256",
                "diffie-hellman-group16-sha512",
            ]),
            server_host_key_algorithms: NameList::new([
                "rsa-sha2-512",
                "rsa-sha2-256",
                "ecdsa-sha2-nistp256",
                "ssh-ed25519",
            ]),
            encryption_client_to_server: NameList::new([
                "chacha20-poly1305@openssh.com",
                "aes128-ctr",
                "aes256-gcm@openssh.com",
            ]),
            encryption_server_to_client: NameList::new([
                "chacha20-poly1305@openssh.com",
                "aes128-ctr",
                "aes256-gcm@openssh.com",
            ]),
            mac_client_to_server: NameList::new([
                "umac-64-etm@openssh.com",
                "hmac-sha2-256-etm@openssh.com",
                "hmac-sha2-512",
            ]),
            mac_server_to_client: NameList::new([
                "umac-64-etm@openssh.com",
                "hmac-sha2-256-etm@openssh.com",
                "hmac-sha2-512",
            ]),
            compression_client_to_server: NameList::new(["none", "zlib@openssh.com"]),
            compression_server_to_client: NameList::new(["none", "zlib@openssh.com"]),
            languages_client_to_server: NameList::default(),
            languages_server_to_client: NameList::default(),
            first_kex_packet_follows: false,
        }
    }

    /// The ten name-lists, in wire order.
    fn name_lists(&self) -> [&NameList; 10] {
        [
            &self.kex_algorithms,
            &self.server_host_key_algorithms,
            &self.encryption_client_to_server,
            &self.encryption_server_to_client,
            &self.mac_client_to_server,
            &self.mac_server_to_client,
            &self.compression_client_to_server,
            &self.compression_server_to_client,
            &self.languages_client_to_server,
            &self.languages_server_to_client,
        ]
    }

    /// The message with its name-lists borrowed.
    pub(crate) fn as_ref(&self) -> KexInitRef<'_> {
        KexInitRef {
            cookie: self.cookie,
            name_lists: self.name_lists().map(NameList::as_ref),
            first_kex_packet_follows: self.first_kex_packet_follows,
        }
    }

    /// Parse a KEXINIT payload (starting at the message-number byte), the
    /// name-lists as slices of `payload`.
    pub fn parse_borrowed(payload: &[u8]) -> Result<KexInitRef<'_>> {
        check_len(payload, 1 + 16)?;
        if payload[0] != SSH_MSG_KEXINIT {
            return Err(WireError::UnknownType {
                tag: payload[0] as u16,
            });
        }
        let mut cookie = [0u8; 16];
        cookie.copy_from_slice(&payload[1..17]);
        let mut offset = 17;
        let mut name_lists = [NameListRef::default(); 10];
        for list in &mut name_lists {
            let (parsed, consumed) = NameList::parse_borrowed(&payload[offset..])?;
            *list = parsed;
            offset += consumed;
        }
        // The flag, then the reserved uint32 (ignored).
        check_len(payload, offset + 1 + 4)?;
        Ok(KexInitRef {
            cookie,
            name_lists,
            first_kex_packet_follows: payload[offset] != 0,
        })
    }

    /// The message holding `lists`, given in wire order.
    fn from_parts(cookie: [u8; 16], lists: [NameList; 10], first_kex_packet_follows: bool) -> Self {
        let [kex_algorithms, server_host_key_algorithms, encryption_client_to_server, encryption_server_to_client, mac_client_to_server, mac_server_to_client, compression_client_to_server, compression_server_to_client, languages_client_to_server, languages_server_to_client] =
            lists;
        KexInit {
            cookie,
            kex_algorithms,
            server_host_key_algorithms,
            encryption_client_to_server,
            encryption_server_to_client,
            mac_client_to_server,
            mac_server_to_client,
            compression_client_to_server,
            compression_server_to_client,
            languages_client_to_server,
            languages_server_to_client,
            first_kex_packet_follows,
        }
    }

    /// Append the KEXINIT payload (message number included) to `out`, carrying `cookie` in place of
    /// the stored one — a server sends the same lists with a fresh cookie
    /// on every connection, and should not have to clone them to do so.
    pub(crate) fn emit_payload(&self, cookie: &[u8; 16], out: &mut Vec<u8>) {
        out.push(SSH_MSG_KEXINIT);
        out.extend_from_slice(cookie);
        for list in self.name_lists() {
            list.emit(out);
        }
        out.push(u8::from(self.first_kex_packet_follows));
        out.extend_from_slice(&0u32.to_be_bytes());
    }

    /// Append the KEXINIT, framed as a binary packet, to `out` (see
    /// `Self::emit_payload` for `cookie`).
    pub fn emit_packet(&self, cookie: &[u8; 16], out: &mut Vec<u8>) {
        emit_framed(out, |out| self.emit_payload(cookie, out));
    }
}

/// A [`KexInit`] whose name-lists borrow their text — from a packet payload
/// ([`KexInit::parse_borrowed`]), an owned message (`KexInit::as_ref`) or
/// a stored record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KexInitRef<'a> {
    /// 16 random bytes; not part of any identifier.
    pub cookie: [u8; 16],
    /// The ten name-lists, in wire order (the field order of [`KexInit`]).
    pub name_lists: [NameListRef<'a>; 10],
    /// Whether a guessed key-exchange packet follows.
    pub first_kex_packet_follows: bool,
}

impl<'a> KexInitRef<'a> {
    /// Positions in [`Self::name_lists`] of the lists that describe the
    /// *server*: key-exchange, host key, then the server-to-client cipher /
    /// MAC / compression preferences.
    pub(crate) const SERVER_CAPABILITY_LISTS: [usize; 5] = [0, 1, 3, 5, 7];

    /// [`KexInit::server_capability_lists`], borrowed.
    pub(crate) fn server_capability_lists(&self) -> [NameListRef<'a>; 5] {
        Self::SERVER_CAPABILITY_LISTS.map(|at| self.name_lists[at])
    }

    /// Append [`KexInit::capability_fingerprint`]'s bytes to `out`.
    pub fn emit_capability_fingerprint(&self, out: &mut Vec<u8>) {
        for (index, list) in self.server_capability_lists().into_iter().enumerate() {
            if index > 0 {
                out.push(b';');
            }
            out.extend_from_slice(list.as_bytes());
        }
    }

    /// Copy the message into an owned [`KexInit`].
    pub fn to_owned(&self) -> KexInit {
        KexInit::from_parts(
            self.cookie,
            self.name_lists.map(|list| list.to_owned()),
            self.first_kex_packet_follows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssh::parse_packet;

    fn parse_payload(payload: &[u8]) -> Result<KexInit> {
        KexInit::parse_borrowed(payload).map(|kex| kex.to_owned())
    }

    fn to_payload(kex: &KexInit) -> Vec<u8> {
        let mut out = Vec::new();
        kex.emit_payload(&kex.cookie, &mut out);
        out
    }

    #[test]
    fn roundtrip_via_packet() {
        let mut kex = KexInit::typical_openssh();
        kex.cookie = [7u8; 16];
        let mut bytes = Vec::new();
        kex.emit_packet(&kex.cookie, &mut bytes);
        let (payload, consumed) = parse_packet(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(parse_payload(payload).unwrap(), kex);
    }

    #[test]
    fn fingerprint_ignores_cookie() {
        let mut a = KexInit::typical_openssh();
        let mut b = KexInit::typical_openssh();
        a.cookie = [1u8; 16];
        b.cookie = [2u8; 16];
        assert_eq!(a.capability_fingerprint(), b.capability_fingerprint());
    }

    #[test]
    fn fingerprint_sees_preference_order() {
        let a = KexInit::typical_openssh();
        let mut b = KexInit::typical_openssh();
        b.encryption_server_to_client = NameList::new([
            "aes128-ctr",
            "chacha20-poly1305@openssh.com",
            "aes256-gcm@openssh.com",
        ]);
        assert_ne!(a.capability_fingerprint(), b.capability_fingerprint());
    }

    #[test]
    fn fingerprint_ignores_client_to_server_lists() {
        // Only the server-to-client direction describes the server.
        let a = KexInit::typical_openssh();
        let mut b = KexInit::typical_openssh();
        b.mac_client_to_server = NameList::new(["hmac-md5"]);
        assert_eq!(a.capability_fingerprint(), b.capability_fingerprint());
    }

    #[test]
    fn wrong_message_number_is_rejected() {
        let mut payload = to_payload(&KexInit::typical_openssh());
        payload[0] = 21;
        assert!(matches!(
            parse_payload(&payload),
            Err(WireError::UnknownType { .. })
        ));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let payload = to_payload(&KexInit::typical_openssh());
        for cut in [0, 5, 17, 40, payload.len() - 1] {
            assert!(parse_payload(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn first_kex_packet_follows_roundtrips() {
        let mut kex = KexInit::typical_openssh();
        kex.first_kex_packet_follows = true;
        let parsed = parse_payload(&to_payload(&kex)).unwrap();
        assert!(parsed.first_kex_packet_follows);
    }
}
