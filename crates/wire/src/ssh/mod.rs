//! SSH transport layer wire formats (RFC 4253).
//!
//! The ZGrab-like service scan completes the TCP handshake, exchanges
//! identification banners, then exchanges `SSH_MSG_KEXINIT` messages and —
//! for servers willing to continue — receives the key-exchange reply that
//! carries the server **host key**.  Everything up to that point is plain
//! text, which is exactly why the paper's technique only needs to complete
//! the handshake and read a few messages.
//!
//! The SSH identifier in the paper is assembled from:
//!
//! 1. the identification banner ([`banner::Banner`]),
//! 2. the server-to-client algorithm name-lists of `SSH_MSG_KEXINIT`
//!    ([`kexinit::KexInit`]), which RFC 4253 requires to be listed in
//!    preference order and therefore fingerprint the implementation and its
//!    configuration, and
//! 3. the server host key blob ([`hostkey::HostKey`]).

pub mod banner;
pub mod hostkey;
pub mod kexinit;
pub mod names;
pub mod packet;

pub use banner::{Banner, BannerRef};
pub use hostkey::{HostKey, HostKeyAlgorithm, HostKeyRef};
pub use kexinit::{KexInit, KexInitRef};
pub use names::{NameList, NameListRef};
pub use packet::{SshPacket, SSH_MSG_KEXINIT, SSH_MSG_KEX_ECDH_REPLY};

use serde::{Deserialize, Serialize};

/// Everything a scanner learns from one SSH connection attempt.
///
/// This is the unit the identifier-extraction code in `alias-core` consumes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SshObservation {
    /// The server identification banner.
    pub banner: Banner,
    /// The server's `SSH_MSG_KEXINIT`, if the exchange got that far.
    pub kex_init: Option<KexInit>,
    /// The server host key from the key-exchange reply, if obtained.
    pub host_key: Option<HostKey>,
}

impl SshObservation {
    /// Whether the observation carries enough material to build the full SSH
    /// identifier of the paper (banner + capabilities + host key).
    pub fn is_complete(&self) -> bool {
        self.kex_init.is_some() && self.host_key.is_some()
    }

    /// The observation with every part borrowed.
    pub fn as_ref(&self) -> SshObservationRef<'_> {
        SshObservationRef {
            banner: self.banner.as_ref(),
            kex_init: self.kex_init.as_ref().map(KexInit::as_ref),
            host_key: self.host_key.as_ref().map(HostKey::as_ref),
        }
    }
}

/// An [`SshObservation`] whose parts borrow their bytes: what a scanner
/// reads off a session buffer, what an owned observation lends
/// ([`SshObservation::as_ref`]) and what a stored record decodes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SshObservationRef<'a> {
    /// The server identification banner.
    pub banner: BannerRef<'a>,
    /// The server's `SSH_MSG_KEXINIT`, if the exchange got that far.
    pub kex_init: Option<KexInitRef<'a>>,
    /// The server host key from the key-exchange reply, if obtained.
    pub host_key: Option<HostKeyRef<'a>>,
}

impl SshObservationRef<'_> {
    /// Copy the observation into an owned [`SshObservation`].
    pub fn to_owned(&self) -> SshObservation {
        SshObservation {
            banner: self.banner.to_owned(),
            kex_init: self.kex_init.map(|kex| kex.to_owned()),
            host_key: self.host_key.map(|key| key.to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_completeness() {
        let banner = Banner::new("OpenSSH_8.9p1", Some("Ubuntu-3ubuntu0.1")).unwrap();
        let partial = SshObservation {
            banner: banner.clone(),
            kex_init: None,
            host_key: None,
        };
        assert!(!partial.is_complete());

        let full = SshObservation {
            banner,
            kex_init: Some(KexInit::typical_openssh()),
            host_key: Some(HostKey::new(HostKeyAlgorithm::Ed25519, vec![7u8; 32])),
        };
        assert!(full.is_complete());
    }
}
