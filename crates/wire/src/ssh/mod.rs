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
mod kexinit;
mod names;
mod packet;

pub use banner::{Banner, BannerRef};
pub use hostkey::{HostKey, HostKeyAlgorithm, HostKeyRef};
pub use kexinit::{KexInit, KexInitRef};
pub use names::{NameList, NameListRef};
pub use packet::{packet_payloads, parse_packet, SSH_MSG_KEXINIT, SSH_MSG_KEX_ECDH_REPLY};

/// Everything a scanner learns from one SSH connection attempt.
///
/// This is the unit the identifier-extraction code in `alias-core` consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SshObservation {
    /// The server identification banner.
    pub banner: Banner,
    /// The server's `SSH_MSG_KEXINIT`, if the exchange got that far.
    pub kex_init: Option<KexInit>,
    /// The server host key from the key-exchange reply, if obtained.
    pub host_key: Option<HostKey>,
}

impl SshObservation {
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
