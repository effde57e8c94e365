//! # alias-wire
//!
//! Wire formats used by the alias-resolution toolkit.
//!
//! The crate follows the *representation / buffer* split popularised by
//! smoltcp: every protocol message has
//!
//! * a borrowed **packet view** (where useful) that interprets a byte slice
//!   in place, and
//! * an owned **`Repr`** (representation) struct holding the parsed,
//!   high-level values, with `parse` and `emit` methods that convert between
//!   the two.
//!
//! The protocols implemented are exactly those the paper relies on:
//!
//! * [`bgp`] — the BGP-4 OPEN and NOTIFICATION messages (RFC 4271) plus the
//!   capabilities optional parameter (RFC 5492).  The OPEN message carries
//!   the fields combined into the *BGP identifier* used for alias grouping.
//! * [`ssh`] — the SSH transport layer (RFC 4253): identification banner,
//!   binary packet framing, the `SSH_MSG_KEXINIT` algorithm-preference
//!   name-lists and host-key blobs.  Together these form the *SSH
//!   identifier*.  A [`ssh::NameList`] holds its comma-joined wire text
//!   (one `String` a list, and that string is its serde form), and every
//!   SSH message has an `emit_*` that appends to a caller's buffer, so a
//!   simulated server writes a whole session without an intermediate `Vec`.
//! * [`snmp`] — a minimal SNMPv3 message codec (RFC 3412/3414) sufficient
//!   for unauthenticated engine-ID discovery, the identifier used by the
//!   prior protocol-centric technique the paper compares against.  It sits
//!   on [`ber`], which has no tree: a borrowed reader ([`ber::Tlv`]) and
//!   writers that append to the caller's buffer.
//! * [`ip`], [`tcp`], [`icmp`] — simplified network/transport headers used
//!   by the scanning substrate; notably the IPv4 Identification field that
//!   IPID-based baselines (Ally, MIDAR) sample.
//!
//! All parsing is bounds-checked and returns [`WireError`] rather than
//! panicking, so malformed or truncated responses observed by a scanner
//! degrade gracefully.

pub mod ber;
pub mod bgp;
pub mod error;
pub mod hex;
pub mod icmp;
pub mod ip;
pub mod snmp;
pub mod ssh;
pub mod tcp;

pub use error::WireError;

/// Convenience result alias used across the crate.
pub type Result<T> = core::result::Result<T, WireError>;
