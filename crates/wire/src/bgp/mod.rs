//! BGP-4 message wire formats (RFC 4271) and capability advertisement
//! (RFC 5492).
//!
//! The paper's BGP technique only needs the unsolicited traffic a BGP
//! speaker emits towards an unknown peer that merely completes the TCP
//! handshake on port 179: an **OPEN** message followed (typically) by a
//! **NOTIFICATION** with *Cease / Connection Rejected*.  Those two message
//! types, plus the common message header, are implemented here in full; the
//! remaining message types (UPDATE, KEEPALIVE) are recognised by the header
//! parser so a conforming-but-chatty speaker does not break the scanner.
//!
//! The fields highlighted by the paper as forming the *BGP identifier* —
//! Version, My Autonomous System, Hold Time, BGP Identifier, the optional
//! parameters (capabilities) and the OPEN message length — are all exposed
//! on [`OpenMessage`].

mod capability;
mod notification;
mod open;

pub use capability::{Capability, CapabilityRef, OptionalParameter, ParamRef, WireParams};
pub(crate) use notification::NotificationRef;
pub use notification::{CeaseSubcode, NotificationMessage};
pub use open::{OpenMessage, OpenRef, AS_TRANS};

use crate::error::check_len;
use crate::{Result, WireError};

/// Length of the fixed BGP message header (marker + length + type).
pub const BGP_HEADER_LEN: usize = 19;
/// Maximum BGP message length permitted by RFC 4271.
pub(crate) const BGP_MAX_MESSAGE_LEN: usize = 4096;
/// The all-ones marker required by RFC 4271 §4.1.
pub(crate) const BGP_MARKER: [u8; 16] = [0xff; 16];

/// The BGP message type octet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageType {
    /// OPEN (1).
    Open,
    /// UPDATE (2).
    Update,
    /// NOTIFICATION (3).
    Notification,
    /// KEEPALIVE (4).
    Keepalive,
}

impl MessageType {
    /// Wire value of the message type.
    pub fn code(self) -> u8 {
        match self {
            MessageType::Open => 1,
            MessageType::Update => 2,
            MessageType::Notification => 3,
            MessageType::Keepalive => 4,
        }
    }

    /// Parse a wire value.
    pub(crate) fn from_code(code: u8) -> Result<Self> {
        match code {
            1 => Ok(MessageType::Open),
            2 => Ok(MessageType::Update),
            3 => Ok(MessageType::Notification),
            4 => Ok(MessageType::Keepalive),
            other => Err(WireError::UnknownType { tag: other as u16 }),
        }
    }
}

/// The common BGP message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageHeader {
    /// Total message length, header included.
    pub length: u16,
    /// Message type.
    pub message_type: MessageType,
}

impl MessageHeader {
    /// Parse the 19-byte header from the front of `buf`, validating the
    /// marker and the length bounds.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        check_len(buf, BGP_HEADER_LEN)?;
        if buf[..16] != BGP_MARKER {
            return Err(WireError::BadValue {
                field: "bgp.marker",
            });
        }
        let length = u16::from_be_bytes([buf[16], buf[17]]);
        if (length as usize) < BGP_HEADER_LEN || length as usize > BGP_MAX_MESSAGE_LEN {
            return Err(WireError::BadLength {
                field: "bgp.length",
            });
        }
        let message_type = MessageType::from_code(buf[18])?;
        Ok(MessageHeader {
            length,
            message_type,
        })
    }

    /// Emit the header to `out`.
    pub(crate) fn emit(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&BGP_MARKER);
        out.extend_from_slice(&self.length.to_be_bytes());
        out.push(self.message_type.code());
    }
}

/// Any BGP message the scanner can receive after the handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BgpMessage {
    /// An OPEN message.
    Open(OpenMessage),
    /// A NOTIFICATION message.
    Notification(NotificationMessage),
    /// A KEEPALIVE message (no body).
    Keepalive,
}

impl BgpMessage {
    /// Parse one BGP message from the front of `buf`.
    ///
    /// Returns the message and the number of bytes consumed, so a stream of
    /// back-to-back messages (OPEN immediately followed by NOTIFICATION, as
    /// observed in the paper's scans) can be walked with repeated calls.
    pub fn parse(buf: &[u8]) -> Result<(Self, usize)> {
        let (message, consumed) = Self::parse_borrowed(buf)?;
        Ok((message.to_owned(), consumed))
    }

    /// [`Self::parse`] without the copies: the message read in place.
    pub fn parse_borrowed(buf: &[u8]) -> Result<(BgpMessageRef<'_>, usize)> {
        let header = MessageHeader::parse(buf)?;
        let total = header.length as usize;
        check_len(buf, total)?;
        let body = &buf[BGP_HEADER_LEN..total];
        let msg = match header.message_type {
            MessageType::Open => BgpMessageRef::Open(OpenMessage::parse_borrowed(body)?),
            MessageType::Notification => {
                BgpMessageRef::Notification(NotificationMessage::parse_borrowed(body)?)
            }
            MessageType::Keepalive => {
                if !body.is_empty() {
                    return Err(WireError::BadLength {
                        field: "keepalive.body",
                    });
                }
                BgpMessageRef::Keepalive
            }
            MessageType::Update => {
                return Err(WireError::UnknownType {
                    tag: MessageType::Update.code() as u16,
                })
            }
        };
        Ok((msg, total))
    }

    /// Parse all messages in a captured byte stream, stopping at the first
    /// error or when the buffer is exhausted.
    pub fn parse_stream(buf: &[u8]) -> Vec<BgpMessage> {
        Self::messages(buf)
            .map(|message| message.to_owned())
            .collect()
    }

    /// The messages of a captured byte stream, read in place, stopping at
    /// the first error or when the buffer is exhausted.
    pub fn messages(mut buf: &[u8]) -> impl Iterator<Item = BgpMessageRef<'_>> {
        std::iter::from_fn(move || {
            let (message, consumed) = BgpMessage::parse_borrowed(buf).ok()?;
            buf = &buf[consumed..];
            Some(message)
        })
    }
}

/// A [`BgpMessage`] read in place ([`BgpMessage::parse_borrowed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BgpMessageRef<'a> {
    /// An OPEN message.
    Open(OpenRef<'a>),
    /// A NOTIFICATION message.
    Notification(NotificationRef<'a>),
    /// A KEEPALIVE message (no body).
    Keepalive,
}

impl BgpMessageRef<'_> {
    /// Copy the message into an owned [`BgpMessage`].
    pub fn to_owned(&self) -> BgpMessage {
        match *self {
            BgpMessageRef::Open(open) => BgpMessage::Open(open.to_owned()),
            BgpMessageRef::Notification(n) => BgpMessage::Notification(n.to_owned()),
            BgpMessageRef::Keepalive => BgpMessage::Keepalive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn sample_open() -> OpenMessage {
        OpenMessage {
            version: 4,
            my_as: 23_456,
            hold_time: 90,
            bgp_identifier: Ipv4Addr::new(148, 170, 0, 33),
            optional_parameters: vec![
                OptionalParameter::Capability(Capability::RouteRefreshCisco),
                OptionalParameter::Capability(Capability::RouteRefresh),
            ],
        }
    }

    #[test]
    fn header_roundtrip() {
        let mut out = Vec::new();
        let header = MessageHeader {
            length: 23,
            message_type: MessageType::Notification,
        };
        header.emit(&mut out);
        assert_eq!(out.len(), BGP_HEADER_LEN);
        assert_eq!(MessageHeader::parse(&out).unwrap(), header);
    }

    #[test]
    fn header_rejects_bad_marker() {
        let mut out = Vec::new();
        MessageHeader {
            length: 19,
            message_type: MessageType::Keepalive,
        }
        .emit(&mut out);
        out[0] = 0;
        assert!(matches!(
            MessageHeader::parse(&out),
            Err(WireError::BadValue { .. })
        ));
    }

    #[test]
    fn header_rejects_bad_length() {
        let mut out = Vec::new();
        MessageHeader {
            length: 19,
            message_type: MessageType::Keepalive,
        }
        .emit(&mut out);
        out[16] = 0;
        out[17] = 5;
        assert!(matches!(
            MessageHeader::parse(&out),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn keepalive_roundtrip() {
        let mut bytes = Vec::new();
        MessageHeader {
            length: BGP_HEADER_LEN as u16,
            message_type: MessageType::Keepalive,
        }
        .emit(&mut bytes);
        let (msg, consumed) = BgpMessage::parse(&bytes).unwrap();
        assert_eq!(msg, BgpMessage::Keepalive);
        assert_eq!(consumed, BGP_HEADER_LEN);
    }

    #[test]
    fn stream_of_open_then_notification() {
        // This is the exact exchange Figure 2 of the paper dissects: an OPEN
        // followed by a NOTIFICATION (Cease / Connection Rejected).
        let mut stream = sample_open().to_bytes();
        stream.extend_from_slice(
            &NotificationMessage::cease(CeaseSubcode::ConnectionRejected).to_bytes(),
        );
        let msgs = BgpMessage::parse_stream(&stream);
        assert_eq!(msgs.len(), 2);
        assert!(matches!(msgs[0], BgpMessage::Open(_)));
        assert!(matches!(msgs[1], BgpMessage::Notification(_)));
    }

    #[test]
    fn stream_stops_at_garbage() {
        let mut stream = sample_open().to_bytes();
        stream.extend_from_slice(&[0xab; 7]);
        let msgs = BgpMessage::parse_stream(&stream);
        assert_eq!(msgs.len(), 1);
    }

    #[test]
    fn update_messages_are_not_parsed() {
        let mut out = Vec::new();
        MessageHeader {
            length: 23,
            message_type: MessageType::Update,
        }
        .emit(&mut out);
        out.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            BgpMessage::parse(&out),
            Err(WireError::UnknownType { .. })
        ));
    }
}
