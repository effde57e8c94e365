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
//! on [`OpenMessage`], and read in place by [`messages`] as an [`OpenRef`].

mod capability;
mod notification;
mod open;

pub use capability::{Capability, CapabilityRef, OptionalParameter, ParamRef, WireParams};
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

/// Parse one BGP message from the front of `buf`, in place.
///
/// Returns the message and the number of bytes consumed, so a stream of
/// back-to-back messages (OPEN immediately followed by NOTIFICATION, as
/// observed in the paper's scans) can be walked with repeated calls.
fn parse_message(buf: &[u8]) -> Result<(BgpMessageRef<'_>, usize)> {
    let header = MessageHeader::parse(buf)?;
    let total = header.length as usize;
    check_len(buf, total)?;
    let body = &buf[BGP_HEADER_LEN..total];
    let msg = match header.message_type {
        MessageType::Open => BgpMessageRef::Open(OpenMessage::parse_borrowed(body)?),
        MessageType::Notification => {
            NotificationMessage::check_body(body)?;
            BgpMessageRef::Notification
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

/// The messages of a captured byte stream, read in place, stopping at the
/// first error or when the buffer is exhausted.
pub fn messages(mut buf: &[u8]) -> impl Iterator<Item = BgpMessageRef<'_>> {
    std::iter::from_fn(move || {
        let (message, consumed) = parse_message(buf).ok()?;
        buf = &buf[consumed..];
        Some(message)
    })
}

/// Any BGP message the scanner can receive after the handshake, read in
/// place ([`messages`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BgpMessageRef<'a> {
    /// An OPEN message.
    Open(OpenRef<'a>),
    /// A NOTIFICATION message; the scanner only notes that one came.
    Notification,
    /// A KEEPALIVE message (no body).
    Keepalive,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    /// `open` as a speaker sends it.
    pub(crate) fn open_bytes(open: &OpenMessage) -> Vec<u8> {
        let mut out = Vec::new();
        let params = open.optional_parameters.iter().map(|param| param.as_ref());
        let OpenMessage {
            version,
            my_as,
            hold_time,
            bgp_identifier,
            ..
        } = *open;
        OpenMessage::emit_parts(version, my_as, hold_time, bgp_identifier, params, &mut out);
        out
    }

    /// `open`, copied.
    pub(crate) fn owned(open: OpenRef<'_>) -> OpenMessage {
        OpenMessage {
            version: open.version,
            my_as: open.my_as,
            hold_time: open.hold_time,
            bgp_identifier: open.bgp_identifier,
            optional_parameters: open
                .optional_parameters
                .iter()
                .map(|p| p.to_owned())
                .collect(),
        }
    }

    /// The OPEN message at the front of `buf`, owned, and the bytes it
    /// took.
    pub(crate) fn parse_open(buf: &[u8]) -> Result<(OpenMessage, usize)> {
        match parse_message(buf)? {
            (BgpMessageRef::Open(open), consumed) => Ok((owned(open), consumed)),
            (other, _) => panic!("not an OPEN: {other:?}"),
        }
    }

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
        let (msg, consumed) = parse_message(&bytes).unwrap();
        assert_eq!(msg, BgpMessageRef::Keepalive);
        assert_eq!(consumed, BGP_HEADER_LEN);
    }

    #[test]
    fn stream_of_open_then_notification() {
        // This is the exact exchange Figure 2 of the paper dissects: an OPEN
        // followed by a NOTIFICATION (Cease / Connection Rejected).
        let mut stream = open_bytes(&sample_open());
        NotificationMessage::cease(CeaseSubcode::ConnectionRejected).emit(&mut stream);
        let msgs: Vec<_> = messages(&stream).collect();
        assert_eq!(msgs.len(), 2);
        assert!(matches!(msgs[0], BgpMessageRef::Open(open) if owned(open) == sample_open()));
        assert_eq!(msgs[1], BgpMessageRef::Notification);
    }

    #[test]
    fn stream_stops_at_garbage() {
        let mut stream = open_bytes(&sample_open());
        stream.extend_from_slice(&[0xab; 7]);
        assert_eq!(messages(&stream).count(), 1);
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
            parse_message(&out),
            Err(WireError::UnknownType { .. })
        ));
    }
}
