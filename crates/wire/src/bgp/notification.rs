//! The BGP NOTIFICATION message (RFC 4271 §4.5).
//!
//! The paper observes that most BGP speakers that answer an unsolicited
//! connection send an OPEN immediately followed by a NOTIFICATION with major
//! error code *Cease* and subcode *Connection Rejected* before closing.

use super::{MessageHeader, MessageType, BGP_HEADER_LEN};
use crate::error::check_len;
use crate::Result;
use serde::{Deserialize, Serialize};

/// Cease subcodes (RFC 4486).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CeaseSubcode {
    /// Maximum number of prefixes reached (1).
    MaxPrefixes,
    /// Administrative shutdown (2).
    AdminShutdown,
    /// Peer de-configured (3).
    PeerDeconfigured,
    /// Administrative reset (4).
    AdminReset,
    /// Connection rejected (5) — the subcode the paper's scans observe.
    ConnectionRejected,
    /// Other configuration change (6).
    ConfigChange,
    /// Connection collision resolution (7).
    CollisionResolution,
    /// Out of resources (8).
    OutOfResources,
    /// Unassigned / unknown subcode.
    Other(u8),
}

impl CeaseSubcode {
    /// Wire value of the subcode.
    pub fn code(self) -> u8 {
        match self {
            CeaseSubcode::MaxPrefixes => 1,
            CeaseSubcode::AdminShutdown => 2,
            CeaseSubcode::PeerDeconfigured => 3,
            CeaseSubcode::AdminReset => 4,
            CeaseSubcode::ConnectionRejected => 5,
            CeaseSubcode::ConfigChange => 6,
            CeaseSubcode::CollisionResolution => 7,
            CeaseSubcode::OutOfResources => 8,
            CeaseSubcode::Other(v) => v,
        }
    }

    /// Interpret a wire value.
    pub fn from_code(code: u8) -> Self {
        match code {
            1 => CeaseSubcode::MaxPrefixes,
            2 => CeaseSubcode::AdminShutdown,
            3 => CeaseSubcode::PeerDeconfigured,
            4 => CeaseSubcode::AdminReset,
            5 => CeaseSubcode::ConnectionRejected,
            6 => CeaseSubcode::ConfigChange,
            7 => CeaseSubcode::CollisionResolution,
            8 => CeaseSubcode::OutOfResources,
            other => CeaseSubcode::Other(other),
        }
    }
}

/// A parsed NOTIFICATION message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NotificationMessage {
    /// Major error code (6 = Cease).
    pub error_code: u8,
    /// Error subcode, interpretation depends on the major code.
    pub error_subcode: u8,
    /// Diagnostic data, rarely present for Cease.
    pub data: Vec<u8>,
}

impl NotificationMessage {
    /// Major error code for Cease (RFC 4271 §6.7).
    pub const ERROR_CEASE: u8 = 6;

    /// Build a Cease notification with the given subcode and no data.
    pub fn cease(subcode: CeaseSubcode) -> Self {
        NotificationMessage {
            error_code: Self::ERROR_CEASE,
            error_subcode: subcode.code(),
            data: Vec::new(),
        }
    }

    /// Whether this is the Cease / Connection Rejected notification the
    /// paper's scans observe.
    pub fn is_connection_rejected(&self) -> bool {
        self.error_code == Self::ERROR_CEASE
            && CeaseSubcode::from_code(self.error_subcode) == CeaseSubcode::ConnectionRejected
    }

    /// Parse a NOTIFICATION body (everything after the common header).
    pub fn parse_body(body: &[u8]) -> Result<Self> {
        Self::parse_borrowed(body).map(|notification| notification.to_owned())
    }

    /// [`Self::parse_body`] without the copy: the data as a slice of `body`.
    pub fn parse_borrowed(body: &[u8]) -> Result<NotificationRef<'_>> {
        check_len(body, 2)?;
        Ok(NotificationRef {
            error_code: body[0],
            error_subcode: body[1],
            data: &body[2..],
        })
    }

    /// Emit the full message (header + body) to a freshly allocated vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.emit(&mut out);
        out
    }

    /// Append the full message (header + body) to `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        MessageHeader {
            length: (BGP_HEADER_LEN + 2 + self.data.len()) as u16,
            message_type: MessageType::Notification,
        }
        .emit(out);
        out.push(self.error_code);
        out.push(self.error_subcode);
        out.extend_from_slice(&self.data);
    }
}

/// A [`NotificationMessage`] whose diagnostic data borrows the message
/// body ([`NotificationMessage::parse_borrowed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotificationRef<'a> {
    /// Major error code (6 = Cease).
    pub error_code: u8,
    /// Error subcode.
    pub error_subcode: u8,
    /// Diagnostic data.
    pub data: &'a [u8],
}

impl NotificationRef<'_> {
    /// Copy the message into an owned [`NotificationMessage`].
    pub fn to_owned(&self) -> NotificationMessage {
        NotificationMessage {
            error_code: self.error_code,
            error_subcode: self.error_subcode,
            data: self.data.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::BgpMessage;

    #[test]
    fn figure2_notification_length_is_21() {
        // Figure 2: NOTIFICATION, Length: 21, Cease / Connection Rejected.
        let n = NotificationMessage::cease(CeaseSubcode::ConnectionRejected);
        let bytes = n.to_bytes();
        assert_eq!(bytes.len(), 21);
        assert!(n.is_connection_rejected());
    }

    #[test]
    fn notification_roundtrip() {
        let n = NotificationMessage {
            error_code: NotificationMessage::ERROR_CEASE,
            error_subcode: CeaseSubcode::AdminShutdown.code(),
            data: vec![1, 2, 3],
        };
        let bytes = n.to_bytes();
        let (msg, consumed) = BgpMessage::parse(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(msg, BgpMessage::Notification(n));
    }

    #[test]
    fn subcode_roundtrip() {
        for code in 0u8..=10 {
            assert_eq!(CeaseSubcode::from_code(code).code(), code);
        }
    }

    #[test]
    fn non_cease_is_not_connection_rejected() {
        let n = NotificationMessage {
            error_code: 2,
            error_subcode: 5,
            data: vec![],
        };
        assert!(!n.is_connection_rejected());
    }

    #[test]
    fn truncated_body_is_rejected() {
        assert!(NotificationMessage::parse_body(&[6]).is_err());
    }
}
