//! The BGP NOTIFICATION message (RFC 4271 §4.5).
//!
//! The paper observes that most BGP speakers that answer an unsolicited
//! connection send an OPEN immediately followed by a NOTIFICATION with major
//! error code *Cease* and subcode *Connection Rejected* before closing.

use super::{MessageHeader, MessageType, BGP_HEADER_LEN};
use crate::error::check_len;
use crate::Result;

/// Cease subcodes (RFC 4486).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// Check a NOTIFICATION body (everything after the common header): an
    /// error code and a subcode, then any data.
    pub(crate) fn check_body(body: &[u8]) -> Result<()> {
        check_len(body, 2)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::{parse_message, BgpMessageRef};
    use crate::emitted;

    #[test]
    fn figure2_notification_length_is_21() {
        // Figure 2: NOTIFICATION, Length: 21, Cease / Connection Rejected.
        let cease = NotificationMessage::cease(CeaseSubcode::ConnectionRejected);
        let bytes = emitted(|out| cease.emit(out));
        assert_eq!(bytes.len(), 21);
        assert_eq!(
            bytes[BGP_HEADER_LEN..],
            [NotificationMessage::ERROR_CEASE, 5]
        );
    }

    #[test]
    fn notification_roundtrip() {
        let n = NotificationMessage {
            error_code: NotificationMessage::ERROR_CEASE,
            error_subcode: CeaseSubcode::AdminShutdown.code(),
            data: vec![1, 2, 3],
        };
        let bytes = emitted(|out| n.emit(out));
        assert_eq!(bytes[BGP_HEADER_LEN..], [6, 2, 1, 2, 3]);
        let (msg, consumed) = parse_message(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(msg, BgpMessageRef::Notification);
    }

    #[test]
    fn subcode_roundtrip() {
        for code in 0u8..=10 {
            assert_eq!(CeaseSubcode::from_code(code).code(), code);
        }
    }

    #[test]
    fn truncated_body_is_rejected() {
        assert!(NotificationMessage::check_body(&[6]).is_err());
    }
}
