//! The BGP OPEN message (RFC 4271 §4.2).

use super::capability::{Capability, OptionalParameter, ParamRef, WireParams};
use super::{MessageHeader, MessageType, BGP_HEADER_LEN, BGP_MARKER};
use crate::error::check_len;
use crate::{Result, WireError};
use std::net::Ipv4Addr;

/// Minimum length of an OPEN message body (version .. opt parm len).
const OPEN_MIN_BODY_LEN: usize = 10;

/// The AS number used in the `My Autonomous System` field by speakers whose
/// real ASN does not fit in two octets (AS_TRANS, RFC 6793).
pub const AS_TRANS: u16 = 23_456;

/// A parsed BGP OPEN message.
///
/// Every field of the OPEN message is host-wide configuration: the paper
/// combines all of them (together with the message length) into the unique
/// identifier used to group aliases and dual-stack addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenMessage {
    /// Protocol version; 4 for every deployed speaker.
    pub version: u8,
    /// The two-octet `My Autonomous System` field ([`AS_TRANS`] when the
    /// speaker's ASN needs four octets).
    pub my_as: u16,
    /// Proposed hold time in seconds.
    pub hold_time: u16,
    /// The BGP Identifier: a 4-octet value that RFC 4271 requires to be the
    /// same on every local interface of the speaker — the core of the alias
    /// signal.
    pub bgp_identifier: Ipv4Addr,
    /// Optional parameters, typically capability advertisements.
    pub optional_parameters: Vec<OptionalParameter>,
}

impl OpenMessage {
    /// The speaker's AS number, preferring the four-octet capability when
    /// advertised (RFC 6793), falling back to the two-octet field.
    pub fn effective_asn(&self) -> u32 {
        for param in &self.optional_parameters {
            if let OptionalParameter::Capability(Capability::FourOctetAs { asn }) = param {
                return *asn;
            }
        }
        self.my_as as u32
    }

    /// Total emitted message length in bytes (header included).  Part of the
    /// identifier because it summarises the optional-parameter layout.
    pub fn wire_length(&self) -> u16 {
        let params = OptionalParameter::emit_all(&self.optional_parameters);
        (BGP_HEADER_LEN + OPEN_MIN_BODY_LEN + params.len()) as u16
    }

    /// Parse an OPEN message body (everything after the common header), the
    /// optional parameters checked and left in `body`.
    pub(crate) fn parse_borrowed(body: &[u8]) -> Result<OpenRef<'_>> {
        check_len(body, OPEN_MIN_BODY_LEN)?;
        let version = body[0];
        if version != 4 {
            return Err(WireError::BadValue {
                field: "open.version",
            });
        }
        let my_as = u16::from_be_bytes([body[1], body[2]]);
        let hold_time = u16::from_be_bytes([body[3], body[4]]);
        // RFC 4271: hold time MUST be 0 or at least 3 seconds.
        if hold_time == 1 || hold_time == 2 {
            return Err(WireError::BadValue {
                field: "open.hold_time",
            });
        }
        let bgp_identifier = Ipv4Addr::new(body[5], body[6], body[7], body[8]);
        let opt_len = body[9] as usize;
        if OPEN_MIN_BODY_LEN + opt_len != body.len() {
            return Err(WireError::BadLength {
                field: "open.opt_parm_len",
            });
        }
        Ok(OpenRef {
            version,
            my_as,
            hold_time,
            bgp_identifier,
            optional_parameters: WireParams::parse(&body[OPEN_MIN_BODY_LEN..])?,
        })
    }

    /// Append to `out` the full message (header + body) these fields and
    /// optional parameters make, for a speaker that keeps no
    /// `OpenMessage`.  The two lengths are patched in behind the
    /// parameters: nothing is allocated.
    pub fn emit_parts<'a>(
        version: u8,
        my_as: u16,
        hold_time: u16,
        bgp_identifier: Ipv4Addr,
        params: impl IntoIterator<Item = ParamRef<'a>>,
        out: &mut Vec<u8>,
    ) {
        let message_at = out.len();
        MessageHeader {
            length: 0,
            message_type: MessageType::Open,
        }
        .emit(out);
        out.push(version);
        out.extend_from_slice(&my_as.to_be_bytes());
        out.extend_from_slice(&hold_time.to_be_bytes());
        out.extend_from_slice(&bgp_identifier.octets());
        out.push(0);
        let params_at = out.len();
        for param in params {
            param.emit(out);
        }
        out[params_at - 1] = (out.len() - params_at) as u8;
        let length = (out.len() - message_at) as u16;
        out[message_at + BGP_MARKER.len()..][..2].copy_from_slice(&length.to_be_bytes());
    }
}

/// An [`OpenMessage`] read in place (`OpenMessage::parse_borrowed`): the
/// fixed fields by value, the optional parameters still on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenRef<'a> {
    /// Protocol version.
    pub version: u8,
    /// The two-octet `My Autonomous System` field.
    pub my_as: u16,
    /// Proposed hold time in seconds.
    pub hold_time: u16,
    /// The BGP Identifier.
    pub bgp_identifier: Ipv4Addr,
    /// Optional parameters, typically capability advertisements.
    pub optional_parameters: WireParams<'a>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::tests::{open_bytes, owned, parse_open};
    use crate::bgp::{messages, BgpMessageRef};

    /// The OPEN message dissected in Figure 2 of the paper.
    fn figure2_open() -> OpenMessage {
        OpenMessage {
            version: 4,
            my_as: AS_TRANS,
            hold_time: 90,
            bgp_identifier: Ipv4Addr::new(148, 170, 0, 33),
            optional_parameters: vec![
                OptionalParameter::Capability(Capability::RouteRefreshCisco),
                OptionalParameter::Capability(Capability::RouteRefresh),
            ],
        }
    }

    #[test]
    fn figure2_open_has_paper_wire_length() {
        // Figure 2 reports Length: 37 and Optional Parameters Length: 8.
        let open = figure2_open();
        assert_eq!(open.wire_length(), 37);
        let bytes = open_bytes(&open);
        assert_eq!(bytes.len(), 37);
        assert_eq!(bytes[37 - 9], 8); // optional parameters length octet
    }

    #[test]
    fn open_roundtrip() {
        let open = figure2_open();
        let bytes = open_bytes(&open);
        let (parsed, consumed) = parse_open(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(parsed, open);
    }

    #[test]
    fn emit_parts_appends_behind_what_the_buffer_holds() {
        // Both back-patched lengths are relative to the message, not the
        // buffer: a second message behind a first is the first again.
        let mut open = figure2_open();
        open.optional_parameters.push(OptionalParameter::Other {
            param_type: 9,
            value: vec![0xde, 0xad],
        });
        let once = open_bytes(&open);
        let mut twice = once.clone();
        let params = open.optional_parameters.iter().map(|p| p.as_ref());
        OpenMessage::emit_parts(4, open.my_as, 90, open.bgp_identifier, params, &mut twice);
        assert_eq!(twice, [once.clone(), once].concat());
        let opens: Vec<OpenMessage> = messages(&twice)
            .map(|message| match message {
                BgpMessageRef::Open(open) => owned(open),
                other => panic!("not an OPEN: {other:?}"),
            })
            .collect();
        assert_eq!(opens, [open.clone(), open]);
    }

    #[test]
    fn effective_asn_prefers_four_octet_capability() {
        let mut open = figure2_open();
        assert_eq!(open.effective_asn(), AS_TRANS as u32);
        open.optional_parameters
            .push(OptionalParameter::Capability(Capability::FourOctetAs {
                asn: 396_982,
            }));
        assert_eq!(open.effective_asn(), 396_982);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = open_bytes(&figure2_open());
        bytes[BGP_HEADER_LEN] = 3;
        assert!(matches!(
            parse_open(&bytes),
            Err(WireError::BadValue { .. })
        ));
    }

    #[test]
    fn rejects_reserved_hold_time() {
        let mut open = figure2_open();
        open.hold_time = 2;
        let bytes = open_bytes(&open);
        assert!(matches!(
            parse_open(&bytes),
            Err(WireError::BadValue { .. })
        ));
    }

    #[test]
    fn rejects_inconsistent_opt_parm_len() {
        let mut bytes = open_bytes(&figure2_open());
        // Claim fewer optional-parameter bytes than are present.
        bytes[BGP_HEADER_LEN + 9] = 4;
        assert!(matches!(
            parse_open(&bytes),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn open_without_optional_parameters() {
        let open = OpenMessage {
            version: 4,
            my_as: 65_001,
            hold_time: 180,
            bgp_identifier: Ipv4Addr::new(10, 0, 0, 1),
            optional_parameters: vec![],
        };
        assert_eq!(open.wire_length(), 29);
        let (parsed, _) = parse_open(&open_bytes(&open)).unwrap();
        assert_eq!(parsed, open);
    }
}
