//! BGP OPEN optional parameters and the capabilities parameter (RFC 5492).
//!
//! The set of capabilities a speaker advertises is host-wide configuration
//! state and therefore part of the BGP identifier the paper groups on.

use crate::error::check_len;
use crate::{Result, WireError};
use serde::{Deserialize, Serialize};

/// Optional-parameter type code for capabilities (RFC 5492).
const PARAM_TYPE_CAPABILITY: u8 = 2;

/// A single capability advertised inside the capabilities optional parameter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Capability {
    /// Multiprotocol extensions (code 1) with AFI/SAFI.
    Multiprotocol {
        /// Address family identifier (1 = IPv4, 2 = IPv6).
        afi: u16,
        /// Subsequent address family identifier (1 = unicast).
        safi: u8,
    },
    /// Route refresh (code 2).
    RouteRefresh,
    /// Four-octet AS number support (code 65) carrying the real ASN.
    FourOctetAs {
        /// The speaker's four-octet AS number.
        asn: u32,
    },
    /// Cisco pre-standard route refresh (code 128).
    RouteRefreshCisco,
    /// Any capability we do not model further; code and raw value retained
    /// because unknown capabilities still contribute to the identifier.
    Other {
        /// Capability code.
        code: u8,
        /// Raw capability value bytes.
        value: Vec<u8>,
    },
}

impl Capability {
    /// The capability with its value borrowed.
    pub fn as_ref(&self) -> CapabilityRef<'_> {
        match *self {
            Capability::Multiprotocol { afi, safi } => CapabilityRef::Multiprotocol { afi, safi },
            Capability::RouteRefresh => CapabilityRef::RouteRefresh,
            Capability::FourOctetAs { asn } => CapabilityRef::FourOctetAs { asn },
            Capability::RouteRefreshCisco => CapabilityRef::RouteRefreshCisco,
            Capability::Other { code, ref value } => CapabilityRef::Other { code, value },
        }
    }

    /// Capability code on the wire.
    pub fn code(&self) -> u8 {
        self.as_ref().code()
    }

    /// Capability value bytes on the wire (without the code/length header).
    pub fn value_bytes(&self) -> Vec<u8> {
        let mut value = Vec::new();
        self.emit_value(&mut value);
        value
    }

    /// Append [`Self::value_bytes`] to `out`.
    pub fn emit_value(&self, out: &mut Vec<u8>) {
        self.as_ref().emit_value(out);
    }

    /// Parse one capability from `buf`; returns the capability and bytes consumed.
    pub fn parse(buf: &[u8]) -> Result<(Self, usize)> {
        let (capability, consumed) = Self::parse_borrowed(buf)?;
        Ok((capability.to_owned(), consumed))
    }

    /// [`Self::parse`] without the copy: an unmodelled capability's value as
    /// a slice of `buf`.
    pub fn parse_borrowed(buf: &[u8]) -> Result<(CapabilityRef<'_>, usize)> {
        check_len(buf, 2)?;
        let code = buf[0];
        let len = buf[1] as usize;
        check_len(buf, 2 + len)?;
        let value = &buf[2..2 + len];
        let cap = match code {
            1 => {
                if len != 4 {
                    return Err(WireError::BadLength {
                        field: "capability.multiprotocol",
                    });
                }
                CapabilityRef::Multiprotocol {
                    afi: u16::from_be_bytes([value[0], value[1]]),
                    safi: value[3],
                }
            }
            2 => {
                if len != 0 {
                    return Err(WireError::BadLength {
                        field: "capability.route_refresh",
                    });
                }
                CapabilityRef::RouteRefresh
            }
            65 => {
                if len != 4 {
                    return Err(WireError::BadLength {
                        field: "capability.four_octet_as",
                    });
                }
                CapabilityRef::FourOctetAs {
                    asn: u32::from_be_bytes([value[0], value[1], value[2], value[3]]),
                }
            }
            128 => {
                if len != 0 {
                    return Err(WireError::BadLength {
                        field: "capability.route_refresh_cisco",
                    });
                }
                CapabilityRef::RouteRefreshCisco
            }
            other => CapabilityRef::Other { code: other, value },
        };
        Ok((cap, 2 + len))
    }

    /// Emit the capability (code, length, value) to `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        let value = self.value_bytes();
        out.push(self.code());
        out.push(value.len() as u8);
        out.extend_from_slice(&value);
    }
}

/// A [`Capability`] whose value, where it carries one, borrows its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapabilityRef<'a> {
    /// Multiprotocol extensions (code 1) with AFI/SAFI.
    Multiprotocol {
        /// Address family identifier.
        afi: u16,
        /// Subsequent address family identifier.
        safi: u8,
    },
    /// Route refresh (code 2).
    RouteRefresh,
    /// Four-octet AS number support (code 65) carrying the real ASN.
    FourOctetAs {
        /// The speaker's four-octet AS number.
        asn: u32,
    },
    /// Cisco pre-standard route refresh (code 128).
    RouteRefreshCisco,
    /// Any capability not modelled further.
    Other {
        /// Capability code.
        code: u8,
        /// Raw capability value bytes.
        value: &'a [u8],
    },
}

impl CapabilityRef<'_> {
    /// Capability code on the wire.
    pub fn code(&self) -> u8 {
        match self {
            CapabilityRef::Multiprotocol { .. } => 1,
            CapabilityRef::RouteRefresh => 2,
            CapabilityRef::FourOctetAs { .. } => 65,
            CapabilityRef::RouteRefreshCisco => 128,
            CapabilityRef::Other { code, .. } => *code,
        }
    }

    /// Append the capability value bytes (without the code/length header)
    /// to `out`.
    pub fn emit_value(&self, out: &mut Vec<u8>) {
        match self {
            CapabilityRef::Multiprotocol { afi, safi } => {
                out.extend_from_slice(&afi.to_be_bytes());
                out.push(0);
                out.push(*safi);
            }
            CapabilityRef::RouteRefresh | CapabilityRef::RouteRefreshCisco => {}
            CapabilityRef::FourOctetAs { asn } => out.extend_from_slice(&asn.to_be_bytes()),
            CapabilityRef::Other { value, .. } => out.extend_from_slice(value),
        }
    }

    /// Copy the capability into an owned [`Capability`].
    pub fn to_owned(&self) -> Capability {
        match *self {
            CapabilityRef::Multiprotocol { afi, safi } => Capability::Multiprotocol { afi, safi },
            CapabilityRef::RouteRefresh => Capability::RouteRefresh,
            CapabilityRef::FourOctetAs { asn } => Capability::FourOctetAs { asn },
            CapabilityRef::RouteRefreshCisco => Capability::RouteRefreshCisco,
            CapabilityRef::Other { code, value } => Capability::Other {
                code,
                value: value.to_vec(),
            },
        }
    }
}

/// One optional parameter inside a BGP OPEN message.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptionalParameter {
    /// A capabilities parameter holding exactly one capability.
    ///
    /// Real-world speakers commonly emit one capability per parameter (the
    /// layout shown in the paper's Figure 2); speakers that pack several
    /// capabilities into a single parameter are represented as multiple
    /// `Capability` entries by the parser.
    Capability(Capability),
    /// A parameter of a type we do not interpret.
    Other {
        /// Parameter type code.
        param_type: u8,
        /// Raw parameter value.
        value: Vec<u8>,
    },
}

impl OptionalParameter {
    /// The parameter with its value borrowed.
    pub fn as_ref(&self) -> ParamRef<'_> {
        match self {
            OptionalParameter::Capability(cap) => ParamRef::Capability(cap.as_ref()),
            OptionalParameter::Other { param_type, value } => ParamRef::Other {
                param_type: *param_type,
                value,
            },
        }
    }

    /// Parse the optional-parameters block of an OPEN message.
    pub fn parse_all(buf: &[u8]) -> Result<Vec<OptionalParameter>> {
        Ok(WireParams::parse(buf)?.to_owned())
    }

    /// Emit the parameter to `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        self.as_ref().emit(out);
    }

    /// Emit a whole list of parameters, returning the encoded block.
    pub fn emit_all(params: &[OptionalParameter]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in params {
            p.emit(&mut out);
        }
        out
    }
}

/// An [`OptionalParameter`] whose value borrows its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamRef<'a> {
    /// A capabilities parameter holding exactly one capability.
    Capability(CapabilityRef<'a>),
    /// A parameter of a type we do not interpret.
    Other {
        /// Parameter type code.
        param_type: u8,
        /// Raw parameter value.
        value: &'a [u8],
    },
}

impl ParamRef<'_> {
    /// Emit the parameter (type, length, value) to `out`, the lengths
    /// patched in behind the value: nothing is allocated.
    pub fn emit(&self, out: &mut Vec<u8>) {
        match *self {
            ParamRef::Capability(cap) => {
                out.extend_from_slice(&[PARAM_TYPE_CAPABILITY, 0, cap.code(), 0]);
                let value_at = out.len();
                cap.emit_value(out);
                let value_len = out.len() - value_at;
                out[value_at - 1] = value_len as u8;
                out[value_at - 3] = (2 + value_len) as u8;
            }
            ParamRef::Other { param_type, value } => {
                out.extend_from_slice(&[param_type, value.len() as u8]);
                out.extend_from_slice(value);
            }
        }
    }

    /// Copy the parameter into an owned [`OptionalParameter`].
    pub fn to_owned(&self) -> OptionalParameter {
        match *self {
            ParamRef::Capability(cap) => OptionalParameter::Capability(cap.to_owned()),
            ParamRef::Other { param_type, value } => OptionalParameter::Other {
                param_type,
                value: value.to_vec(),
            },
        }
    }
}

/// The optional-parameters block of an OPEN message, checked and left in
/// place: [`Self::iter`] reads the parameters [`OptionalParameter::parse_all`]
/// returns straight off the wire bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireParams<'a>(&'a [u8]);

impl<'a> WireParams<'a> {
    /// Check a parameters block: every parameter and every capability
    /// packed inside a capabilities parameter must parse.
    pub fn parse(block: &'a [u8]) -> Result<Self> {
        let mut walk = WireParamIter {
            block,
            capabilities: &[],
        };
        while walk.next_param()?.is_some() {}
        Ok(WireParams(block))
    }

    /// The parameters in wire order, a capabilities parameter that packs
    /// several capabilities yielding one entry per capability.
    pub fn iter(&self) -> impl Iterator<Item = ParamRef<'a>> {
        let mut walk = WireParamIter {
            block: self.0,
            capabilities: &[],
        };
        // `parse` has walked the block to its end without an error.
        std::iter::from_fn(move || walk.next_param().ok().flatten())
    }

    /// Copy the parameters into an owned list.
    pub fn to_owned(&self) -> Vec<OptionalParameter> {
        self.iter().map(|param| param.to_owned()).collect()
    }
}

/// The walk behind [`WireParams`]: the unread rest of the block, and the
/// unread rest of the capabilities parameter being flattened.
struct WireParamIter<'a> {
    block: &'a [u8],
    capabilities: &'a [u8],
}

impl<'a> WireParamIter<'a> {
    fn next_param(&mut self) -> Result<Option<ParamRef<'a>>> {
        loop {
            if !self.capabilities.is_empty() {
                let (cap, consumed) = Capability::parse_borrowed(self.capabilities)?;
                self.capabilities = &self.capabilities[consumed..];
                return Ok(Some(ParamRef::Capability(cap)));
            }
            if self.block.is_empty() {
                return Ok(None);
            }
            check_len(self.block, 2)?;
            let param_type = self.block[0];
            let len = self.block[1] as usize;
            check_len(self.block, 2 + len)?;
            let value = &self.block[2..2 + len];
            self.block = &self.block[2 + len..];
            if param_type != PARAM_TYPE_CAPABILITY {
                return Ok(Some(ParamRef::Other { param_type, value }));
            }
            // An empty capabilities parameter holds nothing: next parameter.
            self.capabilities = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_roundtrip() {
        let caps = [
            Capability::Multiprotocol { afi: 2, safi: 1 },
            Capability::RouteRefresh,
            Capability::RouteRefreshCisco,
            Capability::FourOctetAs { asn: 4_200_000_001 },
            Capability::Other {
                code: 70,
                value: vec![1, 2, 3],
            },
        ];
        for cap in caps {
            let mut buf = Vec::new();
            cap.emit(&mut buf);
            let (parsed, consumed) = Capability::parse(&buf).unwrap();
            assert_eq!(consumed, buf.len());
            assert_eq!(parsed, cap);
        }
    }

    #[test]
    fn capability_rejects_bad_lengths() {
        // Route refresh with a non-empty value.
        let buf = [2u8, 1, 0];
        assert!(matches!(
            Capability::parse(&buf),
            Err(WireError::BadLength { .. })
        ));
        // Four-octet AS with only two bytes.
        let buf = [65u8, 2, 0, 1];
        assert!(matches!(
            Capability::parse(&buf),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn parameters_roundtrip_figure2_layout() {
        // Figure 2 of the paper: two capability parameters, each carrying a
        // single route-refresh flavour, 8 bytes of optional parameters total.
        let params = vec![
            OptionalParameter::Capability(Capability::RouteRefreshCisco),
            OptionalParameter::Capability(Capability::RouteRefresh),
        ];
        let encoded = OptionalParameter::emit_all(&params);
        assert_eq!(encoded.len(), 8);
        let parsed = OptionalParameter::parse_all(&encoded).unwrap();
        assert_eq!(parsed, params);
    }

    #[test]
    fn packed_capabilities_are_flattened() {
        // One capabilities parameter carrying two capabilities back to back.
        let mut inner = Vec::new();
        Capability::RouteRefresh.emit(&mut inner);
        Capability::Multiprotocol { afi: 1, safi: 1 }.emit(&mut inner);
        let mut block = vec![2u8, inner.len() as u8];
        block.extend_from_slice(&inner);
        let parsed = OptionalParameter::parse_all(&block).unwrap();
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn unknown_parameter_preserved() {
        let params = vec![OptionalParameter::Other {
            param_type: 1,
            value: vec![0xde, 0xad],
        }];
        let encoded = OptionalParameter::emit_all(&params);
        assert_eq!(OptionalParameter::parse_all(&encoded).unwrap(), params);
    }

    #[test]
    fn truncated_parameter_block_is_rejected() {
        let block = [2u8, 10, 0, 0];
        assert!(OptionalParameter::parse_all(&block).is_err());
    }
}
