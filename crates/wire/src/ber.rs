//! Minimal ASN.1 BER encoding/decoding, just enough for SNMPv3 messages.
//!
//! SNMP uses a small subset of BER: SEQUENCE, INTEGER, OCTET STRING, NULL,
//! OBJECT IDENTIFIER and a handful of context-specific constructed tags for
//! PDUs.  The codec here is deliberately small and strict about lengths —
//! exactly what an Internet scanner parsing unsolicited reports needs.
//!
//! Neither direction builds a tree.  Decoding is a borrowed reader
//! ([`Tlv`]: a tag and a slice of the input); encoding is a set of
//! `write_*` functions that append to a caller's buffer, with the length of
//! a constructed element patched in once its body has been written.  An
//! Internet-wide discovery sweep therefore encodes and parses every
//! datagram in two reused buffers.

use crate::error::check_len;
use crate::{Result, WireError};

/// Universal tag: INTEGER.
pub(crate) const TAG_INTEGER: u8 = 0x02;
/// Universal tag: OCTET STRING.
pub(crate) const TAG_OCTET_STRING: u8 = 0x04;
/// Universal tag: OBJECT IDENTIFIER.
pub(crate) const TAG_OID: u8 = 0x06;
/// Universal constructed tag: SEQUENCE.
pub(crate) const TAG_SEQUENCE: u8 = 0x30;
/// Application tag: Counter32 (SNMP).
pub(crate) const TAG_COUNTER32: u8 = 0x41;
/// Context constructed tag 8: SNMPv3 Report PDU.
pub(crate) const TAG_REPORT_PDU: u8 = 0xa8;
/// Context constructed tag 0: SNMP GetRequest PDU.
pub(crate) const TAG_GET_REQUEST_PDU: u8 = 0xa0;

/// A BER element read in place: the tag octet and the content octets,
/// borrowed from the buffer it was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tlv<'a> {
    /// The tag octet (short-form tags only, which is all SNMP uses).
    pub(crate) tag: u8,
    /// The raw content octets.
    pub(crate) content: &'a [u8],
}

impl<'a> Tlv<'a> {
    /// Decode one element from the front of `buf`; returns the element and
    /// the number of bytes consumed.
    pub(crate) fn decode(buf: &'a [u8]) -> Result<(Self, usize)> {
        check_len(buf, 2)?;
        let tag = buf[0];
        let (length, header_len) = decode_length(&buf[1..])?;
        let total = 1 + header_len + length;
        check_len(buf, total)?;
        let content = &buf[1 + header_len..total];
        Ok((Tlv { tag, content }, total))
    }

    /// Interpret this element as an INTEGER.
    pub(crate) fn as_integer(&self) -> Result<i64> {
        if self.tag != TAG_INTEGER && self.tag != TAG_COUNTER32 {
            return Err(WireError::UnknownType {
                tag: self.tag as u16,
            });
        }
        decode_integer(self.content)
    }

    /// Interpret this element as an OCTET STRING, returning the raw bytes.
    pub(crate) fn as_octet_string(&self) -> Result<&'a [u8]> {
        if self.tag != TAG_OCTET_STRING {
            return Err(WireError::UnknownType {
                tag: self.tag as u16,
            });
        }
        Ok(self.content)
    }

    /// The first `N` children of a constructed element and the number of
    /// children it holds.
    ///
    /// The *whole* content run is walked and every element header in it
    /// validated — a malformed child past the `N`th is still an error — so
    /// a message is accepted or rejected exactly as if all children had
    /// been collected.  When fewer than `N` children exist the remaining
    /// slots hold empty placeholders; callers check the count.
    pub(crate) fn children<const N: usize>(&self) -> Result<([Tlv<'a>; N], usize)> {
        let mut first = [Tlv {
            tag: 0,
            content: &[],
        }; N];
        let mut count = 0;
        let mut rest = self.content;
        while !rest.is_empty() {
            let (child, consumed) = Tlv::decode(rest)?;
            if count < N {
                first[count] = child;
            }
            count += 1;
            rest = &rest[consumed..];
        }
        Ok((first, count))
    }
}

/// Append an element whose content `body` writes: the tag, a length patched
/// in after `body` has run, and whatever `body` appended in between.  Every
/// element whose content is not of a fixed size goes through here, so the
/// crate has one length encoder.
pub(crate) fn write_constructed(out: &mut Vec<u8>, tag: u8, body: impl FnOnce(&mut Vec<u8>)) {
    out.push(tag);
    out.push(0);
    let start = out.len();
    body(out);
    let len = out.len() - start;
    if len < 0x80 {
        out[start - 1] = len as u8;
        return;
    }
    // Long form: the reserved octet becomes the marker and the content
    // moves up to make room for the big-endian length behind it.
    let octets = (len as u32).to_be_bytes();
    let skip = octets.iter().take_while(|&&b| b == 0).count();
    let extra = octets.len() - skip;
    out[start - 1] = 0x80 | extra as u8;
    out.resize(start + len + extra, 0);
    out.copy_within(start..start + len, start + extra);
    out[start..start + extra].copy_from_slice(&octets[skip..]);
}

/// Append an INTEGER (two's-complement, minimal length).
pub(crate) fn write_integer(out: &mut Vec<u8>, value: i64) {
    write_tagged_integer(out, TAG_INTEGER, value);
}

/// Append integer content under an arbitrary tag (SNMP's Counter32 is an
/// application-tagged INTEGER).
pub(crate) fn write_tagged_integer(out: &mut Vec<u8>, tag: u8, value: i64) {
    let bytes = value.to_be_bytes();
    let mut start = 0;
    while start < 7 {
        let cur = bytes[start];
        let next = bytes[start + 1];
        // Strip redundant leading 0x00 / 0xff octets while keeping the sign.
        if (cur == 0x00 && next & 0x80 == 0) || (cur == 0xff && next & 0x80 != 0) {
            start += 1;
        } else {
            break;
        }
    }
    out.push(tag);
    out.push((bytes.len() - start) as u8);
    out.extend_from_slice(&bytes[start..]);
}

/// Append an OCTET STRING.
pub(crate) fn write_octet_string(out: &mut Vec<u8>, data: &[u8]) {
    write_constructed(out, TAG_OCTET_STRING, |out| out.extend_from_slice(data));
}

/// Append an OBJECT IDENTIFIER from its numeric components.
pub(crate) fn write_oid(out: &mut Vec<u8>, components: &[u32]) {
    write_constructed(out, TAG_OID, |out| {
        if components.len() >= 2 {
            out.push((components[0] * 40 + components[1]) as u8);
            for &component in &components[2..] {
                write_base128(component, out);
            }
        }
    });
}

fn decode_length(buf: &[u8]) -> Result<(usize, usize)> {
    check_len(buf, 1)?;
    let first = buf[0];
    if first < 0x80 {
        return Ok((first as usize, 1));
    }
    let num_octets = (first & 0x7f) as usize;
    if num_octets == 0 || num_octets > 4 {
        return Err(WireError::BadLength {
            field: "ber.length",
        });
    }
    check_len(buf, 1 + num_octets)?;
    let mut value = 0usize;
    for &b in &buf[1..1 + num_octets] {
        value = (value << 8) | b as usize;
    }
    Ok((value, 1 + num_octets))
}

fn decode_integer(content: &[u8]) -> Result<i64> {
    if content.is_empty() || content.len() > 8 {
        return Err(WireError::BadLength {
            field: "ber.integer",
        });
    }
    let negative = content[0] & 0x80 != 0;
    let mut value: i64 = if negative { -1 } else { 0 };
    for &b in content {
        value = (value << 8) | b as i64;
    }
    Ok(value)
}

/// Base-128 groups of `value`, most significant first, continuation bit on
/// all but the last.
fn write_base128(value: u32, out: &mut Vec<u8>) {
    let groups = (32 - value.leading_zeros()).div_ceil(7).max(1);
    for group in (0..groups).rev() {
        let septet = ((value >> (7 * group)) & 0x7f) as u8;
        out.push(if group == 0 { septet } else { septet | 0x80 });
    }
}

/// The tree codec this module replaced: an owned `Vec<u8>` per node, every
/// child copied on access.  Kept, unchanged, as the oracle the reader and
/// the writers are differential-tested against (here and in
/// [`crate::snmp`]'s tests).
#[cfg(test)]
pub(crate) mod tree {
    use super::{
        check_len, Result, WireError, TAG_COUNTER32, TAG_INTEGER, TAG_OCTET_STRING, TAG_OID,
        TAG_SEQUENCE,
    };

    /// Universal tag: NULL, which no production reader or writer needs.
    pub(crate) const TAG_NULL: u8 = 0x05;

    /// A BER element: tag plus raw contents.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Element {
        /// The tag octet (short-form tags only, which is all SNMP uses).
        pub tag: u8,
        /// The raw content octets.
        pub content: Vec<u8>,
    }

    impl Element {
        /// Construct an element from tag and content.
        pub fn new(tag: u8, content: Vec<u8>) -> Self {
            Element { tag, content }
        }

        /// An INTEGER element (two's-complement, minimal length).
        pub fn integer(value: i64) -> Self {
            Element::new(TAG_INTEGER, encode_integer(value))
        }

        /// An OCTET STRING element.
        pub fn octet_string(data: &[u8]) -> Self {
            Element::new(TAG_OCTET_STRING, data.to_vec())
        }

        /// A NULL element.
        pub fn null() -> Self {
            Element::new(TAG_NULL, Vec::new())
        }

        /// A SEQUENCE of child elements.
        pub fn sequence(children: &[Element]) -> Self {
            Element::constructed(TAG_SEQUENCE, children)
        }

        /// A constructed element with an arbitrary tag.
        pub fn constructed(tag: u8, children: &[Element]) -> Self {
            let mut content = Vec::new();
            for child in children {
                child.encode_into(&mut content);
            }
            Element::new(tag, content)
        }

        /// An OBJECT IDENTIFIER from its numeric components.
        pub fn oid(components: &[u32]) -> Self {
            Element::new(TAG_OID, encode_oid(components))
        }

        /// Interpret this element as an INTEGER.
        pub fn as_integer(&self) -> Result<i64> {
            if self.tag != TAG_INTEGER && self.tag != TAG_COUNTER32 {
                return Err(WireError::UnknownType {
                    tag: self.tag as u16,
                });
            }
            decode_integer(&self.content)
        }

        /// Interpret this element as an OCTET STRING, returning the raw bytes.
        pub fn as_octet_string(&self) -> Result<&[u8]> {
            if self.tag != TAG_OCTET_STRING {
                return Err(WireError::UnknownType {
                    tag: self.tag as u16,
                });
            }
            Ok(&self.content)
        }

        /// Decode the children of a constructed element.
        pub fn children(&self) -> Result<Vec<Element>> {
            decode_all(&self.content)
        }

        /// Encode this element, appending to `out`.
        pub fn encode_into(&self, out: &mut Vec<u8>) {
            out.push(self.tag);
            encode_length(self.content.len(), out);
            out.extend_from_slice(&self.content);
        }

        /// Encode this element to a new vector.
        pub fn encode(&self) -> Vec<u8> {
            let mut out = Vec::with_capacity(self.content.len() + 4);
            self.encode_into(&mut out);
            out
        }

        /// Decode one element from the front of `buf`; returns the element and
        /// the number of bytes consumed.
        pub fn decode(buf: &[u8]) -> Result<(Element, usize)> {
            check_len(buf, 2)?;
            let tag = buf[0];
            let (length, header_len) = decode_length(&buf[1..])?;
            let total = 1 + header_len + length;
            check_len(buf, total)?;
            Ok((
                Element::new(tag, buf[1 + header_len..total].to_vec()),
                total,
            ))
        }
    }

    /// Decode a run of elements covering the whole buffer.
    pub fn decode_all(mut buf: &[u8]) -> Result<Vec<Element>> {
        let mut out = Vec::new();
        while !buf.is_empty() {
            let (element, consumed) = Element::decode(buf)?;
            out.push(element);
            buf = &buf[consumed..];
        }
        Ok(out)
    }

    fn encode_length(len: usize, out: &mut Vec<u8>) {
        if len < 0x80 {
            out.push(len as u8);
        } else {
            let bytes = (len as u32).to_be_bytes();
            let skip = bytes.iter().take_while(|&&b| b == 0).count();
            out.push(0x80 | (4 - skip) as u8);
            out.extend_from_slice(&bytes[skip..]);
        }
    }

    fn decode_length(buf: &[u8]) -> Result<(usize, usize)> {
        check_len(buf, 1)?;
        let first = buf[0];
        if first < 0x80 {
            return Ok((first as usize, 1));
        }
        let num_octets = (first & 0x7f) as usize;
        if num_octets == 0 || num_octets > 4 {
            return Err(WireError::BadLength {
                field: "ber.length",
            });
        }
        check_len(buf, 1 + num_octets)?;
        let mut value = 0usize;
        for &b in &buf[1..1 + num_octets] {
            value = (value << 8) | b as usize;
        }
        Ok((value, 1 + num_octets))
    }

    fn encode_integer(value: i64) -> Vec<u8> {
        let bytes = value.to_be_bytes();
        let mut start = 0;
        while start < 7 {
            let cur = bytes[start];
            let next = bytes[start + 1];
            // Strip redundant leading 0x00 / 0xff octets while keeping the sign.
            if (cur == 0x00 && next & 0x80 == 0) || (cur == 0xff && next & 0x80 != 0) {
                start += 1;
            } else {
                break;
            }
        }
        bytes[start..].to_vec()
    }

    fn decode_integer(content: &[u8]) -> Result<i64> {
        if content.is_empty() || content.len() > 8 {
            return Err(WireError::BadLength {
                field: "ber.integer",
            });
        }
        let negative = content[0] & 0x80 != 0;
        let mut value: i64 = if negative { -1 } else { 0 };
        for &b in content {
            value = (value << 8) | b as i64;
        }
        Ok(value)
    }

    fn encode_oid(components: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        if components.len() >= 2 {
            out.push((components[0] * 40 + components[1]) as u8);
            for &c in &components[2..] {
                encode_base128(c, &mut out);
            }
        }
        out
    }

    fn encode_base128(mut value: u32, out: &mut Vec<u8>) {
        let mut stack = Vec::new();
        loop {
            stack.push((value & 0x7f) as u8);
            value >>= 7;
            if value == 0 {
                break;
            }
        }
        while let Some(byte) = stack.pop() {
            if stack.is_empty() {
                out.push(byte);
            } else {
                out.push(byte | 0x80);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tree::{Element, TAG_NULL};
    use super::*;

    /// What one writer call appends to an empty buffer.
    fn written(write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        write(&mut out);
        out
    }

    const INTEGERS: [i64; 12] = [
        0,
        1,
        127,
        128,
        255,
        256,
        -1,
        -128,
        -129,
        65_535,
        i64::MAX,
        i64::MIN,
    ];

    #[test]
    fn integer_roundtrip() {
        for value in INTEGERS {
            let encoded = written(|out| write_integer(out, value));
            let (decoded, consumed) = Tlv::decode(&encoded).unwrap();
            assert_eq!(consumed, encoded.len());
            assert_eq!(decoded.as_integer().unwrap(), value, "value {value}");
        }
    }

    #[test]
    fn integer_minimal_encoding() {
        let content = |value| written(|out| write_integer(out, value))[2..].to_vec();
        assert_eq!(content(0), vec![0]);
        assert_eq!(content(127), vec![127]);
        assert_eq!(content(128), vec![0, 128]);
        assert_eq!(content(-1), vec![0xff]);
    }

    #[test]
    fn octet_string_roundtrip() {
        let encoded = written(|out| write_octet_string(out, b"\x80\x00\x1f\x88\x80engine"));
        let (decoded, _) = Tlv::decode(&encoded).unwrap();
        assert_eq!(
            decoded.as_octet_string().unwrap(),
            b"\x80\x00\x1f\x88\x80engine"
        );
    }

    #[test]
    fn sequence_roundtrip() {
        let encoded = written(|out| {
            write_constructed(out, TAG_SEQUENCE, |out| {
                write_integer(out, 3);
                write_octet_string(out, b"abc");
                out.extend_from_slice(&[TAG_NULL, 0]);
            })
        });
        let (decoded, _) = Tlv::decode(&encoded).unwrap();
        let (children, count) = decoded.children::<3>().unwrap();
        assert_eq!(count, 3);
        assert_eq!(children[0].as_integer().unwrap(), 3);
        assert_eq!(children[1].as_octet_string().unwrap(), b"abc");
        assert_eq!(children[2].tag, TAG_NULL);
    }

    #[test]
    fn long_form_length() {
        let big = vec![0xabu8; 300];
        let encoded = written(|out| write_octet_string(out, &big));
        // 0x82 marks a two-octet length.
        assert_eq!(encoded[1], 0x82);
        let (decoded, consumed) = Tlv::decode(&encoded).unwrap();
        assert_eq!(consumed, encoded.len());
        assert_eq!(decoded.content, &big[..]);
    }

    #[test]
    fn truncated_element_is_rejected() {
        let encoded = written(|out| write_octet_string(out, b"hello"));
        assert!(matches!(
            Tlv::decode(&encoded[..3]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn wrong_type_access_is_rejected() {
        let string = written(|out| write_octet_string(out, b"x"));
        assert!(Tlv::decode(&string).unwrap().0.as_integer().is_err());
        let integer = written(|out| write_integer(out, 4));
        assert!(Tlv::decode(&integer).unwrap().0.as_octet_string().is_err());
    }

    #[test]
    fn oid_encoding_matches_known_value() {
        // 1.3.6.1.6.3.15.1.1.4.0 (usmStatsUnknownEngineIDs.0)
        let oid = written(|out| write_oid(out, &[1, 3, 6, 1, 6, 3, 15, 1, 1, 4, 0]));
        assert_eq!(oid[2..], [0x2b, 6, 1, 6, 3, 15, 1, 1, 4, 0]);
    }

    #[test]
    fn oid_multibyte_component() {
        // Component 840 encodes as 0x86 0x48.
        let oid = written(|out| write_oid(out, &[1, 2, 840]));
        assert_eq!(oid[2..], [0x2a, 0x86, 0x48]);
    }

    #[test]
    fn children_walk_the_whole_run_whatever_prefix_is_asked_for() {
        let mut buf = written(|out| write_integer(out, 1));
        write_integer(&mut buf, 2);
        let run = Tlv {
            tag: TAG_SEQUENCE,
            content: &buf,
        };
        let (both, count) = run.children::<2>().unwrap();
        assert_eq!(count, 2);
        assert_eq!(both[1].as_integer().unwrap(), 2);
        // Asking for fewer still counts every child ...
        assert_eq!(run.children::<1>().unwrap().1, 2);
        // ... asking for more leaves the missing slots empty ...
        let (padded, count) = run.children::<3>().unwrap();
        assert_eq!(count, 2);
        assert_eq!(padded[..2], both);
        assert!(padded[2].content.is_empty());
        // ... and a malformed child past the prefix is still an error.
        buf.extend_from_slice(&[TAG_INTEGER, 5, 0]);
        let run = Tlv {
            tag: TAG_SEQUENCE,
            content: &buf,
        };
        assert!(matches!(
            run.children::<1>(),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn every_writer_matches_the_tree_codec_byte_for_byte() {
        for value in INTEGERS {
            assert_eq!(
                written(|out| write_integer(out, value)),
                Element::integer(value).encode()
            );
            assert_eq!(
                written(|out| write_tagged_integer(out, TAG_COUNTER32, value)),
                Element::new(TAG_COUNTER32, Element::integer(value).content).encode()
            );
        }
        for len in [0usize, 1, 127, 128, 255, 256, 300, 65_535, 65_536, 70_000] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(
                written(|out| write_octet_string(out, &data)),
                Element::octet_string(&data).encode(),
                "length {len}"
            );
        }
        for components in [
            &[][..],
            &[1],
            &[1, 3],
            &[1, 2, 840],
            &[1, 3, 6, 1, 6, 3, 15, 1, 1, 4, 0],
            &[2, 5, 127, 128, 16_383, 16_384, u32::MAX],
        ] {
            assert_eq!(
                written(|out| write_oid(out, components)),
                Element::oid(components).encode(),
                "{components:?}"
            );
        }
        // Nesting: a back-patched element inside a back-patched element,
        // with prior content in the buffer.
        let mut out = vec![0xee; 3];
        write_constructed(&mut out, TAG_SEQUENCE, |out| {
            write_integer(out, 7);
            write_constructed(out, TAG_REPORT_PDU, |out| {
                write_octet_string(out, &[0x55; 200])
            });
            out.extend_from_slice(&[TAG_NULL, 0]);
        });
        let expected = Element::sequence(&[
            Element::integer(7),
            Element::constructed(TAG_REPORT_PDU, &[Element::octet_string(&[0x55; 200])]),
            Element::null(),
        ])
        .encode();
        assert_eq!(out[..3], [0xee; 3]);
        assert_eq!(out[3..], expected[..]);
    }

    #[test]
    fn the_reader_decodes_what_the_tree_codec_decodes() {
        let samples: [&[u8]; 12] = [
            &[],
            &[0x30],
            &[0x30, 0x00],
            &[0x30, 0x80],
            &[0x30, 0x81],
            &[0x30, 0x81, 0x01, 0xaa],
            &[0x30, 0x84, 0xff, 0xff, 0xff, 0xff],
            &[0x30, 0x85, 0, 0, 0, 0, 1, 0xaa],
            &[0x02, 0x09, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            &[0x30, 0x06, 0x02, 0x01, 0x05, 0x04, 0x01, 0x41, 0xff],
            &[0x30, 0x05, 0x02, 0x01, 0x05, 0x04, 0x03],
            &[0x41, 0x01, 0x80],
        ];
        for buf in samples {
            let tree = Element::decode(buf);
            let read = Tlv::decode(buf);
            match (&tree, &read) {
                (Ok((element, used)), Ok((tlv, consumed))) => {
                    assert_eq!(used, consumed);
                    assert_eq!((element.tag, &element.content[..]), (tlv.tag, tlv.content));
                    assert_eq!(element.as_integer(), tlv.as_integer());
                    assert_eq!(element.as_octet_string(), tlv.as_octet_string());
                    assert_eq!(
                        element.children().map(|c| c.len()),
                        tlv.children::<0>().map(|(_, n)| n)
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{buf:02x?}"),
                _ => panic!("{buf:02x?}: tree {tree:?}, reader {read:?}"),
            }
        }
    }
}
