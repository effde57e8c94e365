//! SSH binary packet framing (RFC 4253 §6), unencrypted.
//!
//! Before keys are negotiated every SSH message travels in the clear inside
//! the binary packet format:
//!
//! ```text
//! uint32    packet_length
//! byte      padding_length
//! byte[n1]  payload
//! byte[n2]  random padding
//! ```
//!
//! (No MAC is present before key exchange completes.)  The service scanner
//! only ever handles this plaintext phase, which is the point the paper
//! makes: the whole identifier is available without ever deriving keys.

use crate::error::check_len;
use crate::{Result, WireError};

/// Message number of `SSH_MSG_KEXINIT`.
pub const SSH_MSG_KEXINIT: u8 = 20;
/// Message number of `SSH_MSG_KEX_ECDH_REPLY` (curve25519/ECDH reply carrying
/// the host key).
pub const SSH_MSG_KEX_ECDH_REPLY: u8 = 31;

/// Minimum padding RFC 4253 requires.
const MIN_PADDING: usize = 4;
/// Packets (and therefore payloads) must be a multiple of the cipher block
/// size; 8 is the minimum for the plaintext phase.
const BLOCK: usize = 8;
/// Upper bound on accepted packet size; RFC 4253 requires supporting 35000.
const MAX_PACKET: usize = 35_000;

/// Parse one unencrypted binary packet from the front of `buf`; returns
/// its payload (first byte: the message number), a slice of `buf`, and the
/// number of bytes consumed.
pub fn parse_packet(buf: &[u8]) -> Result<(&[u8], usize)> {
    check_len(buf, 5)?;
    let packet_length = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if !(2..=MAX_PACKET).contains(&packet_length) {
        return Err(WireError::BadLength {
            field: "ssh.packet_length",
        });
    }
    check_len(buf, 4 + packet_length)?;
    let padding_length = buf[4] as usize;
    if padding_length + 1 > packet_length {
        return Err(WireError::BadLength {
            field: "ssh.padding_length",
        });
    }
    let payload_len = packet_length - padding_length - 1;
    Ok((&buf[5..5 + payload_len], 4 + packet_length))
}

/// Append one packet to `out` whose payload is whatever `write_payload`
/// appends — the framing goes around it in place, so a message emitter can
/// write straight into a session buffer.
///
/// The padding is deterministic zeros.  Real implementations use random
/// padding; the padding bytes carry no information the identifier uses,
/// so zero padding keeps emission reproducible.
pub(crate) fn emit_framed(out: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 5]);
    write_payload(out);
    let payload_len = out.len() - start - 5;
    // total length (4 + 1 + payload + padding) must be a multiple of BLOCK
    // and padding must be at least MIN_PADDING.
    let mut padding = BLOCK - ((4 + 1 + payload_len) % BLOCK);
    if padding < MIN_PADDING {
        padding += BLOCK;
    }
    let packet_length = 1 + payload_len + padding;
    out[start..start + 4].copy_from_slice(&(packet_length as u32).to_be_bytes());
    out[start + 4] = padding as u8;
    out.resize(out.len() + padding, 0);
}

/// The payloads of a stream of packets, borrowed from `buf`, stopping at
/// the first malformed or truncated packet.
pub fn packet_payloads(mut buf: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let (payload, consumed) = parse_packet(buf).ok()?;
        buf = &buf[consumed..];
        Some(payload)
    })
}

/// Read an SSH `string` (uint32 length + bytes) from `buf`.
///
/// Used by KEXINIT and host-key blob parsing.
pub(crate) fn read_string(buf: &[u8]) -> Result<(&[u8], usize)> {
    check_len(buf, 4)?;
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    check_len(buf, 4 + len)?;
    Ok((&buf[4..4 + len], 4 + len))
}

/// Append an SSH `string` to `out`.
pub(crate) fn write_string(out: &mut Vec<u8>, data: &[u8]) {
    write_string_with(out, |out| out.extend_from_slice(data));
}

/// Append an SSH `string` whose bytes are whatever `write` appends (a
/// nested structure, emitted in place).
pub(crate) fn write_string_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    write(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `payload` framed as one packet.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        emit_framed(&mut out, |out| out.extend_from_slice(payload));
        out
    }

    #[test]
    fn roundtrip() {
        let payload = [SSH_MSG_KEXINIT, 1, 2, 3, 4, 5];
        let bytes = framed(&payload);
        // Total on-the-wire length must be a multiple of the block size.
        assert_eq!(bytes.len() % BLOCK, 0);
        let (parsed, consumed) = parse_packet(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(parsed, payload);
        assert_eq!(parsed.first(), Some(&SSH_MSG_KEXINIT));
    }

    proptest::proptest! {
        #[test]
        fn any_payload_roundtrips(payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512)) {
            // Twice in a row: the second parses only where the first ended.
            let once = framed(&payload);
            proptest::prop_assert_eq!(once.len() % BLOCK, 0);
            let (parsed, consumed) = parse_packet(&once).unwrap();
            proptest::prop_assert_eq!(consumed, once.len());
            proptest::prop_assert_eq!(parsed, &payload[..]);
            let twice = [&once[..], &once[..]].concat();
            proptest::prop_assert_eq!(packet_payloads(&twice).collect::<Vec<_>>(), [&payload[..], &payload[..]]);
        }
    }

    #[test]
    fn empty_payload_roundtrip() {
        let bytes = framed(&[]);
        let (parsed, _) = parse_packet(&bytes).unwrap();
        assert!(parsed.is_empty());
    }

    #[test]
    fn minimum_padding_is_respected() {
        for payload_len in 0..64 {
            let bytes = framed(&vec![0xaa; payload_len]);
            let padding = bytes[4] as usize;
            assert!(
                padding >= MIN_PADDING,
                "payload {payload_len} got padding {padding}"
            );
            assert_eq!(bytes.len() % BLOCK, 0);
        }
    }

    #[test]
    fn framing_in_place_keeps_what_the_buffer_held() {
        let mut out = b"SSH-2.0-x\r\n".to_vec();
        emit_framed(&mut out, |out| out.extend_from_slice(&[1, 2, 3]));
        assert_eq!(&out[..11], b"SSH-2.0-x\r\n");
        assert_eq!(out[11..], framed(&[1, 2, 3]));
    }

    #[test]
    fn oversized_packet_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(40_000u32).to_be_bytes());
        buf.push(4);
        assert!(matches!(
            parse_packet(&buf),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn bad_padding_is_rejected() {
        let mut bytes = framed(&[1, 2, 3]);
        bytes[4] = 0xff; // padding longer than the packet
        assert!(matches!(
            parse_packet(&bytes),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn stream_parsing() {
        let mut stream = framed(&[SSH_MSG_KEXINIT, 9]);
        stream.extend_from_slice(&framed(&[SSH_MSG_KEX_ECDH_REPLY, 8]));
        stream.extend_from_slice(&[0, 0]); // trailing garbage
        let payloads: Vec<&[u8]> = packet_payloads(&stream).collect();
        assert_eq!(
            payloads,
            [[SSH_MSG_KEXINIT, 9], [SSH_MSG_KEX_ECDH_REPLY, 8]]
        );
    }

    #[test]
    fn string_helpers_roundtrip() {
        let mut out = Vec::new();
        write_string(&mut out, b"ssh-ed25519");
        let (s, consumed) = read_string(&out).unwrap();
        assert_eq!(s, b"ssh-ed25519");
        assert_eq!(consumed, out.len());
    }
}
