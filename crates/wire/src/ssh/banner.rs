//! The SSH identification string ("banner", RFC 4253 §4.2).
//!
//! The banner is the very first thing a server sends after the TCP
//! handshake:
//!
//! ```text
//! SSH-protoversion-softwareversion SP comments CR LF
//! ```
//!
//! The software-version part (e.g. `OpenSSH_8.9p1 Ubuntu-3ubuntu0.1`) is the
//! first component of the paper's SSH identifier.

use crate::{Result, WireError};

/// Maximum banner length accepted (RFC 4253 allows 255 characters including
/// CR LF).
pub const MAX_BANNER_LEN: usize = 255;

/// A parsed SSH identification banner.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Banner {
    /// Protocol version, `"2.0"` for every modern server.
    pub proto_version: String,
    /// Software version and configuration string.
    pub software: String,
    /// Optional comments following the first space.
    pub comments: Option<String>,
}

impl Banner {
    /// Build a banner for protocol version 2.0 with the given software
    /// string and optional comments.
    ///
    /// Returns an error if the resulting line would exceed
    /// [`MAX_BANNER_LEN`] or contain characters the RFC forbids.
    pub fn new(software: &str, comments: Option<&str>) -> Result<Self> {
        let banner = Banner {
            proto_version: "2.0".to_owned(),
            software: software.to_owned(),
            comments: comments.map(str::to_owned),
        };
        banner.validate()?;
        Ok(banner)
    }

    fn validate(&self) -> Result<()> {
        if self.software.is_empty() || self.software.contains([' ', '\r', '\n']) {
            return Err(WireError::BadValue {
                field: "banner.software",
            });
        }
        if self.proto_version.is_empty() || self.proto_version.contains(['-', ' ', '\r', '\n']) {
            return Err(WireError::BadValue {
                field: "banner.proto_version",
            });
        }
        if let Some(c) = &self.comments {
            if c.contains(['\r', '\n']) {
                return Err(WireError::BadValue {
                    field: "banner.comments",
                });
            }
        }
        if self.to_line().len() + 2 > MAX_BANNER_LEN {
            return Err(WireError::BadLength { field: "banner" });
        }
        Ok(())
    }

    /// The banner with every field borrowed.
    pub(crate) fn as_ref(&self) -> BannerRef<'_> {
        BannerRef {
            proto_version: &self.proto_version,
            software: &self.software,
            comments: self.comments.as_deref(),
        }
    }

    /// The banner line without the trailing CR LF, e.g.
    /// `SSH-2.0-OpenSSH_8.9p1`.
    pub fn to_line(&self) -> String {
        let mut line = Vec::new();
        self.emit_line(&mut line);
        String::from_utf8(line).expect("a concatenation of strs")
    }

    /// Append [`Self::to_line`]'s bytes to `out`.
    pub(crate) fn emit_line(&self, out: &mut Vec<u8>) {
        self.as_ref().emit_line(out);
    }

    /// Append the banner as sent on the wire, CR LF terminated, to `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        self.emit_line(out);
        out.extend_from_slice(b"\r\n");
    }

    /// Parse the first identification line found in `buf`, the fields as
    /// slices of `buf`.
    ///
    /// RFC 4253 allows the server to send other lines before the banner;
    /// they are skipped.  Returns the banner and the total number of bytes
    /// consumed up to and including the banner's line terminator.
    pub fn parse_borrowed(buf: &[u8]) -> Result<(BannerRef<'_>, usize)> {
        let mut offset = 0;
        while offset < buf.len() {
            let rest = &buf[offset..];
            let line_end = rest
                .iter()
                .position(|&b| b == b'\n')
                .ok_or(WireError::Truncated {
                    needed: offset + rest.len() + 1,
                    available: buf.len(),
                })?;
            let mut line = &rest[..line_end];
            if line.ends_with(b"\r") {
                line = &line[..line.len() - 1];
            }
            let consumed = offset + line_end + 1;
            if line.starts_with(b"SSH-") {
                let text = std::str::from_utf8(line)
                    .map_err(|_| WireError::BadEncoding { field: "banner" })?;
                if text.len() + 2 > MAX_BANNER_LEN {
                    return Err(WireError::BadLength { field: "banner" });
                }
                let rest = &text[4..];
                let dash = rest
                    .find('-')
                    .ok_or(WireError::BadValue { field: "banner" })?;
                let after = &rest[dash + 1..];
                let (software, comments) = match after.find(' ') {
                    Some(sp) => (&after[..sp], Some(&after[sp + 1..])),
                    None => (after, None),
                };
                if software.is_empty() {
                    return Err(WireError::BadValue {
                        field: "banner.software",
                    });
                }
                return Ok((
                    BannerRef {
                        proto_version: &rest[..dash],
                        software,
                        comments,
                    },
                    consumed,
                ));
            }
            offset = consumed;
        }
        Err(WireError::Truncated {
            needed: buf.len() + 1,
            available: buf.len(),
        })
    }
}

/// A [`Banner`] whose fields borrow their text — from a session buffer
/// ([`Banner::parse_borrowed`]), an owned banner (`Banner::as_ref`) or a
/// stored record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BannerRef<'a> {
    /// Protocol version.
    pub proto_version: &'a str,
    /// Software version and configuration string.
    pub software: &'a str,
    /// Optional comments following the first space.
    pub comments: Option<&'a str>,
}

impl BannerRef<'_> {
    /// Append the banner line ([`Banner::to_line`]'s bytes) to `out`.
    pub fn emit_line(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"SSH-");
        out.extend_from_slice(self.proto_version.as_bytes());
        out.push(b'-');
        out.extend_from_slice(self.software.as_bytes());
        if let Some(comments) = self.comments {
            out.push(b' ');
            out.extend_from_slice(comments.as_bytes());
        }
    }

    /// Copy the fields into an owned [`Banner`].
    pub fn to_owned(&self) -> Banner {
        Banner {
            proto_version: self.proto_version.to_owned(),
            software: self.software.to_owned(),
            comments: self.comments.map(str::to_owned),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emitted;

    fn parse(buf: &[u8]) -> Result<(Banner, usize)> {
        Banner::parse_borrowed(buf).map(|(banner, consumed)| (banner.to_owned(), consumed))
    }

    #[test]
    fn roundtrip_simple() {
        let banner = Banner::new("OpenSSH_8.9p1", None).unwrap();
        let bytes = emitted(|out| banner.emit(out));
        assert_eq!(bytes, b"SSH-2.0-OpenSSH_8.9p1\r\n");
        let (parsed, consumed) = parse(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(parsed, banner);
        assert_eq!(parsed.proto_version, "2.0");
    }

    #[test]
    fn roundtrip_with_comments() {
        let banner = Banner::new("OpenSSH_8.9p1", Some("Ubuntu-3ubuntu0.1")).unwrap();
        let (parsed, _) = parse(&emitted(|out| banner.emit(out))).unwrap();
        assert_eq!(parsed.comments.as_deref(), Some("Ubuntu-3ubuntu0.1"));
    }

    #[test]
    fn pre_banner_lines_are_skipped() {
        let raw = b"Welcome to router-7\r\nSSH-2.0-dropbear_2020.81\r\n";
        let (parsed, consumed) = parse(raw).unwrap();
        assert_eq!(parsed.software, "dropbear_2020.81");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn lf_only_terminator_is_accepted() {
        let raw = b"SSH-2.0-lancom\n";
        let (parsed, _) = parse(raw).unwrap();
        assert_eq!(parsed.software, "lancom");
    }

    #[test]
    fn missing_newline_is_truncated() {
        assert!(matches!(
            parse(b"SSH-2.0-OpenSSH"),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn missing_software_is_rejected() {
        assert!(parse(b"SSH-2.0-\r\n").is_err());
    }

    #[test]
    fn invalid_software_is_rejected_at_construction() {
        assert!(Banner::new("", None).is_err());
        assert!(Banner::new("Open SSH", None).is_err());
        assert!(Banner::new("x\r\n", None).is_err());
    }

    #[test]
    fn overlong_banner_is_rejected() {
        let software = "X".repeat(300);
        assert!(Banner::new(&software, None).is_err());
    }

    #[test]
    fn ssh1_banner_is_parsed_with_its_version() {
        let (parsed, _) = parse(b"SSH-1.5-Cisco-1.25\r\n").unwrap();
        assert_eq!(parsed.proto_version, "1.5");
        assert_eq!(parsed.software, "Cisco-1.25");
    }
}
