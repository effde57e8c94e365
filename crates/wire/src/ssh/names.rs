//! SSH `name-list` encoding (RFC 4251 §5).
//!
//! A name-list is a comma-separated list of US-ASCII names prefixed with a
//! 32-bit length.  `SSH_MSG_KEXINIT` consists almost entirely of name-lists,
//! and RFC 4253 requires every algorithm list to be ordered by preference —
//! which is why the lists fingerprint the implementation and form part of
//! the paper's SSH identifier.
//!
//! A [`NameList`] holds the list the way the wire does: as its comma-joined
//! text.  Every stored SSH observation carries ten of them, so one `String`
//! per list (none for an empty list) instead of one per name is what keeps
//! an observation row at a handful of heap allocations.

use crate::error::check_len;
use crate::{Result, WireError};

/// An ordered list of algorithm names, stored as its comma-joined wire text.
///
/// The text is either empty (no names) or non-empty comma-free names
/// separated by single commas; [`NameList::new`] and the parser both
/// enforce that, so `parse(emit(x)) == x` for every list that can exist.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct NameList(String);

/// Whether `text` is a well-formed joined name-list: no empty name.
fn well_formed(text: &str) -> bool {
    !(text.starts_with(',') || text.ends_with(',') || text.contains(",,"))
}

impl NameList {
    /// Build a name-list from names in preference order.
    ///
    /// # Panics
    /// Panics if a name is empty or contains a comma: such a list would not
    /// come back from [`emit`](Self::emit) → parse as the names it was
    /// built from.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut joined = String::new();
        for name in names {
            let name = name.as_ref();
            assert!(
                !name.is_empty() && !name.contains(','),
                "name-list names must be non-empty and comma-free, got {name:?}"
            );
            if !joined.is_empty() {
                joined.push(',');
            }
            joined.push_str(name);
        }
        NameList(joined)
    }

    /// The comma-joined textual form (what appears on the wire after the
    /// length prefix).
    pub(crate) fn joined(&self) -> &str {
        &self.0
    }

    /// The names, in preference order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        // `"".split(',')` yields one empty name; an empty list has none.
        self.0.split(',').filter(|name| !name.is_empty())
    }

    /// Number of names in the list.
    pub fn len(&self) -> usize {
        self.names().count()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The list, borrowed.
    pub(crate) fn as_ref(&self) -> NameListRef<'_> {
        NameListRef(&self.0)
    }

    /// Parse a name-list from the front of `buf`; returns the list, a slice
    /// of `buf`, and the bytes consumed (4 + string length).
    pub(crate) fn parse_borrowed(buf: &[u8]) -> Result<(NameListRef<'_>, usize)> {
        check_len(buf, 4)?;
        let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        check_len(buf, 4 + len)?;
        let text = std::str::from_utf8(&buf[4..4 + len])
            .map_err(|_| WireError::BadEncoding { field: "name-list" })?;
        if !text.is_ascii() {
            return Err(WireError::BadEncoding { field: "name-list" });
        }
        Ok((NameListRef::new(text)?, 4 + len))
    }

    /// Emit the name-list to `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.0.len() as u32).to_be_bytes());
        out.extend_from_slice(self.0.as_bytes());
    }
}

/// A [`NameList`] that borrows its joined text — from a packet payload
/// (`NameList::parse_borrowed`), an owned list (`NameList::as_ref`) or a
/// stored record ([`NameListRef::new`]).  Holds what a `NameList` can hold
/// and nothing else, so `Self::to_owned` has nothing to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NameListRef<'a>(&'a str);

impl<'a> NameListRef<'a> {
    /// The list whose joined text is `joined`, which must hold no empty
    /// name.
    pub fn new(joined: &'a str) -> Result<Self> {
        if !well_formed(joined) {
            return Err(WireError::BadValue { field: "name-list" });
        }
        Ok(NameListRef(joined))
    }

    /// The comma-joined textual form's bytes.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.0.as_bytes()
    }

    /// Copy the list into an owned [`NameList`].
    pub(crate) fn to_owned(self) -> NameList {
        NameList(self.0.to_owned())
    }
}

impl<S: AsRef<str>> FromIterator<S> for NameList {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        NameList::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(buf: &[u8]) -> Result<(NameList, usize)> {
        NameList::parse_borrowed(buf).map(|(list, consumed)| (list.to_owned(), consumed))
    }

    #[test]
    fn roundtrip() {
        let list = NameList::new(["curve25519-sha256", "ecdh-sha2-nistp256"]);
        let mut buf = Vec::new();
        list.emit(&mut buf);
        let (parsed, consumed) = parse(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(parsed, list);
        assert_eq!(parsed.names().next(), Some("curve25519-sha256"));
        assert!(parsed.names().any(|n| n == "ecdh-sha2-nistp256"));
        assert!(!parsed.names().any(|n| n == "diffie-hellman-group1-sha1"));
    }

    #[test]
    fn empty_list_roundtrip() {
        let list = NameList::default();
        let mut buf = Vec::new();
        list.emit(&mut buf);
        assert_eq!(buf, [0, 0, 0, 0]);
        let (parsed, consumed) = parse(&buf).unwrap();
        assert_eq!(consumed, 4);
        assert!(parsed.is_empty());
        assert_eq!(parsed.names().next(), None);
    }

    #[test]
    fn order_is_preserved() {
        // Preference order matters: two servers supporting the same set of
        // algorithms in a different order have different fingerprints.
        let a = NameList::new(["aes128-ctr", "aes256-ctr"]);
        let b = NameList::new(["aes256-ctr", "aes128-ctr"]);
        assert_ne!(a, b);
        assert_eq!(a.joined(), "aes128-ctr,aes256-ctr");
    }

    #[test]
    fn malformed_lists_are_rejected() {
        // Leading comma.
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(b",ab");
        assert!(parse(&buf).is_err());

        // Length pointing past the end.
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        assert!(matches!(parse(&buf), Err(WireError::Truncated { .. })));

        // Non-ASCII.
        let mut buf = Vec::new();
        let s = "é".as_bytes();
        buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
        buf.extend_from_slice(s);
        assert!(matches!(parse(&buf), Err(WireError::BadEncoding { .. })));
    }

    #[test]
    fn from_iterator() {
        let list: NameList = ["a", "b"].into_iter().collect();
        assert_eq!(list.len(), 2);
        assert_eq!(list.names().collect::<Vec<_>>(), ["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "non-empty and comma-free")]
    fn a_name_containing_a_comma_is_refused() {
        // Would emit as two names.
        let _ = NameList::new(["a,b"]);
    }

    #[test]
    #[should_panic(expected = "non-empty and comma-free")]
    fn an_empty_name_is_refused() {
        // Would emit as the empty list, or next to others as a `BadValue`.
        let _ = NameList::new(["aes128-ctr", ""]);
    }
}
