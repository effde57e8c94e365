//! The interning layer the hot resolution path runs on (re-exported from
//! `alias-intern`, the bottom-layer crate, so `alias-scan` can share the
//! same id space without a dependency cycle).
//!
//! * [`AddrInterner`] — `IpAddr` ⇄ dense [`AddrId`]; a campaign interns
//!   every observed address once, and grouping + merging run on the ids.
//! * [`IdentInterner`] — identifier byte key
//!   ([`crate::extract::IdentifierExtractor::key_into`]) ⇄ dense
//!   [`IdentId`]; identifier grouping keys maps by id instead of by owned
//!   identifier values.
//! * [`CompactAliasSet`] — the id-based alias set (sorted `Vec<AddrId>`);
//!   `BTreeSet<IpAddr>` is resolved only at the report/rendering boundary.

pub use alias_intern::{
    sort_canonical_compact, AddrId, AddrInterner, CompactAliasSet, IdentId, Interner,
};

/// Interner for identifier byte keys: the id space identifier grouping
/// runs on.
pub type IdentInterner = Interner<Vec<u8>>;
