//! The interning layer the hot resolution path runs on (re-exported from
//! `alias-intern`, the bottom-layer crate, so `alias-scan` can share the
//! same id space without a dependency cycle).
//!
//! * [`AddrInterner`] — `IpAddr` ⇄ dense [`AddrId`]; a campaign interns
//!   every observed address once, and grouping + merging run on the ids.
//! * [`IdentInterner`] — identifier byte key
//!   ([`crate::extract::IdentifierExtractor::key_into`]) ⇄ dense
//!   [`IdentId`]: the keys in a byte arena, found by their keyed hash and
//!   confirmed byte for byte; identifier grouping sorts rows by these ids
//!   instead of keeping a map from owned identifier values.
//! * [`CompactAliasSet`] — the id-based alias set (sorted `Vec<AddrId>`);
//!   `BTreeSet<IpAddr>` is resolved only at the report/rendering boundary.

pub use alias_intern::{
    sort_canonical_compact, AddrId, AddrInterner, CompactAliasSet, IdentId, IdentInterner,
};
