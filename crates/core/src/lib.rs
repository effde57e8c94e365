//! # alias-core
//!
//! The paper's primary contribution: protocol-centric IP alias resolution
//! and dual-stack inference from application-layer identifiers.
//!
//! The pipeline is:
//!
//! 1. scanners (`alias-scan`, `alias-censys`) produce
//!    [`alias_scan::ServiceObservation`] records;
//! 2. [`identifier`] / [`extract`] turn each observation into a
//!    [`identifier::ProtocolIdentifier`] — for SSH the banner + the
//!    algorithm-preference fingerprint + the host key, for BGP the OPEN
//!    message fields, for SNMPv3 the engine ID;
//! 3. [`alias_set`] groups addresses that share an identifier into alias
//!    sets, and [`dual_stack`] pairs IPv4 with IPv6 addresses sharing an
//!    identifier;
//! 4. [`merge`] combines protocols and data sources (union analysis),
//!    [`validation`] cross-validates techniques against each other the way
//!    the paper's Table 2 does, and [`analysis`] produces the AS-level
//!    views (Tables 5–6, Figures 5–6);
//! 5. [`ecdf`] and [`report`] provide the distribution and formatting
//!    helpers the experiment binaries use to print paper-style tables.

pub mod alias_set;
pub mod analysis;
pub mod dataset;
pub mod dual_stack;
pub mod ecdf;
pub mod extract;
pub mod identifier;
pub mod intern;
pub mod merge;
pub mod report;
pub mod union_find;
pub mod validation;

pub use alias_set::{
    group_view_by_source, group_view_compact, CompactGrouping, FamilyGrouping, SourceGroups,
};
pub use alias_wire::hex;
pub use dual_stack::DualStackSet;
pub use ecdf::Ecdf;
pub use extract::{ExtractionConfig, IdentifierExtractor};
pub use identifier::{
    BgpIdentifier, BgpIdentifierPolicy, ProtocolIdentifier, SshIdentifier, SshIdentifierPolicy,
};
pub use intern::{AddrId, AddrInterner, CompactAliasSet, IdentId, IdentInterner};
