//! # alias-resolve
//!
//! The unified resolution pipeline: one trait-based entry point for every
//! alias-resolution technique in the workspace.
//!
//! The paper's core claim is that *combining* techniques — application-layer
//! identifiers (SSH, BGP, SNMPv3) on top of the classic IPID/ICMP baselines
//! (MIDAR, Ally, Speedtrap, iffinder) and the ICMP rate-limiting technique
//! ([`RateLimitTechnique`]) — pushes coverage far beyond any single method.
//! This crate makes that composition a first-class API:
//!
//! * [`ResolutionTechnique`] — the trait every technique implements
//!   ([`name`](ResolutionTechnique::name),
//!   [`required_sources`](ResolutionTechnique::required_sources),
//!   [`resolve`](ResolutionTechnique::resolve)), so all eight techniques
//!   are interchangeable trait objects;
//! * [`Resolver`] — a builder-style orchestrator
//!   (`Resolver::builder().technique(…)`) running scan →
//!   per-technique resolution (one technique at a time, in registration
//!   order) → cross-technique merge (sets sharing an address are unioned),
//!   returning a structured [`ResolutionReport`];
//! * an id-based data path — results are [`TechniqueResult`]s holding
//!   `CompactAliasSet`s over the campaign's `AddrId` space
//!   (`alias_core::intern`), merged directly in id space; address sets are
//!   materialised only through the report-boundary accessors
//!   ([`TechniqueResult::alias_sets`], [`TechniqueResult::testable`]).
//!
//! ## Quick start
//!
//! ```
//! use alias_resolve::{IdentifierTechnique, Resolver};
//! use alias_netsim::{InternetBuilder, InternetConfig};
//!
//! let internet = InternetBuilder::new(InternetConfig::tiny(7)).build();
//! let resolver = Resolver::builder()
//!     .technique(IdentifierTechnique::ssh())
//!     .technique(IdentifierTechnique::bgp())
//!     .technique(IdentifierTechnique::snmpv3())
//!     .build();
//! let report = resolver.resolve(&internet);
//! assert_eq!(report.techniques.len(), 3);
//! assert!(!report.merged.is_empty());
//! ```

mod baselines;
mod identifier;
mod ratelimit;
mod report;
mod resolver;
mod technique;

pub use baselines::{
    true_pair_fraction, AllyTechnique, FamilyTargets, IffinderTechnique, MidarTechnique,
    ProbeTargets, SpeedtrapTechnique,
};
pub use identifier::IdentifierTechnique;
pub use ratelimit::RateLimitTechnique;
pub use report::{
    CoverageStats, ResolutionReport, TechniqueAgreement, TechniqueCoverage, TechniqueTiming,
};
pub use resolver::{Resolver, ResolverBuilder};
pub use technique::{
    canonical_sets, DataRequirement, ResolutionTechnique, TechniqueCtx, TechniqueResult,
};
