//! # alias-resolution
//!
//! A Rust reproduction of *"Pushing Alias Resolution to the Limit"*
//! (Albakour, Gasser, Smaragdakis — ACM IMC 2023): multi-protocol IP alias
//! resolution and dual-stack inference from application-layer identifiers,
//! together with the measurement substrate, scanners and IPID baselines the
//! paper relies on.
//!
//! This facade crate re-exports the workspace crates so applications can
//! depend on a single crate:
//!
//! * [`wire`] — BGP / SSH / SNMPv3 / TCP-IP wire formats,
//! * [`netsim`] — the synthetic Internet used as the measurement substrate,
//! * [`store`] — columnar observation storage: interned column vectors,
//!   sharded append builders and zero-copy views,
//! * [`scan`] — ZMap/ZGrab2-style scanners, IPv6 hitlists, IPID probing,
//! * [`censys`] — Censys-like distributed snapshots,
//! * [`midar`] — Ally / MIDAR / Speedtrap / iffinder baselines,
//! * [`core`] — identifiers, alias sets, dual-stack inference, validation
//!   and AS-level analysis (the paper's contribution),
//! * [`resolve`] — the unified [`Resolver`](prelude::Resolver) pipeline:
//!   every technique above behind one
//!   [`ResolutionTechnique`](prelude::ResolutionTechnique) trait.
//!
//! ## Quick start
//!
//! The [`prelude::Resolver`] is the one entry point: register any mix of
//! techniques, run the scan, read the structured report.
//!
//! ```
//! use alias_resolution::prelude::*;
//!
//! // A small synthetic Internet, scanned and resolved end to end: the
//! // paper's three identifier techniques plus the MIDAR baseline, all
//! // through the same trait-object pipeline.
//! let internet = InternetBuilder::new(InternetConfig::tiny(7)).build();
//! let resolver = Resolver::builder()
//!     .paper_techniques() // SSH + BGP + SNMPv3 identifiers
//!     .technique(MidarTechnique::new())
//!     .threads(2) // shards the scan only; output is identical for any value
//!     .build();
//! let report = resolver.resolve(&internet);
//!
//! // Per-technique alias sets, cross-technique merged sets, agreement.
//! let ssh = report.technique("ssh").unwrap();
//! assert!(ssh.set_count() > 0);
//! assert!(!ssh.alias_sets().is_empty()); // address-set view, materialised on demand
//! assert_eq!(report.techniques.len(), 4);
//! assert_eq!(report.coverage.merged_sets, report.merged.len());
//! assert_eq!(report.coverage.agreements.len(), 6); // every technique pair
//! ```

pub use alias_censys as censys;
pub use alias_core as core;
pub use alias_midar as midar;
pub use alias_netsim as netsim;
pub use alias_resolve as resolve;
pub use alias_scan as scan;
pub use alias_store as store;
pub use alias_wire as wire;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use alias_censys::{CensysConfig, CensysSnapshot};
    pub use alias_core::alias_set::{FamilyGrouping, SourceGroups};
    pub use alias_core::dual_stack::{DualStackReport, DualStackSet};
    pub use alias_core::ecdf::Ecdf;
    pub use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
    pub use alias_core::identifier::{
        BgpIdentifier, BgpIdentifierPolicy, ProtocolIdentifier, SshIdentifier, SshIdentifierPolicy,
    };
    pub use alias_midar::{Midar, MidarConfig};
    pub use alias_netsim::{
        DeviceKind, Internet, InternetBuilder, InternetConfig, ScalePreset, ServiceProtocol,
        SimTime, VantageKind,
    };
    pub use alias_resolve::{
        AllyTechnique, CoverageStats, DataRequirement, IdentifierTechnique, IffinderTechnique,
        MidarTechnique, RateLimitTechnique, ResolutionReport, ResolutionTechnique, Resolver,
        ResolverBuilder, SpeedtrapTechnique, TechniqueCtx, TechniqueResult, TechniqueTiming,
    };
    pub use alias_scan::{
        ActiveCampaign, CampaignConfig, CampaignData, DataSource, Ipv6Hitlist, RateProbeConfig,
        ServiceObservation, ServicePayload, ZgrabScanner, ZmapScanner,
    };
    pub use alias_store::{
        ObservationRef, ObservationStore, ObservationView, PayloadRef, ShardColumns,
    };
}
