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
//! * [`wire`] — BGP / SSH / SNMPv3 wire formats,
//! * [`netsim`] — the synthetic Internet used as the measurement substrate,
//! * [`store`] — columnar observation storage: interned column vectors,
//!   sharded append builders and zero-copy views,
//! * [`scan`] — ZMap/ZGrab2-style scanners, IPv6 hitlists, IPID probing,
//! * [`censys`] — Censys-like distributed snapshots,
//! * [`core`] — identifiers, alias sets, dual-stack inference, validation
//!   and AS-level analysis (the paper's contribution),
//! * [`resolve`] — the unified [`Resolver`](prelude::Resolver) pipeline:
//!   the identifier techniques and the Ally / MIDAR / Speedtrap / iffinder
//!   / rate-limit baselines behind one
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
//!     .technique(MidarTechnique)
//!     .threads(2) // shards the scan only; output is identical for any value
//!     .build();
//! let report = resolver.resolve(&internet);
//!
//! // Per-technique alias sets, cross-technique merged sets, agreement.
//! let ssh = report.technique("ssh").unwrap();
//! assert!(ssh.set_count() > 0);
//! assert!(!ssh.alias_sets().is_empty()); // address-set view, materialised on demand
//! assert_eq!(report.techniques.len(), 4);
//! let set_total: usize = report.techniques.iter().map(|t| t.set_count()).sum();
//! assert!(!report.merged.is_empty() && report.merged.len() <= set_total);
//! let names: Vec<&str> = report.techniques.iter().map(|t| &*t.technique).collect();
//! for (i, a) in names.iter().enumerate() {
//!     for b in &names[i + 1..] {
//!         assert!(report.agreement(a, b).is_some()); // every technique pair
//!     }
//! }
//! ```

pub use alias_censys as censys;
pub use alias_core as core;
pub use alias_netsim as netsim;
pub use alias_resolve as resolve;
pub use alias_scan as scan;
pub use alias_store as store;
pub use alias_wire as wire;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use alias_censys::{CensysConfig, CensysSnapshot};
    pub use alias_core::dual_stack::DualStackReport;
    pub use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
    pub use alias_core::identifier::SshIdentifierPolicy;
    pub use alias_netsim::{
        DeviceKind, Internet, InternetBuilder, InternetConfig, ScalePreset, ServiceProtocol,
        SimTime, VantageKind,
    };
    pub use alias_resolve::{
        midar_resolve, AllyTechnique, IdentifierTechnique, IffinderTechnique, MidarTechnique,
        ResolutionTechnique, Resolver, SpeedtrapTechnique, TechniqueCtx,
    };
    pub use alias_scan::{
        ActiveCampaign, CampaignConfig, CampaignData, DataSource, Ipv6Hitlist, RateProbeConfig,
        ServiceObservation, ServicePayload,
    };
    pub use alias_store::{ObservationStore, PayloadRef, ShardColumns};
}
