//! # alias-netsim
//!
//! A synthetic, seeded Internet used as the measurement substrate for the
//! alias-resolution toolkit.
//!
//! The paper this workspace reproduces ("Pushing Alias Resolution to the
//! Limit", IMC 2023) measures the real IPv4/IPv6 Internet.  That substrate
//! is not available here, so this crate provides the closest synthetic
//! equivalent that exercises the same code paths:
//!
//! * an **AS-level topology** of cloud providers, ISPs and enterprise
//!   networks with realistic address allocations ([`topology`]),
//! * the **routed space**: the announced IPv4 prefixes as one index range
//!   with a dense table of who holds each address — what an Internet-wide
//!   sweep iterates, and the IPv4 half of the IP index ([`space`]),
//! * **devices** (routers, servers, CPE) with one or many IPv4/IPv6
//!   interfaces, per-device protocol configuration and ground-truth
//!   identity ([`device`]),
//! * **services** that answer probes with real wire bytes produced by
//!   `alias-wire` — SSH banners/KEXINIT/host keys, BGP OPEN/NOTIFICATION,
//!   SNMPv3 engine reports ([`services`]),
//! * **IPID counter models** (shared monotonic, per-interface, random,
//!   high-velocity) that determine whether IPID-based baselines such as
//!   MIDAR can confirm an alias set ([`ipid`]),
//! * measurement frictions that shape the paper's numbers: ACLs, single- vs
//!   distributed-vantage-point visibility, rate limiting and address churn
//!   ([`internet`], [`vantage`]),
//! * the **ground truth** the real Internet never reveals, used for
//!   precision/recall style evaluation ([`ground_truth`]).
//!
//! Everything is generated deterministically from an [`config::InternetConfig`]
//! and a seed, so every experiment in the workspace is reproducible
//! bit-for-bit.

pub mod builder;
pub mod clock;
pub mod config;
pub mod device;
pub mod ground_truth;
pub mod ids;
pub mod internet;
pub mod ipid;
pub mod profiles;
pub mod ratelimit;
pub mod services;
pub mod space;
pub mod topology;
pub mod vantage;

pub use builder::InternetBuilder;
pub use clock::SimTime;
pub use config::{InternetConfig, ScalePreset};
pub use device::{Device, DeviceKind, Interface};
pub use ground_truth::{GroundTruth, PairwiseScore};
pub use ids::{Asn, DeviceId};
pub use internet::{Internet, ProbeContext, ProbeSession, ServiceProtocol, SynResult};
pub use ratelimit::{
    joint_burst_replies_shared, solo_burst_replies, IcmpRateLimit, IcmpTokenBucket,
};
pub use space::RoutedSpace;
pub use vantage::VantageKind;
