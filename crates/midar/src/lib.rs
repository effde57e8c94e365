//! # alias-midar
//!
//! IPID-based alias-resolution baselines: the state of the art the paper
//! validates against and improves upon.
//!
//! * [`mbt`] — the Monotonic Bounds Test at the heart of MIDAR: can the
//!   interleaved IPID samples of several addresses be explained by a single
//!   shared counter?
//! * [`ally`] — the classic pairwise Ally test.
//! * [`velocity`] — RadarGun-style velocity estimation, used to discard
//!   counters too fast (or too erratic) to be sampled reliably.
//! * [`midar`] — a MIDAR-style pipeline (estimation → discovery →
//!   elimination/corroboration) that turns a target list into alias sets.
//! * [`speedtrap`] — a Speedtrap-style placeholder check for IPv6, where the
//!   Identification field only exists in fragment headers.
//! * [`iffinder`] — the common-source-address technique, the oldest
//!   baseline.

pub mod ally;
pub mod iffinder;
pub mod mbt;
pub mod midar;
pub mod speedtrap;
pub mod velocity;

pub use ally::{ally_test, AllyVerdict};
pub use mbt::{monotonic_bounds_test, MbtVerdict};
pub use midar::{Midar, MidarConfig, MidarOutcome};
pub use velocity::{estimate_velocity, VelocityEstimate};
