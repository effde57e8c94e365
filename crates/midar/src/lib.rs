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
//!   elimination/corroboration) that turns a target list into alias sets;
//!   over IPv6 targets it is the Speedtrap baseline.
//! * [`iffinder`] — the common-source-address technique, the oldest
//!   baseline.

pub mod ally;
pub mod iffinder;
pub mod mbt;
pub mod midar;
pub mod velocity;

pub use midar::midar_resolve;
