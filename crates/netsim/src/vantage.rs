//! Vantage points.
//!
//! The paper's active measurements originate from a single vantage point in
//! a German data centre, while the Censys snapshot is collected from a
//! distributed scanning infrastructure.  The distinction matters: single-VP
//! scans are more likely to trip rate limiting and intrusion-detection
//! filters, which is one of the reasons Censys observes ~6M more SSH hosts
//! (Table 1).  Probes therefore carry the kind of vantage point that emitted
//! them.

/// The kind of measurement infrastructure a probe originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VantageKind {
    /// A single scanning host (the paper's own active measurements).
    SingleVp,
    /// A distributed scanning fleet (Censys-like).
    Distributed,
}
