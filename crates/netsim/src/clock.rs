//! Simulated time.
//!
//! All measurement timing in the workspace — probe pacing, MIDAR's
//! multi-week runs, churn between the Censys snapshot and the active scan —
//! is expressed in simulated milliseconds so experiments are deterministic
//! and fast regardless of wall-clock speed.

use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in milliseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Build from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000)
    }

    /// Build from whole minutes.
    pub(crate) const fn from_mins(mins: u64) -> Self {
        Self::from_secs(mins * 60)
    }

    /// Build from whole hours.
    pub(crate) const fn from_hours(hours: u64) -> Self {
        Self::from_mins(hours * 60)
    }

    /// Build from whole days.
    pub const fn from_days(days: u64) -> Self {
        Self::from_hours(days * 24)
    }

    /// Milliseconds since the start of the run.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the start of the run.
    pub fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the start of the run as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Elapsed time since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimTime::from_mins(3).as_secs(), 180);
        assert_eq!(SimTime::from_hours(1).as_secs(), 3_600);
        assert_eq!(SimTime::from_days(2).as_secs(), 172_800);
        assert!((SimTime(1_500).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_saturates() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(4);
        assert_eq!((a - b).as_secs(), 6);
        assert_eq!((b - a).as_secs(), 0);
        assert_eq!(b.since(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c.as_secs(), 14);
        assert_eq!((a + b).as_secs(), 14);
    }
}
