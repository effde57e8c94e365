//! Counter-velocity estimation (RadarGun-style).
//!
//! Before testing candidate pairs, MIDAR estimates each address's IPID
//! velocity from a time series.  Addresses whose counters are not
//! incremental (random, constant) or increment too fast to sample reliably
//! are discarded — they are exactly the reason the paper's MIDAR validation
//! could verify only 13% of the sampled alias sets.

use crate::mbt::step_bound;
use alias_netsim::IpidSample;

/// Outcome of velocity estimation for one address.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VelocityEstimate {
    /// The counter looks monotonic with the given velocity (increments/s).
    Monotonic {
        /// Estimated increments per second.
        velocity: f64,
    },
    /// The samples are not consistent with a monotonic counter.
    NonMonotonic,
    /// The counter never changes.
    Constant,
    /// Too few samples to estimate.
    Insufficient,
}

/// Estimate the counter velocity of one address from its samples.
///
/// The estimator checks that forward (mod 2^16) deltas between consecutive
/// samples are plausible for a counter no faster than MIDAR's velocity cap
/// (the bounds test's step bound), then returns the average rate.
pub fn estimate_velocity(samples: &[IpidSample]) -> VelocityEstimate {
    if samples.len() < 3 {
        return VelocityEstimate::Insufficient;
    }
    if samples.windows(2).all(|w| w[1].ipid == w[0].ipid) {
        return VelocityEstimate::Constant;
    }
    let mut total_delta = 0.0;
    let mut total_time = 0.0;
    for window in samples.windows(2) {
        let dt = window[1].time.since(window[0].time).as_secs_f64();
        if dt <= 0.0 {
            continue;
        }
        let delta = window[1].ipid.wrapping_sub(window[0].ipid) as f64;
        if delta > step_bound(dt) {
            return VelocityEstimate::NonMonotonic;
        }
        total_delta += delta;
        total_time += dt;
    }
    if total_time <= 0.0 {
        return VelocityEstimate::Insufficient;
    }
    VelocityEstimate::Monotonic {
        velocity: total_delta / total_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::SimTime;

    fn series(samples: &[(u64, u16)]) -> Vec<IpidSample> {
        samples
            .iter()
            .map(|&(ms, ipid)| IpidSample {
                time: SimTime(ms),
                ipid,
            })
            .collect()
    }

    #[test]
    fn slow_monotonic_counter_is_estimated() {
        let s = series(&[(0, 100), (10_000, 200), (20_000, 300), (30_000, 410)]);
        match estimate_velocity(&s) {
            VelocityEstimate::Monotonic { velocity } => {
                assert!((velocity - 10.33).abs() < 0.5, "velocity {velocity}");
            }
            other => panic!("unexpected estimate {other:?}"),
        }
    }

    #[test]
    fn random_counter_is_non_monotonic() {
        let s = series(&[(0, 100), (10_000, 60_000), (20_000, 3), (30_000, 42_000)]);
        assert_eq!(estimate_velocity(&s), VelocityEstimate::NonMonotonic);
    }

    #[test]
    fn constant_counter_is_flagged() {
        let s = series(&[(0, 7), (10_000, 7), (20_000, 7)]);
        assert_eq!(estimate_velocity(&s), VelocityEstimate::Constant);
    }

    #[test]
    fn short_series_is_insufficient() {
        let s = series(&[(0, 1), (10_000, 2)]);
        assert_eq!(estimate_velocity(&s), VelocityEstimate::Insufficient);
    }

    #[test]
    fn counter_wrap_is_tolerated_for_slow_counters() {
        let s = series(&[(0, 65_500), (10_000, 65_530), (20_000, 30), (30_000, 80)]);
        assert!(matches!(
            estimate_velocity(&s),
            VelocityEstimate::Monotonic { .. }
        ));
    }
}
