//! IPID counter models.
//!
//! IPID-based alias resolution (Ally, RadarGun, MIDAR, Speedtrap) works only
//! when a router derives the IPv4 Identification field of *all* interfaces
//! from a single monotonically increasing counter.  The paper's validation
//! finds that only ~13% of its SSH-derived alias sets can be confirmed by
//! MIDAR, because most devices either do not use an incremental counter or
//! increment it too fast to sample reliably.  The models here reproduce
//! exactly those behaviours so the baseline's partial coverage emerges for
//! the same reasons.

use crate::clock::SimTime;
use serde::{Deserialize, Serialize};

/// How a device assigns IPv4 Identification values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IpidModel {
    /// One counter shared by every interface, incremented for each generated
    /// packet; background traffic advances it at `velocity` packets/second.
    /// This is the behaviour MIDAR and Ally rely on.
    SharedMonotonic {
        /// Background counter velocity in increments per second.
        velocity: f64,
    },
    /// Each interface keeps an independent monotonic counter; interleaved
    /// samples from two interfaces do **not** form a single monotonic
    /// sequence, so IPID techniques correctly refuse to alias them.
    PerInterface {
        /// Background counter velocity in increments per second.
        velocity: f64,
    },
    /// The device draws IPID values pseudo-randomly (common for modern
    /// stacks that randomise the field).
    Random,
    /// The device always answers with a constant value (typically zero, as
    /// with many stacks when the DF bit is set).
    Constant(u16),
}

impl IpidModel {
    /// Whether the model can, in principle, be confirmed by a shared-counter
    /// monotonicity test.
    pub fn is_shared_monotonic(&self) -> bool {
        matches!(self, IpidModel::SharedMonotonic { .. })
    }

    /// Velocity in increments per second, where meaningful.
    pub fn velocity(&self) -> Option<f64> {
        match self {
            IpidModel::SharedMonotonic { velocity } | IpidModel::PerInterface { velocity } => {
                Some(*velocity)
            }
            _ => None,
        }
    }
}

/// Mutable per-device IPID state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IpidState {
    model: IpidModel,
    /// Base offset of the shared counter.
    base: u16,
    /// How many interfaces the device has (a probe on a higher index counts
    /// against the last one).
    interfaces: usize,
    /// Number of probe-elicited packets sent so far (shared counter).
    probes_sent: u64,
    /// Per-interface probe counts: one slot per interface (at least one)
    /// under `PerInterface`, empty for every other model.
    per_interface_probes: Vec<u64>,
    /// Seed for the `Random` model so sequences are reproducible.
    seed: u64,
}

impl IpidState {
    /// Create fresh state for a device with `interfaces` interfaces.
    /// Allocates only for the one model that counts per interface.
    pub fn new(model: IpidModel, interfaces: usize, seed: u64) -> Self {
        let per_interface_probes = match model {
            IpidModel::PerInterface { .. } => vec![0; interfaces.max(1)],
            _ => Vec::new(),
        };
        IpidState {
            model,
            base: (seed % 65_536) as u16,
            interfaces,
            probes_sent: 0,
            per_interface_probes,
            seed,
        }
    }

    /// Base offset of interface `idx`'s own counter: spread out, so that
    /// sequences from different interfaces are clearly distinct.
    fn per_interface_base(&self, idx: usize) -> u16 {
        let spread = self.seed.wrapping_mul(0x9e37_79b9);
        (spread.wrapping_add(idx as u64 * 7919) % 65_536) as u16
    }

    /// The model this state implements.
    pub fn model(&self) -> IpidModel {
        self.model
    }

    /// Produce the IPID for a packet generated at simulated time `now` on
    /// interface `iface`, and account for the generated packet.
    pub fn next_ipid(&mut self, now: SimTime, iface: usize) -> u16 {
        match self.model {
            IpidModel::SharedMonotonic { velocity } => {
                self.probes_sent += 1;
                let background = (velocity * now.as_secs_f64()) as u64;
                (self.base as u64 + background + self.probes_sent) as u16
            }
            IpidModel::PerInterface { velocity } => {
                let idx = iface.min(self.interfaces.saturating_sub(1));
                self.per_interface_probes[idx] += 1;
                let background = (velocity * now.as_secs_f64()) as u64;
                // A device without interfaces has no counter to offset.
                let base = match self.interfaces {
                    0 => 0,
                    _ => self.per_interface_base(idx),
                };
                (base as u64 + background + self.per_interface_probes[idx]) as u16
            }
            IpidModel::Random => {
                self.probes_sent += 1;
                // SplitMix64-style hash of (seed, counter, time) — reproducible
                // but with no exploitable monotone structure.
                let mut x = self
                    .seed
                    .wrapping_add(self.probes_sent)
                    .wrapping_add(now.as_millis().wrapping_mul(0x9e37_79b9_7f4a_7c15));
                x ^= x >> 30;
                x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^= x >> 31;
                (x % 65_536) as u16
            }
            IpidModel::Constant(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(state: &mut IpidState, iface: usize, n: usize, step_ms: u64) -> Vec<u16> {
        (0..n)
            .map(|i| state.next_ipid(SimTime(i as u64 * step_ms), iface))
            .collect()
    }

    /// Check that a u16 sequence is monotonic modulo 2^16 with small gaps.
    fn is_monotonic_mod_2_16(seq: &[u16]) -> bool {
        seq.windows(2).all(|w| {
            let delta = w[1].wrapping_sub(w[0]);
            delta > 0 && delta < 30_000
        })
    }

    #[test]
    fn shared_monotonic_is_monotonic_across_interfaces() {
        let mut state = IpidState::new(IpidModel::SharedMonotonic { velocity: 10.0 }, 4, 42);
        let mut seq = Vec::new();
        for i in 0..100 {
            seq.push(state.next_ipid(SimTime(i * 100), (i % 4) as usize));
        }
        assert!(is_monotonic_mod_2_16(&seq));
    }

    #[test]
    fn per_interface_counters_do_not_interleave_monotonically() {
        let mut state = IpidState::new(IpidModel::PerInterface { velocity: 5.0 }, 2, 7);
        // Individually monotonic...
        let a = samples(&mut state, 0, 50, 100);
        assert!(is_monotonic_mod_2_16(&a));
        let mut state = IpidState::new(IpidModel::PerInterface { velocity: 5.0 }, 2, 7);
        let b = samples(&mut state, 1, 50, 100);
        assert!(is_monotonic_mod_2_16(&b));
        // ...but the interleaved sequence jumps between the two bases.
        let mut state = IpidState::new(IpidModel::PerInterface { velocity: 5.0 }, 2, 7);
        let mut interleaved = Vec::new();
        for i in 0..60u64 {
            interleaved.push(state.next_ipid(SimTime(i * 100), (i % 2) as usize));
        }
        assert!(!is_monotonic_mod_2_16(&interleaved));
    }

    #[test]
    fn per_interface_bases_are_a_function_of_seed_and_index() {
        // The first packet of interface `i` at time zero is its base + 1;
        // an index past the last interface counts against the last one.
        let seed = 0xfeed_f00d_u64;
        let mut state = IpidState::new(IpidModel::PerInterface { velocity: 0.0 }, 3, seed);
        for i in 0..3u64 {
            let base = (seed.wrapping_mul(0x9e37_79b9).wrapping_add(i * 7919) % 65_536) as u16;
            assert_eq!(
                state.next_ipid(SimTime::ZERO, i as usize),
                base.wrapping_add(1)
            );
        }
        let last = state.next_ipid(SimTime::ZERO, 2);
        assert_eq!(state.next_ipid(SimTime::ZERO, 9), last.wrapping_add(1));
        // No interfaces at all: one counter, offset by nothing.
        let mut bare = IpidState::new(IpidModel::PerInterface { velocity: 0.0 }, 0, seed);
        assert_eq!(bare.next_ipid(SimTime::ZERO, 4), 1);
        assert_eq!(bare.next_ipid(SimTime::ZERO, 0), 2);
    }

    #[test]
    fn random_model_has_no_small_increments() {
        let mut state = IpidState::new(IpidModel::Random, 1, 99);
        let seq = samples(&mut state, 0, 200, 50);
        assert!(!is_monotonic_mod_2_16(&seq));
        // Values should cover a wide range of the space.
        let min = *seq.iter().min().unwrap();
        let max = *seq.iter().max().unwrap();
        assert!(max - min > 30_000);
    }

    #[test]
    fn constant_model_never_changes() {
        let mut state = IpidState::new(IpidModel::Constant(0), 3, 1);
        assert!(samples(&mut state, 0, 20, 10).iter().all(|&v| v == 0));
    }

    #[test]
    fn high_velocity_counter_wraps_between_samples() {
        // 40k increments per second with samples 1 s apart advances the
        // 16-bit counter by more than half its range every interval — the
        // "high velocity" failure mode the paper cites for MIDAR.
        let mut state = IpidState::new(IpidModel::SharedMonotonic { velocity: 40_000.0 }, 1, 3);
        let seq = samples(&mut state, 0, 10, 1_000);
        assert!(!is_monotonic_mod_2_16(&seq));
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = IpidState::new(IpidModel::Random, 1, 1234);
        let mut b = IpidState::new(IpidModel::Random, 1, 1234);
        assert_eq!(samples(&mut a, 0, 32, 17), samples(&mut b, 0, 32, 17));
    }

    #[test]
    fn model_accessors() {
        assert!(IpidModel::SharedMonotonic { velocity: 1.0 }.is_shared_monotonic());
        assert!(!IpidModel::Random.is_shared_monotonic());
        assert_eq!(
            IpidModel::PerInterface { velocity: 2.0 }.velocity(),
            Some(2.0)
        );
        assert_eq!(IpidModel::Constant(9).velocity(), None);
    }
}
