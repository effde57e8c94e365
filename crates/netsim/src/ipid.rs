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

/// How a device assigns IPv4 Identification values.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// Mutable per-device IPID state.  The per-interface probe counts of the
/// `PerInterface` model are not in it: they are one column over every
/// interface, whose run for the device each `Self::next_ipid` is handed.
#[derive(Debug, Clone)]
pub struct IpidState {
    model: IpidModel,
    /// Base offset of the shared counter.
    base: u16,
    /// Number of probe-elicited packets sent so far (shared counter).
    probes_sent: u64,
    /// Seed for the `Random` model so sequences are reproducible.
    seed: u64,
}

impl IpidState {
    /// Create fresh state for a device.
    pub(crate) fn new(model: IpidModel, seed: u64) -> Self {
        IpidState {
            model,
            base: (seed % 65_536) as u16,
            probes_sent: 0,
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
    pub(crate) fn model(&self) -> IpidModel {
        self.model
    }

    /// Produce the IPID for a packet generated at simulated time `now` on
    /// interface `iface`, and account for the generated packet.
    /// `per_interface` holds the device's per-interface probe counts, one
    /// per interface (at least one): a probe on a higher index counts
    /// against the last one.
    pub(crate) fn next_ipid(
        &mut self,
        now: SimTime,
        iface: usize,
        per_interface: &mut [u64],
    ) -> u16 {
        match self.model {
            IpidModel::SharedMonotonic { velocity } => {
                self.probes_sent += 1;
                let background = (velocity * now.as_secs_f64()) as u64;
                (self.base as u64 + background + self.probes_sent) as u16
            }
            IpidModel::PerInterface { velocity } => {
                let idx = iface.min(per_interface.len() - 1);
                per_interface[idx] += 1;
                let background = (velocity * now.as_secs_f64()) as u64;
                let base = self.per_interface_base(idx);
                (base as u64 + background + per_interface[idx]) as u16
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
        let mut counts = [0; 4];
        (0..n)
            .map(|i| state.next_ipid(SimTime(i as u64 * step_ms), iface, &mut counts))
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
        let mut state = IpidState::new(IpidModel::SharedMonotonic { velocity: 10.0 }, 42);
        let mut seq = Vec::new();
        for i in 0..100 {
            seq.push(state.next_ipid(SimTime(i * 100), (i % 4) as usize, &mut [0; 4]));
        }
        assert!(is_monotonic_mod_2_16(&seq));
    }

    #[test]
    fn per_interface_counters_do_not_interleave_monotonically() {
        let mut state = IpidState::new(IpidModel::PerInterface { velocity: 5.0 }, 7);
        // Individually monotonic...
        let a = samples(&mut state, 0, 50, 100);
        assert!(is_monotonic_mod_2_16(&a));
        let mut state = IpidState::new(IpidModel::PerInterface { velocity: 5.0 }, 7);
        let b = samples(&mut state, 1, 50, 100);
        assert!(is_monotonic_mod_2_16(&b));
        // ...but the interleaved sequence jumps between the two bases.
        let mut state = IpidState::new(IpidModel::PerInterface { velocity: 5.0 }, 7);
        let (mut interleaved, mut counts) = (Vec::new(), [0; 2]);
        for i in 0..60u64 {
            interleaved.push(state.next_ipid(SimTime(i * 100), (i % 2) as usize, &mut counts));
        }
        assert!(!is_monotonic_mod_2_16(&interleaved));
    }

    #[test]
    fn per_interface_bases_are_a_function_of_seed_and_index() {
        // The first packet of interface `i` at time zero is its base + 1;
        // an index past the last interface counts against the last one.
        let seed = 0xfeed_f00d_u64;
        let mut state = IpidState::new(IpidModel::PerInterface { velocity: 0.0 }, seed);
        let mut counts = [0; 3];
        for i in 0..3u64 {
            let base = (seed.wrapping_mul(0x9e37_79b9).wrapping_add(i * 7919) % 65_536) as u16;
            assert_eq!(
                state.next_ipid(SimTime::ZERO, i as usize, &mut counts),
                base.wrapping_add(1)
            );
        }
        let last = state.next_ipid(SimTime::ZERO, 2, &mut counts);
        assert_eq!(
            state.next_ipid(SimTime::ZERO, 9, &mut counts),
            last.wrapping_add(1)
        );
        assert_eq!(counts, [1, 1, 3]);
    }

    #[test]
    fn random_model_has_no_small_increments() {
        let mut state = IpidState::new(IpidModel::Random, 99);
        let seq = samples(&mut state, 0, 200, 50);
        assert!(!is_monotonic_mod_2_16(&seq));
        // Values should cover a wide range of the space.
        let min = *seq.iter().min().unwrap();
        let max = *seq.iter().max().unwrap();
        assert!(max - min > 30_000);
    }

    #[test]
    fn constant_model_never_changes() {
        let mut state = IpidState::new(IpidModel::Constant(0), 1);
        assert!(samples(&mut state, 0, 20, 10).iter().all(|&v| v == 0));
    }

    #[test]
    fn high_velocity_counter_wraps_between_samples() {
        // 40k increments per second with samples 1 s apart advances the
        // 16-bit counter by more than half its range every interval — the
        // "high velocity" failure mode the paper cites for MIDAR.
        let mut state = IpidState::new(IpidModel::SharedMonotonic { velocity: 40_000.0 }, 3);
        let seq = samples(&mut state, 0, 10, 1_000);
        assert!(!is_monotonic_mod_2_16(&seq));
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = IpidState::new(IpidModel::Random, 1234);
        let mut b = IpidState::new(IpidModel::Random, 1234);
        assert_eq!(samples(&mut a, 0, 32, 17), samples(&mut b, 0, 32, 17));
    }

    #[test]
    fn model_accessors() {
        assert_eq!(
            IpidModel::PerInterface { velocity: 2.0 }.velocity(),
            Some(2.0)
        );
        assert_eq!(IpidModel::Constant(9).velocity(), None);
    }
}
