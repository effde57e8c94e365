//! Ground truth: the device-to-address mapping the real Internet never
//! reveals.
//!
//! Because the substrate is simulated, every inference made by the toolkit
//! can be scored against the true aliasing relation.  The paper can only
//! cross-validate techniques against each other (Table 2); here we can also
//! compute precision and recall directly, which the evaluation harness
//! reports alongside the paper-style agreement numbers.

use crate::ids::DeviceId;
use std::collections::HashMap;
use std::net::IpAddr;

/// The true aliasing relation of a simulated Internet, as a map of its
/// own.  [`crate::Internet::score_sets`] scores against the Internet's IP
/// index without building one.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Address → owning device.
    pub owner: HashMap<IpAddr, DeviceId>,
}

impl GroundTruth {
    /// Record that `addr` belongs to `device`.
    pub fn insert(&mut self, device: DeviceId, addr: IpAddr) {
        self.owner.insert(addr, device);
    }

    /// The device owning `addr`, if it exists.
    pub fn device_of(&self, addr: IpAddr) -> Option<DeviceId> {
        self.owner.get(&addr).copied()
    }

    /// Whether two addresses are true aliases (same device).
    pub fn are_aliases(&self, a: IpAddr, b: IpAddr) -> bool {
        match (self.device_of(a), self.device_of(b)) {
            (Some(da), Some(db)) => da == db,
            _ => false,
        }
    }

    /// Number of known addresses.
    pub fn address_count(&self) -> usize {
        self.owner.len()
    }

    /// Score a collection of inferred alias sets against the ground truth
    /// ([`PairwiseScore::of_labelled_sets`] with each member's owner looked
    /// up here).
    pub fn score_sets<'a, I, S>(&self, sets: I) -> PairwiseScore
    where
        I: IntoIterator<Item = S>,
        S: IntoIterator<Item = &'a IpAddr>,
    {
        let labelled = |set: S| set.into_iter().map(|&addr| (addr, self.device_of(addr)));
        PairwiseScore::of_labelled_sets(sets.into_iter().map(labelled))
    }
}

/// Pairwise precision/recall of an inferred alias partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairwiseScore {
    /// Number of address pairs placed in the same inferred set.
    pub inferred_pairs: u64,
    /// Of those, the pairs that really share a device.
    pub true_positive_pairs: u64,
    /// True alias pairs among all addresses covered by the inference.
    pub true_pairs: u64,
}

/// Unordered pairs among `n` things.
fn pairs_among(n: u64) -> u64 {
    n * n.saturating_sub(1) / 2
}

/// Pairs inside the runs of `sorted` whose neighbours are on the `same`
/// device.
fn pairs_within_runs<T>(sorted: &[T], same: impl Fn(&T, &T) -> bool) -> u64 {
    let runs = sorted.chunk_by(same);
    runs.map(|run| pairs_among(run.len() as u64)).sum()
}

impl PairwiseScore {
    /// Score inferred alias sets whose members arrive as `(address, owning
    /// device)` — the one scoring body; its callers differ only in where
    /// the device label comes from.  `address` is any key that is equal
    /// exactly for equal addresses (an `IpAddr`, an interned id).
    ///
    /// A set of `n` members infers `n·(n−1)/2` pairs; the pairs among its
    /// members that share a device are the true positives (found by
    /// sorting the set's labels, never by enumerating pairs).  Recall is
    /// restricted to the addresses that appear in the inferred sets — an
    /// inference technique cannot be penalised for addresses it never
    /// probed: the true pairs are those among the *distinct* addresses
    /// seen, device by device.  A member no device owns (`None`) forms
    /// inferred pairs and no true ones; a member listed twice counts twice
    /// towards the first two numbers, as the pairwise definition has it.
    pub fn of_labelled_sets<K, S>(sets: impl IntoIterator<Item = S>) -> PairwiseScore
    where
        K: Ord + Copy,
        S: IntoIterator<Item = (K, Option<DeviceId>)>,
    {
        let mut score = PairwiseScore {
            inferred_pairs: 0,
            true_positive_pairs: 0,
            true_pairs: 0,
        };
        let mut labels: Vec<DeviceId> = Vec::new();
        let mut owned: Vec<(DeviceId, K)> = Vec::new();
        for set in sets {
            labels.clear();
            let mut members = 0;
            for (address, device) in set {
                members += 1;
                if let Some(device) = device {
                    labels.push(device);
                    owned.push((device, address));
                }
            }
            score.inferred_pairs += pairs_among(members);
            labels.sort_unstable();
            score.true_positive_pairs += pairs_within_runs(&labels, |a, b| a == b);
        }
        owned.sort_unstable();
        owned.dedup();
        score.true_pairs = pairs_within_runs(&owned, |a, b| a.0 == b.0);
        score
    }

    /// Pairwise precision (1.0 when no pairs were inferred).
    pub fn precision(&self) -> f64 {
        if self.inferred_pairs == 0 {
            1.0
        } else {
            self.true_positive_pairs as f64 / self.inferred_pairs as f64
        }
    }

    /// Pairwise recall (1.0 when there were no true pairs to find).
    pub fn recall(&self) -> f64 {
        if self.true_pairs == 0 {
            1.0
        } else {
            self.true_positive_pairs as f64 / self.true_pairs as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn sample_truth() -> GroundTruth {
        let mut gt = GroundTruth::default();
        gt.insert(DeviceId(0), ip("10.0.0.1"));
        gt.insert(DeviceId(0), ip("10.0.0.2"));
        gt.insert(DeviceId(0), ip("10.0.0.3"));
        gt.insert(DeviceId(1), ip("10.0.1.1"));
        gt.insert(DeviceId(1), ip("10.0.1.2"));
        gt.insert(DeviceId(2), ip("10.0.2.1"));
        gt
    }

    #[test]
    fn alias_lookup() {
        let gt = sample_truth();
        assert!(gt.are_aliases(ip("10.0.0.1"), ip("10.0.0.3")));
        assert!(!gt.are_aliases(ip("10.0.0.1"), ip("10.0.1.1")));
        assert!(!gt.are_aliases(ip("10.0.0.1"), ip("192.0.2.1")));
        assert_eq!(gt.device_of(ip("10.0.1.2")), Some(DeviceId(1)));
        assert_eq!(gt.address_count(), 6);
    }

    #[test]
    fn perfect_inference_scores_one() {
        let gt = sample_truth();
        let sets: Vec<Vec<IpAddr>> = vec![
            vec![ip("10.0.0.1"), ip("10.0.0.2"), ip("10.0.0.3")],
            vec![ip("10.0.1.1"), ip("10.0.1.2")],
        ];
        let score = gt.score_sets(sets.iter().map(|s| s.iter()));
        assert_eq!(score.precision(), 1.0);
        assert_eq!(score.recall(), 1.0);
        assert_eq!(score.f1(), 1.0);
    }

    #[test]
    fn over_merging_hurts_precision() {
        let gt = sample_truth();
        let sets: Vec<Vec<IpAddr>> = vec![vec![ip("10.0.0.1"), ip("10.0.0.2"), ip("10.0.1.1")]];
        let score = gt.score_sets(sets.iter().map(|s| s.iter()));
        assert!(score.precision() < 1.0);
        // 1 true pair inferred of 3 inferred pairs.
        assert_eq!(score.true_positive_pairs, 1);
        assert_eq!(score.inferred_pairs, 3);
    }

    #[test]
    fn splitting_hurts_recall() {
        let gt = sample_truth();
        let sets: Vec<Vec<IpAddr>> =
            vec![vec![ip("10.0.0.1"), ip("10.0.0.2")], vec![ip("10.0.0.3")]];
        let score = gt.score_sets(sets.iter().map(|s| s.iter()));
        assert_eq!(score.precision(), 1.0);
        // The three addresses of device 0 form 3 true pairs; only 1 inferred.
        assert!((score.recall() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inference_scores_trivially() {
        let gt = sample_truth();
        let sets: Vec<Vec<IpAddr>> = Vec::new();
        let score = gt.score_sets(sets.iter().map(|s| s.iter()));
        assert_eq!(score.precision(), 1.0);
        assert_eq!(score.recall(), 1.0);
    }

    /// The pairwise definition, word for word: enumerate every pair of
    /// every set and ask the ground truth.
    fn score_by_definition(gt: &GroundTruth, sets: &[Vec<IpAddr>]) -> PairwiseScore {
        let pairs = |members: &[IpAddr]| -> Vec<(IpAddr, IpAddr)> {
            let indices = 0..members.len();
            let pairs = indices.flat_map(|i| (i + 1..members.len()).map(move |j| (i, j)));
            pairs.map(|(i, j)| (members[i], members[j])).collect()
        };
        let inferred: Vec<(IpAddr, IpAddr)> = sets.iter().flat_map(|set| pairs(set)).collect();
        let mut seen: Vec<IpAddr> = sets.iter().flatten().copied().collect();
        seen.sort_unstable();
        seen.dedup();
        let aliases = |pairs: &[(IpAddr, IpAddr)]| {
            pairs.iter().filter(|&&(a, b)| gt.are_aliases(a, b)).count() as u64
        };
        PairwiseScore {
            inferred_pairs: inferred.len() as u64,
            true_positive_pairs: aliases(&inferred),
            true_pairs: aliases(&pairs(&seen)),
        }
    }

    #[test]
    fn the_scorer_computes_the_pairwise_definition() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        for case in 0..150 {
            // A universe of addresses, a fifth of them owned by no device.
            let universe = rng.gen_range(1..400u32);
            let devices = rng.gen_range(1..=universe);
            let addr = |n: u32| IpAddr::from(std::net::Ipv4Addr::from(0x0a00_0000 + n));
            let mut gt = GroundTruth::default();
            for n in 0..universe {
                if rng.gen_range(0..5) != 0 {
                    gt.insert(DeviceId(rng.gen_range(0..devices)), addr(n));
                }
            }
            // Sets drawn with replacement: duplicate members and sets that
            // overlap come for free; empty, singleton and (every tenth
            // case) 300-member sets are forced in.
            let mut sets: Vec<Vec<IpAddr>> = (0..rng.gen_range(0..12))
                .map(|_| {
                    let len = rng.gen_range(0..9);
                    (0..len).map(|_| addr(rng.gen_range(0..universe))).collect()
                })
                .collect();
            sets.push(Vec::new());
            sets.push(vec![addr(rng.gen_range(0..universe))]);
            if case % 10 == 0 {
                let big = (0..rng.gen_range(300..340)).map(|_| addr(rng.gen_range(0..universe)));
                sets.push(big.collect());
            }
            let score = gt.score_sets(sets.iter().map(|set| set.iter()));
            assert_eq!(score, score_by_definition(&gt, &sets), "case {case}");
        }
    }

    #[test]
    fn unknown_and_repeated_members_count_as_the_definition_counts_them() {
        let gt = sample_truth();
        let unknown = ip("192.0.2.1");
        // {a, a, b, unknown}: six inferred pairs, of which a–a, a–b and
        // a–b again are true; among the distinct addresses only a–b is.
        let sets = vec![vec![
            ip("10.0.0.1"),
            ip("10.0.0.1"),
            ip("10.0.0.2"),
            unknown,
        ]];
        let score = gt.score_sets(sets.iter().map(|s| s.iter()));
        assert_eq!(
            score,
            PairwiseScore {
                inferred_pairs: 6,
                true_positive_pairs: 3,
                true_pairs: 1,
            }
        );
        assert_eq!(score, score_by_definition(&gt, &sets));
    }
}
