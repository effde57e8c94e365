//! Pseudorandom address permutation.
//!
//! ZMap famously iterates the IPv4 space in a pseudorandom order generated
//! by a cyclic group, so probes to adjacent addresses are spread out in time
//! and no per-address state is needed.  The simulator's address space is a
//! list of routed prefixes rather than the whole 2^32 space, so we permute
//! the index range `[0, n)` instead, using a full-period linear congruential
//! generator over the next power of two and skipping out-of-range values —
//! the same stateless-iteration property with a much simpler construction.

/// A bijective pseudorandom permutation of `[0, n)`.
#[derive(Debug, Clone)]
pub struct IndexPermutation {
    n: u64,
    modulus: u64,
    multiplier: u64,
    increment: u64,
}

impl IndexPermutation {
    /// Create a permutation of `[0, n)` seeded with `seed`.
    pub fn new(n: u64, seed: u64) -> Self {
        let modulus = n.max(2).next_power_of_two();
        // Full-period LCG over a power-of-two modulus requires:
        //   increment odd, multiplier ≡ 1 (mod 4).
        let multiplier = ((seed | 1).wrapping_mul(4)).wrapping_add(1) % modulus;
        let increment = (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1) % modulus;
        IndexPermutation {
            n,
            modulus,
            multiplier: multiplier.max(5),
            increment,
        }
    }

    /// Number of elements in the permutation.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterate over all indices exactly once in pseudorandom order: the
    /// whole raw period, out-of-range values skipped.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter_raw_range(0, self.raw_len())
    }

    /// Number of raw LCG steps making up one full period (the power-of-two
    /// modulus).  Raw steps are the shardable unit: splitting `[0,
    /// raw_len())` into contiguous ranges and concatenating the
    /// [`Self::iter_raw_range`] outputs reproduces [`Self::iter`] exactly.
    pub fn raw_len(&self) -> u64 {
        self.modulus
    }

    /// The LCG state at raw step `step`, computed in `O(log step)` by
    /// composing the affine map `x -> multiplier·x + increment (mod m)`
    /// with itself — this is what lets shard workers jump straight to the
    /// start of their raw-step range.
    fn state_at(&self, step: u64) -> u64 {
        let mask = self.modulus - 1;
        // Compose `step` applications of (a, c): x -> a·x + c (mod 2^k).
        let (mut acc_a, mut acc_c) = (1u64, 0u64);
        let (mut sq_a, mut sq_c) = (self.multiplier & mask, self.increment & mask);
        let mut remaining = step;
        while remaining > 0 {
            if remaining & 1 == 1 {
                // (sq ∘ acc): first acc, then sq.
                acc_c = sq_a.wrapping_mul(acc_c).wrapping_add(sq_c) & mask;
                acc_a = sq_a.wrapping_mul(acc_a) & mask;
            }
            sq_c = sq_a.wrapping_mul(sq_c).wrapping_add(sq_c) & mask;
            sq_a = sq_a.wrapping_mul(sq_a) & mask;
            remaining >>= 1;
        }
        let start = self.increment & mask;
        acc_a.wrapping_mul(start).wrapping_add(acc_c) & mask
    }

    /// Iterate the in-range indices emitted during raw steps `[start, end)`.
    ///
    /// Concatenating the outputs for contiguous raw ranges covering
    /// `[0, raw_len())` yields exactly the sequence of [`Self::iter`]:
    /// same values, same order — the foundation of the deterministic
    /// sharded scan.
    pub fn iter_raw_range(&self, start: u64, end: u64) -> impl Iterator<Item = u64> + '_ {
        let end = end.min(self.modulus);
        let mut state = if start < end { self.state_at(start) } else { 0 };
        let mut step = start;
        // The modulus is a power of two: reduce with a mask, not a division.
        let mask = self.modulus - 1;
        std::iter::from_fn(move || {
            while step < end {
                let value = state;
                state = state
                    .wrapping_mul(self.multiplier)
                    .wrapping_add(self.increment)
                    & mask;
                step += 1;
                if value < self.n {
                    return Some(value);
                }
            }
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn permutation_is_a_bijection() {
        for n in [1u64, 2, 3, 10, 255, 256, 1000, 4096] {
            let perm = IndexPermutation::new(n, 42);
            let mut seen = vec![false; n as usize];
            let mut count = 0u64;
            for idx in perm.iter() {
                assert!(!seen[idx as usize], "index {idx} emitted twice for n={n}");
                seen[idx as usize] = true;
                count += 1;
            }
            assert_eq!(count, n);
        }
    }

    #[test]
    fn different_seeds_give_different_orders() {
        let a: Vec<u64> = IndexPermutation::new(1000, 1).iter().collect();
        let b: Vec<u64> = IndexPermutation::new(1000, 2).iter().collect();
        assert_ne!(a, b);
    }

    #[test]
    fn order_is_not_sequential() {
        let order: Vec<u64> = IndexPermutation::new(10_000, 7).iter().take(100).collect();
        let sequential = order.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(sequential < 10, "order looks sequential: {order:?}");
    }

    #[test]
    fn empty_and_tiny() {
        assert_eq!(IndexPermutation::new(0, 3).iter().count(), 0);
        assert!(IndexPermutation::new(0, 3).is_empty());
        assert_eq!(
            IndexPermutation::new(1, 3).iter().collect::<Vec<_>>(),
            vec![0]
        );
    }

    #[test]
    fn raw_range_concatenation_reproduces_iter() {
        for (n, shards) in [
            (1u64, 2usize),
            (10, 3),
            (255, 7),
            (1000, 2),
            (1000, 7),
            (4096, 5),
        ] {
            let perm = IndexPermutation::new(n, 99);
            let serial: Vec<u64> = perm.iter().collect();
            let raw = perm.raw_len();
            let chunk = raw.div_ceil(shards as u64);
            let mut sharded = Vec::new();
            let mut start = 0;
            while start < raw {
                let end = (start + chunk).min(raw);
                sharded.extend(perm.iter_raw_range(start, end));
                start = end;
            }
            assert_eq!(sharded, serial, "n={n} shards={shards}");
        }
    }

    #[test]
    fn raw_range_jump_matches_sequential_walk() {
        let perm = IndexPermutation::new(1000, 0xfeed);
        let full: Vec<u64> = perm.iter_raw_range(0, perm.raw_len()).collect();
        assert_eq!(full, perm.iter().collect::<Vec<u64>>());
        // Jumping to an arbitrary raw offset matches skipping there.
        let raw = perm.raw_len();
        for offset in [1u64, 7, 100, raw - 1, raw] {
            let jumped: Vec<u64> = perm.iter_raw_range(offset, raw).collect();
            // Walk serially counting raw steps to find the expected suffix.
            let mut expected = Vec::new();
            let mut state = perm.increment % perm.modulus;
            for step in 0..raw {
                if step >= offset && state < perm.n {
                    expected.push(state);
                }
                state = state
                    .wrapping_mul(perm.multiplier)
                    .wrapping_add(perm.increment)
                    % perm.modulus;
            }
            assert_eq!(jumped, expected, "offset={offset}");
        }
    }

    proptest! {
        #[test]
        fn proptest_raw_range_sharding(n in 1u64..2000, seed in any::<u64>(), shards in 1usize..9) {
            let perm = IndexPermutation::new(n, seed);
            let serial: Vec<u64> = perm.iter().collect();
            let raw = perm.raw_len();
            let chunk = raw.div_ceil(shards as u64).max(1);
            let mut sharded = Vec::new();
            let mut start = 0;
            while start < raw {
                let end = (start + chunk).min(raw);
                sharded.extend(perm.iter_raw_range(start, end));
                start = end;
            }
            prop_assert_eq!(sharded, serial);
        }

        #[test]
        fn proptest_bijection(n in 1u64..3000, seed in any::<u64>()) {
            let perm = IndexPermutation::new(n, seed);
            let mut values: Vec<u64> = perm.iter().collect();
            prop_assert_eq!(values.len() as u64, n);
            values.sort_unstable();
            values.dedup();
            prop_assert_eq!(values.len() as u64, n);
            prop_assert_eq!(values[0], 0);
            prop_assert_eq!(values[values.len() - 1], n - 1);
        }
    }
}
