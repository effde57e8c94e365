//! Speedtrap-style IPv6 alias resolution.
//!
//! Speedtrap (Luckie et al., IMC 2013) induces fragmented IPv6 responses and
//! applies the same shared-counter reasoning to the fragment Identification
//! values that MIDAR applies to the IPv4 IPID.  The *inference* is therefore
//! identical — a monotonic bounds test over interleaved identifier samples —
//! and is implemented here over generic identifier time series.
//!
//! Substitution note (see DESIGN.md): the simulated network models the
//! device-wide counter but not IPv6 fragmentation itself, so the experiment
//! harness feeds this module counter samples collected through the generic
//! IPID probing path rather than through real fragment headers.  The
//! decision logic — which is what the paper compares against — is exercised
//! unchanged.

use crate::mbt::{CheckedSeries, MbtVerdict};
use alias_core::union_find::UnionFind;
use alias_scan::ipid_probe::{is_usable, IpidSample};

/// Group IPv6 targets whose fragment-identifier series are mutually
/// consistent with a single shared counter.  `series` holds one series per
/// target; each group is the ascending indices of its members.
pub fn speedtrap_group(series: &[Vec<IpidSample>], max_velocity: f64) -> Vec<Vec<usize>> {
    // (target index, series with its time order checked once)
    let usable: Vec<(usize, CheckedSeries<'_>)> = series
        .iter()
        .enumerate()
        .filter(|(_, s)| is_usable(s))
        .map(|(target, s)| (target, CheckedSeries::new(s)))
        .collect();
    let mut uf = UnionFind::new(usable.len());
    for i in 0..usable.len() {
        for j in i + 1..usable.len() {
            if usable[i].1.pair_test(usable[j].1, max_velocity) == MbtVerdict::Consistent {
                uf.union(i, j);
            }
        }
    }
    uf.groups()
        .into_iter()
        .filter(|g| g.len() >= 2)
        .map(|g| g.into_iter().map(|i| usable[i].0).collect())
        .collect()
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
    fn shared_counter_v6_addresses_are_grouped() {
        // Two addresses sampled alternately from one counter, one unrelated
        // between them.
        let a = series(&[(0, 100), (2_000, 110), (4_000, 121)]);
        let c = series(&[(500, 40_000), (2_500, 40_009), (4_500, 40_020)]);
        let b = series(&[(1_000, 105), (3_000, 116), (5_000, 127)]);
        assert_eq!(speedtrap_group(&[a, c, b], 100.0), vec![vec![0, 2]]);
    }

    #[test]
    fn unusable_series_are_ignored() {
        let a = series(&[(0, 1)]);
        let b = series(&[(0, 2), (1_000, 3), (2_000, 4)]);
        assert!(speedtrap_group(&[a, b], 100.0).is_empty());
        assert!(speedtrap_group(&[], 100.0).is_empty());
    }
}
