//! ZMap-style stateless SYN scanning.
//!
//! Phase one of the paper's methodology: "an Internet-wide TCP scan sending
//! a single SYN packet on port 22 and 179 using ZMap".  The scanner sweeps
//! every routed IPv4 prefix of the simulated Internet in a pseudorandom
//! order (so consecutive probes do not hammer one network), at the pace of a
//! token bucket, and records which addresses answered SYN-ACK on which
//! port.  The sweep walks the *indices* of the simulator's routed space
//! ([`Internet::routed_space`](alias_netsim::Internet::routed_space)) and
//! asks its slot table who, if anyone, holds each one; only the populated
//! minority is ever turned into an address.

use crate::permute::IndexPermutation;
use crate::rate::Pace;
use alias_netsim::{Internet, ProbeContext, SimTime, SynResult, VantageKind};
use alias_obs::{DeterminismClass, LazyCounter};
use std::net::{IpAddr, Ipv6Addr};

/// SYN probes dispatched by ZMap sweeps.  A pure function of the routed
/// space and port list, accumulated at the serial assembly point.
static PROBES_EMITTED: LazyCounter = LazyCounter::new(
    "scan.probes_emitted",
    DeterminismClass::Deterministic,
    "probes",
    "scan",
);

/// Responsive (addr, port) pairs discovered by ZMap sweeps.
static RESPONSIVE_PAIRS: LazyCounter = LazyCounter::new(
    "scan.responsive_pairs",
    DeterminismClass::Deterministic,
    "pairs",
    "scan",
);

/// Simulated milliseconds ZMap sweeps took, from their start to their last
/// probe's send time — sim-clock time, not wall time.
static PACING_SIM_MS: LazyCounter = LazyCounter::new(
    "scan.pacing_sim_ms",
    DeterminismClass::Deterministic,
    "sim_ms",
    "scan",
);

/// The ports every sweep probes, one SYN each per address: SSH and BGP.
pub(crate) const PORTS: [u16; 2] = [22, 179];

/// SYN probe rate in packets per second.  The SNMPv3 discovery sweep is
/// paced at the same rate.
pub(crate) const RATE_PPS: u64 = 200_000;

/// A sweep's pace: a 64-probe bucket, so 65 probes a millisecond.  A SYN
/// result does not depend on its send time, so the pace sets only the
/// sweep's finish time.
const PACE: Pace = Pace::new(RATE_PPS, 64);

/// Results of a SYN scan.
#[derive(Debug, Clone, Default)]
pub struct ZmapResults {
    /// Responsive addresses per port of [`PORTS`], in discovery order.
    responsive: [Vec<IpAddr>; 2],
    /// Total SYN probes sent.
    pub probes_sent: u64,
    /// Simulated time the scan finished.
    pub(crate) finished_at: SimTime,
}

impl ZmapResults {
    /// Responsive addresses on `port` (empty slice if the port was not scanned).
    pub fn on_port(&self, port: u16) -> &[IpAddr] {
        PORTS
            .iter()
            .position(|&scanned| scanned == port)
            .map_or(&[], |slot| &self.responsive[slot])
    }
}

/// Probe one raw-step slice of the permuted index space: the shard body of
/// the IPv4 sweep.
///
/// The inner loop carries no pacing state: a SYN result does not depend on
/// the probe's send time (only the sweep's finish time is dated), and each swept index costs one read of the routed
/// space's slot table — the unpopulated majority is skipped without an
/// address, a hash or per-port probe dispatch.
fn syn_slice(
    internet: &Internet,
    vantage: VantageKind,
    start: SimTime,
    permutation: &IndexPermutation,
    range: &std::ops::Range<u64>,
) -> [Vec<IpAddr>; 2] {
    let space = internet.routed_space();
    let mut found: [Vec<IpAddr>; 2] = Default::default();
    let ctx = ProbeContext {
        vantage,
        time: start,
    };
    for index in permutation.iter_raw_range(range.start, range.end) {
        // Absent addresses time out on every port.
        let Some(route) = space.owner_at(index) else {
            continue;
        };
        let addr = IpAddr::V4(space.addr_at(index));
        for (hits, port) in found.iter_mut().zip(PORTS) {
            if internet.syn_probe_at(route, port, &ctx) == SynResult::SynAck {
                hits.push(addr);
            }
        }
    }
    found
}

/// Assemble per-shard port hit lists into results, with the finish time
/// of `probes_sent` probes at the sweep's pace.
fn assemble_results(
    per_shard: Vec<[Vec<IpAddr>; 2]>,
    probes_sent: u64,
    start: SimTime,
) -> ZmapResults {
    let mut responsive: [Vec<IpAddr>; 2] = Default::default();
    for found in per_shard {
        for (addrs, hits) in responsive.iter_mut().zip(found) {
            addrs.extend(hits);
        }
    }
    let finished_at = PACE.finish(start, probes_sent);
    PROBES_EMITTED.add(probes_sent);
    RESPONSIVE_PAIRS.add(responsive.iter().map(|addrs| addrs.len() as u64).sum());
    PACING_SIM_MS.add(finished_at.since(start).as_millis());
    ZmapResults {
        responsive,
        probes_sent,
        finished_at,
    }
}

/// Sweep every routed IPv4 prefix of `internet` in the order `seed`
/// permutes it, with `threads` shard workers over disjoint slices of the
/// permuted address space.
///
/// Output is byte-identical for any thread count: a SYN result does not
/// depend on the probe's send time, shard outputs are concatenated in
/// shard order (which reproduces the one-shard discovery order), and the
/// finish time is a function of the probe count.
pub fn scan_ipv4(
    internet: &Internet,
    vantage: VantageKind,
    start: SimTime,
    seed: u64,
    threads: usize,
) -> ZmapResults {
    // The routed prefixes form a single index space, so the permutation
    // spreads probes across all networks.
    let space_len = internet.routed_space().len();
    let permutation = IndexPermutation::new(space_len, seed);

    // Shard the raw LCG step range: concatenating the in-range values of
    // contiguous raw-step slices reproduces the whole permutation order.
    let ranges = crate::exec::split_even(permutation.raw_len(), crate::exec::shards_for(threads));
    let per_shard = crate::exec::shard_map(ranges.len(), threads, |shard| {
        syn_slice(internet, vantage, start, &permutation, &ranges[shard])
    });
    assemble_results(per_shard, space_len * PORTS.len() as u64, start)
}

/// Probe one slice of an IPv6 target list: the shard body of the hitlist
/// scan.  Same loop shape as [`syn_slice`].
fn syn_v6_slice(
    internet: &Internet,
    targets: &[Ipv6Addr],
    vantage: VantageKind,
    start: SimTime,
) -> [Vec<IpAddr>; 2] {
    let mut found: [Vec<IpAddr>; 2] = Default::default();
    let ctx = ProbeContext {
        vantage,
        time: start,
    };
    for &addr in targets {
        let addr = IpAddr::V6(addr);
        let Some(route) = internet.route(addr) else {
            continue;
        };
        for (hits, port) in found.iter_mut().zip(PORTS) {
            if internet.syn_probe_at(route, port, &ctx) == SynResult::SynAck {
                hits.push(addr);
            }
        }
    }
    found
}

/// Probe an explicit IPv6 target list (hitlist-driven, since sweeping the
/// IPv6 space is impossible) with `threads` shard workers over disjoint
/// slices of the list; byte-identical output for any thread count.
pub(crate) fn scan_ipv6_list(
    internet: &Internet,
    targets: &[Ipv6Addr],
    vantage: VantageKind,
    start: SimTime,
    threads: usize,
) -> ZmapResults {
    let ranges = crate::exec::split_even(targets.len() as u64, crate::exec::shards_for(threads));
    let per_shard = crate::exec::shard_map(ranges.len(), threads, |shard| {
        let range = &ranges[shard];
        syn_v6_slice(
            internet,
            &targets[range.start as usize..range.end as usize],
            vantage,
            start,
        )
    });
    assemble_results(per_shard, targets.len() as u64 * PORTS.len() as u64, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::{InternetBuilder, InternetConfig};
    use std::collections::HashSet;

    fn internet() -> Internet {
        InternetBuilder::new(InternetConfig::tiny(77)).build()
    }

    /// Sorted distinct expected addresses — scan results are compared as
    /// sorted vectors, no address-keyed sets needed.
    fn expected_ssh_addrs(internet: &Internet, vantage: VantageKind) -> Vec<IpAddr> {
        let mut addrs: Vec<IpAddr> = internet
            .devices()
            .filter(|d| vantage == VantageKind::Distributed || d.visible_to_single_vp())
            .flat_map(|d| d.answering(alias_netsim::ServiceProtocol::Ssh))
            .filter(|a| a.is_ipv4())
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        addrs
    }

    /// The responsive list of one port as a sorted vector.
    fn sorted_found(results: &ZmapResults, port: u16) -> Vec<IpAddr> {
        let mut found = results.on_port(port).to_vec();
        found.sort_unstable();
        found
    }

    /// A sweep of the tiny Internet from `vantage` at time zero, on one
    /// thread.
    fn sweep(internet: &Internet, vantage: VantageKind) -> ZmapResults {
        scan_ipv4(internet, vantage, SimTime::ZERO, 0x5eed, 1)
    }

    #[test]
    fn finds_exactly_the_responsive_ssh_addresses() {
        let internet = internet();
        let results = sweep(&internet, VantageKind::Distributed);
        let found = sorted_found(&results, 22);
        assert_eq!(
            found,
            expected_ssh_addrs(&internet, VantageKind::Distributed)
        );
        assert!(results.on_port(443).is_empty());
        assert!(results.probes_sent > found.len() as u64);
        assert!(results.finished_at > SimTime::ZERO);
    }

    #[test]
    fn single_vp_misses_filtered_hosts() {
        let internet = internet();
        let single = sweep(&internet, VantageKind::SingleVp);
        let distributed = sweep(&internet, VantageKind::Distributed);
        assert!(single.on_port(22).len() < distributed.on_port(22).len());
        assert_eq!(
            sorted_found(&single, 22),
            expected_ssh_addrs(&internet, VantageKind::SingleVp)
        );
    }

    #[test]
    fn responsive_lists_contain_no_duplicates() {
        let internet = internet();
        let results = sweep(&internet, VantageKind::Distributed);
        for port in PORTS {
            let list = results.on_port(port);
            let unique: HashSet<&IpAddr> = list.iter().collect();
            assert_eq!(unique.len(), list.len(), "duplicates on port {port}");
        }
    }

    #[test]
    fn bgp_scan_finds_both_open_senders_and_silent_speakers() {
        let internet = internet();
        let results = sweep(&internet, VantageKind::Distributed);
        let mut expected: Vec<IpAddr> = internet
            .devices()
            .flat_map(|d| d.answering(alias_netsim::ServiceProtocol::Bgp))
            .filter(|a| a.is_ipv4())
            .collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(sorted_found(&results, 179), expected);
    }

    #[test]
    fn ipv6_list_scan_only_probes_the_list() {
        let internet = internet();
        let all_v6 = internet.active_ipv6_service_addrs();
        assert!(!all_v6.is_empty());
        let subset = &all_v6[..all_v6.len() / 2];
        let results = scan_ipv6_list(
            &internet,
            subset,
            VantageKind::Distributed,
            SimTime::ZERO,
            1,
        );
        assert_eq!(results.probes_sent, subset.len() as u64 * 2);
        for addr in PORTS.iter().flat_map(|&port| results.on_port(port)) {
            match addr {
                IpAddr::V6(v6) => assert!(subset.contains(v6)),
                IpAddr::V4(_) => panic!("IPv6 scan returned an IPv4 address"),
            }
        }
    }

    #[test]
    fn sharded_ipv4_scan_is_byte_identical_to_serial() {
        for seed in [77u64, 9] {
            let internet = InternetBuilder::new(InternetConfig::tiny(seed)).build();
            let scan = |threads| {
                scan_ipv4(
                    &internet,
                    VantageKind::SingleVp,
                    SimTime::ZERO,
                    seed,
                    threads,
                )
            };
            let serial = scan(1);
            for threads in [2usize, 7] {
                let sharded = scan(threads);
                for port in PORTS {
                    assert_eq!(
                        sharded.on_port(port),
                        serial.on_port(port),
                        "seed={seed} threads={threads} port={port}"
                    );
                }
                assert_eq!(sharded.probes_sent, serial.probes_sent);
                assert_eq!(sharded.finished_at, serial.finished_at);
            }
        }
    }

    #[test]
    fn sharded_ipv6_list_scan_is_byte_identical_to_serial() {
        let internet = internet();
        let targets = internet.active_ipv6_service_addrs();
        let scan = |threads| {
            scan_ipv6_list(
                &internet,
                &targets,
                VantageKind::Distributed,
                SimTime::ZERO,
                threads,
            )
        };
        let serial = scan(1);
        for threads in [2usize, 7] {
            let sharded = scan(threads);
            for port in PORTS {
                assert_eq!(sharded.on_port(port), serial.on_port(port));
            }
            assert_eq!(sharded.probes_sent, serial.probes_sent);
            assert_eq!(sharded.finished_at, serial.finished_at);
        }
    }
}
