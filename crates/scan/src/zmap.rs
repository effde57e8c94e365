//! ZMap-style stateless SYN scanning.
//!
//! Phase one of the paper's methodology: "an Internet-wide TCP scan sending
//! a single SYN packet on port 22 and 179 using ZMap".  The scanner sweeps
//! every routed IPv4 prefix of the simulated Internet in a pseudorandom
//! order (so consecutive probes do not hammer one network), paced by a token
//! bucket, and records which addresses answered SYN-ACK on which port.  The
//! sweep walks the *indices* of the simulator's routed space
//! ([`alias_netsim::RoutedSpace`]) and asks its slot table who, if anyone,
//! holds each one; only the populated minority is ever turned into an
//! address.

use crate::permute::IndexPermutation;
use crate::rate::TokenBucket;
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

/// Simulated milliseconds the token bucket spent pacing ZMap sweeps —
/// sim-clock time, replayed from the serial schedule, not wall time.
static PACING_SIM_MS: LazyCounter = LazyCounter::new(
    "scan.pacing_sim_ms",
    DeterminismClass::Deterministic,
    "sim_ms",
    "scan",
);

/// Configuration of a SYN scan.
#[derive(Debug, Clone)]
pub struct ZmapConfig {
    /// Ports to probe (one SYN per port per address).
    pub ports: Vec<u16>,
    /// Probe rate in packets per second.
    pub rate_pps: f64,
    /// Permutation seed.
    pub seed: u64,
}

impl Default for ZmapConfig {
    fn default() -> Self {
        ZmapConfig {
            ports: vec![22, 179],
            rate_pps: 100_000.0,
            seed: 0x5eed,
        }
    }
}

/// Results of a SYN scan.
#[derive(Debug, Clone, Default)]
pub struct ZmapResults {
    /// Responsive addresses per scanned port — ports in
    /// [`ZmapConfig::ports`] order, addresses in discovery order.
    responsive: Vec<(u16, Vec<IpAddr>)>,
    /// Total SYN probes sent.
    pub probes_sent: u64,
    /// Simulated time the scan finished.
    pub finished_at: SimTime,
}

impl ZmapResults {
    /// Responsive addresses on `port` (empty slice if the port was not scanned).
    pub fn on_port(&self, port: u16) -> &[IpAddr] {
        self.responsive
            .iter()
            .find(|(scanned, _)| *scanned == port)
            .map_or(&[], |(_, addrs)| addrs)
    }
}

/// The stateless SYN scanner.
#[derive(Debug, Clone)]
pub struct ZmapScanner {
    config: ZmapConfig,
}

impl ZmapScanner {
    /// Create a scanner with the given configuration.
    pub fn new(config: ZmapConfig) -> Self {
        ZmapScanner { config }
    }

    /// Probe one raw-step slice of the permuted index space: the shard body
    /// of the IPv4 sweep.
    ///
    /// The inner loop carries no pacing state: a SYN result does not depend
    /// on the probe's send time (the bucket schedule is replayed separately
    /// to date the results), and each swept index costs one read of the
    /// routed space's slot table — the unpopulated majority is skipped
    /// without an address, a hash or per-port probe dispatch.
    fn syn_slice(
        &self,
        internet: &Internet,
        vantage: VantageKind,
        start: SimTime,
        permutation: &IndexPermutation,
        range: &std::ops::Range<u64>,
    ) -> Vec<Vec<IpAddr>> {
        let space = internet.routed_space();
        let ports = &self.config.ports;
        let mut found: Vec<Vec<IpAddr>> = vec![Vec::new(); ports.len()];
        let ctx = ProbeContext {
            vantage,
            time: start,
        };
        for index in permutation.iter_raw_range(range.start, range.end) {
            // Absent addresses time out on every port.
            let Some((device_id, iface_idx)) = space.owner_at(index) else {
                continue;
            };
            let addr = IpAddr::V4(space.addr_at(index));
            for (slot, &port) in ports.iter().enumerate() {
                if internet.syn_probe_at(device_id, iface_idx, port, &ctx) == SynResult::SynAck {
                    found[slot].push(addr);
                }
            }
        }
        found
    }

    /// Assemble per-shard (or whole-scan) port hit lists into results, with
    /// the finish time from the replayed serial pacing schedule.
    fn assemble_results(
        &self,
        per_shard: Vec<Vec<Vec<IpAddr>>>,
        probes_sent: u64,
        start: SimTime,
    ) -> ZmapResults {
        let mut responsive: Vec<(u16, Vec<IpAddr>)> = self
            .config
            .ports
            .iter()
            .map(|&port| (port, Vec::new()))
            .collect();
        for found in per_shard {
            for ((_, addrs), hits) in responsive.iter_mut().zip(found) {
                addrs.extend(hits);
            }
        }
        // Replay the serial pacing schedule to land on the identical finish
        // time (the bucket is a pure function of the probe count).
        let mut bucket = TokenBucket::new(self.config.rate_pps, 64.0, start);
        let finished_at = bucket.advance(start, probes_sent);
        PROBES_EMITTED.add(probes_sent);
        RESPONSIVE_PAIRS.add(responsive.iter().map(|(_, addrs)| addrs.len() as u64).sum());
        PACING_SIM_MS.add(finished_at.since(start).as_millis());
        ZmapResults {
            responsive,
            probes_sent,
            finished_at,
        }
    }

    /// Sweep every routed IPv4 prefix of `internet` with `threads` shard
    /// workers over disjoint slices of the permuted address space.
    ///
    /// Output is byte-identical for any thread count: a SYN result does not
    /// depend on the probe's send time, shard outputs are concatenated in
    /// shard order (which reproduces the one-shard discovery order), and the
    /// finish time is the token-bucket schedule replayed over the same probe
    /// count.
    pub fn scan_ipv4(
        &self,
        internet: &Internet,
        vantage: VantageKind,
        start: SimTime,
        threads: usize,
    ) -> ZmapResults {
        // The routed prefixes form a single index space, so the permutation
        // spreads probes across all networks.
        let space_len = internet.routed_space().len();
        let permutation = IndexPermutation::new(space_len, self.config.seed);

        // Shard the raw LCG step range: concatenating the in-range values of
        // contiguous raw-step slices reproduces the whole permutation order.
        let ranges = alias_exec::split_even(permutation.raw_len(), alias_exec::shards_for(threads));
        let per_shard: Vec<Vec<Vec<IpAddr>>> =
            alias_exec::shard_map(ranges.len(), threads, |shard| {
                self.syn_slice(internet, vantage, start, &permutation, &ranges[shard])
            });
        self.assemble_results(per_shard, space_len * self.config.ports.len() as u64, start)
    }

    /// Probe one slice of an IPv6 target list: the shard body of the
    /// hitlist scan.  Same loop shape as [`Self::syn_slice`].
    fn syn_v6_slice(
        &self,
        internet: &Internet,
        targets: &[Ipv6Addr],
        vantage: VantageKind,
        start: SimTime,
    ) -> Vec<Vec<IpAddr>> {
        let ports = &self.config.ports;
        let mut found: Vec<Vec<IpAddr>> = vec![Vec::new(); ports.len()];
        let ctx = ProbeContext {
            vantage,
            time: start,
        };
        for &addr in targets {
            let addr = IpAddr::V6(addr);
            let Some((device_id, iface_idx)) = internet.lookup(addr) else {
                continue;
            };
            for (slot, &port) in ports.iter().enumerate() {
                if internet.syn_probe_at(device_id, iface_idx, port, &ctx) == SynResult::SynAck {
                    found[slot].push(addr);
                }
            }
        }
        found
    }

    /// Probe an explicit IPv6 target list (hitlist-driven, since sweeping
    /// the IPv6 space is impossible) with `threads` shard workers over
    /// disjoint slices of the list; byte-identical output for any thread
    /// count.
    pub fn scan_ipv6_list(
        &self,
        internet: &Internet,
        targets: &[Ipv6Addr],
        vantage: VantageKind,
        start: SimTime,
        threads: usize,
    ) -> ZmapResults {
        let ranges = alias_exec::split_even(targets.len() as u64, alias_exec::shards_for(threads));
        let per_shard: Vec<Vec<Vec<IpAddr>>> =
            alias_exec::shard_map(ranges.len(), threads, |shard| {
                let range = &ranges[shard];
                self.syn_v6_slice(
                    internet,
                    &targets[range.start as usize..range.end as usize],
                    vantage,
                    start,
                )
            });
        self.assemble_results(
            per_shard,
            targets.len() as u64 * self.config.ports.len() as u64,
            start,
        )
    }
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
            .iter()
            .filter(|d| vantage == VantageKind::Distributed || d.visible_to_single_vp)
            .flat_map(|d| d.ssh_responding_addrs())
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

    #[test]
    fn finds_exactly_the_responsive_ssh_addresses() {
        let internet = internet();
        let scanner = ZmapScanner::new(ZmapConfig {
            ports: vec![22],
            ..Default::default()
        });
        let results = scanner.scan_ipv4(&internet, VantageKind::Distributed, SimTime::ZERO, 1);
        let found = sorted_found(&results, 22);
        assert_eq!(
            found,
            expected_ssh_addrs(&internet, VantageKind::Distributed)
        );
        assert!(results.probes_sent > found.len() as u64);
        assert!(results.finished_at > SimTime::ZERO);
    }

    #[test]
    fn single_vp_misses_filtered_hosts() {
        let internet = internet();
        let scanner = ZmapScanner::new(ZmapConfig {
            ports: vec![22],
            ..Default::default()
        });
        let single = scanner.scan_ipv4(&internet, VantageKind::SingleVp, SimTime::ZERO, 1);
        let distributed = scanner.scan_ipv4(&internet, VantageKind::Distributed, SimTime::ZERO, 1);
        assert!(single.on_port(22).len() < distributed.on_port(22).len());
        assert_eq!(
            sorted_found(&single, 22),
            expected_ssh_addrs(&internet, VantageKind::SingleVp)
        );
    }

    #[test]
    fn responsive_lists_contain_no_duplicates() {
        let internet = internet();
        let scanner = ZmapScanner::new(ZmapConfig::default());
        let results = scanner.scan_ipv4(&internet, VantageKind::Distributed, SimTime::ZERO, 1);
        for port in [22u16, 179] {
            let list = results.on_port(port);
            let unique: HashSet<&IpAddr> = list.iter().collect();
            assert_eq!(unique.len(), list.len(), "duplicates on port {port}");
        }
    }

    #[test]
    fn bgp_scan_finds_both_open_senders_and_silent_speakers() {
        let internet = internet();
        let scanner = ZmapScanner::new(ZmapConfig {
            ports: vec![179],
            ..Default::default()
        });
        let results = scanner.scan_ipv4(&internet, VantageKind::Distributed, SimTime::ZERO, 1);
        let mut expected: Vec<IpAddr> = internet
            .devices()
            .iter()
            .flat_map(|d| d.bgp_responding_addrs())
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
        let scanner = ZmapScanner::new(ZmapConfig {
            ports: vec![22],
            ..Default::default()
        });
        let results = scanner.scan_ipv6_list(
            &internet,
            subset,
            VantageKind::Distributed,
            SimTime::ZERO,
            1,
        );
        assert_eq!(results.probes_sent, subset.len() as u64);
        for addr in results.on_port(22) {
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
            let scanner = ZmapScanner::new(ZmapConfig {
                seed,
                ..Default::default()
            });
            let serial = scanner.scan_ipv4(&internet, VantageKind::SingleVp, SimTime::ZERO, 1);
            for threads in [2usize, 7] {
                let sharded =
                    scanner.scan_ipv4(&internet, VantageKind::SingleVp, SimTime::ZERO, threads);
                for port in [22u16, 179] {
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
        let scanner = ZmapScanner::new(ZmapConfig::default());
        let scan = |threads| {
            scanner.scan_ipv6_list(
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
            for port in [22u16, 179] {
                assert_eq!(sharded.on_port(port), serial.on_port(port));
            }
            assert_eq!(sharded.probes_sent, serial.probes_sent);
            assert_eq!(sharded.finished_at, serial.finished_at);
        }
    }

    #[test]
    fn scan_duration_scales_with_rate() {
        let internet = internet();
        let fast = ZmapScanner::new(ZmapConfig {
            rate_pps: 1_000_000.0,
            ..Default::default()
        })
        .scan_ipv4(&internet, VantageKind::Distributed, SimTime::ZERO, 1);
        let slow = ZmapScanner::new(ZmapConfig {
            rate_pps: 50_000.0,
            ..Default::default()
        })
        .scan_ipv4(&internet, VantageKind::Distributed, SimTime::ZERO, 1);
        assert!(slow.finished_at > fast.finished_at);
    }
}
