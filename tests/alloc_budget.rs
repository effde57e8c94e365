//! The heap-allocation budget of an observation row, from the simulated
//! server to the alias set, and of the probing baselines' per-pair kernels.
//!
//! A test binary of its own because it installs a counting
//! `#[global_allocator]`.  The counters (blocks allocated, blocks freed) are
//! per thread and everything runs on the test's own thread (tiny scale, one
//! worker), so the counts are exact and the budgets carry no tolerance.

// The workspace denies `unsafe_code`; a counting `GlobalAlloc` is an unsafe
// trait, and this is the one file allowed to implement it.
#![allow(unsafe_code)]

use alias_intern::{AddrId, CompactAliasSet};
use alias_resolution::core::alias_set::group_view_compact;
use alias_resolution::core::validation::cross_validate;
use alias_resolution::netsim::{IpidSample, ProbeContext};
use alias_resolution::prelude::*;
use alias_resolution::resolve::mbt::{monotonic_bounds_test, MbtVerdict, StepBounds};
use alias_resolution::resolve::{AllyTester, AllyVerdict, ProbeTargets};
use alias_resolution::scan::ipid_probe::{round_robin, IpidProber, PairEnd, ROUNDS};
use alias_resolution::store::parse_payload;
use alias_resolution::wire::snmp::Snmpv3Message;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::net::IpAddr;

thread_local! {
    /// Allocations (and reallocations) made by this thread.  Const
    /// initialised and without a destructor, so reading it from inside the
    /// allocator neither allocates nor runs after the slot is gone.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Blocks freed by this thread.
    static FREES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread asked for (a reallocation counts its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter updates touch only
// `Cell<u64>`s in thread-local storage.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + new_size as u64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while `work` runs.
fn allocations<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Bytes this thread asks the allocator for while `work` runs.
fn bytes_requested<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.with(Cell::get);
    let out = work();
    (BYTES.with(Cell::get) - before, out)
}

/// Blocks this thread frees while `work` runs.
fn frees<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = FREES.with(Cell::get);
    let out = work();
    (FREES.with(Cell::get) - before, out)
}

fn tiny_internet() -> Internet {
    InternetBuilder::new(InternetConfig::tiny(14)).build()
}

/// The SSH rows of a tiny active campaign, as a store of their own.
fn ssh_store(internet: &Internet) -> ObservationStore {
    let campaign = ActiveCampaign::new(CampaignConfig {
        threads: 1,
        ..Default::default()
    });
    let data = campaign.run(internet);
    let rows = data
        .store()
        .select_protocol(ServiceProtocol::Ssh, None)
        .to_observations();
    assert!(rows.len() > 100, "a tiny campaign sees SSH hosts");
    ObservationStore::from_observations(rows)
}

#[test]
fn an_ssh_session_is_emitted_and_parsed_within_24_allocations() {
    let internet = tiny_internet();
    let ctx = ProbeContext {
        vantage: VantageKind::Distributed,
        time: SimTime::ZERO,
    };
    // Grown once, outside the count: a scan loop reuses it across targets.
    let mut session = Vec::with_capacity(4096);
    let mut sessions = 0;
    let ssh_port = ServiceProtocol::Ssh.default_port();
    for device in internet.devices() {
        for addr in device.answering(ServiceProtocol::Ssh) {
            let route = internet.route(addr).expect("a device's own address");
            let (count, payload) = allocations(|| {
                internet
                    .service_session_into(route, ssh_port, &ctx, &mut session)
                    .then(|| parse_payload(ServiceProtocol::Ssh, &session))
                    .flatten()
            });
            let Some(ServicePayload::Ssh(observation)) = payload else {
                continue;
            };
            assert!(observation.kex_init.is_some() && observation.host_key.is_some());
            assert!(count <= 24, "{addr}: {count} allocations for one session");
            sessions += 1;
        }
    }
    assert!(sessions > 100, "only {sessions} sessions answered");
}

#[test]
fn a_bgp_session_into_a_warm_buffer_allocates_nothing() {
    // And an SSH session's emission: its profile's template copied, the
    // cookie written into it and the key-exchange reply appended.
    let internet = tiny_internet();
    let ctx = ProbeContext {
        vantage: VantageKind::Distributed,
        time: SimTime::ZERO,
    };
    let mut session = Vec::with_capacity(4096);
    let (mut opens, mut silent) = (0, 0);
    let bgp_port = ServiceProtocol::Bgp.default_port();
    for device in internet.devices() {
        for addr in device.answering(ServiceProtocol::Bgp) {
            let route = internet.route(addr).expect("a device's own address");
            let (count, payload) = allocations(|| {
                internet
                    .service_session_into(route, bgp_port, &ctx, &mut session)
                    .then(|| PayloadRef::parse(ServiceProtocol::Bgp, &session).is_some())
            });
            assert_eq!(count, 0, "{addr}");
            match payload {
                Some(true) => opens += 1,
                Some(false) => silent += 1,
                None => {}
            }
        }
    }
    assert!(opens > 5, "only {opens} speakers sent an OPEN");
    assert!(silent > 5, "only {silent} speakers closed silently");
    let ssh_port = ServiceProtocol::Ssh.default_port();
    let mut emitted = 0;
    for device in internet.devices() {
        for addr in device.answering(ServiceProtocol::Ssh) {
            let route = internet.route(addr).expect("a device's own address");
            let (count, answered) =
                allocations(|| internet.service_session_into(route, ssh_port, &ctx, &mut session));
            assert_eq!(count, 0, "{addr}");
            emitted += usize::from(answered && !session.is_empty());
        }
    }
    assert!(emitted > 100, "only {emitted} SSH sessions emitted");
}

#[test]
fn a_censys_crawl_allocates_per_device_not_per_session() {
    // What is left is the columns and interner of the store doubling:
    // 98 to 102 for 355 devices at these seeds (162 to 175 while the crawl
    // also stored its non-standard-port listings), nothing per device,
    // nothing per session and nothing that grows with a payload's size.  The `*_responding_addrs()` lists built per covered device put
    // it at 459 to 526, and one owned observation per session at 10 a
    // device.
    for seed in [14u64, 404, 2023] {
        let internet = InternetBuilder::new(InternetConfig::tiny(seed)).build();
        let devices = internet.devices().len() as u64;
        let config = CensysConfig {
            seed,
            ..Default::default()
        };
        let (count, snapshot) = allocations(|| CensysSnapshot::collect(&internet, config));
        let (store, nonstandard) = snapshot.into_default_port();
        let rows = store.len() + nonstandard;
        assert!(rows > 100, "seed {seed}: {rows} rows");
        let budget = devices / 2 + 16;
        assert!(
            count <= budget,
            "seed {seed}: {count} allocations for {rows} rows of {devices} devices (budget {budget})"
        );
    }
}

#[test]
fn pushing_every_ssh_session_into_one_warm_shard_allocates_at_most_32_in_total() {
    // The scan door: the session parsed in place, or matched against the
    // banner + KEXINIT prefixes the shard has parsed, and encoded straight
    // into the shard's arena.  Nothing is allocated per session; what is
    // counted is the arena and its profile dictionary growing, the prefix
    // memo's one buffer, and the columns and the interner, each allocated
    // once at the target count: 32 for 415 sessions (31 before the memo),
    // 45 while the interner grew by doubling.
    let internet = tiny_internet();
    let ctx = ProbeContext {
        vantage: VantageKind::Distributed,
        time: SimTime::ZERO,
    };
    let ssh_port = ServiceProtocol::Ssh.default_port();
    let targets: Vec<_> = internet
        .devices()
        .flat_map(|device| device.answering(ServiceProtocol::Ssh))
        .map(|addr| (addr, internet.route(addr).expect("a device's own address")))
        .collect();
    // Grown once, outside the count: a scan loop reuses it across targets.
    let mut session = Vec::with_capacity(4096);
    let (count, shard) = allocations(|| {
        let mut shard = ShardColumns::with_capacity(targets.len());
        for &(addr, route) in &targets {
            if !internet.service_session_into(route, ssh_port, &ctx, &mut session) {
                continue;
            }
            let (source, protocol) = (DataSource::Active, ServiceProtocol::Ssh);
            let pushed =
                shard.push_session(addr, ssh_port, source, ctx.time, None, protocol, &session);
            assert!(pushed, "{addr}: a session");
        }
        shard
    });
    assert!(shard.len() > 100, "only {} sessions answered", shard.len());
    assert!(
        count <= 32,
        "{count} allocations to push {} sessions ({} bytes)",
        shard.len(),
        shard.payload_bytes()
    );
}

/// One SNMPv3 discovery exchange per interface of `internet`, as a sweep
/// runs it — request encoded into a warm buffer, probe answered into
/// another, reply parsed — with the allocations each one made.  `None`
/// where the interface exists but does not answer SNMP.
fn discovery_exchanges(internet: &Internet) -> Vec<(IpAddr, u64, Option<Snmpv3Message>)> {
    let ctx = ProbeContext {
        vantage: VantageKind::Distributed,
        time: SimTime::from_secs(90),
    };
    let (mut request, mut reply) = (Vec::with_capacity(256), Vec::with_capacity(256));
    let mut exchanges = Vec::new();
    for device in internet.devices() {
        for (iface, interface) in device.interfaces().iter().enumerate() {
            let (count, report) = allocations(|| {
                let request = &mut request;
                let write_request = move || {
                    let request = request;
                    request.clear();
                    Snmpv3Message::DiscoveryRequest { msg_id: 0x0101 }.encode_into(request);
                    &request[..]
                };
                internet
                    .snmp_probe_into(device.route(iface), write_request, &ctx, &mut reply)
                    .then(|| Snmpv3Message::parse(&reply).expect("an agent's own Report"))
            });
            exchanges.push((interface.addr, count, report));
        }
    }
    exchanges
}

#[test]
fn an_answered_snmp_discovery_exchange_allocates_only_the_engine_id() {
    let internet = tiny_internet();
    let mut answered = 0;
    for (addr, count, report) in discovery_exchanges(&internet) {
        let Some(Snmpv3Message::Report { msg_id, usm, .. }) = report else {
            continue;
        };
        let device_id = internet.ground_truth().device_of(addr);
        let device_id = device_id.expect("a device's own address");
        let engine_id = internet.device(device_id).snmp().unwrap().engine_id;
        assert_eq!((msg_id, usm.engine_id.as_bytes()), (0x0101, engine_id));
        assert!(count <= 1, "{addr}: {count} allocations for one exchange");
        answered += 1;
    }
    assert!(answered > 50, "only {answered} agents answered");
}

#[test]
fn a_discovery_datagram_nobody_answers_allocates_nothing() {
    let internet = tiny_internet();
    let mut silent = 0;
    for (addr, count, report) in discovery_exchanges(&internet) {
        if report.is_none() {
            assert_eq!(count, 0, "{addr}");
            silent += 1;
        }
    }
    assert!(silent > 100, "only {silent} silent interfaces");
}

#[test]
fn a_campaign_costs_at_most_2_allocations_per_stored_row() {
    // 0.93–1.01 a row today: a sweep costs nothing per address and an SSH or
    // BGP session is emitted, parsed and stored without allocating, so what
    // is counted is an SNMP row's engine ID and the columns growing.  It was
    // 1.7–1.9 while the IPv6 hitlist built three address lists per device,
    // and one owned SSH observation per row alone puts this past 10.
    for seed in [14u64, 404, 2023] {
        let internet = InternetBuilder::new(InternetConfig::tiny(seed)).build();
        let campaign = ActiveCampaign::new(CampaignConfig {
            seed,
            threads: 1,
            ..Default::default()
        });
        let (count, data) = allocations(|| campaign.run(&internet));
        assert!(data.len() > 300, "seed {seed}: {} rows", data.len());
        let budget = 2 * data.len() as u64 + 256;
        assert!(
            count <= budget,
            "seed {seed}: {count} allocations for {} rows (budget {budget})",
            data.len()
        );
    }
}

#[test]
fn cloning_a_store_costs_the_same_allocations_whatever_its_rows() {
    let once = ssh_store(&tiny_internet());
    let mut twice = once.clone();
    twice.extend_from(&once);
    let mut counts = Vec::new();
    for store in [&once, &twice] {
        let (count, copy) = allocations(|| store.clone());
        assert_eq!(&copy, store);
        // One per column and the arena's chunk table (7 today); the
        // interner and the chunks are shared.
        assert!(
            count <= 32,
            "{count} allocations to clone {} SSH rows",
            store.len()
        );
        counts.push(count);
    }
    assert_eq!(counts[0], counts[1]);
}

#[test]
fn a_union_copy_allocates_per_column_not_per_row() {
    // `active.clone()` + `extend_from(&censys)`: the columns, the arena's
    // chunk table and the interner growing, whatever the rows hold.
    let active = ssh_store(&tiny_internet());
    let mut censys = active.clone();
    censys.extend_from(&active);
    let (count, (bytes, union)) = allocations(|| {
        bytes_requested(|| {
            let mut union = active.clone();
            union.extend_from(&censys);
            union
        })
    });
    assert_eq!(union.len(), 3 * active.len());
    assert!(
        count <= 64,
        "{count} allocations for a union of {} rows",
        union.len()
    );
    // The payload records are shared, not copied: what is requested is the
    // scalar columns (24 bytes a row, grown by doubling) and the interner —
    // about 52 bytes a row, where a copy of the records would add the
    // records' own (54 a row: an SSH record keeps its host key and points
    // into its chunk's profile dictionary for the rest).
    let payload_bytes = (active.payload_bytes() + censys.payload_bytes()) as u64;
    assert_eq!(union.payload_bytes() as u64, payload_bytes);
    let rows = union.len() as u64;
    assert!(
        bytes < 64 * rows && payload_bytes > 48 * rows,
        "{bytes} bytes requested to unite {rows} rows of {payload_bytes} bytes of payload records"
    );
}

#[test]
fn dropping_a_campaign_store_frees_at_most_64_blocks() {
    let internet = tiny_internet();
    let campaign = ActiveCampaign::new(CampaignConfig {
        threads: 1,
        ..Default::default()
    });
    let once = campaign.run(&internet).into_store();
    assert!(once.len() > 300, "{} rows", once.len());
    let mut twice = once.clone();
    twice.extend_from(&once);
    for store in [once, twice] {
        let rows = store.len();
        let (count, ()) = frees(|| drop(store));
        assert!(count <= 64, "{count} blocks freed with {rows} rows");
    }
}

/// The tiny and small Internets of two seeds each, with their device counts.
fn internets() -> impl Iterator<Item = (String, InternetConfig)> {
    [14u64, 404].into_iter().flat_map(|seed| {
        [
            (format!("tiny({seed})"), InternetConfig::tiny(seed)),
            (format!("small({seed})"), InternetConfig::small(seed)),
        ]
    })
}

#[test]
fn building_an_internet_allocates_a_bounded_number_of_blocks() {
    // The profile tables and the SSH templates, the ASes, and the device
    // columns and the IP index growing: 342 blocks for 355 devices, 369
    // for 6,070 (two of them the templates' arena and span table).  While every
    // device was an object graph of its own (interfaces, a host key, an
    // engine ID, a respond mask per service), a paper-scale build made
    // 399,143 allocations.
    for (label, config) in internets() {
        let (count, internet) = allocations(|| InternetBuilder::new(config).build());
        let devices = internet.devices().len();
        assert!(
            count <= 512,
            "{label}: {count} allocations for {devices} devices"
        );
    }
}

#[test]
fn dropping_an_internet_frees_a_bounded_number_of_blocks() {
    // One block per column and per BGP profile-table string, whatever the
    // population: 21 at tiny and at small (114 while the Internet kept the
    // SSH profile table, which now goes once its templates are written).  The object graph freed
    // 282,201 blocks at paper scale.
    for (label, config) in internets() {
        let internet = InternetBuilder::new(config).build();
        let devices = internet.devices().len();
        let (count, ()) = frees(|| drop(internet));
        assert!(
            count <= 128,
            "{label}: {count} blocks freed with {devices} devices"
        );
    }
}

#[test]
fn the_ipv6_hitlist_allocates_only_its_output() {
    for (label, config) in internets() {
        let internet = InternetBuilder::new(config).build();
        let (count, active) = allocations(|| internet.active_ipv6_service_addrs());
        assert!(active.len() > 10, "{label}: {} addresses", active.len());
        assert_eq!(count, 1, "{label}");
    }
}

#[test]
fn grouping_allocates_per_distinct_identifier_not_per_row() {
    let once = ssh_store(&tiny_internet());
    let mut twice = once.clone();
    twice.extend_from(&once);
    assert_eq!(twice.len(), 2 * once.len());

    let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
    let distinct = once
        .to_observations()
        .iter()
        .filter_map(|observation| extractor.extract(observation))
        .collect::<HashSet<_>>()
        .len() as u64;
    assert!(distinct > 50 && distinct < once.len() as u64);

    // Nothing is allocated per identifier, let alone per row: each alias
    // set that comes out, and the key arena, the identifier table and the
    // row columns growing.
    let mut sets = Vec::new();
    for store in [&once, &twice] {
        let view = store.select_protocol(ServiceProtocol::Ssh, None);
        let (count, grouped) = allocations(|| group_view_compact(&view, &extractor, 1));
        let budget = grouped.sets.len() as u64 + 64;
        assert!(grouped.sets.len() as u64 * 3 < distinct);
        assert!(
            count <= budget,
            "{count} allocations to group {} rows of {distinct} identifiers (budget {budget})",
            view.len()
        );
        sets.push(grouped.sets);
    }
    // The same rows again change no set.
    assert_eq!(sets[0], sets[1]);
}

#[test]
fn a_bounds_test_on_time_ordered_series_allocates_nothing() {
    let series = |base: u16, offset_ms: u64, len: u64| -> Vec<IpidSample> {
        (0..len)
            .map(|i| IpidSample {
                time: SimTime(offset_ms + i * 2_000),
                ipid: base + 11 * i as u16,
            })
            .collect()
    };
    let a = series(100, 0, 12);
    let shared = series(105, 1_000, 12);
    let unrelated = series(40_000, 1_000, 12);
    let short = series(105, 1_000, 1);
    for (other, expected) in [
        (&shared, MbtVerdict::Consistent),
        (&unrelated, MbtVerdict::Inconsistent),
        (&short, MbtVerdict::Insufficient),
    ] {
        let (count, verdict) = allocations(|| monotonic_bounds_test(&[&a, other]));
        assert_eq!(verdict, expected);
        assert_eq!(count, 0, "{expected:?}");
    }
}

#[test]
fn a_step_table_is_one_allocation_and_a_pair_test_on_it_none() {
    // MIDAR builds one table a run: one block.
    let (count, _) = allocations(StepBounds::new);
    assert_eq!(count, 1);
    // Round-robin-like series: gaps on both sides of the 43,648 ms
    // saturation gap.
    let series = |base: u16, offset_ms: u64| -> Vec<IpidSample> {
        (0..12u64)
            .map(|i| IpidSample {
                time: SimTime(offset_ms + i * 89_000),
                ipid: base.wrapping_add(11 * i as u16),
            })
            .collect()
    };
    let bounds = StepBounds::new();
    let a = series(100, 0);
    for (other, expected) in [
        (series(105, 30_000), MbtVerdict::Consistent),
        (series(105, 60_000), MbtVerdict::Consistent),
        (series(60_000, 30_000), MbtVerdict::Inconsistent),
        (series(105, 30_000)[..1].to_vec(), MbtVerdict::Insufficient),
    ] {
        let (count, verdict) = allocations(|| bounds.pair_test(&a, &other));
        assert_eq!(verdict, expected);
        assert_eq!(verdict, monotonic_bounds_test(&[&a, &other]));
        assert_eq!(count, 0, "{expected:?}");
    }
}

#[test]
fn a_pair_test_in_steady_state_allocates_nothing() {
    let internet = tiny_internet();
    let targets: Vec<_> = internet
        .devices()
        .filter(|d| d.responds_to_ping())
        .flat_map(|d| d.ipv4_addrs())
        .take(40)
        .map(|addr| internet.route(addr.into()))
        .collect();
    assert_eq!(targets.len(), 40);

    // Both sweeps run in steady state, three simulated weeks in — where
    // the study's do — under one session each.
    let mut session = internet.probe_session();
    let epoch = SimTime::from_days(21);

    // The Ally sweep: one tester, its two buffers reused pair after pair.
    // No pair allocates, the first included: the tester made its buffers,
    // and send times are closed-form.
    let mut tester = AllyTester::new();
    let mut answered = 0;
    for (n, pair) in targets.windows(2).enumerate() {
        let start = epoch + SimTime(n as u64 * 700);
        let (count, verdict) = allocations(|| {
            tester.test(
                &mut session,
                [pair[0], pair[1]],
                VantageKind::Distributed,
                start,
            )
        });
        assert_eq!(count, 0, "pair {n}: {verdict:?}");
        answered += usize::from(verdict != AllyVerdict::Unresponsive);
    }
    assert!(answered > 30, "only {answered} pairs answered");

    // MIDAR's elimination stage: probe into two caller-owned buffers,
    // stopping at the first step the bounds table rejects, then the bounds
    // test on the table straight on them.  Only the first pair grows them.
    let mut prober = IpidProber::new(SimTime(1));
    let bounds = StepBounds::new();
    let mut samples = [Vec::new(), Vec::new()];
    let mut ends = Vec::new();
    for (n, pair) in targets.windows(2).enumerate() {
        let at = ProbeContext {
            vantage: VantageKind::Distributed,
            time: epoch + SimTime(60_000 + n as u64 * 200),
        };
        let (count, (end, _)) = allocations(|| {
            let end = prober.collect_interleaved_pair(
                &mut session,
                [pair[0], pair[1]],
                6,
                at,
                &mut samples,
                |prev, next| bounds.step_is_impossible(prev, next),
            );
            (end, bounds.pair_test(&samples[0], &samples[1]))
        });
        let probed = samples[0].len() + samples[1].len();
        match end {
            PairEnd::Complete => assert_eq!(probed, 12, "pair {n}"),
            PairEnd::Refuted => assert!((2..=12).contains(&probed), "pair {n}: {probed}"),
            PairEnd::Unanswered => assert!(probed < 12, "pair {n}: {probed}"),
        }
        if n > 0 {
            assert_eq!(count, 0, "pair {n}");
        }
        ends.push(end);
    }
    // Pairs of two devices stop early.
    assert!(ends.contains(&PairEnd::Refuted));
}

#[test]
fn a_round_robin_allocates_a_constant_number_of_blocks() {
    let internet = tiny_internet();
    let pingable: Vec<_> = internet
        .devices()
        .filter(|d| d.responds_to_ping())
        .flat_map(|d| d.ipv4_addrs())
        .map(|addr| internet.route(addr.into()))
        .collect();
    assert!(pingable.len() > 100);
    let mut session = internet.probe_session();
    let mut start = SimTime::from_days(21);
    // The probe counter registers on first touch: touch it outside the count.
    round_robin(&mut session, &[], VantageKind::Distributed, start);
    for n in [100, 1_000, 4_000] {
        let targets: Vec<_> = pingable.iter().copied().cycle().take(n).collect();
        let (bytes, (count, series)) = bytes_requested(|| {
            allocations(|| round_robin(&mut session, &targets, VantageKind::Distributed, start))
        });
        assert!((0..n).all(|target| series.ipids(target).len() == ROUNDS));
        // The IPID rows, the answered counts and the device-order keys,
        // whatever the number of targets.
        assert!(
            count <= 3,
            "{count} allocations for {n} targets x {ROUNDS} rounds"
        );
        // 24 bytes of IPIDs, a count and an 8-byte key a target: a column
        // of 16-byte samples (192 bytes a target) would not fit.
        if n == 4_000 {
            assert!(bytes <= 40 * n as u64, "{bytes} bytes for {n} targets");
        }
        start += SimTime::from_secs(3_600);
    }
}

#[test]
fn midar_and_ally_allocate_per_alias_set_not_per_target() {
    let internet = tiny_internet();
    let data = ActiveCampaign::new(CampaignConfig {
        threads: 1,
        ..Default::default()
    })
    .run(&internet);
    let targets = ProbeTargets::new(&data, &internet);
    // Resolved outside the count: one list a run, shared by the baselines.
    let target_count = targets.ipv4().ids.len() as u64;
    let ctx = TechniqueCtx {
        internet: &internet,
        probe_start: data.finished_at,
        vantage: VantageKind::SingleVp,
        targets: &targets,
    };
    let techniques: [&dyn ResolutionTechnique; 2] = [&MidarTechnique, &AllyTechnique];
    for technique in techniques {
        let (count, result) = allocations(|| technique.resolve(&data, &ctx));
        let sets = result.set_count() as u64;
        assert!(sets > 5, "{}: {sets} sets", technique.name());
        // Each set's members, twice (by position, then by id), and a
        // constant for the stage buffers and lists.
        let budget = 2 * sets + 64;
        assert!(
            count <= budget && budget < target_count,
            "{}: {count} allocations for {sets} sets of {target_count} targets (budget {budget})",
            technique.name()
        );
    }
}

#[test]
fn cross_validation_allocates_per_surviving_set_not_per_input_set() {
    // Technique A pairs (0,1), (2,3), ...; technique B pairs them the same
    // way but for every fourth pair, which it splits.
    let sets = |pairs: u32, split_every: u32| -> Vec<CompactAliasSet> {
        (0..pairs)
            .filter(|i| split_every == 0 || i % split_every != 0)
            .map(|i| CompactAliasSet::from_ids(vec![AddrId(2 * i), AddrId(2 * i + 1)]))
            .collect()
    };
    // Both techniques saw the first 50 pairs' addresses and nothing else.
    let common: Vec<AddrId> = (0..100).map(AddrId).collect();
    let mut counts = Vec::new();
    for pairs in [1_000, 4_000] {
        let (a, b) = (sets(pairs, 0), sets(pairs, 4));
        let (count, result) = allocations(|| cross_validate(&a, &b, &common));
        assert_eq!(result.sample_size, 50);
        assert_eq!(result.agree, 37);
        // 50 + 37 surviving sets; the constant covers the membership table,
        // the two projections, their scratch and the lookup table.
        assert!(
            count <= 50 + 37 + 8,
            "{count} allocations for {pairs} pairs"
        );
        counts.push(count);
    }
    // Four times the input sets, the same survivors: the same count.
    assert_eq!(counts[0], counts[1]);
}
