//! A MIDAR-style alias-resolution pipeline.
//!
//! MIDAR (Keys et al., ToN 2013) scales IPID-based alias resolution to the
//! whole Internet with a staged design.  This implementation follows the
//! same structure at simulator scale:
//!
//! 1. **Estimation** — sample every target's IPID over several rounds and
//!    estimate its counter velocity; discard targets whose counters are
//!    random, constant, or too fast to track (this is where most targets are
//!    lost, and why the paper's MIDAR run could verify only 13% of sampled
//!    sets).
//! 2. **Discovery** — order the usable targets by velocity and run the
//!    Monotonic Bounds Test on the estimation-stage time series of nearby
//!    pairs (a sliding window, like MIDAR's).
//! 3. **Elimination / corroboration** — re-probe every surviving candidate
//!    pair with tightly interleaved probes and keep only pairs whose merged
//!    sequence still passes the MBT.  A pair's probing stops at the first
//!    reply the MBT cannot follow, and a candidate whose two targets are
//!    already joined is not re-probed.
//!
//! Confirmed pairs are merged into alias sets with union–find.
//!
//! Speedtrap (Luckie et al., IMC 2013) is this pipeline over IPv6 targets:
//! the simulated device answers a fragment-eliciting probe from the same
//! device-wide counter as an IPv4 echo, so the one code path serves both.
//! [`MidarTechnique`] and [`SpeedtrapTechnique`] run it over the campaign's
//! IPv4 and IPv6 targets.

use crate::baselines::{compact_sets, resolve_counter, FamilyTargets};
use crate::mbt::{MbtVerdict, SeriesColumns, StepBounds};
use crate::technique::{ResolutionTechnique, TechniqueCtx, TechniqueResult};
use crate::velocity::{estimate_velocity, VelocityEstimate};
use alias_netsim::{Internet, IpidSample, ProbeContext, Route, SimTime, VantageKind};
use alias_obs::LazyCounter;
use alias_scan::ipid_probe::{round_robin, IpidProber, IpidSeries, ROUNDS};
use alias_scan::CampaignData;

/// Monotonic bounds tests run by the discovery and elimination stages:
/// one per discovery-window pair and one per candidate elimination
/// re-probed.  Both stages are serial, so the count is a pure function of
/// the targets and the substrate's state.
static MBT_TESTS: LazyCounter = resolve_counter("midar.mbt_tests", "tests");

/// Candidate pairs the discovery stage handed to elimination, re-probed or
/// skipped as already joined.
static CANDIDATES: LazyCounter = resolve_counter("midar.candidates", "pairs");

/// One `midar_resolve` technique's shares of the summed MIDAR and IPID
/// counters, in [`MidarOutcome`]'s order: bounds tests, candidates, IPID
/// probes, pair stops.
type MidarCounters = [LazyCounter; 4];

/// MIDAR's shares (`midar_resolve` over the IPv4 targets).
static MIDAR_COUNTERS: MidarCounters = [
    resolve_counter("resolve.midar_mbt_tests", "tests"),
    resolve_counter("resolve.midar_candidates", "pairs"),
    resolve_counter("resolve.midar_ipid_probes", "probes"),
    resolve_counter("resolve.midar_ipid_pair_stops", "pairs"),
];

/// Speedtrap's shares (`midar_resolve` over the IPv6 targets).
static SPEEDTRAP_COUNTERS: MidarCounters = [
    resolve_counter("resolve.speedtrap_mbt_tests", "tests"),
    resolve_counter("resolve.speedtrap_candidates", "pairs"),
    resolve_counter("resolve.speedtrap_ipid_probes", "probes"),
    resolve_counter("resolve.speedtrap_ipid_pair_stops", "pairs"),
];

/// Highest counter velocity (increments per second) MIDAR considers
/// testable: the bounds test's and velocity estimation's one cap.
pub(crate) const MAX_VELOCITY: f64 = 1_500.0;

/// Time between the probes of an elimination pair.  MIDAR probes pairs at
/// 5,000 pps, more than one probe a millisecond, so only the strictly
/// increasing send times pace them: one a millisecond.
const PAIR_GAP: SimTime = SimTime(1);

/// Simulated pause before each pair test: an Ally test, a rate-limit joint
/// burst, or a candidate MIDAR re-probes in elimination.
pub(crate) const PAIR_SPACING: SimTime = SimTime(200);

/// Width of the discovery-stage sliding window over velocity-sorted
/// targets.
const DISCOVERY_WINDOW: usize = 24;

/// Probes per address in the elimination stage.
const ELIMINATION_PROBES: usize = 6;

/// Result of a MIDAR run.  Targets are named by their index into the
/// target list the run was given.
#[derive(Debug, Clone)]
pub struct MidarOutcome {
    /// Inferred alias sets (two or more targets each, ascending).
    pub alias_sets: Vec<Vec<usize>>,
    /// Targets whose IPID counters were usable at all, ascending.
    pub testable: Vec<usize>,
    /// Simulated time the run finished (MIDAR runs take long; the paper's
    /// took three weeks, long enough for churn to matter).
    pub finished_at: SimTime,
    /// Monotonic bounds tests run: this run's share of `midar.mbt_tests`.
    pub(crate) mbt_tests: u64,
    /// Candidate pairs discovery handed to elimination: this run's share of
    /// `midar.candidates`.
    pub(crate) candidates: u64,
    /// IPID probes sent, estimation's round robin and elimination's pairs:
    /// this run's share of `scan.ipid_probes`.
    pub(crate) ipid_probes: u64,
    /// Elimination pairs whose probing ended before their last slot: this
    /// run's share of `scan.ipid_pair_stops`.
    pub(crate) pair_stops: u64,
}

/// Run the MIDAR pipeline over `targets`, each routed once by the caller
/// ([`Internet::route`]; `None` for an address no device holds), probing
/// from `vantage`.
/// The run holds one [`ProbeSession`](alias_netsim::ProbeSession) from its
/// first probe to its last.
pub fn midar_resolve(
    internet: &Internet,
    targets: &[Option<Route>],
    vantage: VantageKind,
    start: SimTime,
) -> MidarOutcome {
    let mut session = internet.probe_session();
    // Every bounds test of the run reads its step rule from one table.
    let bounds = StepBounds::new();

    // Stage 1: estimation.
    let stage = alias_obs::span("estimation");
    let series = round_robin(&mut session, targets, vantage, start);
    let mut finished_at = (0..series.targets())
        .filter_map(|target| series.samples(target).last())
        .map(|sample| sample.time)
        .max()
        .unwrap_or(start);
    let usable = usable_targets(&series);
    let testable: Vec<usize> = usable.iter().map(|&(_, target)| target).collect();
    drop(stage);

    // Stage 2: discovery over a velocity-sorted sliding window.  From
    // here on a target is its position in `by_velocity`.  The span has a
    // child for each half: `sort` (the velocity sort and the series'
    // columns) and `window` (the pairwise tests, each by the two-gap
    // kernel, which serves every pair of a round robin's usable targets).
    let stage = alias_obs::span("discovery");
    let step = alias_obs::span("sort");
    let by_velocity = velocity_order(usable);
    let columns = estimation_columns(&series, &by_velocity, &bounds);
    drop(step);
    let step = alias_obs::span("window");
    let mut discovery_tests = 0u64;
    // Candidates are `u32` window positions, half the bytes of `usize` ones.
    u32::try_from(by_velocity.len()).expect("the series of 2^32 targets would fill 768 GiB");
    let mut candidates: Vec<(u32, u32)> = Vec::new();
    for (i, j) in window_pairs(by_velocity.len()) {
        discovery_tests += 1;
        if columns.kernel_test(i, j) == MbtVerdict::Consistent {
            candidates.push((i as u32, j as u32));
        }
    }
    drop(step);
    drop(stage);

    // Stage 3: elimination / corroboration with interleaved probing.
    // Every candidate pair writes into the same two sample buffers.
    // Probing a pair stops at the first step the bounds test rejects, which
    // fixes its verdict already; a pair the union-find joins is not
    // re-probed, and keeps its place in the schedule.
    let stage = alias_obs::span("elimination");
    let mut pair_prober = IpidProber::new(PAIR_GAP);
    let mut samples = [
        Vec::with_capacity(ELIMINATION_PROBES),
        Vec::with_capacity(ELIMINATION_PROBES),
    ];
    let mut union = alias_core::union_find::UnionFind::new(by_velocity.len());
    let mut now = finished_at;
    let mut elimination_tests = 0u64;
    for &(i, j) in &candidates {
        let (i, j) = (i as usize, j as usize);
        now += PAIR_SPACING;
        if union.connected(i, j) {
            continue;
        }
        elimination_tests += 1;
        pair_prober.collect_interleaved_pair(
            &mut session,
            [targets[by_velocity[i]], targets[by_velocity[j]]],
            ELIMINATION_PROBES,
            ProbeContext { vantage, time: now },
            &mut samples,
            |prev, next| bounds.step_is_impossible(prev, next),
        );
        let [sa, sb] = &samples;
        if let Some(last) = sa.last().or(sb.last()) {
            finished_at = finished_at.max(last.time);
        }
        if bounds.pair_test(sa, sb) == MbtVerdict::Consistent {
            union.union(i, j);
        }
    }
    let mbt_tests = discovery_tests + elimination_tests;
    MBT_TESTS.add(mbt_tests);
    CANDIDATES.add(candidates.len() as u64);
    let (pair_probes, pair_stops) = pair_prober.pair_tally();
    drop(stage);

    let mut alias_sets = union.groups();
    for set in &mut alias_sets {
        set.iter_mut()
            .for_each(|member| *member = by_velocity[*member]);
        set.sort_unstable();
    }

    MidarOutcome {
        alias_sets,
        testable,
        finished_at: finished_at.max(now),
        mbt_tests,
        candidates: candidates.len() as u64,
        ipid_probes: (targets.len() * ROUNDS) as u64 + pair_probes,
        pair_stops,
    }
}

/// (velocity, target index) of every target whose counter estimation
/// finds monotonic and at most `MAX_VELOCITY`, in target order.  A
/// velocity is forward steps over a positive time, so never negative.
/// Each target's samples are written out on the stack, one at a time.
fn usable_targets(series: &IpidSeries) -> Vec<(f64, usize)> {
    let usable = |velocity: f64| (0.0..=MAX_VELOCITY).contains(&velocity);
    let mut buffer = [IpidSample::default(); ROUNDS];
    (0..series.targets())
        .filter_map(|target| {
            let samples = series.samples(target);
            let answered = samples.len();
            for (slot, sample) in buffer.iter_mut().zip(samples) {
                *slot = sample;
            }
            match estimate_velocity(&buffer[..answered]) {
                VelocityEstimate::Monotonic { velocity } if usable(velocity) => {
                    Some((velocity, target))
                }
                _ => None,
            }
        })
        .collect()
}

/// The discovery window's columns: the series of the target at each
/// position of `by_velocity`, straight from the round robin's rows.
fn estimation_columns<'b>(
    series: &IpidSeries,
    by_velocity: &[usize],
    bounds: &'b StepBounds,
) -> SeriesColumns<'b> {
    let row = |&target: &usize| {
        let ipids = (series.ipids(target).try_into())
            .expect("a usable target answered, so it answered every round");
        (series.sent_at(target, 0).as_millis(), ipids)
    };
    let rows = by_velocity.iter().map(row);
    SeriesColumns::new(series.period().as_millis(), rows, bounds)
}

/// The target at each position of the discovery window: `usable` in
/// velocity order, ties in target order.  Non-negative velocities order
/// as their bits do, so (bits, target) pairs sort as integers, in
/// `usable`'s own buffer.
fn velocity_order(usable: Vec<(f64, usize)>) -> Vec<usize> {
    let mut keys: Vec<(u64, usize)> = (usable.into_iter())
        .map(|(velocity, target)| (velocity.to_bits(), target))
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|(_, target)| target).collect()
}

/// The discovery window's pairs over `n` velocity-sorted targets: each
/// one with the next `DISCOVERY_WINDOW − 1`.
fn window_pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |i| (i + 1..(i + DISCOVERY_WINDOW).min(n)).map(move |j| (i, j)))
}

/// [`midar_resolve`] over one family's targets, as a technique's result;
/// the run's tallies go to the technique's `counters`.
fn midar_result(
    name: &str,
    counters: &MidarCounters,
    data: &CampaignData,
    ctx: &TechniqueCtx<'_>,
    family: &FamilyTargets,
) -> TechniqueResult {
    let FamilyTargets { ids, routes } = family;
    let outcome = midar_resolve(ctx.internet, routes, ctx.vantage, ctx.probe_start);
    let tallies = [
        outcome.mbt_tests,
        outcome.candidates,
        outcome.ipid_probes,
        outcome.pair_stops,
    ];
    for (counter, tally) in counters.iter().zip(tallies) {
        counter.add(tally);
    }
    TechniqueResult::from_compact(
        name.to_owned(),
        compact_sets(&outcome.alias_sets, ids),
        outcome.testable.iter().map(|&i| ids[i]).collect(),
        outcome.finished_at,
        data.interner().clone(),
    )
}

/// The MIDAR baseline: estimation → discovery → elimination over every
/// responsive IPv4 address of the campaign, probed from the run's vantage.
#[derive(Debug, Clone, Copy, Default)]
pub struct MidarTechnique;

impl ResolutionTechnique for MidarTechnique {
    fn name(&self) -> &'static str {
        "midar"
    }

    fn resolve(&self, data: &CampaignData, ctx: &TechniqueCtx<'_>) -> TechniqueResult {
        midar_result(self.name(), &MIDAR_COUNTERS, data, ctx, ctx.targets.ipv4())
    }
}

/// The Speedtrap baseline: MIDAR's pipeline over every responsive IPv6
/// address of the campaign, whose fragment-eliciting probes read the same
/// device-wide counter an IPv4 echo does.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpeedtrapTechnique;

impl ResolutionTechnique for SpeedtrapTechnique {
    fn name(&self) -> &'static str {
        "speedtrap"
    }

    fn resolve(&self, data: &CampaignData, ctx: &TechniqueCtx<'_>) -> TechniqueResult {
        midar_result(
            self.name(),
            &SPEEDTRAP_COUNTERS,
            data,
            ctx,
            ctx.targets.ipv6(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::{DeviceRef, InternetBuilder, InternetConfig};
    use std::net::IpAddr;

    fn internet() -> Internet {
        InternetBuilder::new(InternetConfig::tiny(1212)).build()
    }

    /// Targets: all IPv4 addresses of the pingable multi-address devices
    /// `keep` accepts.
    fn targets(internet: &Internet, keep: impl Fn(&DeviceRef) -> bool) -> Vec<IpAddr> {
        internet
            .devices()
            .filter(|d| d.responds_to_ping() && d.ipv4_addrs().len() >= 2 && keep(d))
            .flat_map(|d| d.ipv4_addrs().into_iter().map(IpAddr::V4))
            .collect()
    }

    fn run(internet: &Internet, targets: &[IpAddr]) -> MidarOutcome {
        let routes: Vec<Option<Route>> = targets.iter().map(|&a| internet.route(a)).collect();
        midar_resolve(internet, &routes, VantageKind::SingleVp, SimTime::ZERO)
    }

    #[test]
    fn midar_finds_only_true_aliases() {
        let internet = internet();
        let targets = targets(&internet, |_| true);
        assert!(!targets.is_empty());
        let outcome = run(&internet, &targets);
        let truth = internet.ground_truth();
        // Every inferred pair must be a true alias pair (MIDAR is precise on
        // devices it can test).
        for set in &outcome.alias_sets {
            let members: Vec<IpAddr> = set.iter().map(|&i| targets[i]).collect();
            for i in 0..members.len() {
                for j in i + 1..members.len() {
                    assert!(
                        truth.device_of(members[i]).is_some()
                            && truth.device_of(members[i]) == truth.device_of(members[j]),
                        "false alias {:?} / {:?}",
                        members[i],
                        members[j]
                    );
                }
            }
        }
    }

    #[test]
    fn midar_coverage_is_partial() {
        // Most devices do not expose a usable shared counter, so MIDAR tests
        // far fewer addresses than it was given — the effect behind the 13%
        // verification rate in the paper.
        let internet = internet();
        let targets = targets(&internet, |_| true);
        let outcome = run(&internet, &targets);
        assert!(outcome.testable.len() < targets.len());
        assert!(outcome.testable.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn midar_recovers_some_shared_counter_devices() {
        let internet = internet();
        // Restrict the run to devices we know are testable, so the test is
        // deterministic: low-velocity shared counters that answer ping.
        let good_targets = targets(&internet, |d| {
            let model = internet.ipid_model(d.id());
            matches!(model, alias_netsim::ipid::IpidModel::SharedMonotonic { velocity } if velocity < 300.0)
        });
        if good_targets.len() < 2 {
            return;
        }
        let outcome = run(&internet, &good_targets);
        assert!(
            !outcome.alias_sets.is_empty(),
            "expected at least one alias set from {} testable addrs",
            outcome.testable.len()
        );
    }

    /// Every discovery-window pair of the paper-scale silent-router
    /// study's MIDAR run (seed 20230418; MIDAR is the study's first probing
    /// technique, so its input is the campaign's) gets the two-gap kernel's
    /// verdict and the streaming test's, and they agree
    /// (`cargo test --release -p alias-resolve -- --ignored discovery_kernel`,
    /// a CI step).
    #[test]
    #[ignore = "paper scale: the study's campaign and MIDAR's estimation, seconds in release"]
    fn discovery_kernel_serves_every_window_pair_of_the_paper_study() {
        use alias_netsim::ScalePreset;
        use alias_scan::{ActiveCampaign, CampaignConfig, RateProbeConfig};
        const SEED: u64 = 20230418;
        let mut config = InternetConfig::preset(ScalePreset::PaperShape, SEED);
        // The study's silent routers at paper scale.
        config.devices.silent_routers = 300;
        let hitlist_coverage = config.visibility.hitlist_coverage;
        let mut internet = InternetBuilder::new(config).build();
        let start = SimTime::from_days(21);
        internet.apply_churn(SimTime::ZERO, start);
        let data = ActiveCampaign::new(CampaignConfig {
            vantage: VantageKind::SingleVp,
            start,
            hitlist_coverage,
            seed: SEED,
            threads: 1,
            rate_probe: Some(RateProbeConfig),
        })
        .run(&internet);
        // The campaign's IPv4 addresses in address order, as the study's
        // MIDAR takes them.
        let mut addrs: Vec<IpAddr> = (data.interner().addrs().iter())
            .filter(|addr| addr.is_ipv4())
            .copied()
            .collect();
        addrs.sort_unstable();
        let targets: Vec<Option<Route>> = addrs.iter().map(|&a| internet.route(a)).collect();
        let series = round_robin(
            &mut internet.probe_session(),
            &targets,
            VantageKind::SingleVp,
            data.finished_at,
        );
        let usable = usable_targets(&series);
        let by_velocity = velocity_order(usable.clone());
        // The window's order is the stable velocity sort's.
        let mut sorted = usable.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!((sorted.iter().map(|&(_, target)| target)).eq(by_velocity.iter().copied()));
        let bounds = StepBounds::new();
        let columns = estimation_columns(&series, &by_velocity, &bounds);
        // Each position's series expanded to samples, as the streaming
        // test reads them.
        let samples: Vec<Vec<IpidSample>> = (by_velocity.iter())
            .map(|&target| series.samples(target).collect())
            .collect();
        let (mut pairs, mut served, mut consistent) = (0u64, 0u64, 0u64);
        for (i, j) in window_pairs(by_velocity.len()) {
            let reference = bounds.pair_test(&samples[i], &samples[j]);
            pairs += 1;
            consistent += u64::from(reference == MbtVerdict::Consistent);
            // Every position's series is regular, and a window pair's
            // starts are distinct and less than a period apart.
            let (start_i, start_j) = (samples[i][0].time, samples[j][0].time);
            let gap = start_i.max(start_j).since(start_i.min(start_j));
            assert!(samples[i].len() == ROUNDS && samples[j].len() == ROUNDS);
            assert!(
                SimTime::ZERO < gap && gap < series.period(),
                "pair ({i}, {j})"
            );
            served += 1;
            assert_eq!(columns.kernel_test(i, j), reference, "pair ({i}, {j})");
        }
        assert_eq!(usable.len(), 47_322);
        assert_eq!(pairs, 1_088_130);
        assert_eq!(served, pairs, "the kernel serves every window pair");
        // The study's `resolve.midar_candidates`.
        assert_eq!(consistent, 290_637);
    }

    #[test]
    fn empty_target_list_is_fine() {
        let internet = internet();
        let outcome = midar_resolve(&internet, &[], VantageKind::SingleVp, SimTime::ZERO);
        assert!(outcome.alias_sets.is_empty());
        assert!(outcome.testable.is_empty());
    }
}
