//! Silent-router hunt: alias resolution on devices that expose *no*
//! identifier service at all.
//!
//! Silent routers answer ping and nothing else — no SSH banner, no BGP
//! OPEN, no SNMPv3 engine ID, no usable IPID counter, no ICMP errors.
//! The paper's identifier techniques cannot even make them testable.  The
//! one signal they do emit is their router-wide ICMP rate limiter
//! (Vermeulen et al., PAM 2020): interfaces of the same device share one
//! token bucket, so correlated loss patterns under escalating probe rates
//! betray the aliases.
//!
//! Run with: `cargo run --release --example silent_router_hunt`

use alias_resolution::prelude::*;

fn main() {
    // 1. A small Internet with a silent-router population on top of the
    //    default device mix (presets ship zero of them).
    let mut config = InternetConfig::small(42);
    config.devices.silent_routers = 40;
    let internet = InternetBuilder::new(config).build();
    let silent: Vec<_> = internet
        .devices()
        .filter(|d| d.kind() == DeviceKind::SilentRouter)
        .collect();
    println!(
        "Population: {} devices, {} of them silent routers",
        internet.devices().len(),
        silent.len()
    );

    // 2. All eight techniques.  The rate-probing campaign phase is opt-in
    //    (escalating ICMP bursts are operationally aggressive), so enable
    //    it explicitly; everything else keeps its defaults.
    let campaign = CampaignConfig {
        rate_probe: Some(RateProbeConfig),
        ..Default::default()
    };
    let resolver = Resolver::builder()
        .all_techniques()
        .campaign(campaign)
        .build();
    let report = resolver.resolve(&internet);

    // 3. Coverage per technique — the silent routers only ever show up in
    //    the `ratelimit` row.
    for technique in &report.techniques {
        println!(
            "{:>9}: {} testable addresses, {} alias sets covering {}",
            technique.technique,
            technique.testable_count(),
            technique.set_count(),
            technique.covered_addresses(),
        );
    }

    // 4. Score the rate-limiting technique against ground truth on the
    //    silent population alone: how many silent routers with 2+ IPv4
    //    interfaces were fully aliased?
    let ratelimit = report.technique("ratelimit").expect("registered");
    let sets = ratelimit.alias_sets();
    let mut resolvable = 0usize;
    let mut aliased = 0usize;
    for device in &silent {
        let v4: Vec<std::net::IpAddr> = device
            .ipv4_addrs()
            .into_iter()
            .map(std::net::IpAddr::V4)
            .collect();
        if v4.len() < 2 {
            continue;
        }
        resolvable += 1;
        if sets.iter().any(|s| v4.iter().all(|a| s.contains(a))) {
            aliased += 1;
        }
    }
    println!(
        "Silent routers with 2+ IPv4 interfaces: {resolvable}; fully aliased by \
         rate limiting: {aliased}"
    );

    // 5. The merged report shows which aliases *only* this technique
    //    corroborates — ground truth invisible to the other seven.
    let only_ratelimit = report
        .merged
        .iter()
        .filter(|m| m.labels.len() == 1 && m.labels.contains("ratelimit"))
        .count();
    println!(
        "Merged sets corroborated by rate limiting alone: {only_ratelimit} of {}",
        report.merged.len()
    );
}
