//! Internet survey: combine the single-VP active scan with a Censys-like
//! distributed snapshot (the paper's Table 1 / Table 3 story) and show how
//! much each data source contributes — resolving every source through the
//! same `Resolver`, fed pre-collected data via `CampaignData`.
//!
//! Run with: `cargo run --release --example internet_survey`

use alias_resolution::prelude::*;
use std::collections::BTreeSet;
use std::net::IpAddr;

fn main() {
    let internet = InternetBuilder::new(InternetConfig::small(2023)).build();

    // Our own active measurement from a single vantage point, run by the
    // resolver itself.
    let resolver = Resolver::builder()
        .technique(IdentifierTechnique::ssh())
        .build();
    let active_report = resolver.resolve(&internet);
    let active = active_report
        .campaign
        .as_ref()
        .expect("resolver ran the scan");

    // Censys crawls from a distributed fleet and is therefore not subject to
    // the single-VP rate limiting; it also lists some SSH hosts on
    // non-standard ports, which we exclude like the paper does.  The same
    // resolver consumes the snapshot as pre-collected campaign data.
    let snapshot = CensysSnapshot::collect(&internet, CensysConfig::default());
    let (censys, censys_nonstandard) = snapshot.into_default_port();
    let censys_report = resolver.resolve_data(&internet, &CampaignData::from_store(censys.clone()));

    // And the union of both sources: the active campaign's columnar store
    // extended with the snapshot rows (addresses re-interned on the way in,
    // payload records shared with the two stores rather than copied).
    let mut union = active.store().clone();
    union.extend_from(&censys);

    // Distinct IPv4 SSH addresses, straight off the scalar columns — the
    // payload column is never touched.
    let ssh_v4 = |store: &ObservationStore| {
        store
            .select_protocol(ServiceProtocol::Ssh, None)
            .iter()
            .filter(|o| !o.is_ipv6())
            .map(|o| o.addr)
            .collect::<BTreeSet<IpAddr>>()
            .len()
    };
    let active_ips = ssh_v4(active.store());
    let censys_ips = ssh_v4(&censys);
    let union_ips = ssh_v4(&union);
    let union_report = resolver.resolve_data(&internet, &CampaignData::from_store(union));

    println!("SSH coverage by data source (sets span both address families)");
    for (label, ips, report) in [
        ("active measurements", active_ips, &active_report),
        ("censys snapshot", censys_ips, &censys_report),
        ("union", union_ips, &union_report),
    ] {
        let ssh = report.technique("ssh").expect("ssh registered");
        println!(
            "  {label:<20}: {ips:>7} IPv4 IPs, {:>6} alias sets covering {} addresses",
            ssh.set_count(),
            ssh.covered_addresses()
        );
    }
    println!(
        "  censys found {} SSH records on non-standard ports (excluded from the analysis)",
        censys_nonstandard
    );
    println!(
        "\nThe distributed snapshot sees {:.0}% more SSH hosts than the single vantage point,\n\
         and the union improves on either source alone — the same qualitative result as the paper's Table 1/3.",
        (censys_ips as f64 / active_ips.max(1) as f64 - 1.0) * 100.0
    );
}
