//! Dual-stack census: pair IPv4 and IPv6 addresses of the same device via
//! shared protocol identifiers (the paper's Table 4 / §4.2), using an IPv6
//! hitlist because the IPv6 space cannot be swept.  The scan runs through
//! the `Resolver`; the per-protocol dual-stack reports are derived in the
//! campaign store's id space, straight off its columns — no intermediate
//! observation vectors, no materialised rows, no address sets.
//!
//! Run with: `cargo run --release --example dual_stack_census`

use alias_resolution::core::alias_set::group_view_by_source;
use alias_resolution::prelude::*;

fn main() {
    let internet = InternetBuilder::new(InternetConfig::small(777)).build();

    // IPv6 targets come from a hitlist with imperfect coverage — exactly the
    // limitation the paper inherits from public IPv6 hitlists.
    let hitlist = Ipv6Hitlist::generate(&internet, 0.7, 0.2, 99);
    println!("IPv6 hitlist carries {} candidate addresses", hitlist.len());

    let report = Resolver::builder()
        .paper_techniques()
        .build()
        .resolve(&internet);
    let data = report.campaign.as_ref().expect("resolver ran the scan");
    let extractor = IdentifierExtractor::new(ExtractionConfig::paper());

    let mut total_sets = 0usize;
    for protocol in [
        ServiceProtocol::Ssh,
        ServiceProtocol::Bgp,
        ServiceProtocol::Snmpv3,
    ] {
        // Select the protocol's rows off the campaign store's tag column,
        // key them once, and derive the dual-stack pairs from the grouping.
        let view = data.store().select_protocol(protocol, None);
        let grouping = group_view_by_source(&view, &extractor).project(None, data.interner());
        let dual = DualStackReport::from_grouping(&grouping, data.interner());
        let (simple, medium, large) = dual.size_split();
        println!(
            "{:>7}: {} dual-stack sets ({} IPv4 / {} IPv6 addresses); \
             {:.0}% are one-v4-one-v6 pairs, {:.0}% have 3-10 addresses, {:.0}% more",
            protocol.name(),
            dual.set_count(),
            dual.ipv4_addresses(),
            dual.ipv6_addresses(),
            simple * 100.0,
            medium * 100.0,
            large * 100.0,
        );
        total_sets += dual.set_count();
    }

    // Sanity check against ground truth: how many devices really are
    // dual-stack?
    let truly_dual = internet
        .devices()
        .iter()
        .filter(|d| d.is_dual_stack())
        .count();
    println!(
        "\nAcross the three protocols {} dual-stack sets were inferred; \
         the ground truth holds {} dual-stack devices (the gap is hitlist coverage, ACLs and\n\
         devices running none of the scanned services on one of the families).",
        total_sets, truly_dual
    );
}
