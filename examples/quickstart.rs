//! Quickstart: build a small synthetic Internet and resolve it end to end
//! through the unified `Resolver` — scan, per-technique alias resolution
//! (SSH, BGP, SNMPv3) and the cross-technique merge, in one call.
//!
//! Run with: `cargo run --release --example quickstart`

use alias_resolution::prelude::*;

fn main() {
    // 1. A seeded synthetic Internet (the substitute for the real one).
    let internet = InternetBuilder::new(InternetConfig::small(42)).build();
    println!(
        "Generated {} devices announcing {} addresses across {} ASes",
        internet.devices().len(),
        internet.address_count(),
        internet.ases().len()
    );

    // 2. One entry point for the whole methodology: the resolver runs the
    //    two-phase active measurement (ZMap SYN discovery, ZGrab-style
    //    service scans, SNMPv3 discovery, an IPv6 hitlist), hands the
    //    observations to every registered technique, and merges the
    //    resulting alias sets across techniques.  The scan's thread count
    //    defaults to ALIAS_THREADS (all cores when unset) and never changes
    //    output; everything after the scan runs on this thread.
    let resolver = Resolver::builder().paper_techniques().build();
    let report = resolver.resolve(&internet);
    let data = report.campaign.as_ref().expect("resolver ran the scan");
    println!(
        "Campaign finished after {:.1} simulated hours with {} observations",
        data.finished_at.as_secs_f64() / 3600.0,
        data.len()
    );

    // 3. Per-technique results: alias sets grouped by application-layer
    //    identifier (banner + capabilities + host key for SSH; the OPEN
    //    fields for BGP; the engine ID for SNMPv3).
    for technique in &report.techniques {
        println!(
            "{:>7}: {} testable addresses, {} alias sets covering {} addresses",
            technique.technique,
            technique.testable_count(),
            technique.set_count(),
            technique.covered_addresses(),
        );
    }
    // The merged sets are a partition: no address is in two of them.
    println!(
        "  union: {} merged sets covering {} addresses",
        report.merged.len(),
        report
            .merged
            .iter()
            .map(|set| set.addrs.len())
            .sum::<usize>()
    );
    // Pairwise agreement, computed on demand for each pair.
    for (i, a) in report.techniques.iter().enumerate() {
        for b in &report.techniques[i + 1..] {
            let (a, b) = (&a.technique, &b.technique);
            let agreement = report.agreement(a, b).expect("both registered");
            println!(
                "  {a}-{b}: {}/{} comparable sets agree",
                agreement.agree, agreement.sample_size,
            );
        }
    }

    // 4. Because the substrate is simulated, the inference can be scored
    //    against ground truth — something the paper could not do.
    let ssh = report.technique("ssh").expect("ssh technique registered");
    let ssh_sets = ssh.alias_sets();
    let score = internet
        .ground_truth()
        .score_sets(ssh_sets.iter().map(|s| s.iter()));
    println!(
        "SSH alias sets vs ground truth: precision {:.3}, recall {:.3}",
        score.precision(),
        score.recall()
    );
}
