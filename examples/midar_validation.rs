//! MIDAR validation: reproduce the paper's §2.6 comparison between
//! SSH-derived alias sets and the IPID-based MIDAR baseline — including
//! MIDAR's limited coverage (most devices do not expose a usable shared
//! counter).  Both techniques run through the same `Resolver` trait-object
//! pipeline, so their agreement drops straight out of the report.
//!
//! Run with: `cargo run --release --example midar_validation`

use alias_intern::{AddrId, CompactAliasSet};
use alias_resolution::core::validation::validate_against_midar;
use alias_resolution::prelude::*;

fn main() {
    let internet = InternetBuilder::new(InternetConfig::small(555)).build();

    // One resolver, two techniques: the paper's SSH identifier and the
    // MIDAR baseline (estimation -> discovery -> corroboration), which
    // probes the campaign's responsive IPv4 addresses after the scan.
    let resolver = Resolver::builder()
        .technique(IdentifierTechnique::ssh())
        .technique(MidarTechnique)
        .build();
    let report = resolver.resolve(&internet);

    let ssh = report.technique("ssh").expect("ssh registered");
    let midar = report.technique("midar").expect("midar registered");
    println!(
        "SSH groups {} addresses into {} alias sets",
        ssh.covered_addresses(),
        ssh.set_count()
    );
    println!(
        "MIDAR found {} usable counters and produced {} alias sets \
         after {:.1} simulated hours",
        midar.testable_count(),
        midar.set_count(),
        midar.finished_at.as_secs_f64() / 3600.0
    );

    // The paper's comparison, over the sets small enough to verify.
    // "Verifiable" follows the paper's reading: MIDAR made a positive
    // aliasing claim about the addresses.  Counters that were sampleable
    // but never corroborated into a set leave the sampled set unverified
    // rather than contradicted.
    // The validator is id-native, and the report's sets share one id
    // space.
    let sample: Vec<CompactAliasSet> = (ssh.compact_sets().iter())
        .filter(|s| s.len() <= 10)
        .cloned()
        .collect();
    let midar_sets = midar.compact_sets();
    let mut positively_grouped: Vec<AddrId> = midar_sets
        .iter()
        .flat_map(|set| set.ids())
        .copied()
        .collect();
    positively_grouped.sort_unstable();
    positively_grouped.dedup();
    let validation = validate_against_midar(&sample, midar_sets, &positively_grouped);
    let agreement_pct = (validation.result.agreement_rate())
        .map_or_else(|| "n/a".to_owned(), |rate| format!("{:.0}%", rate * 100.0));
    println!(
        "MIDAR could verify {} of {} sampled SSH sets ({:.0}% coverage); \
         of those, {} agree and {} disagree ({agreement_pct} agreement)",
        validation.result.sample_size,
        validation.sampled,
        validation.coverage() * 100.0,
        validation.result.agree,
        validation.result.disagree,
    );

    // The report's built-in pairwise statistics tell the same story.
    let agreement = report.agreement("ssh", "midar").expect("both registered");
    println!(
        "Report agreement ssh-midar: {}/{} comparable sets agree",
        agreement.agree, agreement.sample_size,
    );
    println!(
        "\nAs in the paper, coverage is low (most counters are random, constant or too fast)\n\
         while agreement on the verifiable sets is high."
    );
}
