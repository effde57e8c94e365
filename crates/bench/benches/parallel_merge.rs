//! Serial vs sharded alias-set consolidation: `merge_labeled_compact` at
//! one thread against its sharded mode, on the union-merge workload the
//! experiment tables run, so future PRs can show the speedup (and its
//! scaling with thread count) from one bench.

use alias_bench::Experiment;
use alias_core::intern::CompactAliasSet;
use alias_core::merge::merge_labeled_compact;
use alias_netsim::ScalePreset;
use alias_scan::ServiceProtocol;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_parallel_merge(c: &mut Criterion) {
    let experiment = Experiment::run(ScalePreset::Small, 11);
    // The union-merge workload of the tables: the three protocols' IPv4
    // alias sets, already in the union store's id space.
    let groupings = [
        ServiceProtocol::Ssh,
        ServiceProtocol::Bgp,
        ServiceProtocol::Snmpv3,
    ]
    .map(|p| (p.name(), experiment.collection(p, None)));
    let inputs: Vec<(&str, &[CompactAliasSet])> = groupings
        .iter()
        .map(|(label, grouping)| (*label, grouping.family_sets(false)))
        .collect();
    let interner = experiment.union.interner();

    let mut group = c.benchmark_group("merge_consolidation");
    group.bench_function("serial", |b| {
        b.iter(|| merge_labeled_compact(&inputs, interner, 1))
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("sharded", threads),
            &threads,
            |b, &threads| b.iter(|| merge_labeled_compact(&inputs, interner, threads)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_merge);
criterion_main!(benches);
