//! Alias sets: groups of addresses sharing a protocol identifier.
//!
//! Grouping runs in id space: each row's identifier is written as a byte
//! key into a reused buffer
//! ([`IdentifierExtractor::key_into`]) and interned to an
//! [`IdentId`](crate::intern::IdentId), addresses to [`AddrId`]s, so the
//! per-observation work is one hash lookup and a `Vec` push — no
//! identifier `String`s per row, no ordered address sets, and no
//! [`ProtocolIdentifier`](crate::identifier::ProtocolIdentifier) at all.
//! Two shapes come out of the same keyed pass: a [`CompactGrouping`]
//! (canonical order plus the testable ids — what a resolution technique
//! returns) and [`SourceGroups`], whose members remember the data source
//! that observed them, so one pass over a union store projects into the
//! per-source [`FamilyGrouping`]s the paper's tables read.  Addresses come
//! back only where a report formats them.

use crate::extract::IdentifierExtractor;
use crate::intern::{sort_canonical_compact, AddrId, AddrInterner, CompactAliasSet, IdentInterner};
use alias_obs::{DeterminismClass, LazyCounter};
use alias_scan::{DataSource, ObservationView};
use std::cmp::Reverse;

/// Rows a grouping keyed: those whose payload yields an identifier.
static GROUP_ROWS: LazyCounter = LazyCounter::new(
    "core.group_rows",
    DeterminismClass::Deterministic,
    "rows",
    "core",
);

/// Distinct identifiers those rows interned to — with `core.group_rows`,
/// how many rows share an identifier with another.
static GROUP_IDENTS: LazyCounter = LazyCounter::new(
    "core.group_idents",
    DeterminismClass::Deterministic,
    "idents",
    "core",
);

/// Flush one finished grouping's counts, from serial code.
fn count_grouping<M>(groups: &[Vec<M>]) {
    GROUP_ROWS.add(groups.iter().map(|members| members.len() as u64).sum());
    GROUP_IDENTS.add(groups.len() as u64);
}

/// Identifier grouping in id space: the output of [`group_view_compact`].
///
/// Alias sets are [`CompactAliasSet`]s over a campaign's [`AddrInterner`];
/// addresses are resolved only at the report boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactGrouping {
    /// Non-singleton alias sets in canonical order (ascending by smallest
    /// member address, larger sets first on ties).
    pub sets: Vec<CompactAliasSet>,
    /// Every identified address (any set size), as sorted distinct ids.
    pub testable: Vec<AddrId>,
}

/// Group a columnar store view by extracted identifier, entirely in id
/// space, with `threads` shard workers.
///
/// The view's [`AddrId`] column already holds each row's interned id
/// (intern-at-scan), so the per-observation work is one payload extraction
/// and one identifier hash, with no address hashing at all.  Each shard
/// groups its contiguous slice of the rows into maps keyed by a
/// shard-local [`IdentId`](crate::intern::IdentId); the join then reduces
/// in id space — walking every shard's interner in id order and
/// re-interning only each shard's *distinct* identifiers — instead of
/// re-hashing the full identifier material once per observation.  Because
/// shards are contiguous slices reduced in shard order, the grouped output
/// (including member order and identifier numbering) is identical for
/// every thread count.
pub fn group_view_compact(
    view: &ObservationView<'_>,
    extractor: &IdentifierExtractor,
    threads: usize,
) -> CompactGrouping {
    let groups = group_sharded(view.len(), threads, |range, emit| {
        let mut key = Vec::new();
        for i in range.0..range.1 {
            if extractor.key_into(view.payload_at(i), &mut key) {
                emit(&key, view.addr_id_at(i));
            }
        }
    });
    let mut sets = Vec::new();
    let mut testable: Vec<AddrId> = Vec::new();
    for members in groups {
        let set = CompactAliasSet::from_ids(members);
        testable.extend(set.iter());
        if set.len() >= 2 {
            sets.push(set);
        }
    }
    testable.sort_unstable();
    testable.dedup();
    sort_canonical_compact(&mut sets, view.store().interner());
    CompactGrouping { sets, testable }
}

/// One keyed pass over a store view whose groups keep, per member, the
/// data source that observed it: the identifier groups of a protocol over
/// a union store, from which the per-source groupings are projections.
///
/// Groups are in identifier first-seen order and members in row order
/// (duplicates included), for every thread count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceGroups {
    groups: Vec<Vec<(AddrId, DataSource)>>,
}

/// Group a columnar store view by extracted identifier like
/// [`group_view_compact`], tagging each member with its row's
/// [`DataSource`].
pub fn group_view_by_source(
    view: &ObservationView<'_>,
    extractor: &IdentifierExtractor,
    threads: usize,
) -> SourceGroups {
    let groups = group_sharded(view.len(), threads, |range, emit| {
        let mut key = Vec::new();
        for i in range.0..range.1 {
            if extractor.key_into(view.payload_at(i), &mut key) {
                emit(&key, (view.addr_id_at(i), view.source_at(i)));
            }
        }
    });
    SourceGroups { groups }
}

impl SourceGroups {
    /// The tagged members of every identifier group (singletons included).
    pub fn groups(&self) -> &[Vec<(AddrId, DataSource)>] {
        &self.groups
    }

    /// The grouping one data source alone would have produced (`None` =
    /// both sources): each group restricted to the members that source
    /// observed.  `interner` is the grouped store's.
    pub fn project(&self, source: Option<DataSource>, interner: &AddrInterner) -> FamilyGrouping {
        let mut scratch: Vec<AddrId> = Vec::new();
        let sets = self.groups.iter().filter_map(|members| {
            scratch.clear();
            scratch.extend(
                members
                    .iter()
                    .filter(|&&(_, seen_by)| source.is_none_or(|wanted| seen_by == wanted))
                    .map(|&(id, _)| id),
            );
            scratch.sort_unstable();
            scratch.dedup();
            (scratch.len() >= 2).then(|| CompactAliasSet::from_ids(scratch.clone()))
        });
        FamilyGrouping::from_sets(sets.collect(), interner)
    }
}

/// The alias sets of one protocol over one data source, in *report order*,
/// with the per-family and dual-stack projections the tables read — all
/// in the grouped store's id space, each computed once.
///
/// Report order is what Table 2's MIDAR sample is drawn in: larger sets
/// first, then ascending smallest member address, remaining ties (two
/// identifiers for one address, across sources) in identifier first-seen
/// order.  Every projection keeps the relative order of [`Self::sets`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FamilyGrouping {
    sets: Vec<CompactAliasSet>,
    ipv4: Vec<CompactAliasSet>,
    ipv6: Vec<CompactAliasSet>,
    dual_stack: Vec<CompactAliasSet>,
}

impl FamilyGrouping {
    /// Order non-singleton `sets` (given in identifier first-seen order)
    /// and split them by address family.
    fn from_sets(sets: Vec<CompactAliasSet>, interner: &AddrInterner) -> Self {
        let mut keyed: Vec<_> = sets
            .into_iter()
            .map(|set| (Reverse(set.len()), set.min_addr(interner), set))
            .collect();
        // Stable: equal keys stay in first-seen order.
        keyed.sort_by_key(|&(size, min_addr, _)| (size, min_addr));
        let mut grouping = FamilyGrouping::default();
        for (_, _, set) in keyed {
            let (v6, v4): (Vec<AddrId>, Vec<AddrId>) =
                set.iter().partition(|&id| interner.addr(id).is_ipv6());
            if !v4.is_empty() && !v6.is_empty() {
                grouping.dual_stack.push(set.clone());
            }
            if v4.len() >= 2 {
                grouping.ipv4.push(CompactAliasSet::from_ids(v4));
            }
            if v6.len() >= 2 {
                grouping.ipv6.push(CompactAliasSet::from_ids(v6));
            }
            grouping.sets.push(set);
        }
        grouping
    }

    /// Sets with at least two members of any family — what the paper
    /// calls alias sets.
    pub fn sets(&self) -> &[CompactAliasSet] {
        &self.sets
    }

    /// Sets restricted to one address family, keeping those that remain
    /// non-singleton after the restriction (the per-family tables).
    pub fn family_sets(&self, ipv6: bool) -> &[CompactAliasSet] {
        if ipv6 {
            &self.ipv6
        } else {
            &self.ipv4
        }
    }

    /// Whole sets with at least one IPv4 *and* one IPv6 member.
    pub fn dual_stack_sets(&self) -> &[CompactAliasSet] {
        &self.dual_stack
    }

    /// Set sizes of one address family (input for the ECDF figures).
    pub fn set_sizes(&self, ipv6: bool) -> Vec<usize> {
        self.family_sets(ipv6)
            .iter()
            .map(CompactAliasSet::len)
            .collect()
    }
}

/// The shard/reduce skeleton behind both grouping entry points: `walk_rows`
/// walks one half-open row range and emits `(identifier key, member)`
/// pairs; shards group locally and the join re-interns only each shard's
/// distinct keys, in shard order.  Returns the member lists in identifier
/// first-seen order, members in row order — identical for every thread
/// count, because shards are contiguous and reduced in order.
fn group_sharded<M: Send>(
    rows: usize,
    threads: usize,
    walk_rows: impl Fn((usize, usize), &mut dyn FnMut(&[u8], M)) + Sync,
) -> Vec<Vec<M>> {
    // Extraction + hashing is CPU-bound with no per-item pacing overhead
    // to amortise, so workers beyond the machine's parallelism only add
    // scheduling noise; the clamp never changes the output (the grouping
    // is shard-count independent).
    let threads = threads.min(alias_exec::available_parallelism());
    let shard_ranges = alias_exec::split_even(rows as u64, alias_exec::shards_for(threads));
    let shards: Vec<(IdentInterner, Vec<Vec<M>>)> =
        alias_exec::shard_map(shard_ranges.len(), threads, |shard| {
            let range = &shard_ranges[shard];
            let mut idents = IdentInterner::new();
            let mut groups: Vec<Vec<M>> = Vec::new();
            walk_rows(
                (range.start as usize, range.end as usize),
                &mut |key, member| {
                    let ident = idents.intern_ref(key);
                    if ident.index() == groups.len() {
                        groups.push(Vec::new());
                    }
                    groups[ident.index()].push(member);
                },
            );
            (idents, groups)
        });

    // Id-space reduce, in shard order: re-intern each shard's distinct
    // identifiers once (moved, not cloned) and splice the id-keyed groups
    // together.  A single shard is already grouped — no join at all.
    let single_shard = shards.len() == 1;
    let mut idents = IdentInterner::new();
    let mut groups: Vec<Vec<M>> = Vec::new();
    for (shard_idents, shard_groups) in shards {
        if single_shard {
            groups = shard_groups;
            break;
        }
        for (identifier, members) in shard_idents.into_keys().into_iter().zip(shard_groups) {
            let ident = idents.intern(identifier);
            if ident.index() == groups.len() {
                groups.push(members);
            } else {
                groups[ident.index()].extend(members);
            }
        }
    }
    count_grouping(&groups);
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::ExtractionConfig;
    use alias_netsim::SimTime;
    use alias_scan::{ObservationStore, ServiceObservation, ServicePayload};
    use alias_wire::ssh::{Banner, HostKey, HostKeyAlgorithm, KexInit, SshObservation};
    use std::net::IpAddr;

    /// An SSH observation for `addr` from a device identified by `key_byte`.
    fn ssh_obs(addr: &str, key_byte: u8, source: DataSource) -> ServiceObservation {
        ServiceObservation {
            addr: addr.parse().unwrap(),
            port: 22,
            source,
            timestamp: SimTime::ZERO,
            asn: Some(100 + key_byte as u32),
            payload: ServicePayload::Ssh(SshObservation {
                banner: Banner::new("OpenSSH_8.9p1", None).unwrap(),
                kex_init: Some(KexInit::typical_openssh()),
                host_key: Some(HostKey::new(HostKeyAlgorithm::Ed25519, vec![key_byte; 32])),
            }),
        }
    }

    fn paper_extractor() -> IdentifierExtractor {
        IdentifierExtractor::new(ExtractionConfig::paper())
    }

    /// The keyed pass over `observations` projected onto `source`, with
    /// the store whose id space it lives in.
    fn grouping(
        observations: &[ServiceObservation],
        source: Option<DataSource>,
    ) -> (FamilyGrouping, ObservationStore) {
        let store = ObservationStore::from_observations(observations.to_vec());
        let pass = group_view_by_source(&store.select(None, None), &paper_extractor(), 1);
        let grouping = pass.project(source, store.interner());
        (grouping, store)
    }

    /// Resolve sets to dotted strings, members in address order.
    fn resolved(sets: &[CompactAliasSet], interner: &AddrInterner) -> Vec<Vec<String>> {
        sets.iter()
            .map(|set| {
                let mut addrs: Vec<IpAddr> = set.iter().map(|id| interner.addr(id)).collect();
                addrs.sort_unstable();
                addrs.iter().map(IpAddr::to_string).collect()
            })
            .collect()
    }

    /// Each source's projection of `pass` holds the sets a grouping of
    /// that source's rows alone yields.
    fn assert_projections_match_filtered_views(pass: &SourceGroups, store: &ObservationStore) {
        for source in [None, Some(DataSource::Active), Some(DataSource::Censys)] {
            let mut projected = pass.project(source, store.interner()).sets().to_vec();
            sort_canonical_compact(&mut projected, store.interner());
            let filtered = group_view_compact(&store.select(None, source), &paper_extractor(), 1);
            assert_eq!(projected, filtered.sets, "{source:?}");
        }
    }

    #[test]
    fn grouping_by_identifier() {
        let obs = vec![
            ssh_obs("10.2.0.1", 3, DataSource::Active),
            ssh_obs("10.2.0.2", 3, DataSource::Active),
            ssh_obs("10.1.0.1", 2, DataSource::Active),
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("10.0.0.2", 1, DataSource::Active),
            ssh_obs("10.0.0.3", 1, DataSource::Active),
        ];
        let (grouping, store) = grouping(&obs, None);
        // Singletons are not alias sets; the largest set comes first.
        assert_eq!(
            resolved(grouping.sets(), store.interner()),
            vec![
                vec!["10.0.0.1", "10.0.0.2", "10.0.0.3"],
                vec!["10.2.0.1", "10.2.0.2"]
            ]
        );
        assert_eq!(grouping.set_sizes(false), vec![3, 2]);
        assert!(grouping.family_sets(true).is_empty());
        assert!(grouping.dual_stack_sets().is_empty());
    }

    #[test]
    fn duplicate_observations_collapse() {
        // The same address observed by the active scan and by Censys (union
        // of data sources) must not inflate the set.
        let obs = vec![
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("10.0.0.1", 1, DataSource::Censys),
            ssh_obs("10.0.0.2", 1, DataSource::Censys),
        ];
        let (union, _) = grouping(&obs, None);
        assert_eq!(union.set_sizes(false), vec![2]);
        // Each source alone sees what a scan of that source would have.
        let (censys, _) = grouping(&obs, Some(DataSource::Censys));
        assert_eq!(censys.set_sizes(false), vec![2]);
        let (active, _) = grouping(&obs, Some(DataSource::Active));
        assert!(active.sets().is_empty());
    }

    #[test]
    fn family_projection_drops_degenerate_sets() {
        let obs = vec![
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("2001:db8::1", 1, DataSource::Active),
            ssh_obs("10.0.0.9", 2, DataSource::Active),
            ssh_obs("10.0.0.10", 2, DataSource::Active),
        ];
        let (grouping, store) = grouping(&obs, None);
        // Device 1 is dual-stack but has only one address per family: it is
        // not an alias set within either family.
        assert_eq!(grouping.family_sets(false).len(), 1);
        assert!(grouping.family_sets(true).is_empty());
        // It still is an alias set overall, and the only dual-stack one.
        assert_eq!(grouping.sets().len(), 2);
        assert_eq!(
            resolved(grouping.dual_stack_sets(), store.interner()),
            vec![vec!["10.0.0.1", "2001:db8::1"]]
        );
    }

    #[test]
    fn singleton_only_input_produces_no_alias_sets() {
        let obs = vec![
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("10.0.0.2", 2, DataSource::Active),
        ];
        let (grouping, _) = grouping(&obs, None);
        assert!(grouping.sets().is_empty());
        assert!(grouping.set_sizes(false).is_empty());
    }

    #[test]
    fn report_order_breaks_smallest_member_ties_by_first_seen_identifier() {
        // Churn between the snapshot and the active scan: 10.0.0.1 answers
        // the active scan with one identifier and Censys with another.
        // Both union sets then have two members and the same smallest
        // address — the only way two sets of one grouping can tie — and the
        // identifier seen first (active rows come first) wins.
        let churned = |active: (u8, &str), censys: (u8, &str)| {
            vec![
                ssh_obs(active.1, active.0, DataSource::Active),
                ssh_obs("10.0.0.1", active.0, DataSource::Active),
                ssh_obs("10.0.0.1", censys.0, DataSource::Censys),
                ssh_obs(censys.1, censys.0, DataSource::Censys),
                ssh_obs("10.0.0.2", 3, DataSource::Censys),
                ssh_obs("10.0.0.3", 3, DataSource::Censys),
                ssh_obs("10.0.0.4", 3, DataSource::Censys),
            ]
        };
        let (union, store) = grouping(&churned((1, "10.0.0.7"), (2, "10.0.0.5")), None);
        assert_eq!(
            resolved(union.sets(), store.interner()),
            vec![
                vec!["10.0.0.2", "10.0.0.3", "10.0.0.4"],
                vec!["10.0.0.1", "10.0.0.7"],
                vec!["10.0.0.1", "10.0.0.5"],
            ]
        );
        // The family projection keeps that order.
        assert_eq!(union.family_sets(false), union.sets());
        // Per source the address has one identifier, as if scanned alone.
        let pass = group_view_by_source(&store.select(None, None), &paper_extractor(), 1);
        assert_projections_match_filtered_views(&pass, &store);
        // Which identifier the active scan saw decides, not its members.
        let (union, store) = grouping(&churned((2, "10.0.0.5"), (1, "10.0.0.7")), None);
        assert_eq!(
            resolved(union.sets(), store.interner())[1..],
            [vec!["10.0.0.1", "10.0.0.5"], vec!["10.0.0.1", "10.0.0.7"]]
        );
    }

    #[test]
    fn compact_grouping_is_canonical_for_every_thread_count() {
        // Interleave duplicates, multiple devices and both families so
        // dedup, non-singleton filtering and canonical ordering all engage.
        let obs = [
            ssh_obs("10.0.0.3", 1, DataSource::Active),
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("10.0.0.1", 1, DataSource::Censys),
            ssh_obs("10.2.0.1", 3, DataSource::Active),
            ssh_obs("10.1.0.9", 2, DataSource::Active),
            ssh_obs("2001:db8::1", 2, DataSource::Active),
            ssh_obs("10.2.0.2", 3, DataSource::Active),
            ssh_obs("10.9.0.1", 4, DataSource::Active),
        ];
        let extractor = paper_extractor();
        let store = ObservationStore::from_observations(obs.to_vec());
        let interner = store.interner();
        for threads in [1usize, 2, 7] {
            let grouped = group_view_compact(&store.select(None, None), &extractor, threads);
            assert_eq!(
                resolved(&grouped.sets, interner),
                vec![
                    vec!["10.0.0.1", "10.0.0.3"],
                    vec!["10.1.0.9", "2001:db8::1"],
                    vec!["10.2.0.1", "10.2.0.2"],
                ],
                "threads={threads}"
            );
            assert_eq!(grouped.testable.len(), interner.len(), "threads={threads}");
        }
    }

    #[test]
    fn source_tagged_grouping_is_identical_for_every_thread_count() {
        // Both entry points give the one-shard result at every thread
        // count, and the source-tagged pass projects onto what grouping
        // each source's rows alone yields.
        let obs = [
            ssh_obs("10.0.0.3", 1, DataSource::Active),
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("10.0.0.1", 1, DataSource::Censys),
            ssh_obs("10.2.0.1", 3, DataSource::Active),
            ssh_obs("10.1.0.9", 2, DataSource::Active),
            ssh_obs("2001:db8::1", 2, DataSource::Active),
            ssh_obs("10.2.0.2", 3, DataSource::Censys),
            ssh_obs("10.2.0.3", 3, DataSource::Censys),
            ssh_obs("10.9.0.1", 4, DataSource::Active),
        ];
        let extractor = paper_extractor();
        let store = ObservationStore::from_observations(obs.to_vec());
        let view = store.select(None, None);
        let serial = group_view_compact(&view, &extractor, 1);
        let serial_pass = group_view_by_source(&view, &extractor, 1);
        for threads in [1usize, 2, 7] {
            let from_view = group_view_compact(&view, &extractor, threads);
            assert_eq!(from_view, serial, "threads={threads}");
            let pass = group_view_by_source(&view, &extractor, threads);
            assert_eq!(pass, serial_pass, "threads={threads}");
            assert_projections_match_filtered_views(&pass, &store);
        }
    }

    #[test]
    fn compact_grouping_of_nothing_is_empty() {
        let extractor = paper_extractor();
        let store = ObservationStore::new();
        let view = store.select(None, None);
        let grouped = group_view_compact(&view, &extractor, 4);
        assert!(grouped.sets.is_empty());
        assert!(grouped.testable.is_empty());
        let pass = group_view_by_source(&view, &extractor, 4);
        assert!(pass.groups().is_empty());
        assert_eq!(
            pass.project(None, store.interner()),
            FamilyGrouping::default()
        );
    }
}
