//! Alias sets: groups of addresses sharing a protocol identifier.
//!
//! Grouping runs in id space and in columns: each row's identifier is
//! written as a byte key into a reused buffer
//! ([`IdentifierExtractor::key_into`]) and interned to an
//! [`IdentId`](crate::intern::IdentId) — one keyed hash of the key, one
//! table probe, one byte comparison on a hit — which lands in a column
//! beside the row.  A stable counting sort of that column then yields every
//! identifier's rows as one slice of a flat list: no identifier `String`s,
//! no ordered address sets, no `Vec` per identifier and no
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
use alias_scan::{DataSource, ObservationStore, ObservationView};
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
/// space.
///
/// The view's [`AddrId`] column already holds each row's interned id
/// (intern-at-scan), so the per-observation work is one payload extraction
/// and one identifier hash, with no address hashing at all, and only a
/// group that turns out to be an alias set allocates one.
///
/// `_threads` is ignored; kept for `benchmark/` only (one pass, one thread).
pub fn group_view_compact(
    view: &ObservationView<'_>,
    extractor: &IdentifierExtractor,
    _threads: usize,
) -> CompactGrouping {
    let keyed = group_keyed(view, extractor);
    let mut testable: Vec<AddrId> = keyed
        .rows
        .iter()
        .map(|&i| view.addr_id_at(i as usize))
        .collect();
    let mut sets = Vec::new();
    let mut at = 0;
    for group in keyed.groups() {
        // The members sit in `testable` in group order: canonicalise each
        // run in place, and copy out only the alias sets.
        let members = &mut testable[at..at + group.len()];
        at += group.len();
        members.sort_unstable();
        if members.first() != members.last() {
            sets.push(CompactAliasSet::from_ids(members.to_vec()));
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
/// (duplicates included).  The members of all groups are one flat list cut
/// by offsets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceGroups {
    /// `offsets[g]..offsets[g + 1]` bounds group `g` in `members`.
    offsets: Vec<u32>,
    members: Vec<(AddrId, DataSource)>,
    /// The store row that first showed each group's identifier.
    first_rows: Vec<u32>,
}

/// Group a columnar store view by extracted identifier like
/// [`group_view_compact`], tagging each member with its row's
/// [`DataSource`].
pub fn group_view_by_source(
    view: &ObservationView<'_>,
    extractor: &IdentifierExtractor,
) -> SourceGroups {
    let keyed = group_keyed(view, extractor);
    let tagged = |&i: &u32| (view.addr_id_at(i as usize), view.source_at(i as usize));
    let first_row = |group: &[u32]| view.rows()[group[0] as usize];
    SourceGroups {
        members: keyed.rows.iter().map(tagged).collect(),
        first_rows: keyed.groups().map(first_row).collect(),
        offsets: keyed.offsets,
    }
}

impl SourceGroups {
    /// The tagged members of every identifier group (singletons included),
    /// in identifier first-seen order.
    pub fn groups(&self) -> impl Iterator<Item = &[(AddrId, DataSource)]> + '_ {
        runs(&self.offsets, &self.members)
    }

    /// The tagged members of all groups, one group after the other.
    pub fn members(&self) -> &[(AddrId, DataSource)] {
        &self.members
    }

    /// The grouping one data source alone would have produced (`None` =
    /// both sources): each group restricted to the members that source
    /// observed.  `interner` is the grouped store's.
    pub fn project(&self, source: Option<DataSource>, interner: &AddrInterner) -> FamilyGrouping {
        let mut scratch: Vec<AddrId> = Vec::new();
        let sets = self.groups().filter_map(|members| {
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

    /// How many alias sets (groups of at least two distinct addresses) a
    /// keyed pass over the same rows under `coarser` would yield, without
    /// making that pass: one representative row per identifier is keyed
    /// under `coarser`, and the groups that share a coarser key are read
    /// as one.
    ///
    /// Precondition: `coarser`'s key is a function of this pass's
    /// identifier — two rows this pass grouped together get equal coarser
    /// keys — and it keys exactly the rows this pass keyed.  The SSH
    /// host-key-only identifier against the full one is the case in use.
    /// `store` is the grouped store.
    pub fn coarser_set_count(
        &self,
        store: &ObservationStore,
        coarser: &IdentifierExtractor,
    ) -> usize {
        // What is known of a coarser group's addresses so far.
        #[derive(Clone, Copy)]
        enum Seen {
            One(AddrId),
            Several,
        }
        let mut idents = IdentInterner::new();
        let mut seen: Vec<Seen> = Vec::new();
        let mut sets = 0;
        let mut key = Vec::new();
        for (members, &row) in self.groups().zip(&self.first_rows) {
            let keyed = coarser.key_into(store.payload_at(row as usize), &mut key);
            assert!(
                keyed,
                "the coarser extractor keys every row this pass keyed"
            );
            let group = idents.intern(&key).index();
            for &(id, _) in members {
                match seen.get(group) {
                    None => seen.push(Seen::One(id)),
                    Some(&Seen::One(first)) if first != id => {
                        seen[group] = Seen::Several;
                        sets += 1;
                    }
                    Some(_) => {}
                }
            }
        }
        sets
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

/// What a keyed pass yields: the keyed rows, grouped by identifier.
struct KeyedRows {
    /// `offsets[g]..offsets[g + 1]` bounds identifier `g`'s rows in `rows`;
    /// identifiers are numbered in first-seen order.
    offsets: Vec<u32>,
    /// Row indices (into the range the pass walked), ascending inside a
    /// group.
    rows: Vec<u32>,
}

impl KeyedRows {
    fn groups(&self) -> impl Iterator<Item = &[u32]> + '_ {
        runs(&self.offsets, &self.rows)
    }
}

/// The runs of `items` that consecutive `offsets` bound.
fn runs<'a, T>(offsets: &'a [u32], items: &'a [T]) -> impl Iterator<Item = &'a [T]> + 'a {
    let bounds = offsets.windows(2);
    bounds.map(move |pair| &items[pair[0] as usize..pair[1] as usize])
}

/// In the identifier column: a row with no identifier.
const UNKEYED: u32 = u32::MAX;

/// The keyed pass behind both grouping entry points: key every row of the
/// view and intern the keys into a column of identifier ids ([`UNKEYED`]
/// where a row has no identifier), then group the rows by a stable counting
/// sort of that column.  Identifiers come out in first-seen order and rows
/// in row order inside a group.
fn group_keyed(view: &ObservationView<'_>, extractor: &IdentifierExtractor) -> KeyedRows {
    let rows = view.len();
    assert!(rows < UNKEYED as usize, "row indices fit 32 bits");
    let mut interner = IdentInterner::new();
    let mut column = Vec::with_capacity(rows);
    let mut key = Vec::new();
    for i in 0..rows {
        column.push(if extractor.key_into(view.payload_at(i), &mut key) {
            interner.intern(&key).0
        } else {
            UNKEYED
        });
    }
    let idents = interner.len();

    // Stable counting sort of the row indices by identifier.
    let mut offsets = vec![0u32; idents + 1];
    for &ident in column.iter().filter(|&&ident| ident != UNKEYED) {
        offsets[ident as usize + 1] += 1;
    }
    for g in 0..idents {
        offsets[g + 1] += offsets[g];
    }
    let mut next = offsets.clone();
    let mut grouped = vec![0u32; offsets[idents] as usize];
    for (row, &ident) in column.iter().enumerate() {
        if ident != UNKEYED {
            let slot = &mut next[ident as usize];
            grouped[*slot as usize] = row as u32;
            *slot += 1;
        }
    }
    GROUP_ROWS.add(grouped.len() as u64);
    GROUP_IDENTS.add(idents as u64);
    KeyedRows {
        offsets,
        rows: grouped,
    }
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
        ssh_obs_running(addr, key_byte, "OpenSSH_8.9p1", source)
    }

    /// [`ssh_obs`] with the software version of the banner chosen: part of
    /// the full identifier, not of the host key.
    fn ssh_obs_running(
        addr: &str,
        key_byte: u8,
        software: &str,
        source: DataSource,
    ) -> ServiceObservation {
        ServiceObservation {
            addr: addr.parse().unwrap(),
            port: 22,
            source,
            timestamp: SimTime::ZERO,
            asn: Some(100 + key_byte as u32),
            payload: ServicePayload::Ssh(SshObservation {
                banner: Banner::new(software, None).unwrap(),
                kex_init: Some(KexInit::typical_openssh()),
                host_key: Some(HostKey::new(HostKeyAlgorithm::Ed25519, vec![key_byte; 32])),
            }),
        }
    }

    fn key_only_extractor() -> IdentifierExtractor {
        IdentifierExtractor::new(ExtractionConfig {
            ssh: crate::identifier::SshIdentifierPolicy::KeyOnly,
            ..ExtractionConfig::paper()
        })
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
        let pass = group_view_by_source(&store.select(None, None), &paper_extractor());
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
        let pass = group_view_by_source(&store.select(None, None), &paper_extractor());
        assert_projections_match_filtered_views(&pass, &store);
        // Which identifier the active scan saw decides, not its members.
        let (union, store) = grouping(&churned((2, "10.0.0.5"), (1, "10.0.0.7")), None);
        assert_eq!(
            resolved(union.sets(), store.interner())[1..],
            [vec!["10.0.0.1", "10.0.0.5"], vec!["10.0.0.1", "10.0.0.7"]]
        );
    }

    #[test]
    fn compact_grouping_is_canonical() {
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
        let grouped = group_view_compact(&store.select(None, None), &extractor, 1);
        assert_eq!(
            resolved(&grouped.sets, interner),
            vec![
                vec!["10.0.0.1", "10.0.0.3"],
                vec!["10.1.0.9", "2001:db8::1"],
                vec!["10.2.0.1", "10.2.0.2"],
            ]
        );
        assert_eq!(grouped.testable.len(), interner.len());
    }

    #[test]
    fn source_tagged_grouping_projects_onto_each_sources_own_grouping() {
        // The source-tagged pass projects onto what grouping each source's
        // rows alone yields.
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
        let pass = group_view_by_source(&store.select(None, None), &extractor);
        assert_projections_match_filtered_views(&pass, &store);
    }

    #[test]
    fn compact_grouping_of_nothing_is_empty() {
        let extractor = paper_extractor();
        let store = ObservationStore::new();
        let view = store.select(None, None);
        let grouped = group_view_compact(&view, &extractor, 1);
        assert!(grouped.sets.is_empty());
        assert!(grouped.testable.is_empty());
        let pass = group_view_by_source(&view, &extractor);
        assert!(pass.members().is_empty());
        assert_eq!(pass.groups().count(), 0);
        assert_eq!(pass.coarser_set_count(&store, &key_only_extractor()), 0);
        assert_eq!(
            pass.project(None, store.interner()),
            FamilyGrouping::default()
        );
    }

    #[test]
    fn recurring_identifiers_group_in_first_seen_order() {
        // Six identifiers recurring all along the store, plus three rows
        // without a host key that the pass may not key.
        let mut obs = Vec::new();
        for row in 0..120u32 {
            let addr = format!("10.{}.{}.{}", row % 3, row % 40, row % 11);
            let source = [DataSource::Active, DataSource::Censys][(row % 2) as usize];
            obs.push(ssh_obs(&addr, (row * 7 % 6) as u8, source));
            if row % 50 == 9 {
                let ServicePayload::Ssh(session) = &mut obs[row as usize].payload else {
                    unreachable!("ssh_obs builds SSH rows");
                };
                session.host_key = None;
            }
        }
        let extractor = paper_extractor();
        let store = ObservationStore::from_observations(obs);
        let view = store.select(None, None);
        let pass = group_view_by_source(&view, &extractor);
        assert_eq!(pass.groups().count(), 6);
        assert_eq!(pass.members().len(), 120 - 3);
        // First-seen identifier order, row order inside a group.
        let first_members: Vec<AddrId> = pass.groups().map(|group| group[0].0).collect();
        let mut first_rows = pass.first_rows.clone();
        assert!(first_rows.is_sorted());
        first_rows.dedup();
        assert_eq!(first_rows.len(), 6);
        for (&row, &member) in pass.first_rows.iter().zip(&first_members) {
            assert_eq!(store.addr_ids()[row as usize], member);
        }
    }

    #[test]
    fn the_coarser_count_reads_groups_that_share_a_key_as_one() {
        let key_only = key_only_extractor();
        let count = |obs: Vec<ServiceObservation>| {
            let store = ObservationStore::from_observations(obs);
            let view = store.select(None, None);
            let derived = group_view_by_source(&view, &paper_extractor())
                .coarser_set_count(&store, &key_only);
            let direct = group_view_compact(&view, &key_only, 1).sets.len();
            assert_eq!(derived, direct);
            derived
        };
        // Two full identifiers (one host key behind two software versions),
        // one address each: neither is an alias set, their union is.
        assert_eq!(
            count(vec![
                ssh_obs_running("10.0.0.1", 1, "OpenSSH_8.9p1", DataSource::Active),
                ssh_obs_running("10.0.0.2", 1, "OpenSSH_9.2p1", DataSource::Active),
            ]),
            1
        );
        // The same address under both: still one address, no set.
        assert_eq!(
            count(vec![
                ssh_obs_running("10.0.0.1", 1, "OpenSSH_8.9p1", DataSource::Active),
                ssh_obs_running("10.0.0.1", 1, "OpenSSH_9.2p1", DataSource::Censys),
                ssh_obs_running("10.0.0.1", 1, "OpenSSH_9.2p1", DataSource::Active),
            ]),
            0
        );
        // A set under the full identifier stays one under the key, merged
        // with a singleton that shares it; another key stays apart.
        assert_eq!(
            count(vec![
                ssh_obs_running("10.0.0.1", 1, "OpenSSH_8.9p1", DataSource::Active),
                ssh_obs_running("10.0.0.2", 1, "OpenSSH_8.9p1", DataSource::Active),
                ssh_obs_running("10.0.0.3", 1, "OpenSSH_9.2p1", DataSource::Active),
                ssh_obs_running("10.0.0.4", 2, "OpenSSH_9.2p1", DataSource::Active),
                ssh_obs_running("10.0.0.5", 2, "OpenSSH_9.2p1", DataSource::Censys),
                ssh_obs_running("10.0.0.6", 3, "OpenSSH_9.2p1", DataSource::Censys),
            ]),
            2
        );
    }
}
