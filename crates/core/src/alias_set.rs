//! Alias sets: groups of addresses sharing a protocol identifier.
//!
//! Grouping runs in id space: each row's identifier is written as a byte
//! key into a reused buffer
//! ([`IdentifierExtractor::key_into`]) and interned to an
//! [`IdentId`](crate::intern::IdentId), addresses to [`AddrId`]s, so the
//! per-observation work is two hash lookups and a `Vec` push — no
//! identifier `String`s per row, no per-insert ordered-set rebalancing.  A
//! [`ProtocolIdentifier`] is built once per distinct key, and only where an
//! [`AliasSet`] carries one; addresses come back only when a collection or
//! [`CompactGrouping`] is materialised for reports.

use crate::analysis::AsnTable;
use crate::extract::IdentifierExtractor;
use crate::identifier::ProtocolIdentifier;
use crate::intern::{sort_canonical_compact, AddrId, AddrInterner, CompactAliasSet, IdentInterner};
use alias_obs::{DeterminismClass, LazyCounter};
use alias_scan::{ObservationSink, ObservationView, ServiceObservation, ServicePayload};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::net::IpAddr;

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
fn count_grouping(groups: &[Vec<AddrId>]) {
    GROUP_ROWS.add(groups.iter().map(|members| members.len() as u64).sum());
    GROUP_IDENTS.add(groups.len() as u64);
}

/// One alias set: the identifier and every address observed with it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AliasSet {
    /// The shared identifier.
    pub identifier: ProtocolIdentifier,
    /// All addresses (IPv4 and IPv6) observed with the identifier.
    // lint:allow(id-space): report boundary — collections carry resolved addresses
    pub addrs: BTreeSet<IpAddr>,
}

impl AliasSet {
    /// IPv4 members.
    // lint:allow(id-space): report boundary — family views are rendered output
    pub fn ipv4_addrs(&self) -> BTreeSet<IpAddr> {
        self.addrs.iter().copied().filter(IpAddr::is_ipv4).collect()
    }

    /// IPv6 members.
    // lint:allow(id-space): report boundary — family views are rendered output
    pub fn ipv6_addrs(&self) -> BTreeSet<IpAddr> {
        self.addrs.iter().copied().filter(IpAddr::is_ipv6).collect()
    }

    /// Total number of member addresses.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the set is empty (never the case for constructed sets).
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }
}

/// All alias sets produced from a batch of observations, together with the
/// per-address AS annotation needed by the AS-level analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AliasSetCollection {
    sets: Vec<AliasSet>,
    /// Address → origin AS annotations carried over from the observations,
    /// sorted by address for binary-search lookup.  Builders key the
    /// annotations by [`AddrId`] while grouping; the pairs here are the
    /// resolved rendering of that column.
    asn_pairs: Vec<(IpAddr, u32)>,
}

/// Streaming construction of an [`AliasSetCollection`]: push observations
/// one at a time (or as an [`ObservationSink`] fed by a producer), then
/// [`finish`](Self::finish).
///
/// This is the single-pass path behind
/// [`AliasSetCollection::from_observations`]; producers that stream —
/// `CampaignData::stream_into`, record replayers — can group without ever
/// materialising a `Vec<&ServiceObservation>` in between.
#[derive(Debug, Clone, Default)]
pub struct AliasSetBuilder {
    extractor: IdentifierExtractor,
    addrs: AddrInterner,
    idents: IdentInterner,
    /// Scratch buffer the current row's key is written into.
    key: Vec<u8>,
    /// The identifier behind each key, indexed by [`IdentId`]: built when
    /// the key is first seen.
    identifiers: Vec<ProtocolIdentifier>,
    /// Member ids per identifier, indexed by [`IdentId`]; may hold
    /// duplicates until [`finish`](Self::finish) deduplicates.
    groups: Vec<Vec<AddrId>>,
    asn_of: AsnTable,
}

impl AliasSetBuilder {
    /// A builder grouping with the given extraction policies.
    pub fn new(extractor: IdentifierExtractor) -> Self {
        AliasSetBuilder {
            extractor,
            addrs: AddrInterner::new(),
            idents: IdentInterner::new(),
            key: Vec::new(),
            identifiers: Vec::new(),
            groups: Vec::new(),
            asn_of: AsnTable::default(),
        }
    }

    /// Consume one observation.  Observations the extractor cannot identify
    /// are dropped, exactly as the paper drops hosts whose scan did not
    /// yield the required material.
    pub fn push(&mut self, observation: &ServiceObservation) {
        self.push_parts(observation.addr, observation.asn, &observation.payload);
    }

    /// Consume one observation from its parts — the columnar entry point:
    /// a store view hands over the address, the AS annotation and a
    /// borrowed payload without materialising a row.
    pub fn push_parts(&mut self, addr: IpAddr, asn: Option<u32>, payload: &ServicePayload) {
        if !self.extractor.key_into(payload, &mut self.key) {
            return;
        }
        let ident = self.idents.intern_ref(self.key.as_slice());
        if ident.index() == self.groups.len() {
            let identifier = self.extractor.extract_payload(payload);
            self.identifiers
                .push(identifier.expect("a payload with a key has an identifier"));
            self.groups.push(Vec::new());
        }
        let addr_id = self.addrs.intern(addr);
        self.groups[ident.index()].push(addr_id);
        if let Some(asn) = asn {
            self.asn_of.annotate(addr_id, asn);
        }
    }

    /// Finish grouping and produce the collection (deterministic order:
    /// biggest sets first, ties broken by members).
    pub fn finish(self) -> AliasSetCollection {
        let addrs = self.addrs;
        // Resolve the dense ASN column to sorted (address, ASN) pairs —
        // walking ids in order is deterministic, the final order is by
        // address for binary-search lookup.
        let mut asn_pairs: Vec<(IpAddr, u32)> = (0..addrs.len() as u32)
            .filter_map(|raw| {
                let id = AddrId(raw);
                self.asn_of.get(id).map(|asn| (addrs.addr(id), asn))
            })
            .collect();
        asn_pairs.sort_unstable_by_key(|&(addr, _)| addr);
        count_grouping(&self.groups);
        let mut sets: Vec<AliasSet> = self
            .identifiers
            .into_iter()
            .zip(self.groups)
            .map(|(identifier, ids)| AliasSet {
                identifier,
                addrs: ids.iter().map(|&id| addrs.addr(id)).collect(),
            })
            .collect();
        sets.sort_by(|a, b| {
            b.len()
                .cmp(&a.len())
                .then_with(|| a.addrs.iter().next().cmp(&b.addrs.iter().next()))
        });
        AliasSetCollection { sets, asn_pairs }
    }
}

impl ObservationSink for AliasSetBuilder {
    fn accept(&mut self, observation: &ServiceObservation) {
        self.push(observation);
    }
}

impl AliasSetCollection {
    /// Group `observations` by extracted identifier.
    ///
    /// Grouping is identifier-based, so observations of the same address
    /// from several sources collapse naturally.  This is the pull-based
    /// convenience over [`AliasSetBuilder`], which also accepts pushed
    /// (streamed) observations.
    pub fn from_observations<'a, I>(observations: I, extractor: &IdentifierExtractor) -> Self
    where
        I: IntoIterator<Item = &'a ServiceObservation>,
    {
        let mut builder = AliasSetBuilder::new(*extractor);
        builder.accept_all(observations);
        builder.finish()
    }

    /// Group the rows of a columnar store view — the zero-materialisation
    /// counterpart of [`Self::from_observations`]: addresses, AS
    /// annotations and borrowed payloads are read straight from the
    /// columns.
    pub fn from_view(view: &ObservationView<'_>, extractor: &IdentifierExtractor) -> Self {
        let mut builder = AliasSetBuilder::new(*extractor);
        for i in 0..view.len() {
            builder.push_parts(view.addr_at(i), view.asn_at(i), view.payload_at(i));
        }
        builder.finish()
    }

    /// All sets (including singletons).
    pub fn sets(&self) -> &[AliasSet] {
        &self.sets
    }

    /// The AS annotations carried over from the observations, as
    /// `(address, ASN)` pairs sorted by address.
    pub fn asn_pairs(&self) -> &[(IpAddr, u32)] {
        &self.asn_pairs
    }

    /// Origin AS of one address, if known.
    pub fn asn(&self, addr: IpAddr) -> Option<u32> {
        self.asn_pairs
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|i| self.asn_pairs[i].1)
    }

    /// Sets with at least two members — what the paper calls alias sets.
    pub fn non_singleton_sets(&self) -> Vec<&AliasSet> {
        self.sets.iter().filter(|s| s.len() >= 2).collect()
    }

    /// Sets restricted to one address family, keeping only those that remain
    /// non-singleton after the restriction (used for the per-family tables).
    // lint:allow(id-space): report boundary — family views feed the rendered tables
    pub fn family_sets(&self, ipv6: bool) -> Vec<BTreeSet<IpAddr>> {
        self.sets
            .iter()
            .map(|s| if ipv6 { s.ipv6_addrs() } else { s.ipv4_addrs() })
            .filter(|members| members.len() >= 2)
            .collect()
    }

    /// Non-singleton IPv4 alias sets.
    // lint:allow(id-space): report boundary — family views feed the rendered tables
    pub fn ipv4_sets(&self) -> Vec<BTreeSet<IpAddr>> {
        self.family_sets(false)
    }

    /// Non-singleton IPv6 alias sets.
    // lint:allow(id-space): report boundary — family views feed the rendered tables
    pub fn ipv6_sets(&self) -> Vec<BTreeSet<IpAddr>> {
        self.family_sets(true)
    }

    /// Number of distinct addresses covered by the non-singleton sets of one
    /// address family.
    pub fn covered_addresses(&self, ipv6: bool) -> usize {
        self.family_sets(ipv6).iter().map(BTreeSet::len).sum()
    }

    /// All distinct addresses in the collection (any family, any set size).
    // lint:allow(id-space): report boundary — resolved view over the collection
    pub fn all_addresses(&self) -> BTreeSet<IpAddr> {
        self.sets
            .iter()
            .flat_map(|s| s.addrs.iter().copied())
            .collect()
    }

    /// Set sizes of one address family (input for the ECDF figures).
    pub fn set_sizes(&self, ipv6: bool) -> Vec<usize> {
        self.family_sets(ipv6).iter().map(BTreeSet::len).collect()
    }
}

/// Identifier grouping in id space: the output of
/// [`group_observations_compact`].
///
/// Alias sets are [`CompactAliasSet`]s over a campaign's [`AddrInterner`];
/// addresses are resolved only at the report boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactGrouping {
    /// Non-singleton alias sets in canonical order (ascending by smallest
    /// member address, larger sets first on ties).
    pub sets: Vec<CompactAliasSet>,
    /// Every identified address (any set size), as sorted distinct ids —
    /// the id-space equivalent of `AliasSetCollection::all_addresses`.
    pub testable: Vec<AddrId>,
}

impl CompactGrouping {
    /// Resolve the testable ids back to addresses (report boundary).
    // lint:allow(id-space): report boundary — resolves ids for rendering
    pub fn testable_addrs(&self, interner: &AddrInterner) -> BTreeSet<IpAddr> {
        self.testable.iter().map(|&id| interner.addr(id)).collect()
    }
}

/// Group observations by extracted identifier, entirely in id space, with
/// `threads` shard workers.
///
/// Each shard groups its contiguous slice of the observations into maps
/// keyed by a shard-local [`IdentId`](crate::intern::IdentId); the join
/// then reduces in id space —
/// walking every shard's interner in id order and re-interning only each
/// shard's *distinct* identifiers — instead of re-hashing the full
/// identifier material once per observation.  Because shards are contiguous
/// slices reduced in shard order, the grouped output (including member
/// order and identifier numbering) is identical for every thread count.
///
/// # Panics
/// Panics if an observation's address is missing from `interner`; the
/// campaign interner covers every observed address by construction, so this
/// only fires when observations were mutated after the interner was built.
pub fn group_observations_compact(
    observations: &[&ServiceObservation],
    extractor: &IdentifierExtractor,
    interner: &AddrInterner,
    threads: usize,
) -> CompactGrouping {
    group_compact_sharded(observations.len(), threads, interner, |range, emit| {
        let mut key = Vec::new();
        for observation in &observations[range.0..range.1] {
            if !extractor.key_into(&observation.payload, &mut key) {
                continue;
            }
            let addr = interner.get(observation.addr).expect(
                "the interner must cover every observation address; rebuild the campaign \
                 data (CampaignData::from_observations) after mutating observations",
            );
            emit(&key, addr);
        }
    })
}

/// Group a columnar store view by extracted identifier, entirely in id
/// space, with `threads` shard workers.
///
/// The columnar counterpart of [`group_observations_compact`] — and the
/// cheaper one: the view's [`AddrId`] column already holds each row's
/// interned id (intern-at-scan), so the per-observation work is one payload
/// extraction and one identifier hash, with no address hashing at all.
/// Sharding and the id-space reduce are identical to the slice path, so
/// the grouped output is the same for every thread count and for either
/// entry point over the same rows.
pub fn group_view_compact(
    view: &ObservationView<'_>,
    extractor: &IdentifierExtractor,
    threads: usize,
) -> CompactGrouping {
    group_compact_sharded(
        view.len(),
        threads,
        view.store().interner(),
        |range, emit| {
            let mut key = Vec::new();
            for i in range.0..range.1 {
                if extractor.key_into(view.payload_at(i), &mut key) {
                    emit(&key, view.addr_id_at(i));
                }
            }
        },
    )
}

/// The shared shard/reduce skeleton behind both compact grouping entry
/// points: `scan` walks one half-open row range and emits
/// `(identifier key, addr id)` pairs; shards group locally and the join
/// re-interns only each shard's distinct keys, in shard order.  No
/// [`ProtocolIdentifier`] is built: a [`CompactGrouping`] carries none.
fn group_compact_sharded(
    rows: usize,
    threads: usize,
    interner: &AddrInterner,
    scan: impl Fn((usize, usize), &mut dyn FnMut(&[u8], AddrId)) + Sync,
) -> CompactGrouping {
    // Extraction + hashing is CPU-bound with no per-item pacing overhead
    // to amortise, so workers beyond the machine's parallelism only add
    // scheduling noise; the clamp never changes the output (the grouping
    // is shard-count independent).
    let threads = threads.min(alias_exec::available_parallelism());
    let shard_count = if threads <= 1 {
        1
    } else {
        alias_exec::shards_for(threads)
    };
    let shard_ranges = alias_exec::split_even(rows as u64, shard_count);
    let shards: Vec<(IdentInterner, Vec<Vec<AddrId>>)> =
        alias_exec::shard_map(shard_ranges.len(), threads, |shard| {
            let range = &shard_ranges[shard];
            let mut idents = IdentInterner::new();
            let mut groups: Vec<Vec<AddrId>> = Vec::new();
            scan(
                (range.start as usize, range.end as usize),
                &mut |key, addr| {
                    let ident = idents.intern_ref(key);
                    if ident.index() == groups.len() {
                        groups.push(Vec::new());
                    }
                    groups[ident.index()].push(addr);
                },
            );
            (idents, groups)
        });

    // Id-space reduce, in shard order: re-intern each shard's distinct
    // identifiers once (moved, not cloned) and splice the id-keyed groups
    // together.  A single shard is already grouped — no join at all.
    let single_shard = shards.len() == 1;
    let mut idents = IdentInterner::new();
    let mut groups: Vec<Vec<AddrId>> = Vec::new();
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
    sort_canonical_compact(&mut sets, interner);
    CompactGrouping { sets, testable }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::ExtractionConfig;
    use alias_netsim::SimTime;
    use alias_scan::{DataSource, ServicePayload};
    use alias_wire::ssh::{Banner, HostKey, HostKeyAlgorithm, KexInit, SshObservation};
    use std::net::Ipv4Addr;

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

    fn collection(observations: &[ServiceObservation]) -> AliasSetCollection {
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        AliasSetCollection::from_observations(observations.iter(), &extractor)
    }

    #[test]
    fn grouping_by_identifier() {
        let obs = vec![
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("10.0.0.2", 1, DataSource::Active),
            ssh_obs("10.0.0.3", 1, DataSource::Active),
            ssh_obs("10.1.0.1", 2, DataSource::Active),
            ssh_obs("10.2.0.1", 3, DataSource::Active),
            ssh_obs("10.2.0.2", 3, DataSource::Active),
        ];
        let collection = collection(&obs);
        assert_eq!(collection.sets().len(), 3);
        let non_singleton = collection.non_singleton_sets();
        assert_eq!(non_singleton.len(), 2);
        // Largest set first.
        assert_eq!(collection.sets()[0].len(), 3);
        assert_eq!(collection.covered_addresses(false), 5);
        assert_eq!(collection.set_sizes(false), vec![3, 2]);
        assert_eq!(collection.asn("10.0.0.1".parse().unwrap()), Some(101));
    }

    #[test]
    fn streamed_and_collected_grouping_are_identical() {
        let obs = vec![
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("10.0.0.2", 1, DataSource::Censys),
            ssh_obs("10.1.0.1", 2, DataSource::Active),
            ssh_obs("2001:db8::1", 2, DataSource::Active),
        ];
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        let pulled = AliasSetCollection::from_observations(obs.iter(), &extractor);
        let mut builder = AliasSetBuilder::new(extractor);
        for o in &obs {
            builder.push(o);
        }
        assert_eq!(builder.finish(), pulled);
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
        let collection = collection(&obs);
        assert_eq!(collection.sets().len(), 1);
        assert_eq!(collection.sets()[0].len(), 2);
    }

    #[test]
    fn family_projection_drops_degenerate_sets() {
        let obs = vec![
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("2001:db8::1", 1, DataSource::Active),
            ssh_obs("10.0.0.9", 2, DataSource::Active),
            ssh_obs("10.0.0.10", 2, DataSource::Active),
        ];
        let collection = collection(&obs);
        // Device 1 is dual-stack but has only one address per family: it is
        // not an alias set within either family.
        assert_eq!(collection.ipv4_sets().len(), 1);
        assert!(collection.ipv6_sets().is_empty());
        // It still counts as two addresses overall.
        assert_eq!(collection.all_addresses().len(), 4);
    }

    #[test]
    fn singleton_only_input_produces_no_alias_sets() {
        let obs = vec![
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("10.0.0.2", 2, DataSource::Active),
        ];
        let collection = collection(&obs);
        assert!(collection.non_singleton_sets().is_empty());
        assert_eq!(collection.sets().len(), 2);
        assert_eq!(collection.covered_addresses(false), 0);
    }

    #[test]
    fn compact_grouping_matches_the_collection_path_for_every_thread_count() {
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
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        let refs: Vec<&ServiceObservation> = obs.iter().collect();
        let interner = AddrInterner::from_addrs(obs.iter().map(|o| o.addr));
        let legacy = AliasSetCollection::from_observations(obs.iter(), &extractor);
        let legacy_sets: Vec<_> = {
            let mut sets: Vec<_> = legacy
                .non_singleton_sets()
                .into_iter()
                .map(|s| s.addrs.clone())
                .collect();
            sets.sort_by(|a, b| a.iter().next().cmp(&b.iter().next()));
            sets
        };
        let serial = group_observations_compact(&refs, &extractor, &interner, 1);
        for threads in [1usize, 2, 7] {
            let grouped = group_observations_compact(&refs, &extractor, &interner, threads);
            assert_eq!(grouped, serial, "threads={threads}");
            let resolved: Vec<_> = grouped
                .sets
                .iter()
                .map(|s| s.to_addr_set(&interner))
                .collect();
            assert_eq!(resolved, legacy_sets, "threads={threads}");
            assert_eq!(grouped.testable_addrs(&interner), legacy.all_addresses());
        }
    }

    #[test]
    fn view_grouping_matches_the_slice_path_for_every_thread_count() {
        // The columnar entry points (store view in, ids straight from the
        // AddrId column) must agree with the row-slice path — sets,
        // testable ids and the memoisable collection alike.
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
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        let store = alias_scan::ObservationStore::from_observations(obs.to_vec());
        let view = store.select(None, None);
        let refs: Vec<&ServiceObservation> = obs.iter().collect();
        let from_slices = group_observations_compact(&refs, &extractor, store.interner(), 1);
        for threads in [1usize, 2, 7] {
            let from_view = group_view_compact(&view, &extractor, threads);
            assert_eq!(from_view, from_slices, "threads={threads}");
        }
        assert_eq!(
            AliasSetCollection::from_view(&view, &extractor),
            AliasSetCollection::from_observations(obs.iter(), &extractor)
        );
        // A filtered view groups exactly the filtered rows.
        let active = store.select(None, Some(alias_scan::SourceTag::Active));
        assert_eq!(
            AliasSetCollection::from_view(&active, &extractor),
            AliasSetCollection::from_observations(
                obs.iter().filter(|o| o.source == DataSource::Active),
                &extractor
            )
        );
    }

    #[test]
    fn compact_grouping_of_nothing_is_empty() {
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        let grouped = group_observations_compact(&[], &extractor, &AddrInterner::new(), 4);
        assert!(grouped.sets.is_empty());
        assert!(grouped.testable.is_empty());
    }

    #[test]
    fn alias_set_family_accessors() {
        let obs = vec![
            ssh_obs("10.0.0.1", 1, DataSource::Active),
            ssh_obs("2001:db8::5", 1, DataSource::Active),
        ];
        let collection = collection(&obs);
        let set = &collection.sets()[0];
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.ipv4_addrs().len(), 1);
        assert_eq!(set.ipv6_addrs().len(), 1);
        assert!(set
            .ipv4_addrs()
            .contains(&IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1))));
    }
}
