//! # alias-intern
//!
//! Dense interning of addresses and protocol identifiers — the id space the
//! hot resolution pipeline runs on.
//!
//! At Internet scale the dominant costs of identifier-based alias
//! resolution are hashing/comparing identifier strings and merging sets of
//! `IpAddr` keyed by ordered containers.  This crate replaces both value
//! spaces with dense `u32` ids assigned once:
//!
//! * [`AddrInterner`] maps `IpAddr` ⇄ [`AddrId`] — a campaign interns every
//!   observed address up front, and grouping, union–find merging and set
//!   algebra all run on the ids;
//! * [`IdentInterner`] maps identifier byte keys ⇄ [`IdentId`] — keys in a
//!   chunked byte arena, found through a table of their keyed 64-bit
//!   hashes and confirmed byte for byte; grouping uses one per keyed pass;
//! * [`CompactAliasSet`] is the id-based alias set: a sorted, deduplicated
//!   `Vec<AddrId>`, converted back to `BTreeSet<IpAddr>` only at the
//!   report/rendering boundary.
//!
//! ## Id-space invariants
//!
//! * Ids are dense and append-only: the first interned value gets id 0 and
//!   interning never invalidates previously returned ids.  Extending an
//!   interner (e.g. with probe-discovered addresses that were not in the
//!   campaign) keeps every existing id stable.
//! * Ids are only meaningful relative to the interner that produced them.
//!   Two interners grown from the same base agree on the base's ids but
//!   may disagree on the extension tail; code that merges id sets from
//!   several sources must either share one interner or re-map the tails.
//! * Interning order is deterministic (insertion order), so identically
//!   produced data yields identical ids across runs.

use std::cmp::Reverse;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::net::IpAddr;

/// Dense id of an interned address (index into its [`AddrInterner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AddrId(pub u32);

impl AddrId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense id of an interned identifier (index into its [`IdentInterner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct IdentId(pub u32);

impl IdentId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional `IpAddr` ⇄ [`AddrId`] map with dense, insertion-ordered
/// ids.
///
/// The lookup side is one map per family, keyed by the address bits: an
/// IPv4 entry is eight bytes where an `IpAddr` key made it 24, and
/// `1.2.3.4` and `::ffff:1.2.3.4` stay two addresses.  Both maps keep std's
/// randomly keyed hasher.
///
/// Cloning is O(n); share one interner behind an `Arc` where several
/// readers need the same id space (lookups take `&self`).
#[derive(Debug, Clone, Default)]
pub struct AddrInterner {
    v4: HashMap<u32, AddrId>,
    v6: HashMap<u128, AddrId>,
    addrs: Vec<IpAddr>,
    /// What [`Self::with_capacity`] asked for: each family's map reserves
    /// it when its first address comes, so a one-family shard allocates
    /// one map.
    capacity: usize,
}

/// Two interners are equal when they hold the same addresses under the
/// same ids: the maps are those addresses' inverse.
impl PartialEq for AddrInterner {
    fn eq(&self, other: &Self) -> bool {
        self.addrs == other.addrs
    }
}

impl Eq for AddrInterner {}

/// `map`, reserved for `capacity` entries if it has none yet.
fn reserved<K>(map: &mut HashMap<K, AddrId>, capacity: usize) -> &mut HashMap<K, AddrId>
where
    K: Eq + std::hash::Hash,
{
    if map.capacity() == 0 {
        map.reserve(capacity);
    }
    map
}

impl AddrInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner with room for `capacity` addresses.
    pub fn with_capacity(capacity: usize) -> Self {
        AddrInterner {
            addrs: Vec::with_capacity(capacity),
            capacity,
            ..Self::default()
        }
    }

    /// The id of `addr`, interning it if new.
    pub fn intern(&mut self, addr: IpAddr) -> AddrId {
        let next = AddrId(self.addrs.len() as u32);
        let capacity = self.capacity;
        let id = match addr {
            IpAddr::V4(v4) => *reserved(&mut self.v4, capacity)
                .entry(u32::from(v4))
                .or_insert(next),
            IpAddr::V6(v6) => *reserved(&mut self.v6, capacity)
                .entry(u128::from(v6))
                .or_insert(next),
        };
        if id == next {
            self.addrs.push(addr);
        }
        id
    }

    /// The id of `addr`, if it has been interned.
    #[inline]
    pub fn get(&self, addr: IpAddr) -> Option<AddrId> {
        match addr {
            IpAddr::V4(v4) => self.v4.get(&u32::from(v4)).copied(),
            IpAddr::V6(v6) => self.v6.get(&u128::from(v6)).copied(),
        }
    }

    /// Whether `addr` has been interned.
    #[inline]
    pub fn contains(&self, addr: IpAddr) -> bool {
        self.get(addr).is_some()
    }

    /// The address behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner (or an interner it
    /// was grown from).
    #[inline]
    pub fn addr(&self, id: AddrId) -> IpAddr {
        self.addrs[id.index()]
    }

    /// Number of distinct interned addresses (also the end of the dense id
    /// range: valid ids are `0..len`).
    #[inline]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether nothing has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// All interned addresses in id order (`addrs()[i]` has id `i`).
    #[inline]
    pub fn addrs(&self) -> &[IpAddr] {
        &self.addrs
    }

    /// Check the bijection invariant: the two family maps and the address
    /// vector are mutual inverses over the dense id range `0..len`.
    ///
    /// The runtime check behind the id-space rules that `clippy.toml`'s
    /// `disallowed-methods` (no hash-iteration order reaches an output) and
    /// `tests/source_rules.rs` (address-keyed containers say why) state
    /// statically — a broken bijection is exactly the state where id-space
    /// arithmetic silently resolves to the wrong address.  Walks the vector
    /// (never a hash map), so the check itself is deterministic.
    pub fn validate(&self) -> Result<(), String> {
        let mapped = self.v4.len() + self.v6.len();
        if mapped != self.addrs.len() {
            return Err(format!(
                "interner bijection broken: {mapped} mapped ids vs {} stored addresses",
                self.addrs.len()
            ));
        }
        for (index, &addr) in self.addrs.iter().enumerate() {
            match self.get(addr) {
                Some(id) if id.index() == index => {}
                Some(id) => {
                    return Err(format!(
                        "interner bijection broken: {addr} stored at id {index} but mapped to {}",
                        id.0
                    ))
                }
                None => {
                    return Err(format!(
                        "interner bijection broken: {addr} stored at id {index} but never mapped"
                    ))
                }
            }
        }
        Ok(())
    }
}

/// Bytes of one arena chunk.  A key never spans two chunks (one larger
/// than this gets a chunk of its own), so the arena grows by whole chunks
/// and never copies a stored key.
const CHUNK_BYTES: usize = 64 * 1024;

/// End of an equal-hash chain.
const NO_NEXT: u32 = u32::MAX;

/// Where an interned key lives in the arena.
#[derive(Debug, Clone, Copy)]
struct KeySpan {
    chunk: u32,
    start: u32,
    len: u32,
}

/// What the interner keeps per identifier.
#[derive(Debug, Clone, Copy)]
struct IdentEntry {
    key: KeySpan,
    /// The next older identifier with the same 64-bit hash.
    next: u32,
}

/// The lookup table is keyed by hashes that are already keyed SipHash
/// outputs, so it uses them as they are: growing the table re-hashes no key
/// bytes, and the protection against crafted keys is the outer hash's.
#[derive(Debug, Default, Clone, Copy)]
struct HashIsKey(u64);

impl Hasher for HashIsKey {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the table is keyed by u64 hashes only");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn key_bytes(chunks: &[Vec<u8>], span: KeySpan) -> &[u8] {
    let start = span.start as usize;
    &chunks[span.chunk as usize][start..start + span.len as usize]
}

/// Byte key ⇄ [`IdentId`] map with dense, first-seen ids — the interner
/// behind identifier grouping.
///
/// Keys are attacker-supplied byte strings (an SSH identifier is a few
/// hundred bytes), so they are hashed with a randomly keyed SipHash
/// ([`RandomState`]) over the whole key, once, and **every hit compares the
/// full key bytes**: a 64-bit hash match alone never merges two
/// identifiers.  The bytes live in a chunked arena; a table maps each hash
/// to the newest identifier carrying it and identifiers with equal hashes
/// chain through their entries.
#[derive(Debug, Clone, Default)]
pub struct IdentInterner {
    state: RandomState,
    heads: HashMap<u64, IdentId, BuildHasherDefault<HashIsKey>>,
    entries: Vec<IdentEntry>,
    chunks: Vec<Vec<u8>>,
}

impl IdentInterner {
    /// An empty interner with a fresh random hash key.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of `key`, interning a copy of its bytes if new.
    pub fn intern(&mut self, key: &[u8]) -> IdentId {
        let hash = self.state.hash_one(key);
        self.intern_hashed(hash, key)
    }

    /// The bytes of the key behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    #[cfg(test)]
    pub(crate) fn key(&self, id: IdentId) -> &[u8] {
        key_bytes(&self.chunks, self.entries[id.index()].key)
    }

    /// Number of distinct interned keys (valid ids are `0..len`).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The one lookup-or-insert: walk the chain of identifiers whose hash is
    /// `hash`, comparing key bytes, and append a new identifier on a miss.
    fn intern_hashed(&mut self, hash: u64, key: &[u8]) -> IdentId {
        let IdentInterner {
            heads,
            entries,
            chunks,
            ..
        } = self;
        let new = IdentId(u32::try_from(entries.len()).expect("fewer than 2^32 identifiers"));
        let next = match heads.entry(hash) {
            Entry::Occupied(mut head) => {
                let mut at = head.get().0;
                while at != NO_NEXT {
                    let entry = &entries[at as usize];
                    if key_bytes(chunks, entry.key) == key {
                        return IdentId(at);
                    }
                    at = entry.next;
                }
                head.insert(new).0
            }
            Entry::Vacant(slot) => {
                slot.insert(new);
                NO_NEXT
            }
        };
        let key = store_key(chunks, key);
        entries.push(IdentEntry { key, next });
        new
    }
}

/// Copy `key` into the arena: the tail of the last chunk if it fits there,
/// a new chunk otherwise.
fn store_key(chunks: &mut Vec<Vec<u8>>, key: &[u8]) -> KeySpan {
    let fits = chunks
        .last()
        .is_some_and(|chunk| chunk.capacity() - chunk.len() >= key.len());
    if !fits {
        chunks.push(Vec::with_capacity(key.len().max(CHUNK_BYTES)));
    }
    let chunk = chunks.last_mut().expect("a chunk with room was ensured");
    let start = chunk.len();
    chunk.extend_from_slice(key);
    KeySpan {
        chunk: u32::try_from(chunks.len() - 1).expect("fewer than 2^32 arena chunks"),
        start: u32::try_from(start).expect("chunk offsets fit 32 bits"),
        len: u32::try_from(key.len()).expect("identifier keys are shorter than 4 GiB"),
    }
}

/// An alias set in id space: a sorted, deduplicated `Vec<AddrId>`.
///
/// The compact counterpart of `BTreeSet<IpAddr>`: membership is a binary
/// search, equality and hashing are `memcmp`-like, and union–find merging
/// indexes straight into a forest sized to the interner — no re-keying.
/// Addresses come back only at the report/rendering boundary via
/// [`to_addr_set`](Self::to_addr_set).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct CompactAliasSet {
    members: Vec<AddrId>,
}

impl CompactAliasSet {
    /// Build from members in any order, sorting and deduplicating.
    pub fn from_ids(mut members: Vec<AddrId>) -> Self {
        members.sort_unstable();
        members.dedup();
        CompactAliasSet { members }
    }

    /// Build by interning every member of an address set.
    pub fn from_addr_set(addrs: &BTreeSet<IpAddr>, interner: &mut AddrInterner) -> Self {
        Self::from_ids(addrs.iter().map(|&a| interner.intern(a)).collect())
    }

    /// The member ids, sorted ascending.
    #[inline]
    pub fn ids(&self) -> &[AddrId] {
        &self.members
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `id` is a member.
    #[inline]
    pub fn contains(&self, id: AddrId) -> bool {
        self.members.binary_search(&id).is_ok()
    }

    /// Iterator over the member ids.
    pub fn iter(&self) -> impl Iterator<Item = AddrId> + '_ {
        self.members.iter().copied()
    }

    /// The smallest member *address* (not the smallest id — interning order
    /// is observation order, not address order).
    pub fn min_addr(&self, interner: &AddrInterner) -> Option<IpAddr> {
        self.members.iter().map(|&id| interner.addr(id)).min()
    }

    /// Resolve the members back to addresses — the report/rendering
    /// boundary.
    pub fn to_addr_set(&self, interner: &AddrInterner) -> BTreeSet<IpAddr> {
        self.members.iter().map(|&id| interner.addr(id)).collect()
    }

    /// Check the canonical-form invariant: members strictly ascending
    /// (sorted and deduplicated).
    ///
    /// Every constructor establishes this, and the PR4 determinism bug was
    /// precisely a set that escaped canonical order — so parity tests call
    /// this on their way through.
    #[cfg(test)]
    pub(crate) fn validate(&self) -> Result<(), String> {
        for pair in self.members.windows(2) {
            if pair[0] >= pair[1] {
                return Err(format!(
                    "compact alias set not canonical: id {} precedes id {}",
                    pair[0].0, pair[1].0
                ));
            }
        }
        Ok(())
    }
}

/// Sort compact sets into the canonical report order: ascending by smallest
/// member address, ties broken by larger set first, residual ties by the
/// full (address-ordered) member sequence.  The last tie-break makes the
/// order *total* even when distinct sets share their smallest address and
/// size — a corner where the pre-interning pipeline silently depended on
/// hash-map iteration order.
///
/// Cost: one key pass over the members (each set's smallest address is
/// read once) plus O(S log S) key comparisons for S sets; only sets equal
/// on both keys pay for the full member comparison.
pub fn sort_canonical_compact(sets: &mut [CompactAliasSet], interner: &AddrInterner) {
    let addr_order = |set: &CompactAliasSet| {
        let mut addrs: Vec<IpAddr> = set.iter().map(|id| interner.addr(id)).collect();
        addrs.sort_unstable();
        addrs
    };
    let key = |set: &CompactAliasSet| (set.min_addr(interner), Reverse(set.len()));
    let mut keyed: Vec<_> = (sets.iter_mut())
        .map(|set| (key(set), std::mem::take(set)))
        .collect();
    // Equal under the full comparison means equal members, so an unstable
    // sort gives the one order a stable sort would.
    keyed.sort_unstable_by(|(a_key, a), (b_key, b)| {
        a_key
            .cmp(b_key)
            .then_with(|| addr_order(a).cmp(&addr_order(b)))
    });
    for (slot, (_, set)) in sets.iter_mut().zip(keyed) {
        *slot = set;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An interner of `addrs`, interned in order.
    fn interner_of(addrs: impl IntoIterator<Item = IpAddr>) -> AddrInterner {
        let mut interner = AddrInterner::new();
        for addr in addrs {
            interner.intern(addr);
        }
        interner
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn addr_interner_assigns_dense_insertion_ordered_ids() {
        let mut interner = AddrInterner::new();
        assert!(interner.is_empty());
        let a = interner.intern(ip("10.0.0.9"));
        let b = interner.intern(ip("10.0.0.1"));
        let a_again = interner.intern(ip("10.0.0.9"));
        assert_eq!(a, AddrId(0));
        assert_eq!(b, AddrId(1));
        assert_eq!(a, a_again, "re-interning returns the first id");
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.addr(a), ip("10.0.0.9"));
        assert_eq!(interner.get(ip("10.0.0.1")), Some(b));
        assert_eq!(interner.get(ip("10.0.0.2")), None);
        assert!(interner.contains(ip("10.0.0.9")));
        assert_eq!(interner.addrs(), &[ip("10.0.0.9"), ip("10.0.0.1")]);
    }

    #[test]
    fn interning_keeps_first_occurrence_order() {
        let interner = interner_of(
            ["10.0.0.2", "10.0.0.1", "10.0.0.2", "2001:db8::1"]
                .iter()
                .map(|s| ip(s)),
        );
        assert_eq!(interner.len(), 3);
        assert_eq!(interner.get(ip("10.0.0.2")), Some(AddrId(0)));
        assert_eq!(interner.get(ip("2001:db8::1")), Some(AddrId(2)));
    }

    #[test]
    fn a_v4_address_and_its_v4_mapped_v6_form_are_two_addresses() {
        // One map keyed by the address's integer value would merge
        // `1.2.3.4` and `::1.2.3.4` (both 0x0102_0304); one map a family
        // keeps all three apart.
        let mut interner = AddrInterner::with_capacity(4);
        let v4 = interner.intern(ip("1.2.3.4"));
        let mapped = interner.intern(ip("::ffff:1.2.3.4"));
        let low = interner.intern(ip("::1.2.3.4"));
        assert_eq!([v4, mapped, low], [AddrId(0), AddrId(1), AddrId(2)]);
        assert_eq!(interner.get(ip("1.2.3.4")), Some(v4));
        assert_eq!(interner.addr(mapped), ip("::ffff:1.2.3.4"));
        assert_eq!(interner.validate(), Ok(()));
        // Equal interners hold the same addresses in the same order,
        // whatever capacity either was given.
        assert_eq!(interner, interner_of(interner.addrs().to_vec()));
    }

    #[test]
    fn extension_preserves_existing_ids() {
        let mut base = interner_of([ip("10.0.0.1"), ip("10.0.0.2")]);
        let mut extended = base.clone();
        let novel = extended.intern(ip("192.0.2.1"));
        assert_eq!(novel, AddrId(2));
        assert_eq!(extended.get(ip("10.0.0.1")), base.get(ip("10.0.0.1")));
        assert_eq!(base.len(), 2);
        // The base growing independently may reuse the extension id for a
        // different address — the documented tail-disagreement hazard.
        let conflicting = base.intern(ip("198.51.100.1"));
        assert_eq!(conflicting, AddrId(2));
        assert_ne!(extended.addr(AddrId(2)), base.addr(AddrId(2)));
    }

    #[test]
    fn generic_interner_round_trips_keys() {
        let mut interner = IdentInterner::new();
        let a = interner.intern(b"ssh-key-1");
        let b = interner.intern(b"ssh-key-2");
        assert_eq!(interner.intern(b"ssh-key-1"), a);
        assert_eq!((a, b), (IdentId(0), IdentId(1)));
        assert_eq!(interner.intern(b"ssh-key-2"), b);
        assert_eq!(interner.len(), 2);
        assert!(!interner.is_empty());
        assert_eq!(interner.key(a), b"ssh-key-1");
        assert_eq!(interner.key(b), b"ssh-key-2");
    }

    /// `len` bytes that differ for every `tag`.
    fn tagged_key(tag: u32, len: usize) -> Vec<u8> {
        let mut key = vec![0xa5; len];
        for (slot, byte) in key.iter_mut().zip(tag.to_le_bytes()) {
            *slot = byte;
        }
        key
    }

    #[test]
    fn a_hash_match_alone_never_merges_two_identifiers() {
        // Every key enters under one constant hash, so all of them share a
        // single chain: only the byte comparison tells them apart.
        let mut interner = IdentInterner::new();
        let keys: Vec<Vec<u8>> = (0..1_000).map(|tag| tagged_key(tag, 40)).collect();
        for (tag, key) in keys.iter().enumerate() {
            let id = interner.intern_hashed(7, key);
            assert_eq!(id, IdentId(tag as u32));
        }
        assert_eq!(interner.len(), 1_000);
        assert_eq!(interner.heads.len(), 1);
        for (tag, key) in keys.iter().enumerate() {
            let id = IdentId(tag as u32);
            assert_eq!(interner.intern_hashed(7, key), id);
            assert_eq!(interner.key(id), key);
        }
        assert_eq!(interner.len(), 1_000);
    }

    #[test]
    fn keys_of_every_size_relative_to_a_chunk_resolve_back_to_their_bytes() {
        let sizes = [
            0,                   // the empty key
            CHUNK_BYTES,         // exactly fills a chunk
            CHUNK_BYTES + 1,     // larger than any chunk
            CHUNK_BYTES / 2 + 1, // two of these would straddle a boundary
            CHUNK_BYTES / 2 + 1,
            CHUNK_BYTES / 2 - 1, // ...and this one fits the tail exactly
            1,
            0, // the empty key again: a hit
        ];
        let mut interner = IdentInterner::new();
        let keys: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(tag, &len)| tagged_key(tag as u32, len))
            .collect();
        let ids: Vec<IdentId> = keys.iter().map(|key| interner.intern(key)).collect();
        assert_eq!(ids[7], ids[0], "the empty key is one identifier");
        assert_eq!(interner.len(), 7);
        for (key, &id) in keys.iter().zip(&ids) {
            assert_eq!(interner.key(id), key);
            assert_eq!(interner.intern(key), id);
        }
        // Each key's bytes were stored once.
        let stored: usize = interner.chunks.iter().map(Vec::len).sum();
        assert_eq!(stored, sizes[..7].iter().sum::<usize>());
    }

    #[test]
    fn compact_set_sorts_dedups_and_resolves() {
        let interner = interner_of([ip("10.0.0.9"), ip("10.0.0.1"), ip("10.0.0.5")]);
        let set = CompactAliasSet::from_ids(vec![AddrId(2), AddrId(0), AddrId(2), AddrId(1)]);
        assert_eq!(set.ids(), &[AddrId(0), AddrId(1), AddrId(2)]);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert!(set.contains(AddrId(1)));
        assert_eq!(set.iter().count(), 3);
        // Min *address* is 10.0.0.1 (id 1), not the address of id 0.
        assert_eq!(set.min_addr(&interner), Some(ip("10.0.0.1")));
        let addrs = set.to_addr_set(&interner);
        assert_eq!(
            addrs.iter().copied().collect::<Vec<_>>(),
            vec![ip("10.0.0.1"), ip("10.0.0.5"), ip("10.0.0.9")]
        );
    }

    #[test]
    fn compact_set_round_trips_through_addr_set() {
        let mut interner = AddrInterner::new();
        let addrs: BTreeSet<IpAddr> = [ip("10.0.0.3"), ip("10.0.0.1"), ip("2001:db8::7")]
            .into_iter()
            .collect();
        let set = CompactAliasSet::from_addr_set(&addrs, &mut interner);
        assert_eq!(set.to_addr_set(&interner), addrs);
    }

    #[test]
    fn canonical_compact_order_is_by_smallest_address_then_size() {
        let interner = interner_of([
            ip("10.9.0.1"),
            ip("10.0.0.5"),
            ip("10.4.0.1"),
            ip("10.4.0.2"),
        ]);
        let mut sets = vec![
            CompactAliasSet::from_ids(vec![AddrId(0)]),
            CompactAliasSet::from_ids(vec![AddrId(2)]),
            CompactAliasSet::from_ids(vec![AddrId(2), AddrId(3)]),
            CompactAliasSet::from_ids(vec![AddrId(1)]),
        ];
        sort_canonical_compact(&mut sets, &interner);
        let mins: Vec<_> = sets
            .iter()
            .map(|s| s.min_addr(&interner).unwrap())
            .collect();
        assert_eq!(
            mins,
            vec![
                ip("10.0.0.5"),
                ip("10.4.0.1"),
                ip("10.4.0.1"),
                ip("10.9.0.1")
            ]
        );
        // Equal min address: the larger set first.
        assert_eq!(sets[1].len(), 2);
        assert_eq!(sets[2].len(), 1);
    }

    #[test]
    fn validators_report_broken_bijections_and_unsorted_sets() {
        assert_eq!(AddrInterner::new().validate(), Ok(()));
        let mut interner = interner_of([ip("10.0.0.1"), ip("10.0.0.2")]);
        assert_eq!(interner.validate(), Ok(()));
        interner.addrs.push(ip("10.0.0.3")); // stored but never mapped
        let err = interner.validate().unwrap_err();
        assert!(err.contains("mapped ids vs 3 stored"), "{err}");
        let key = |addr: &str| u32::from(addr.parse::<std::net::Ipv4Addr>().unwrap());
        interner.v4.insert(key("10.0.0.9"), AddrId(2)); // lengths agree again…
        let err = interner.validate().unwrap_err();
        assert!(err.contains("never mapped"), "{err}"); // …but 10.0.0.3 has no id
        interner.v4.remove(&key("10.0.0.9"));
        interner.v4.insert(key("10.0.0.3"), AddrId(0)); // mapped to the wrong slot
        let err = interner.validate().unwrap_err();
        assert!(err.contains("but mapped to 0"), "{err}");

        assert_eq!(CompactAliasSet::default().validate(), Ok(()));
        let unsorted = CompactAliasSet {
            members: vec![AddrId(3), AddrId(1)],
        };
        assert!(unsorted.validate().unwrap_err().contains("not canonical"));
        let duplicated = CompactAliasSet {
            members: vec![AddrId(1), AddrId(1)],
        };
        assert!(duplicated.validate().unwrap_err().contains("not canonical"));
    }

    /// The comparator `sort_canonical_compact` sorted with before it keyed
    /// each set once: smallest address and size read afresh on both sides
    /// of every comparison.  The oracle of the keyed sort.
    fn oracle_cmp(
        a: &CompactAliasSet,
        b: &CompactAliasSet,
        interner: &AddrInterner,
    ) -> std::cmp::Ordering {
        a.min_addr(interner)
            .cmp(&b.min_addr(interner))
            .then_with(|| b.len().cmp(&a.len()))
            .then_with(|| {
                let mut a_addrs: Vec<IpAddr> = a.iter().map(|id| interner.addr(id)).collect();
                let mut b_addrs: Vec<IpAddr> = b.iter().map(|id| interner.addr(id)).collect();
                a_addrs.sort_unstable();
                b_addrs.sort_unstable();
                a_addrs.cmp(&b_addrs)
            })
    }

    /// Address `k` of a twelve-address universe, a third of it IPv6.
    fn universe_addr(k: u8) -> IpAddr {
        if k.is_multiple_of(3) {
            IpAddr::from([0x2001, 0xdb8, 0, 0, 0, 0, 0, u16::from(k)])
        } else {
            IpAddr::from([10, 0, 0, k])
        }
    }

    proptest::proptest! {
        #[test]
        fn keyed_canonical_sort_matches_the_per_comparison_oracle(
            first_seen in proptest::collection::vec(0u8..12, 0..24),
            raw_sets in proptest::collection::vec(proptest::collection::vec(0u8..12, 0..5), 0..40),
        ) {
            // Ids in a random first-seen order, so id order is not address
            // order; up to 40 sets of at most four over twelve addresses
            // share smallest addresses and sizes, overlap and repeat.
            let mut interner = interner_of(first_seen.into_iter().map(universe_addr));
            let sets: Vec<CompactAliasSet> = (raw_sets.iter())
                .map(|set| {
                    let ids = set.iter().map(|&k| interner.intern(universe_addr(k))).collect();
                    CompactAliasSet::from_ids(ids)
                })
                .collect();
            let mut keyed = sets.clone();
            sort_canonical_compact(&mut keyed, &interner);
            let mut oracle = sets;
            oracle.sort_by(|a, b| oracle_cmp(a, b, &interner));
            proptest::prop_assert_eq!(keyed, oracle);
        }

        #[test]
        fn ident_interner_agrees_with_a_hash_map(
            keys in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..6), 0..200),
        ) {
            // Short keys over a four-letter alphabet: plenty of repeats.
            let mut oracle: HashMap<Vec<u8>, u32> = HashMap::new();
            let mut interner = IdentInterner::new();
            for key in &keys {
                let next = oracle.len() as u32;
                let expected = *oracle.entry(key.clone()).or_insert(next);
                proptest::prop_assert_eq!(interner.intern(key), IdentId(expected));
            }
            proptest::prop_assert_eq!(interner.len(), oracle.len());
            for key in &keys {
                let id = IdentId(oracle[key]);
                proptest::prop_assert_eq!(interner.intern(key), id);
                proptest::prop_assert_eq!(interner.key(id), &key[..]);
            }
            proptest::prop_assert_eq!(interner.len(), oracle.len());
        }

        #[test]
        fn interning_is_a_bijection_on_distinct_addrs(raw in proptest::collection::vec(0u32..5_000, 0..300)) {
            let addrs: Vec<IpAddr> = raw
                .iter()
                .map(|&v| IpAddr::from([10, 0, (v >> 8) as u8, (v & 0xff) as u8]))
                .collect();
            let interner = interner_of(addrs.iter().copied());
            let distinct: BTreeSet<IpAddr> = addrs.iter().copied().collect();
            proptest::prop_assert_eq!(interner.len(), distinct.len());
            for &addr in &distinct {
                let id = interner.get(addr).expect("interned");
                proptest::prop_assert_eq!(interner.addr(id), addr);
            }
            // The runtime validator agrees with the oracle above, and the
            // compact set built from this universe is canonical.
            proptest::prop_assert_eq!(interner.validate(), Ok(()));
            let mut interner = interner;
            let set = CompactAliasSet::from_addr_set(&distinct, &mut interner);
            proptest::prop_assert_eq!(set.validate(), Ok(()));
        }
    }
}
