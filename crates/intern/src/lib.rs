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
//! * [`Interner`] maps any hashable key ⇄ [`IdentId`] — the identifier
//!   extraction path uses it per shard so the cross-shard join reduces in
//!   id space instead of re-hashing full identifier strings;
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
//!   produced data yields identical ids across runs and thread counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::net::IpAddr;

/// Dense id of an interned address (index into its [`AddrInterner`]).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct AddrId(pub u32);

impl AddrId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense id of an interned identifier (index into its [`Interner`]).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
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
/// Cloning is O(n); share one interner behind an `Arc` where several
/// readers need the same id space (lookups take `&self`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AddrInterner {
    ids: HashMap<IpAddr, AddrId>,
    addrs: Vec<IpAddr>,
}

impl AddrInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner with room for `capacity` addresses.
    pub fn with_capacity(capacity: usize) -> Self {
        AddrInterner {
            ids: HashMap::with_capacity(capacity),
            addrs: Vec::with_capacity(capacity),
        }
    }

    /// Intern every address yielded by `addrs`, in order (duplicates keep
    /// their first id).
    pub fn from_addrs<I: IntoIterator<Item = IpAddr>>(addrs: I) -> Self {
        let mut interner = AddrInterner::new();
        for addr in addrs {
            interner.intern(addr);
        }
        interner
    }

    /// The id of `addr`, interning it if new.
    pub fn intern(&mut self, addr: IpAddr) -> AddrId {
        match self.ids.entry(addr) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let id = AddrId(self.addrs.len() as u32);
                self.addrs.push(addr);
                entry.insert(id);
                id
            }
        }
    }

    /// The id of `addr`, if it has been interned.
    #[inline]
    pub fn get(&self, addr: IpAddr) -> Option<AddrId> {
        self.ids.get(&addr).copied()
    }

    /// Whether `addr` has been interned.
    #[inline]
    pub fn contains(&self, addr: IpAddr) -> bool {
        self.ids.contains_key(&addr)
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

    /// Check the bijection invariant: the id map and the address vector are
    /// mutual inverses over the dense id range `0..len`.
    ///
    /// The runtime twin of the `det-hash-iter` lint's premise — a broken
    /// bijection is exactly the state where id-space arithmetic silently
    /// resolves to the wrong address.  Walks the vector (never the hash
    /// map), so the check itself is deterministic.
    pub fn validate(&self) -> Result<(), String> {
        if self.ids.len() != self.addrs.len() {
            return Err(format!(
                "interner bijection broken: {} mapped ids vs {} stored addresses",
                self.ids.len(),
                self.addrs.len()
            ));
        }
        for (index, &addr) in self.addrs.iter().enumerate() {
            match self.ids.get(&addr) {
                Some(&id) if id.index() == index => {}
                Some(&id) => {
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

/// Key ⇄ [`IdentId`] map with dense, insertion-ordered ids — the generic
/// interner behind identifier grouping.
///
/// Keys are stored exactly once (in the lookup map), so interning a fresh
/// key moves it — no clone, which matters when most keys are large
/// one-observation identifiers.  The id → key direction is recovered by
/// [`into_keys`](Self::into_keys), which inverts the map when grouping
/// finishes.
#[derive(Debug, Clone)]
pub struct Interner<K: Eq + Hash> {
    ids: HashMap<K, IdentId>,
}

impl<K: Eq + Hash> Default for Interner<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash> Interner<K> {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            ids: HashMap::new(),
        }
    }

    /// The id of `key`, interning it if new (fresh keys are moved in, not
    /// cloned).
    pub fn intern(&mut self, key: K) -> IdentId {
        let next = IdentId(self.ids.len() as u32);
        match self.ids.entry(key) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                entry.insert(next);
                next
            }
        }
    }

    /// The id of a borrowed `key`, interning an owned copy if new — the
    /// way to key rows from a reused scratch buffer: only a key seen for
    /// the first time allocates.
    pub fn intern_ref<Q>(&mut self, key: &Q) -> IdentId
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let next = IdentId(self.ids.len() as u32);
        self.ids.insert(key.to_owned(), next);
        next
    }

    /// The id of `key`, if it has been interned.
    #[inline]
    pub fn get(&self, key: &K) -> Option<IdentId> {
        self.ids.get(key).copied()
    }

    /// Number of distinct interned keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Consume the interner, returning the keys in id order (the cheap way
    /// to walk a shard's identifiers during a reduce: each key is moved
    /// into its dense slot, never cloned).
    pub fn into_keys(self) -> Vec<K> {
        let mut slots: Vec<Option<K>> = (0..self.ids.len()).map(|_| None).collect();
        // lint:allow(det-hash-iter): each key lands in its dense id-indexed slot — order-free
        for (key, id) in self.ids {
            slots[id.index()] = Some(key);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("ids are dense"))
            .collect()
    }
}

/// An alias set in id space: a sorted, deduplicated `Vec<AddrId>`.
///
/// The compact counterpart of `BTreeSet<IpAddr>`: membership is a binary
/// search, equality and hashing are `memcmp`-like, and union–find merging
/// indexes straight into a forest sized to the interner — no re-keying.
/// Addresses come back only at the report/rendering boundary via
/// [`to_addr_set`](Self::to_addr_set).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
    pub fn validate(&self) -> Result<(), String> {
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
pub fn sort_canonical_compact(sets: &mut [CompactAliasSet], interner: &AddrInterner) {
    sets.sort_by(|a, b| {
        a.min_addr(interner)
            .cmp(&b.min_addr(interner))
            .then_with(|| b.len().cmp(&a.len()))
            .then_with(|| {
                // Rare: full member comparison in address order.
                let mut a_addrs: Vec<IpAddr> = a.iter().map(|id| interner.addr(id)).collect();
                let mut b_addrs: Vec<IpAddr> = b.iter().map(|id| interner.addr(id)).collect();
                a_addrs.sort_unstable();
                b_addrs.sort_unstable();
                a_addrs.cmp(&b_addrs)
            })
    });
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn from_addrs_keeps_first_occurrence_order() {
        let interner = AddrInterner::from_addrs(
            ["10.0.0.2", "10.0.0.1", "10.0.0.2", "2001:db8::1"]
                .iter()
                .map(|s| ip(s)),
        );
        assert_eq!(interner.len(), 3);
        assert_eq!(interner.get(ip("10.0.0.2")), Some(AddrId(0)));
        assert_eq!(interner.get(ip("2001:db8::1")), Some(AddrId(2)));
    }

    #[test]
    fn extension_preserves_existing_ids() {
        let mut base = AddrInterner::from_addrs([ip("10.0.0.1"), ip("10.0.0.2")]);
        let mut extended = base.clone();
        let novel = extended.intern(ip("192.0.2.1"));
        assert_eq!(novel, AddrId(2));
        assert_eq!(
            extended.get(ip("10.0.0.1")),
            base.ids.get(&ip("10.0.0.1")).copied()
        );
        assert_eq!(base.len(), 2);
        // The base growing independently may reuse the extension id for a
        // different address — the documented tail-disagreement hazard.
        let conflicting = base.intern(ip("198.51.100.1"));
        assert_eq!(conflicting, AddrId(2));
        assert_ne!(extended.addr(AddrId(2)), base.addr(AddrId(2)));
    }

    #[test]
    fn generic_interner_round_trips_keys() {
        let mut interner: Interner<String> = Interner::new();
        let a = interner.intern("ssh-key-1".to_owned());
        let b = interner.intern("ssh-key-2".to_owned());
        assert_eq!(interner.intern("ssh-key-1".to_owned()), a);
        assert_eq!((a, b), (IdentId(0), IdentId(1)));
        assert_eq!(interner.get(&"ssh-key-2".to_owned()), Some(b));
        assert_eq!(interner.get(&"missing".to_owned()), None);
        assert_eq!(interner.len(), 2);
        assert!(!interner.is_empty());
        assert_eq!(
            interner.into_keys(),
            vec!["ssh-key-1".to_owned(), "ssh-key-2".to_owned()]
        );
    }

    #[test]
    fn compact_set_sorts_dedups_and_resolves() {
        let interner = AddrInterner::from_addrs([ip("10.0.0.9"), ip("10.0.0.1"), ip("10.0.0.5")]);
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
        let interner = AddrInterner::from_addrs([
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
        let mut interner = AddrInterner::from_addrs([ip("10.0.0.1"), ip("10.0.0.2")]);
        assert_eq!(interner.validate(), Ok(()));
        interner.addrs.push(ip("10.0.0.3")); // stored but never mapped
        let err = interner.validate().unwrap_err();
        assert!(err.contains("mapped ids vs 3 stored"), "{err}");
        interner.ids.insert(ip("10.0.0.9"), AddrId(2)); // lengths agree again…
        let err = interner.validate().unwrap_err();
        assert!(err.contains("never mapped"), "{err}"); // …but 10.0.0.3 has no id
        interner.ids.remove(&ip("10.0.0.9"));
        interner.ids.insert(ip("10.0.0.3"), AddrId(0)); // mapped to the wrong slot
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

    proptest::proptest! {
        #[test]
        fn interning_is_a_bijection_on_distinct_addrs(raw in proptest::collection::vec(0u32..5_000, 0..300)) {
            let addrs: Vec<IpAddr> = raw
                .iter()
                .map(|&v| IpAddr::from([10, 0, (v >> 8) as u8, (v & 0xff) as u8]))
                .collect();
            let interner = AddrInterner::from_addrs(addrs.iter().copied());
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
