//! AS-level analysis (Tables 5–6, Figures 5–6).
//!
//! Attribution runs in the id space: an [`AsnTable`] is a dense
//! `AddrId → Option<ASN>` column (the same shape the observation store
//! keeps), and every statistic takes [`CompactAliasSet`]s.  Lookups are
//! array indexing instead of map probes, and nothing here keys a container
//! by address.

use alias_intern::{AddrId, CompactAliasSet};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Dense `AddrId → Option<ASN>` annotation column.
///
/// Built once per campaign from the interner's id space; ids beyond the
/// table's length read as unannotated, so a table built from a prefix of a
/// later-extended interner stays valid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AsnTable {
    asns: Vec<Option<u32>>,
}

impl AsnTable {
    /// An empty table where every id is unannotated.
    pub(crate) fn new(len: usize) -> Self {
        AsnTable {
            asns: vec![None; len],
        }
    }

    /// Build a table covering `len` ids from `(id, asn)` annotations.
    /// Later duplicates win, matching map-insert semantics.
    pub fn from_pairs<I: IntoIterator<Item = (AddrId, u32)>>(len: usize, pairs: I) -> Self {
        let mut table = AsnTable::new(len);
        for (id, asn) in pairs {
            table.annotate(id, asn);
        }
        table
    }

    /// Annotate one id, growing the table if needed.
    pub(crate) fn annotate(&mut self, id: AddrId, asn: u32) {
        if id.index() >= self.asns.len() {
            self.asns.resize(id.index() + 1, None);
        }
        self.asns[id.index()] = Some(asn);
    }

    /// The AS annotation of `id`, if any.
    pub(crate) fn get(&self, id: AddrId) -> Option<u32> {
        self.asns.get(id.index()).copied().flatten()
    }
}

/// Number of distinct origin ASes per set (Figure 5).
///
/// Addresses without an AS annotation are ignored; sets with no annotated
/// address contribute a count of zero.
pub fn asns_per_set(sets: &[CompactAliasSet], asn_of: &AsnTable) -> Vec<usize> {
    sets.iter()
        .map(|set| {
            set.iter()
                .filter_map(|id| asn_of.get(id))
                .collect::<BTreeSet<u32>>()
                .len()
        })
        .collect()
}

/// Attribute each set to one AS (the plurality AS of its members; ties break
/// towards the numerically smallest ASN) and count sets per AS.
pub fn sets_per_as(sets: &[CompactAliasSet], asn_of: &AsnTable) -> BTreeMap<u32, usize> {
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    for set in sets {
        if let Some(asn) = plurality_as(set, asn_of) {
            *counts.entry(asn).or_insert(0) += 1;
        }
    }
    counts
}

/// The plurality AS of a set's members.
pub(crate) fn plurality_as(set: &CompactAliasSet, asn_of: &AsnTable) -> Option<u32> {
    let mut votes: HashMap<u32, usize> = HashMap::new();
    for id in set.iter() {
        if let Some(asn) = asn_of.get(id) {
            *votes.entry(asn).or_insert(0) += 1;
        }
    }
    votes
        // Hash order, but max_by with a total (count, asn) order: the
        // result is order-independent.
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(asn, _)| asn)
}

/// The `n` ASes with the most sets, as `(asn, set count)` sorted descending.
pub fn top_ases(sets: &[CompactAliasSet], asn_of: &AsnTable, n: usize) -> Vec<(u32, usize)> {
    let mut counts: Vec<(u32, usize)> = sets_per_as(sets, asn_of).into_iter().collect();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    counts.truncate(n);
    counts
}

/// Number of ASes with at least one set.
pub fn ases_with_sets(sets: &[CompactAliasSet], asn_of: &AsnTable) -> usize {
    sets_per_as(sets, asn_of).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(raw: &[u32]) -> CompactAliasSet {
        CompactAliasSet::from_ids(raw.iter().copied().map(AddrId).collect())
    }

    fn table(entries: &[(u32, u32)]) -> AsnTable {
        let len = entries.iter().map(|&(id, _)| id + 1).max().unwrap_or(0);
        AsnTable::from_pairs(
            len as usize,
            entries.iter().map(|&(id, asn)| (AddrId(id), asn)),
        )
    }

    #[test]
    fn asns_per_set_counts_distinct_ases() {
        let sets = vec![set(&[0, 1]), set(&[2, 3, 4])];
        let asns = table(&[(0, 100), (1, 100), (2, 100), (3, 200), (4, 300)]);
        assert_eq!(asns_per_set(&sets, &asns), vec![1, 3]);
    }

    #[test]
    fn plurality_attribution_breaks_ties_to_smallest_asn() {
        let s = set(&[0, 1]);
        let asns = table(&[(0, 300), (1, 100)]);
        assert_eq!(plurality_as(&s, &asns), Some(100));
        let s2 = set(&[0, 2, 1]);
        let asns2 = table(&[(0, 300), (2, 300), (1, 100)]);
        assert_eq!(plurality_as(&s2, &asns2), Some(300));
        assert_eq!(plurality_as(&set(&[9]), &asns), None);
    }

    #[test]
    fn sets_per_as_and_top_ases() {
        let sets = vec![set(&[0, 1]), set(&[2, 3]), set(&[4, 5])];
        let asns = table(&[
            (0, 14_061),
            (1, 14_061),
            (2, 14_061),
            (3, 14_061),
            (4, 701),
            (5, 701),
        ]);
        let per_as = sets_per_as(&sets, &asns);
        assert_eq!(per_as[&14_061], 2);
        assert_eq!(per_as[&701], 1);
        assert_eq!(top_ases(&sets, &asns, 1), vec![(14_061, 2)]);
        assert_eq!(ases_with_sets(&sets, &asns), 2);
    }

    #[test]
    fn unannotated_addresses_are_ignored() {
        let sets = vec![set(&[0, 1])];
        let asns = AsnTable::new(0);
        assert_eq!(asns_per_set(&sets, &asns), vec![0]);
        assert!(sets_per_as(&sets, &asns).is_empty());
        assert!(top_ases(&sets, &asns, 5).is_empty());
    }

    #[test]
    fn annotate_grows_the_table() {
        let mut asns = AsnTable::new(1);
        asns.annotate(AddrId(5), 42);
        assert_eq!(asns.get(AddrId(5)), Some(42));
        assert_eq!(asns.get(AddrId(3)), None);
        assert_eq!(asns.get(AddrId(900)), None, "out of range reads as None");
        assert_eq!(asns.asns.len(), 6);
    }
}
