//! Union analysis: combining alias sets across protocols and data sources.
//!
//! The paper's headline numbers come from consolidating the three protocols:
//! alias sets from SSH, BGP and SNMPv3 are merged whenever they share an
//! address, addresses are classified by how many services they answer, and
//! each merged set is attributed to the protocols able to identify it
//! ("40% can only be identified with SNMPv3 and 60% with SSH or BGP").
//!
//! Everything runs in id space: [`partition_labeled_compact`] unions
//! [`CompactAliasSet`]s straight into a forest indexed by [`AddrId`] — no
//! per-merge address→index re-keying, no per-set clones — and returns the
//! [`LabeledPartition`] the tables read.  [`merge_labeled_compact`] is the
//! same merge one step deeper: the partition materialised into the
//! [`MergedSet`]s a report carries.

use crate::union_find::UnionFind;
use alias_intern::{AddrId, AddrInterner, CompactAliasSet};
use alias_obs::{DeterminismClass, LazyCounter};
use std::collections::BTreeSet;
use std::net::IpAddr;

/// Merged sets produced by labelled merges.  The merged partition is
/// independent of union order.
static MERGED_SETS: LazyCounter = LazyCounter::new(
    "merge.merged_sets",
    DeterminismClass::Deterministic,
    "sets",
    "merge",
);

/// Member addresses across all produced merged sets.
static MERGED_ADDRS: LazyCounter = LazyCounter::new(
    "merge.merged_addrs",
    DeterminismClass::Deterministic,
    "addrs",
    "merge",
);

/// Unions on the forest that joined two distinct sets.  Each one shrinks
/// the component count by exactly one, so the total is a pure function of
/// the merged partition (present addresses minus groups).
static EFFECTIVE_UNIONS: LazyCounter = LazyCounter::new(
    "merge.effective_unions",
    DeterminismClass::Deterministic,
    "unions",
    "merge",
);

/// Raw `find` calls on the forest.  The union loop walks the inputs in
/// order, so this and the two counts below are pure functions of them.
static UF_FINDS: LazyCounter = LazyCounter::new(
    "merge.uf_finds",
    DeterminismClass::Deterministic,
    "ops",
    "merge",
);

/// Raw `union` calls on the forest (effective or not).
static UF_UNIONS: LazyCounter = LazyCounter::new(
    "merge.uf_unions",
    DeterminismClass::Deterministic,
    "ops",
    "merge",
);

/// Parent links rewritten by path compression on the forest.
static UF_PATH_COMPRESSIONS: LazyCounter = LazyCounter::new(
    "merge.uf_path_compressions",
    DeterminismClass::Deterministic,
    "links",
    "merge",
);

/// A merged set with the labels (protocols / sources) that contributed to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedSet {
    /// Member addresses.  This is the rendering boundary — merged sets go
    /// straight into reports, so they carry resolved addresses.
    // id-space: report boundary — merged sets are the rendered output
    pub addrs: BTreeSet<IpAddr>,
    /// Labels of every input list that contributed at least one input set.
    pub labels: BTreeSet<String>,
}

impl MergedSet {
    /// Whether only the given label contributed to this set.
    pub(crate) fn only_from(&self, label: &str) -> bool {
        self.labels.len() == 1 && self.labels.contains(label)
    }
}

/// A labelled merge in id space: the partition of every address that
/// occurs in an input set, with the inputs that contributed to each part.
/// This is what the tables consume; [`Self::materialise`] is the thin
/// address-resolving step on top for callers that hand sets to a report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabeledPartition {
    /// The input labels, by input position.
    pub(crate) labels: Vec<String>,
    /// The merged sets, ordered by their smallest member id.
    pub sets: Vec<CompactAliasSet>,
    /// Per merged set: bit `i` is set when input `i` contributed a set.
    pub(crate) label_masks: Vec<u64>,
}

impl LabeledPartition {
    /// The mask bits of the inputs labelled `label`.
    fn mask_of(&self, label: &str) -> u64 {
        let inputs = self.labels.iter().enumerate();
        inputs
            .filter(|(_, l)| *l == label)
            .fold(0, |mask, (i, _)| mask | 1 << i)
    }

    /// Resolve the partition into [`MergedSet`]s in canonical order —
    /// sorted by smallest address.
    pub fn materialise(&self, interner: &AddrInterner) -> Vec<MergedSet> {
        let mut merged: Vec<MergedSet> = self
            .sets
            .iter()
            .zip(&self.label_masks)
            .map(|(set, mask)| MergedSet {
                addrs: set.to_addr_set(interner),
                labels: self
                    .labels
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, label)| label.clone())
                    .collect(),
            })
            .collect();
        sort_canonical(&mut merged);
        merged
    }
}

/// Partition the addresses of labelled [`CompactAliasSet`] collections
/// sharing one id space of `universe` ids: sets sharing at least one
/// address end up in the same merged set.
///
/// Member ids index straight into the union–find forest, so there is no
/// per-merge re-keying and no input cloning.
///
/// # Panics
/// Panics on more than 64 inputs (the label mask is one `u64`).
pub fn partition_labeled_compact(
    inputs: &[(&str, &[CompactAliasSet])],
    universe: usize,
) -> LabeledPartition {
    assert!(
        inputs.len() <= 64,
        "a labelled merge takes at most 64 inputs"
    );
    // Mark the addresses that actually occur in an input set: the id space
    // may cover a whole campaign while the sets span only part of it.
    let mut present = vec![false; universe];
    for (_, sets) in inputs {
        for set in *sets {
            for id in set.iter() {
                present[id.index()] = true;
            }
        }
    }

    // Union pass: every set's members with its first.
    let mut uf = UnionFind::new(universe);
    for (_, sets) in inputs {
        for set in *sets {
            if let Some((&first, rest)) = set.ids().split_first() {
                for &other in rest {
                    uf.union(first.index(), other.index());
                }
            }
        }
    }

    // Bucket the present addresses by merged group.  Groups are numbered by
    // first member in id order — a keying independent of the forest's
    // internal representatives — and filled in id order, so each is already
    // a sorted, distinct id list.
    let mut slot_of_root = vec![usize::MAX; universe];
    let mut groups: Vec<Vec<AddrId>> = Vec::new();
    for (index, _) in present.iter().enumerate().filter(|(_, &p)| p) {
        let root = uf.find(index);
        let slot = if slot_of_root[root] == usize::MAX {
            slot_of_root[root] = groups.len();
            groups.push(Vec::new());
            groups.len() - 1
        } else {
            slot_of_root[root]
        };
        groups[slot].push(AddrId(index as u32));
    }

    // Attribute labels: an input set contributes its input's bit to the
    // merged group containing its members (one find per input set).
    let mut label_masks = vec![0u64; groups.len()];
    for (input, (_, sets)) in inputs.iter().enumerate() {
        for set in *sets {
            if let Some(&first) = set.ids().first() {
                label_masks[slot_of_root[uf.find(first.index())]] |= 1 << input;
            }
        }
    }

    // Flush the forest tallies.
    let stats = uf.stats();
    UF_FINDS.add(stats.finds);
    UF_UNIONS.add(stats.unions);
    UF_PATH_COMPRESSIONS.add(stats.path_compressions);
    EFFECTIVE_UNIONS.add(stats.effective_unions);
    MERGED_SETS.add(groups.len() as u64);
    MERGED_ADDRS.add(groups.iter().map(|g| g.len() as u64).sum());

    LabeledPartition {
        labels: inputs
            .iter()
            .map(|(label, _)| (*label).to_owned())
            .collect(),
        sets: groups.into_iter().map(CompactAliasSet::from_ids).collect(),
        label_masks,
    }
}

/// [`partition_labeled_compact`] over `interner`'s id space, materialised:
/// the [`MergedSet`]s a `ResolutionReport` carries, in canonical order.
pub fn merge_labeled_compact(
    inputs: &[(&str, &[CompactAliasSet])],
    interner: &AddrInterner,
) -> Vec<MergedSet> {
    partition_labeled_compact(inputs, interner.len()).materialise(interner)
}

/// Canonical output order: merged sets sorted by their smallest address.
/// The sets partition the address space, so smallest members are distinct
/// and the order is total — and independent of union order.
fn sort_canonical(merged: &mut [MergedSet]) {
    merged.sort_by(|a, b| a.addrs.iter().next().cmp(&b.addrs.iter().next()));
}

/// How many services each address answers (the 97% / 3% split of §4.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiServiceStats {
    /// Addresses answering exactly one protocol.
    pub(crate) single_service: usize,
    /// Addresses answering exactly two protocols.
    pub(crate) two_services: usize,
    /// Addresses answering all three protocols.
    pub(crate) three_services: usize,
}

impl MultiServiceStats {
    /// Compute the split from per-protocol responsive id lists sharing one
    /// interner of `universe` ids.  Each inner list must hold *distinct*
    /// ids (one per responsive address, as a responsive-set naturally is);
    /// order does not matter.
    pub fn compute(per_protocol: &[Vec<AddrId>], universe: usize) -> Self {
        let mut counts = vec![0u8; universe];
        for ids in per_protocol {
            for id in ids {
                counts[id.index()] += 1;
            }
        }
        let mut stats = MultiServiceStats::default();
        for &n in &counts {
            match n {
                0 => {}
                1 => stats.single_service += 1,
                2 => stats.two_services += 1,
                _ => stats.three_services += 1,
            }
        }
        stats
    }

    /// Total addresses counted.
    pub(crate) fn total(&self) -> usize {
        self.single_service + self.two_services + self.three_services
    }

    /// Fraction answering a single service.
    pub fn single_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.single_service as f64 / self.total() as f64
        }
    }
}

/// Attribution of merged sets to the protocols able to identify them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolAttribution {
    /// Merged sets identifiable only via SNMPv3.
    pub snmpv3_only: usize,
    /// Merged sets identifiable via SSH or BGP (possibly also SNMPv3).
    pub ssh_or_bgp: usize,
    /// Total merged sets.
    pub total: usize,
}

impl ProtocolAttribution {
    /// Compute the attribution from labelled merged sets, where the labels
    /// are protocol names (`"ssh"`, `"bgp"`, `"snmpv3"`).
    pub fn compute(merged: &[MergedSet]) -> Self {
        Self::tally(merged.iter().map(|set| set.only_from("snmpv3")))
    }

    /// [`Self::compute`] straight from the id-space partition.
    pub fn of_partition(partition: &LabeledPartition) -> Self {
        let snmpv3 = partition.mask_of("snmpv3");
        let masks = partition.label_masks.iter();
        Self::tally(masks.map(|&mask| mask != 0 && mask & !snmpv3 == 0))
    }

    fn tally(snmpv3_only: impl Iterator<Item = bool>) -> Self {
        let mut attribution = ProtocolAttribution::default();
        for only in snmpv3_only {
            attribution.total += 1;
            if only {
                attribution.snmpv3_only += 1;
            } else {
                attribution.ssh_or_bgp += 1;
            }
        }
        attribution
    }

    /// Fraction of sets only SNMPv3 can identify.
    pub fn snmpv3_only_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.snmpv3_only as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Intern one dotted-quad family into `interner` as compact sets.
    fn family(sets: &[&[&str]], interner: &mut AddrInterner) -> Vec<CompactAliasSet> {
        sets.iter()
            .map(|addrs| {
                CompactAliasSet::from_ids(
                    addrs
                        .iter()
                        .map(|a| interner.intern(a.parse().unwrap()))
                        .collect(),
                )
            })
            .collect()
    }

    /// Labelled merge over freshly interned families.
    fn merge(inputs: &[(&str, &[&[&str]])]) -> Vec<MergedSet> {
        let mut interner = AddrInterner::new();
        let compact: Vec<(&str, Vec<CompactAliasSet>)> = inputs
            .iter()
            .map(|(label, sets)| (*label, family(sets, &mut interner)))
            .collect();
        let borrowed: Vec<(&str, &[CompactAliasSet])> = compact
            .iter()
            .map(|(label, sets)| (*label, sets.as_slice()))
            .collect();
        merge_labeled_compact(&borrowed, &interner)
    }

    #[test]
    fn disjoint_sets_stay_separate() {
        let merged = merge(&[
            ("ssh", &[&["10.0.0.1", "10.0.0.2"]]),
            ("snmpv3", &[&["10.1.0.1", "10.1.0.2"]]),
        ]);
        assert_eq!(merged.len(), 2);
        assert!(merged.iter().any(|m| m.only_from("ssh")));
        assert!(merged.iter().any(|m| m.only_from("snmpv3")));
    }

    #[test]
    fn overlapping_sets_merge_and_carry_both_labels() {
        let merged = merge(&[
            ("ssh", &[&["10.0.0.1", "10.0.0.2"]]),
            ("bgp", &[&["10.0.0.2", "10.0.0.3"]]),
        ]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].addrs.len(), 3);
        assert_eq!(merged[0].labels.len(), 2);
        assert!(!merged[0].only_from("ssh"));
    }

    #[test]
    fn transitive_merging_through_a_chain() {
        let merged = merge(&[
            ("a", &[&["10.0.0.1", "10.0.0.2"]]),
            ("b", &[&["10.0.0.2", "10.0.0.3"]]),
            ("c", &[&["10.0.0.3", "10.0.0.4"]]),
        ]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].addrs.len(), 4);
    }

    #[test]
    fn multi_service_stats_split() {
        // Five addresses 0‥=4: three SSH-only, one on two services, one on
        // all three — mirrors the dotted-quad version this replaced.
        let ssh = vec![AddrId(0), AddrId(1), AddrId(2)];
        let bgp = vec![AddrId(2), AddrId(3)];
        let snmp = vec![AddrId(2), AddrId(3), AddrId(4)];
        let stats = MultiServiceStats::compute(&[ssh, bgp, snmp], 5);
        assert_eq!(stats.total(), 5);
        assert_eq!(stats.single_service, 3); // 0, 1, 4
        assert_eq!(stats.two_services, 1); // 3
        assert_eq!(stats.three_services, 1); // 2
        assert!((stats.single_fraction() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn attribution_counts_snmp_only_sets() {
        let merged = merge(&[
            ("ssh", &[&["10.0.0.1", "10.0.0.2"]]),
            (
                "snmpv3",
                &[&["10.1.0.1", "10.1.0.2"], &["10.0.0.1", "10.0.0.9"]],
            ),
        ]);
        let attribution = ProtocolAttribution::compute(&merged);
        assert_eq!(attribution.total, 2);
        assert_eq!(attribution.snmpv3_only, 1);
        assert_eq!(attribution.ssh_or_bgp, 1);
        assert!((attribution.snmpv3_only_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn partition_and_materialised_sets_attribute_alike() {
        // Two inputs share the label "snmpv3": a set only they touch is
        // still "only from snmpv3", and the labels collapse on the way out.
        let mut interner = AddrInterner::new();
        let ssh = family(&[&["10.0.0.1", "10.0.0.2"]], &mut interner);
        let snmp_a = family(&[&["10.1.0.1", "10.1.0.2"]], &mut interner);
        let snmp_b = family(
            &[&["10.1.0.2", "10.1.0.3"], &["10.0.0.2", "10.0.0.9"]],
            &mut interner,
        );
        let inputs: Vec<(&str, &[CompactAliasSet])> =
            vec![("ssh", &ssh), ("snmpv3", &snmp_a), ("snmpv3", &snmp_b)];
        let partition = partition_labeled_compact(&inputs, interner.len());
        // Ordered by smallest member id: 10.0.0.1 was interned first.
        assert_eq!(partition.label_masks, vec![0b101, 0b110]);
        let merged = partition.materialise(&interner);
        assert_eq!(merged, merge_labeled_compact(&inputs, &interner));
        assert_eq!(merged[1].labels.len(), 1);
        assert_eq!(
            ProtocolAttribution::of_partition(&partition),
            ProtocolAttribution::compute(&merged)
        );
    }

    #[test]
    fn empty_inputs() {
        assert!(merge(&[]).is_empty());
        assert!(merge(&[("ssh", &[])]).is_empty());
        let stats = MultiServiceStats::compute(&[], 0);
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.single_fraction(), 0.0);
        let attribution = ProtocolAttribution::compute(&[]);
        assert_eq!(attribution.snmpv3_only_fraction(), 0.0);
    }

    #[test]
    fn interner_may_cover_more_ids_than_the_sets() {
        // A campaign interner spans addresses the input sets never mention;
        // absent ids must not materialise as empty merged sets or skew the
        // service histogram.
        let mut interner = AddrInterner::new();
        let sets = family(&[&["10.0.0.1", "10.0.0.2"]], &mut interner);
        interner.intern("10.9.9.9".parse().unwrap());
        let merged = merge_labeled_compact(&[("ssh", &sets)], &interner);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].addrs.len(), 2);
        let stats = MultiServiceStats::compute(&[vec![AddrId(0), AddrId(1)]], interner.len());
        assert_eq!(stats.total(), 2);
    }

    #[test]
    fn output_is_sorted_by_smallest_address() {
        let merged = merge(&[
            ("ssh", &[&["10.9.0.1", "10.9.0.2"]]),
            ("bgp", &[&["10.0.0.5", "10.0.0.6"]]),
            ("snmpv3", &[&["10.4.0.1"]]),
        ]);
        let firsts: Vec<IpAddr> = merged
            .iter()
            .map(|m| *m.addrs.iter().next().unwrap())
            .collect();
        let mut sorted = firsts.clone();
        sorted.sort();
        assert_eq!(firsts, sorted);
    }

    // The canonical output is independent of union order: for random
    // labelled set families, merging every input's sets back to front
    // gives the same merged sets.
    proptest::proptest! {
        #[test]
        fn proptest_merge_is_independent_of_union_order(
            families in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(0u16..600, 1..6),
                    0..40,
                ),
                1..4,
            ),
        ) {
            const LABELS: [&str; 4] = ["ssh", "bgp", "snmpv3", "midar"];
            let mut interner = AddrInterner::new();
            let compact: Vec<Vec<CompactAliasSet>> = families
                .iter()
                .map(|sets| {
                    sets.iter()
                        .map(|raw| {
                            CompactAliasSet::from_ids(
                                raw.iter()
                                    .map(|&v| {
                                        interner.intern(IpAddr::from([
                                            10,
                                            0,
                                            (v >> 8) as u8,
                                            (v & 0xff) as u8,
                                        ]))
                                    })
                                    .collect(),
                            )
                        })
                        .collect()
                })
                .collect();
            let inputs: Vec<(&str, &[CompactAliasSet])> = compact
                .iter()
                .enumerate()
                .map(|(i, sets)| (LABELS[i % LABELS.len()], sets.as_slice()))
                .collect();
            let reversed: Vec<Vec<CompactAliasSet>> = compact
                .iter()
                .map(|sets| sets.iter().rev().cloned().collect())
                .collect();
            let reversed_inputs: Vec<(&str, &[CompactAliasSet])> = reversed
                .iter()
                .enumerate()
                .map(|(i, sets)| (LABELS[i % LABELS.len()], sets.as_slice()))
                .collect();
            proptest::prop_assert_eq!(
                merge_labeled_compact(&reversed_inputs, &interner),
                merge_labeled_compact(&inputs, &interner)
            );
        }
    }
}
