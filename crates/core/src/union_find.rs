//! A small disjoint-set (union–find) structure used when merging alias sets
//! across protocols and data sources.

/// Operation tallies of one [`UnionFind`] forest, kept as plain integers
/// on the forest itself (no atomics in the hot loops) and flushed to the
/// observability layer by callers via [`UnionFind::stats`].
///
/// `effective_unions` is a pure function of the merged partition
/// (each one reduces the component count by exactly one); the raw
/// `finds` / `unions` / `path_compressions` counts depend on the order the
/// unions are made in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnionFindStats {
    /// Calls to [`UnionFind::find`] (including the two inside each union).
    pub finds: u64,
    /// Calls to [`UnionFind::union`].
    pub unions: u64,
    /// Unions that actually joined two distinct sets.
    pub effective_unions: u64,
    /// Parent links rewritten by path compression.
    pub path_compressions: u64,
}

/// Disjoint-set forest over `usize` elements with path compression and union
/// by size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
    stats: UnionFindStats,
}

impl UnionFind {
    /// Create a forest of `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
            stats: UnionFindStats::default(),
        }
    }

    /// The forest's operation tallies so far.
    pub fn stats(&self) -> UnionFindStats {
        self.stats
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the forest is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Find the representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        self.stats.finds += 1;
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cursor = x;
        while self.parent[cursor] != root {
            let next = self.parent[cursor];
            self.parent[cursor] = root;
            self.stats.path_compressions += 1;
            cursor = next;
        }
        root
    }

    /// Merge the sets containing `a` and `b`; returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        self.stats.unions += 1;
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.stats.effective_unions += 1;
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Group all elements by representative: each group ascending, the
    /// groups ordered by their smallest element.
    pub fn groups(&mut self) -> Vec<Vec<usize>> {
        // A root's group is opened at its first member; elements are walked
        // in order, which is what gives both orders above.
        let mut group_of_root = vec![usize::MAX; self.len()];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for element in 0..self.len() {
            let root = self.find(element);
            if group_of_root[root] == usize::MAX {
                group_of_root[root] = groups.len();
                groups.push(Vec::with_capacity(self.size[root]));
            }
            groups[group_of_root[root]].push(element);
        }
        groups
    }

    /// Check the forest's structural invariants: the parent and size
    /// vectors agree in length, every parent link stays in range, every
    /// parent chain reaches a canonical root (`parent[root] == root`)
    /// without cycling, and the root sizes partition the whole universe.
    ///
    /// Idempotence of the canonical root is what alias-set merging leans
    /// on; this checks it without path compression, so a valid forest is
    /// left untouched.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.parent.len();
        if self.size.len() != n {
            return Err(format!(
                "union-find drift: {} parents vs {} sizes",
                n,
                self.size.len()
            ));
        }
        let mut root_weight = 0usize;
        for element in 0..n {
            let mut cursor = element;
            for _ in 0..=n {
                let parent = self.parent[cursor];
                if parent >= n {
                    return Err(format!(
                        "union-find drift: parent[{cursor}] = {parent} outside 0..{n}"
                    ));
                }
                if parent == cursor {
                    break;
                }
                cursor = parent;
            }
            if self.parent[cursor] != cursor {
                return Err(format!(
                    "union-find drift: parent chain from {element} never reaches a root"
                ));
            }
            if element == cursor {
                root_weight += self.size[cursor];
            }
        }
        if root_weight != n {
            return Err(format!(
                "union-find drift: root sizes sum to {root_weight}, expected {n}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.len(), 5);
        assert!(!uf.is_empty());
        assert!(!uf.connected(0, 1));
        assert!(uf.union(0, 1));
        assert!(uf.connected(0, 1));
        assert!(!uf.union(1, 0), "already merged");
        assert!(uf.union(2, 3));
        assert!(!uf.connected(0, 2));
        assert!(uf.union(1, 3));
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 4));
    }

    #[test]
    fn groups_partition_all_elements() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 2);
        uf.union(2, 4);
        uf.union(1, 5);
        let groups = uf.groups();
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 6);
        assert_eq!(groups.len(), 3);
        // Each group ascending, the groups ordered by smallest element.
        assert_eq!(groups, vec![vec![0, 2, 4], vec![1, 5], vec![3]]);
    }

    #[test]
    fn validate_accepts_sound_forests_and_reports_drift() {
        assert_eq!(UnionFind::new(0).validate(), Ok(()));
        let mut uf = UnionFind::new(4);
        uf.union(0, 1);
        uf.union(2, 3);
        assert_eq!(uf.validate(), Ok(()));

        let mut broken = uf.clone();
        broken.parent[0] = 9; // out-of-range link
        assert!(broken.validate().unwrap_err().contains("outside 0..4"));

        let mut broken = uf.clone();
        let root = broken.find(0);
        broken.size[root] = 1; // weights no longer partition
        assert!(broken.validate().unwrap_err().contains("root sizes sum"));

        let mut broken = uf;
        broken.size.pop();
        assert!(broken.validate().unwrap_err().contains("parents vs"));
    }

    proptest! {
        #[test]
        fn union_is_transitive_and_total(n in 2usize..60, pairs in prop::collection::vec((0usize..60, 0usize..60), 0..80)) {
            let mut uf = UnionFind::new(n);
            for (a, b) in pairs.iter().map(|&(a, b)| (a % n, b % n)) {
                uf.union(a, b);
            }
            // Structural invariants hold after an arbitrary union sequence.
            prop_assert_eq!(uf.validate(), Ok(()));
            // groups() partitions [0, n) exactly.
            let groups = uf.groups();
            let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
            // Elements of one group are mutually connected.
            for group in &groups {
                for window in group.windows(2) {
                    prop_assert!(uf.connected(window[0], window[1]));
                }
            }
        }
    }
}
