//! The communication tree structure (paper Figure 4) and its identifier
//! scheme.
//!
//! "Each inner node in the communication tree has k children. All leaves
//! of the tree are on level k+1; the root is on level zero. Hence the
//! number of leaves is k·k^k." Inner nodes occupy levels `0..=k`; the
//! leaves are the `n = k^(k+1)` processors themselves.
//!
//! Identifier scheme (zero-based here; the paper is one-based):
//! node `j` on level `i` (for `i in 1..=k`) initially uses processor
//! `(i-1)·k^k + j·k^(k-i)` and owns the *replacement pool* of the
//! `k^(k-i)` processor ids starting there — "exactly k^(k-i) − 1
//! replacement processors, just as needed". The root starts at processor
//! 0 and walks the pool `0..k^k`. Levels use disjoint id blocks of size
//! `k^k` each, so "no two inner nodes on levels 1 through k ever have the
//! same identifiers"; the root's pool intentionally aliases level 1's
//! block (the paper notes this is harmless: a processor works at most once
//! for the root and at most once for one other inner node).

use std::fmt;

use distctr_sim::ProcessorId;

use crate::kmath::{leaves_of_order, pow_u64, MAX_ORDER};

/// An inner node of the communication tree: `level` 0 (root) through `k`,
/// `index` within the level (level `i` has `k^i` nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeRef {
    /// Level, 0 = root, `k` = parents of leaves.
    pub level: u32,
    /// Index within the level, `0..k^level`.
    pub index: u64,
}

impl NodeRef {
    /// The root node.
    pub const ROOT: NodeRef = NodeRef { level: 0, index: 0 };
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}.{}", self.level, self.index)
    }
}

/// The static shape of an order-`k` communication tree.
///
/// # Examples
///
/// ```
/// use distctr_core::topology::{NodeRef, Topology};
/// let t = Topology::new(3).expect("order 3");
/// assert_eq!(t.processors(), 81);
/// assert_eq!(t.nodes_on_level(2), 9);
/// let leaf_parent = t.leaf_parent(80);
/// assert_eq!(leaf_parent.level, 3);
/// assert_eq!(t.parent(leaf_parent), Some(NodeRef { level: 2, index: 8 }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    k: u32,
    /// `offsets[i]` = number of inner nodes on levels `< i`.
    offsets: Vec<u64>,
}

impl Topology {
    /// Builds the topology of an order-`k` tree.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a description if `k` is 0 or above
    /// [`MAX_ORDER`].
    pub fn new(k: u32) -> Result<Self, String> {
        if k == 0 {
            return Err("tree order k must be at least 1".to_string());
        }
        if k > MAX_ORDER {
            return Err(format!("tree order k={k} exceeds MAX_ORDER={MAX_ORDER}"));
        }
        let mut offsets = Vec::with_capacity(k as usize + 2);
        let mut acc = 0u64;
        for level in 0..=k {
            offsets.push(acc);
            acc += pow_u64(k, level);
        }
        offsets.push(acc); // total inner nodes
        Ok(Topology { k, offsets })
    }

    /// The tree order `k`.
    #[must_use]
    pub fn order(&self) -> u32 {
        self.k
    }

    /// Number of processors `n = k^(k+1)` (= leaves).
    #[must_use]
    pub fn processors(&self) -> u64 {
        leaves_of_order(self.k)
    }

    /// Number of inner nodes on level `i` (`k^i`).
    ///
    /// # Panics
    ///
    /// Panics if `i > k`.
    #[must_use]
    pub fn nodes_on_level(&self, i: u32) -> u64 {
        assert!(i <= self.k, "level {i} beyond inner levels 0..={}", self.k);
        pow_u64(self.k, i)
    }

    /// Total number of inner nodes (levels `0..=k`).
    #[must_use]
    pub fn inner_node_count(&self) -> u64 {
        *self.offsets.last().expect("offsets nonempty")
    }

    /// Flat storage index of an inner node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the tree.
    #[must_use]
    pub fn flat_index(&self, node: NodeRef) -> usize {
        assert!(node.level <= self.k, "level {} beyond {}", node.level, self.k);
        let level = node.level as usize;
        // The level's width `k^level`, read off the offsets.
        assert!(
            node.index < self.offsets[level + 1] - self.offsets[level],
            "index {} beyond level {} width",
            node.index,
            node.level
        );
        usize::try_from(self.offsets[level] + node.index).expect("inner node count fits usize")
    }

    /// Inverse of [`Topology::flat_index`].
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of range.
    #[must_use]
    pub fn node_at(&self, flat: usize) -> NodeRef {
        let flat = flat as u64;
        assert!(flat < self.inner_node_count(), "flat index out of range");
        let level = match self.offsets.binary_search(&flat) {
            Ok(i) if i <= self.k as usize => i as u32,
            Ok(_) | Err(0) => unreachable!("offsets[0] = 0"),
            Err(i) => (i - 1) as u32,
        };
        NodeRef { level, index: flat - self.offsets[level as usize] }
    }

    /// The parent of an inner node (None for the root).
    #[must_use]
    pub fn parent(&self, node: NodeRef) -> Option<NodeRef> {
        (node.level > 0)
            .then(|| NodeRef { level: node.level - 1, index: node.index / self.k as u64 })
    }

    /// The inner-node children of `node`, in index order: `k` nodes on the
    /// next level, or `None` if `node` is on level `k` (its children are
    /// leaves).
    #[must_use]
    pub fn inner_children(&self, node: NodeRef) -> Option<impl ExactSizeIterator<Item = NodeRef>> {
        let k = self.k;
        (node.level < k).then(move || {
            (0..k).map(move |c| NodeRef {
                level: node.level + 1,
                index: node.index * u64::from(k) + u64::from(c),
            })
        })
    }

    /// The leaf children of a level-`k` node, as processor ids in index
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not on level `k`.
    pub fn leaf_children(&self, node: NodeRef) -> impl ExactSizeIterator<Item = ProcessorId> {
        assert_eq!(node.level, self.k, "only level-k nodes have leaf children");
        let k = self.k;
        (0..k).map(move |c| ProcessorId::new((node.index * u64::from(k) + u64::from(c)) as usize))
    }

    /// The level-`k` node above leaf (processor) `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf >= n`.
    #[must_use]
    pub fn leaf_parent(&self, leaf: u64) -> NodeRef {
        assert!(leaf < self.processors(), "leaf {leaf} out of range");
        NodeRef { level: self.k, index: leaf / self.k as u64 }
    }

    /// Number of leaves under `node` — the number of operation paths
    /// through it: `k^(k+1-level)`.
    #[must_use]
    pub fn paths_through(&self, node: NodeRef) -> u64 {
        pow_u64(self.k, self.k + 1 - node.level)
    }

    /// The processor that initially works for `node`.
    #[must_use]
    pub fn initial_worker(&self, node: NodeRef) -> ProcessorId {
        ProcessorId::new(self.pool_start(node) as usize)
    }

    /// The replacement pool of `node`: the contiguous id range its
    /// successive workers are drawn from. Size `k^k` for the root,
    /// `k^(k-i)` for a level-`i` node, supporting `size - 1` retirements.
    #[must_use]
    pub fn pool(&self, node: NodeRef) -> std::ops::Range<u64> {
        let start = self.pool_start(node);
        start..start + self.pool_size(node.level)
    }

    /// Size of every level-`i` node's replacement pool.
    #[must_use]
    pub fn pool_size(&self, level: u32) -> u64 {
        if level == 0 {
            pow_u64(self.k, self.k)
        } else {
            pow_u64(self.k, self.k - level)
        }
    }

    fn pool_start(&self, node: NodeRef) -> u64 {
        if node.level == 0 {
            0
        } else {
            (node.level as u64 - 1) * pow_u64(self.k, self.k)
                + node.index * pow_u64(self.k, self.k - node.level)
        }
    }

    /// Iterates over every inner node, root first, level by level.
    pub fn nodes(&self) -> impl Iterator<Item = NodeRef> + '_ {
        (0..=self.k).flat_map(move |level| {
            (0..self.nodes_on_level(level)).map(move |index| NodeRef { level, index })
        })
    }

    /// Renders the tree structure in the spirit of paper Figure 4: one
    /// line per level with node counts, pools and initial ids (elided for
    /// wide levels).
    #[must_use]
    pub fn render_ascii(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "order k={} tree: {} inner nodes, {} leaves/processors",
            self.k,
            self.inner_node_count(),
            self.processors()
        );
        for level in 0..=self.k {
            let width = self.nodes_on_level(level);
            let pool = self.pool_size(level);
            let show = width.min(4);
            let ids: Vec<String> = (0..show)
                .map(|j| self.initial_worker(NodeRef { level, index: j }).to_string())
                .collect();
            let _ = writeln!(
                out,
                "  level {level}: {width} node(s), pool {pool} id(s) each, initial workers [{}{}]",
                ids.join(", "),
                if width > show { ", ..." } else { "" }
            );
        }
        let _ =
            writeln!(out, "  level {}: {} leaves (processors P0..)", self.k + 1, self.processors());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn construction_bounds() {
        assert!(Topology::new(0).is_err());
        assert!(Topology::new(MAX_ORDER + 1).is_err());
        assert!(Topology::new(1).is_ok());
        assert!(Topology::new(MAX_ORDER).is_ok());
    }

    #[test]
    fn level_widths_and_totals() {
        let t = Topology::new(3).expect("k=3");
        assert_eq!(t.nodes_on_level(0), 1);
        assert_eq!(t.nodes_on_level(1), 3);
        assert_eq!(t.nodes_on_level(2), 9);
        assert_eq!(t.nodes_on_level(3), 27);
        assert_eq!(t.inner_node_count(), 40);
        assert_eq!(t.processors(), 81);
    }

    #[test]
    fn flat_index_roundtrip() {
        let t = Topology::new(3).expect("k=3");
        for (i, node) in t.nodes().enumerate() {
            assert_eq!(t.flat_index(node), i);
            assert_eq!(t.node_at(i), node);
        }
        assert_eq!(t.nodes().count() as u64, t.inner_node_count());
    }

    #[test]
    fn parent_child_inverse() {
        let t = Topology::new(3).expect("k=3");
        for node in t.nodes() {
            if let Some(children) = t.inner_children(node) {
                assert_eq!(children.len(), 3);
                for (i, c) in children.enumerate() {
                    let nth = NodeRef { level: node.level + 1, index: node.index * 3 + i as u64 };
                    assert_eq!(c, nth, "children come in index order");
                    assert_eq!(t.parent(c), Some(node));
                }
            } else {
                assert_eq!(node.level, t.order());
            }
        }
        assert_eq!(t.parent(NodeRef::ROOT), None);
    }

    #[test]
    fn leaf_parent_and_leaf_children_inverse() {
        let t = Topology::new(3).expect("k=3");
        for leaf in 0..t.processors() {
            let parent = t.leaf_parent(leaf);
            assert_eq!(parent.level, 3);
            let mut kids = t.leaf_children(parent);
            assert_eq!(kids.len(), 3);
            assert!(kids.any(|p| p == ProcessorId::new(leaf as usize)));
        }
    }

    #[test]
    fn initial_ids_distinct_on_levels_one_through_k() {
        // "no two inner nodes on levels 1 through k get the same id"
        for k in 1..=4u32 {
            let t = Topology::new(k).expect("topology");
            let mut seen = HashSet::new();
            for node in t.nodes().filter(|n| n.level >= 1) {
                assert!(
                    seen.insert(t.initial_worker(node)),
                    "duplicate initial id at {node} (k={k})"
                );
            }
        }
    }

    #[test]
    fn pools_disjoint_within_levels_one_through_k_and_cover_valid_ids() {
        for k in 2..=4u32 {
            let t = Topology::new(k).expect("topology");
            let mut claimed: HashSet<u64> = HashSet::new();
            for node in t.nodes().filter(|n| n.level >= 1) {
                for id in t.pool(node) {
                    assert!(id < t.processors(), "pool id {id} < n (k={k}, {node})");
                    assert!(claimed.insert(id), "pools overlap at id {id} (k={k}, {node})");
                }
            }
            // Levels 1..=k partition exactly k * k^k = n ids.
            assert_eq!(claimed.len() as u64, t.processors());
        }
    }

    #[test]
    fn root_pool_aliases_level_one_block() {
        let t = Topology::new(3).expect("k=3");
        let root_pool = t.pool(NodeRef::ROOT);
        assert_eq!(root_pool, 0..27, "root walks ids 0..k^k");
        assert_eq!(t.pool_size(0), 27);
        assert_eq!(t.pool_size(1), 9);
        assert_eq!(t.pool_size(3), 1, "level-k nodes never retire");
    }

    #[test]
    fn largest_identifier_is_below_n() {
        // The paper checks the largest id (parent of the rightmost leaf)
        // stays within 1..=n.
        for k in 1..=5u32 {
            let t = Topology::new(k).expect("topology");
            let rightmost = NodeRef { level: k, index: t.nodes_on_level(k) - 1 };
            let id = t.initial_worker(rightmost);
            assert!(
                (id.index() as u64) < t.processors(),
                "largest id {id} below n={} (k={k})",
                t.processors()
            );
        }
    }

    #[test]
    fn paths_through_counts_leaves_below() {
        let t = Topology::new(3).expect("k=3");
        assert_eq!(t.paths_through(NodeRef::ROOT), 81);
        assert_eq!(t.paths_through(NodeRef { level: 1, index: 0 }), 27);
        assert_eq!(t.paths_through(NodeRef { level: 3, index: 5 }), 3);
    }

    #[test]
    fn paper_id_example_matches_formula() {
        // One-based check of the formula (i-1)k^k + j·k^(k-i) + 1.
        let t = Topology::new(3).expect("k=3");
        let n110 = t.initial_worker(NodeRef { level: 1, index: 0 });
        assert_eq!(n110.display_one_based(), 1);
        let n21 = t.initial_worker(NodeRef { level: 2, index: 1 });
        // (2-1)*27 + 1*3 + 1 = 31
        assert_eq!(n21.display_one_based(), 31);
    }

    #[test]
    fn degenerate_order_one_tree() {
        let t = Topology::new(1).expect("k=1");
        assert_eq!(t.processors(), 1);
        assert_eq!(t.inner_node_count(), 2, "root + one level-1 node");
        assert_eq!(t.leaf_parent(0), NodeRef { level: 1, index: 0 });
        assert_eq!(t.pool_size(0), 1);
        assert_eq!(t.pool_size(1), 1);
    }

    #[test]
    fn render_mentions_every_level() {
        let t = Topology::new(2).expect("k=2");
        let s = t.render_ascii();
        for level in 0..=3 {
            assert!(s.contains(&format!("level {level}")), "level {level} in:\n{s}");
        }
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeRef { level: 2, index: 7 }.to_string(), "N2.7");
        assert_eq!(NodeRef::ROOT.to_string(), "N0.0");
    }
}
