//! [`FilterSet`]: the set `A` of filter nodes, with insertion order.

use fp_graph::{BitSet, NodeId};

/// A set of filter nodes.
///
/// Keeps both an O(1)-membership bitset (the propagation passes test
/// membership per edge) and the insertion order (greedy algorithms
/// report *which* filter was chosen at each budget step, which is what
/// the FR-versus-k curves plot).
#[derive(Clone, Debug)]
pub struct FilterSet {
    members: BitSet,
    order: Vec<NodeId>,
}

impl FilterSet {
    /// An empty filter set for a graph with `n` nodes.
    pub fn empty(n: usize) -> Self {
        Self {
            members: BitSet::new(n),
            order: Vec::new(),
        }
    }

    /// A filter set containing every node of an `n`-node graph
    /// (used to evaluate `F(V)`, the FR denominator).
    pub fn all(n: usize) -> Self {
        let mut set = Self::empty(n);
        for v in 0..n {
            set.insert(NodeId::new(v));
        }
        set
    }

    /// Build from a list of nodes (duplicates ignored).
    pub fn from_nodes(n: usize, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut set = Self::empty(n);
        for v in nodes {
            set.insert(v);
        }
        set
    }

    /// Insert a filter; returns whether it was newly added.
    pub fn insert(&mut self, v: NodeId) -> bool {
        if self.members.insert(v.index()) {
            self.order.push(v);
            true
        } else {
            false
        }
    }

    /// Remove a filter; returns whether it was present. The insertion
    /// order of the surviving filters is preserved.
    pub fn remove(&mut self, v: NodeId) -> bool {
        if self.members.remove(v.index()) {
            let i = self
                .order
                .iter()
                .position(|&w| w == v)
                .expect("order vector mirrors the membership bitset");
            self.order.remove(i);
            true
        } else {
            false
        }
    }

    /// Keep only the filters `keep` accepts, in their insertion order:
    /// one pass over the order, where [`FilterSet::remove`] shifts it
    /// once per filter.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        let members = &mut self.members;
        self.order.retain(|&v| {
            let kept = keep(v);
            if !kept {
                members.remove(v.index());
            }
            kept
        });
    }

    /// Whether `v` is a filter.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.members.contains(v.index())
    }

    /// Number of filters.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Filters in insertion order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.order
    }

    /// The first `k` filters (by insertion order) as a new set.
    pub fn truncated(&self, k: usize) -> Self {
        Self::from_nodes(self.members.capacity(), self.order.iter().copied().take(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_is_preserved() {
        let mut s = FilterSet::empty(10);
        assert!(s.insert(NodeId::new(5)));
        assert!(s.insert(NodeId::new(2)));
        assert!(!s.insert(NodeId::new(5)), "duplicate rejected");
        assert_eq!(s.nodes(), &[NodeId::new(5), NodeId::new(2)]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(NodeId::new(2)));
        assert!(!s.contains(NodeId::new(3)));
    }

    #[test]
    fn remove_keeps_order_of_survivors() {
        let mut s = FilterSet::from_nodes(10, [NodeId::new(7), NodeId::new(1), NodeId::new(4)]);
        assert!(s.remove(NodeId::new(1)));
        assert!(!s.remove(NodeId::new(1)), "second remove reports absent");
        assert!(!s.remove(NodeId::new(9)), "never-inserted node is absent");
        assert_eq!(s.nodes(), &[NodeId::new(7), NodeId::new(4)]);
        assert!(!s.contains(NodeId::new(1)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn retain_drops_the_rejected_and_keeps_order() {
        let mut s = FilterSet::from_nodes(10, [7, 1, 4, 2].map(NodeId::new));
        s.retain(|v| v.index() != 1 && v.index() != 2);
        assert_eq!(s.nodes(), &[NodeId::new(7), NodeId::new(4)]);
        assert!(!s.contains(NodeId::new(1)) && !s.contains(NodeId::new(2)));
        assert!(s.insert(NodeId::new(1)), "a dropped filter can return");
    }

    #[test]
    fn all_and_truncated() {
        let s = FilterSet::all(4);
        assert_eq!(s.len(), 4);
        let t = s.truncated(2);
        assert_eq!(t.nodes(), &[NodeId::new(0), NodeId::new(1)]);
        assert_eq!(
            t.truncated(99).len(),
            2,
            "truncation beyond len is identity"
        );
    }

    #[test]
    fn from_nodes_dedups() {
        let s = FilterSet::from_nodes(5, [NodeId::new(1), NodeId::new(1), NodeId::new(3)]);
        assert_eq!(s.len(), 2);
    }
}
