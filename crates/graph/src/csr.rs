//! [`Csr`]: a frozen compressed-sparse-row graph snapshot.
//!
//! Every propagation pass (prefix, suffix, Φ evaluation) is a linear
//! sweep over nodes in topological order touching each edge once; CSR's
//! contiguous target arrays make those sweeps cache-friendly. Both
//! directions are materialized because the prefix pass walks parents and
//! the suffix pass walks children.

use crate::{DiGraph, NodeId};

/// A digraph in compressed-sparse-row form (both directions).
///
/// Reads are the whole point; the only writes are the edge splices
/// ([`Csr::splice_edge`] / [`Csr::unsplice_edge`]) that keep dynamic
/// graphs out of the thaw → mutate → refreeze slow path.
#[derive(Clone, Debug)]
pub struct Csr {
    out_offsets: Vec<u32>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<u32>,
    in_sources: Vec<NodeId>,
}

impl Csr {
    /// Freeze a [`DiGraph`].
    pub fn from_digraph(g: &DiGraph) -> Self {
        let n = g.node_count();
        let m = g.edge_count();
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_targets = Vec::with_capacity(m);
        out_offsets.push(0);
        for u in g.nodes() {
            out_targets.extend_from_slice(g.out_neighbors(u));
            out_offsets.push(out_targets.len() as u32);
        }
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_sources = Vec::with_capacity(m);
        in_offsets.push(0);
        for v in g.nodes() {
            in_sources.extend_from_slice(g.in_neighbors(v));
            in_offsets.push(in_sources.len() as u32);
        }
        Self {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    /// Assemble a snapshot directly from compressed-sparse-row arrays,
    /// skipping the [`DiGraph`] intermediary entirely. This is the entry
    /// point for streamed builders (`fp-scale`) that count degrees and
    /// fill targets in one or two passes without ever holding an edge
    /// list.
    ///
    /// The caller must supply a *consistent* pair of directions: the
    /// multiset of `(u, v)` edges described by the out-arrays must equal
    /// the one described by the in-arrays. Shape is validated here
    /// (offset monotonicity, lengths, target ranges, per-direction edge
    /// counts and per-node degree totals); exact mirror equality is the
    /// builder's contract, as checking it would cost a sort.
    ///
    /// # Panics
    /// Panics if the arrays are not a well-formed CSR pair.
    pub fn from_parts(
        out_offsets: Vec<u32>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<u32>,
        in_sources: Vec<NodeId>,
    ) -> Self {
        assert!(!out_offsets.is_empty(), "out offsets must hold n+1 entries");
        assert_eq!(
            out_offsets.len(),
            in_offsets.len(),
            "directions disagree on node count"
        );
        assert_eq!(out_offsets[0], 0, "out offsets must start at 0");
        assert_eq!(in_offsets[0], 0, "in offsets must start at 0");
        let n = out_offsets.len() - 1;
        for w in out_offsets.windows(2) {
            assert!(w[0] <= w[1], "out offsets must be non-decreasing");
        }
        for w in in_offsets.windows(2) {
            assert!(w[0] <= w[1], "in offsets must be non-decreasing");
        }
        assert_eq!(
            *out_offsets.last().unwrap() as usize,
            out_targets.len(),
            "out offsets must cover the target array"
        );
        assert_eq!(
            *in_offsets.last().unwrap() as usize,
            in_sources.len(),
            "in offsets must cover the source array"
        );
        assert_eq!(
            out_targets.len(),
            in_sources.len(),
            "directions disagree on edge count"
        );
        assert!(
            out_targets.iter().all(|v| v.index() < n),
            "out target out of range"
        );
        assert!(
            in_sources.iter().all(|u| u.index() < n),
            "in source out of range"
        );
        Self {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Out-neighbors (children) of `u`.
    #[inline]
    pub fn children(&self, u: NodeId) -> &[NodeId] {
        let (lo, hi) = (self.out_offsets[u.index()], self.out_offsets[u.index() + 1]);
        &self.out_targets[lo as usize..hi as usize]
    }

    /// In-neighbors (parents) of `v`.
    #[inline]
    pub fn parents(&self, v: NodeId) -> &[NodeId] {
        let (lo, hi) = (self.in_offsets[v.index()], self.in_offsets[v.index() + 1]);
        &self.in_sources[lo as usize..hi as usize]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.children(u).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.parents(v).len()
    }

    /// Whether `v` is a sink (no outgoing edges).
    #[inline]
    pub fn is_sink(&self, v: NodeId) -> bool {
        self.out_degree(v) == 0
    }

    /// Iterate over all edges as `(source, target)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.children(u).iter().map(move |&v| (u, v)))
    }

    /// Maximum of in- and out-degree over all nodes (the paper's Δ).
    pub fn max_degree(&self) -> usize {
        self.nodes()
            .map(|v| self.in_degree(v).max(self.out_degree(v)))
            .max()
            .unwrap_or(0)
    }

    /// Splice the edge `u → v` into both adjacency arrays in place,
    /// appending to `u`'s children and to `v`'s parents — exactly where
    /// a thaw → [`DiGraph::add_edge`] → refreeze round-trip would put
    /// it, but as two `memmove`s instead of a full rebuild. The caller
    /// is responsible for endpoint validation and (for DAG consumers)
    /// acyclicity; this is pure storage maintenance.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn splice_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(u.index() < self.node_count(), "source out of range");
        assert!(v.index() < self.node_count(), "target out of range");
        let at = self.out_offsets[u.index() + 1] as usize;
        self.out_targets.insert(at, v);
        for off in &mut self.out_offsets[u.index() + 1..] {
            *off += 1;
        }
        let at = self.in_offsets[v.index() + 1] as usize;
        self.in_sources.insert(at, u);
        for off in &mut self.in_offsets[v.index() + 1..] {
            *off += 1;
        }
    }

    /// Remove the first occurrence of `u → v` from both adjacency
    /// arrays in place; returns whether the edge existed. Mirrors
    /// [`DiGraph::remove_edge`]'s order preservation, so unsplicing an
    /// edge that was just spliced restores the exact prior arrays.
    pub fn unsplice_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u.index() >= self.node_count() || v.index() >= self.node_count() {
            return false;
        }
        let (lo, hi) = (
            self.out_offsets[u.index()] as usize,
            self.out_offsets[u.index() + 1] as usize,
        );
        let Some(oi) = self.out_targets[lo..hi].iter().position(|&t| t == v) else {
            return false;
        };
        self.out_targets.remove(lo + oi);
        for off in &mut self.out_offsets[u.index() + 1..] {
            *off -= 1;
        }
        let (lo, hi) = (
            self.in_offsets[v.index()] as usize,
            self.in_offsets[v.index() + 1] as usize,
        );
        let ii = self.in_sources[lo..hi]
            .iter()
            .position(|&s| s == u)
            .expect("in-adjacency mirrors out-adjacency");
        self.in_sources.remove(lo + ii);
        for off in &mut self.in_offsets[v.index() + 1..] {
            *off -= 1;
        }
        true
    }

    /// Thaw back into a mutable [`DiGraph`].
    pub fn to_digraph(&self) -> DiGraph {
        let mut g = DiGraph::with_nodes(self.node_count());
        for (u, v) in self.edges() {
            g.add_edge(u, v);
        }
        g
    }
}

impl From<&DiGraph> for Csr {
    fn from(g: &DiGraph) -> Self {
        Self::from_digraph(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diamond() -> DiGraph {
        DiGraph::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn freeze_preserves_structure() {
        let g = diamond();
        let csr = Csr::from_digraph(&g);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(
            csr.children(NodeId::new(0)),
            &[NodeId::new(1), NodeId::new(2)]
        );
        assert_eq!(
            csr.parents(NodeId::new(3)),
            &[NodeId::new(1), NodeId::new(2)]
        );
        assert_eq!(csr.in_degree(NodeId::new(3)), 2);
        assert_eq!(csr.out_degree(NodeId::new(3)), 0);
        assert!(csr.is_sink(NodeId::new(3)));
        assert!(!csr.is_sink(NodeId::new(0)));
        assert_eq!(csr.max_degree(), 2);
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_digraph(&DiGraph::new());
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.max_degree(), 0);
    }

    #[test]
    fn thaw_roundtrips() {
        let g = diamond();
        let back = Csr::from_digraph(&g).to_digraph();
        let mut e1: Vec<_> = g.edges().collect();
        let mut e2: Vec<_> = back.edges().collect();
        e1.sort_unstable();
        e2.sort_unstable();
        assert_eq!(e1, e2);
    }

    #[test]
    fn splice_matches_thaw_add_refreeze() {
        let g = diamond();
        let mut spliced = Csr::from_digraph(&g);
        spliced.splice_edge(NodeId::new(0), NodeId::new(3));
        let mut thawed = g.clone();
        thawed.add_edge(NodeId::new(0), NodeId::new(3));
        let rebuilt = Csr::from_digraph(&thawed);
        for u in rebuilt.nodes() {
            assert_eq!(spliced.children(u), rebuilt.children(u));
            assert_eq!(spliced.parents(u), rebuilt.parents(u));
        }
        assert_eq!(spliced.edge_count(), 5);
    }

    #[test]
    fn unsplice_undoes_splice_and_reports_absence() {
        let g = diamond();
        let before = Csr::from_digraph(&g);
        let mut csr = before.clone();
        assert!(!csr.unsplice_edge(NodeId::new(0), NodeId::new(3)), "absent");
        assert!(!csr.unsplice_edge(NodeId::new(0), NodeId::new(9)), "range");
        csr.splice_edge(NodeId::new(0), NodeId::new(3));
        assert!(csr.unsplice_edge(NodeId::new(0), NodeId::new(3)));
        for u in before.nodes() {
            assert_eq!(csr.children(u), before.children(u));
            assert_eq!(csr.parents(u), before.parents(u));
        }
        assert_eq!(csr.edge_count(), 4);
    }

    proptest! {
        #[test]
        fn random_splices_match_digraph_mutations(
            edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
            ops in proptest::collection::vec((any::<bool>(), 0usize..12, 0usize..12), 0..30),
        ) {
            let edges: Vec<(usize, usize)> = edges.into_iter().filter(|(u, v)| u != v).collect();
            let mut g = DiGraph::from_pairs(12, edges).unwrap();
            let mut csr = Csr::from_digraph(&g);
            for (insert, u, v) in ops {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                if insert {
                    if u != v {
                        g.add_edge(u, v);
                        csr.splice_edge(u, v);
                    }
                } else {
                    prop_assert_eq!(csr.unsplice_edge(u, v), g.remove_edge(u, v));
                }
            }
            let rebuilt = Csr::from_digraph(&g);
            for u in g.nodes() {
                prop_assert_eq!(csr.children(u), rebuilt.children(u));
                prop_assert_eq!(csr.parents(u), rebuilt.parents(u));
            }
            prop_assert_eq!(csr.edge_count(), g.edge_count());
        }

        #[test]
        fn csr_matches_digraph(
            edges in proptest::collection::vec((0usize..20, 0usize..20), 0..80)
        ) {
            let edges: Vec<(usize, usize)> = edges.into_iter().filter(|(u, v)| u != v).collect();
            let g = DiGraph::from_pairs(20, edges).unwrap();
            let csr = Csr::from_digraph(&g);
            prop_assert_eq!(csr.edge_count(), g.edge_count());
            for u in g.nodes() {
                prop_assert_eq!(csr.children(u), g.out_neighbors(u));
                prop_assert_eq!(csr.parents(u), g.in_neighbors(u));
            }
            let mut e1: Vec<_> = g.edges().collect();
            let mut e2: Vec<_> = csr.edges().collect();
            e1.sort_unstable();
            e2.sort_unstable();
            prop_assert_eq!(e1, e2);
        }
    }
}
