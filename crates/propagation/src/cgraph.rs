//! [`CGraph`]: a frozen, topologically-ordered communication DAG.

use fp_graph::{topo_order, Csr, DiGraph, GraphError, NodeId};

/// A communication graph: an acyclic [`Csr`] with a designated item
/// source and a cached topological order.
///
/// All propagation passes and placement algorithms take a `&CGraph`;
/// freezing once amortizes the topological sort across the `k`
/// iterations of the greedy algorithms and across solver comparisons.
///
/// General (possibly cyclic) graphs must first pass through the Acyclic
/// extraction in `fp-algorithms` — exactly as the paper prescribes in
/// §4.3.
#[derive(Clone, Debug)]
pub struct CGraph {
    csr: Csr,
    source: NodeId,
    topo: Vec<NodeId>,
    /// `topo_pos[v.index()]` = position of `v` in `topo`; empty when
    /// `topo` is the identity order, where the position is the id.
    topo_pos: Vec<u32>,
}

impl CGraph {
    /// Freeze `g` with the given source.
    ///
    /// Fails if `g` is cyclic or `source` is out of range. The source
    /// is allowed to have incoming edges (they are simply never
    /// activated — the source emits its own item and relays nothing).
    pub fn new(g: &DiGraph, source: NodeId) -> Result<Self, GraphError> {
        Self::from_csr(Csr::from_digraph(g), source)
    }

    /// Freeze an already-built [`Csr`] with the given source, without
    /// round-tripping through a [`DiGraph`].
    ///
    /// This is the entry point for streamed builders (`fp-scale`'s
    /// `Csr32::into_csr`): the adjacency arrays are adopted as-is and
    /// only the topological order is computed here. Fails if the CSR is
    /// cyclic or `source` is out of range.
    ///
    /// Records a `cgraph.freeze` span whose `identity` arg is 1 when
    /// the label order was kept (see [`topo_order`]).
    pub fn from_csr(csr: Csr, source: NodeId) -> Result<Self, GraphError> {
        let n = csr.node_count();
        if source.index() >= n {
            return Err(GraphError::NodeOutOfRange {
                node: source,
                node_count: n,
            });
        }
        let span = fp_obs::span("cgraph.freeze");
        let topo = topo_order(&csr)?;
        let identity = topo.iter().enumerate().all(|(i, &v)| v.index() == i);
        let mut topo_pos = Vec::new();
        if !identity {
            topo_pos.resize(n, 0u32);
            for (i, &v) in topo.iter().enumerate() {
                topo_pos[v.index()] = i as u32;
            }
        }
        let _span = span
            .arg("nodes", n as i64)
            .arg("identity", i64::from(identity));
        Ok(Self {
            csr,
            source,
            topo,
            topo_pos,
        })
    }

    /// The frozen adjacency structure.
    #[inline]
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// The item source.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Nodes in topological order: the identity when every edge goes
    /// from a smaller id to a larger one, Kahn's FIFO layering
    /// otherwise (see [`topo_order`]).
    #[inline]
    pub fn topo(&self) -> &[NodeId] {
        &self.topo
    }

    /// Position of `v` in the topological order (its id when the
    /// order is the identity).
    #[inline]
    pub fn topo_position(&self, v: NodeId) -> usize {
        if self.topo_pos.is_empty() {
            v.index()
        } else {
            self.topo_pos[v.index()] as usize
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.csr.edge_count()
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.csr.nodes()
    }

    /// Add the edge `u → v`.
    ///
    /// Returns `Ok(reordered)`: `false` when the cached topological
    /// order already places `u` before `v` (the common case for stream
    /// workloads) and was kept, the edge spliced in place at amortised
    /// O(degree) ([`Csr::splice_edge`]); `true` when the order had to
    /// be rebuilt, which thaws and refreezes the whole graph.
    /// Fails — leaving the graph untouched — on out-of-range endpoints,
    /// self-loops, and insertions that would create a cycle.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        let n = self.node_count();
        for w in [u, v] {
            if w.index() >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: w,
                    node_count: n,
                });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if self.topo_position(u) < self.topo_position(v) {
            // The cached order already places u before v, which both
            // proves the insertion is acyclic and stays valid, so the
            // edge splices straight into the CSR — the hot path for
            // stream workloads.
            self.csr.splice_edge(u, v);
            return Ok(false);
        }
        // Backward in the cached order: rebuild through the thaw path,
        // which rejects the insert — leaving the graph untouched — if
        // it would create a cycle.
        let mut g = self.csr.to_digraph();
        g.try_add_edge(u, v)?;
        *self = Self::from_csr(Csr::from_digraph(&g), self.source)?;
        Ok(true)
    }

    /// Remove one occurrence of `u → v`; returns whether it existed.
    ///
    /// Removing an edge can never invalidate a topological order, so
    /// the cached order is always kept and the CSR is edited in place
    /// ([`Csr::unsplice_edge`]).
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.csr.unsplice_edge(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_caches_a_valid_topo_order() {
        let g = DiGraph::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        assert_eq!(cg.node_count(), 4);
        assert_eq!(cg.edge_count(), 4);
        assert_eq!(cg.source(), NodeId::new(0));
        assert!(fp_graph::is_topological_order(cg.csr(), cg.topo()));
        for (i, &v) in cg.topo().iter().enumerate() {
            assert_eq!(cg.topo_position(v), i);
        }
    }

    #[test]
    fn insert_edge_keeps_or_rebuilds_the_order() {
        let g = DiGraph::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let mut cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        // Forward in the cached order: kept.
        assert_eq!(cg.insert_edge(NodeId::new(1), NodeId::new(2)), Ok(false));
        assert!(fp_graph::is_topological_order(cg.csr(), cg.topo()));
        assert_eq!(cg.edge_count(), 5);
        // Backward in the cached order but still acyclic: rebuilt.
        let g2 = DiGraph::from_pairs(3, [(0, 2), (1, 2)]).unwrap();
        let mut cg2 = CGraph::new(&g2, NodeId::new(1)).unwrap();
        let reordered = cg2.insert_edge(NodeId::new(1), NodeId::new(0)).unwrap();
        assert!(reordered);
        assert!(fp_graph::is_topological_order(cg2.csr(), cg2.topo()));
        for (i, &v) in cg2.topo().iter().enumerate() {
            assert_eq!(cg2.topo_position(v), i);
        }
    }

    #[test]
    fn insert_edge_rejects_cycles_and_leaves_the_graph_alone() {
        let g = DiGraph::from_pairs(3, [(0, 1), (1, 2)]).unwrap();
        let mut cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        let before_edges: Vec<_> = cg.csr().edges().collect();
        let before_topo = cg.topo().to_vec();
        assert!(matches!(
            cg.insert_edge(NodeId::new(2), NodeId::new(0)),
            Err(GraphError::CycleDetected { .. })
        ));
        assert!(matches!(
            cg.insert_edge(NodeId::new(1), NodeId::new(1)),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            cg.insert_edge(NodeId::new(0), NodeId::new(9)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert_eq!(cg.csr().edges().collect::<Vec<_>>(), before_edges);
        assert_eq!(cg.topo(), &before_topo[..]);
    }

    #[test]
    fn remove_edge_keeps_the_order() {
        let g = DiGraph::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let mut cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        assert!(cg.remove_edge(NodeId::new(1), NodeId::new(3)));
        assert!(
            !cg.remove_edge(NodeId::new(1), NodeId::new(3)),
            "already gone"
        );
        assert_eq!(cg.edge_count(), 3);
        assert!(fp_graph::is_topological_order(cg.csr(), cg.topo()));
    }

    #[test]
    fn from_csr_matches_new() {
        let g = DiGraph::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let via_digraph = CGraph::new(&g, NodeId::new(0)).unwrap();
        let via_csr = CGraph::from_csr(Csr::from_digraph(&g), NodeId::new(0)).unwrap();
        assert_eq!(via_csr.topo(), via_digraph.topo());
        assert_eq!(via_csr.source(), via_digraph.source());
        for v in via_digraph.nodes() {
            assert_eq!(via_csr.topo_position(v), via_digraph.topo_position(v));
            assert_eq!(via_csr.csr().children(v), via_digraph.csr().children(v));
        }
        assert!(matches!(
            CGraph::from_csr(Csr::from_digraph(&g), NodeId::new(9)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_cycles() {
        let g = DiGraph::from_pairs(2, [(0, 1), (1, 0)]).unwrap();
        assert!(matches!(
            CGraph::new(&g, NodeId::new(0)),
            Err(GraphError::CycleDetected { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_source() {
        let g = DiGraph::with_nodes(2);
        assert!(matches!(
            CGraph::new(&g, NodeId::new(7)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }
}
