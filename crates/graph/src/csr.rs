//! [`Csr`]: a compressed-sparse-row graph snapshot.
//!
//! Every propagation pass (prefix, suffix, Φ evaluation) is a linear
//! sweep over nodes in topological order touching each edge once; CSR's
//! contiguous target arrays make those sweeps cache-friendly. Both
//! directions are materialized because the prefix pass walks parents and
//! the suffix pass walks children.
//!
//! A graph is built *tight*: node `u`'s list is
//! `items[offsets[u]..offsets[u + 1]]`, with no room between lists. Its
//! first edge edit ([`Csr::splice_edge`] / [`Csr::unsplice_edge`])
//! moves it to the *slot* layout: each node, in each direction, keeps a
//! start, an end and a capacity, so an edit touches one node's list
//! instead of shifting the arrays behind it. The bounds array then holds
//! the n starts followed by the n ends. A read takes `bounds[u]` and
//! `bounds[u + end_at]`, with `end_at` 1 tight and n in slots, so
//! neither layout branches on a read, and a tight read compiles to the
//! same two loads as plain offsets. (A stride, `bounds[u << shift]`,
//! would shift by a variable count on every read: on x86-64 that pins
//! a register, and it spilled the forward pass's bounds pointer.)

use crate::{DiGraph, NodeId};

/// Room a zero-degree node's first relocated slot gets.
const MIN_SLOT: usize = 4;

/// A `u32` offset into an adjacency array.
fn offset(i: usize) -> u32 {
    u32::try_from(i).expect("adjacency array exceeds u32 offsets")
}

/// One direction's adjacency lists: node `u`'s list is
/// `items[bounds[u]..bounds[u + end_at]]`.
#[derive(Clone, Debug)]
struct Adjacency {
    /// Tight: the `n + 1` prefix offsets. Slots: n starts, then n ends.
    bounds: Vec<u32>,
    items: Vec<NodeId>,
    /// Slots only: each node's capacity (empty while tight).
    caps: Vec<u32>,
}

impl Adjacency {
    #[inline]
    fn list(&self, u: usize, end_at: usize) -> &[NodeId] {
        &self.items[self.bounds[u] as usize..self.bounds[u + end_at] as usize]
    }

    /// Slots: node `u`'s `(start, end)` in `items`.
    fn slot(&self, u: usize) -> (usize, usize) {
        let n = self.caps.len();
        (self.bounds[u] as usize, self.bounds[n + u] as usize)
    }

    /// Re-describe tight offsets as slots that each hold exactly their
    /// list: O(n), and the item array stays as it is.
    fn enter_slots(&mut self) {
        let n = self.bounds.len() - 1;
        self.caps = self.bounds.windows(2).map(|w| w[1] - w[0]).collect();
        let mut bounds = Vec::with_capacity(2 * n);
        bounds.extend_from_slice(&self.bounds[..n]);
        bounds.extend_from_slice(&self.bounds[1..]);
        self.bounds = bounds;
    }

    /// Slots: append `x` to node `u`'s list. A full slot at the tail of
    /// the array grows in place; any other full slot moves to the tail
    /// with twice the room, leaving its old room dead.
    fn push(&mut self, u: usize, x: NodeId) {
        let n = self.caps.len();
        let (lo, hi) = self.slot(u);
        let cap = self.caps[u] as usize;
        if hi - lo == cap {
            let room = (2 * cap).max(MIN_SLOT);
            let start = if lo + cap == self.items.len() {
                lo
            } else {
                let start = self.items.len();
                self.items.extend_from_within(lo..hi);
                start
            };
            self.items.resize(start + room, NodeId::new(0));
            // Checked at the room's end, so every later push fits a u32.
            self.caps[u] = offset(start + room) - offset(start);
            self.bounds[u] = offset(start);
            self.bounds[n + u] = offset(start + cap);
        }
        let end = self.bounds[n + u];
        self.items[end as usize] = x;
        self.bounds[n + u] = end + 1;
    }

    /// Slots: remove the entry at `at` of node `u`'s list, shifting
    /// only the entries of that list behind it.
    fn remove(&mut self, u: usize, at: usize) {
        let (lo, hi) = self.slot(u);
        self.items.copy_within(lo + at + 1..hi, lo + at);
        self.bounds[self.caps.len() + u] = offset(hi - 1);
    }

    /// Slots: once dead room (entries outside every live list) exceeds
    /// both the `live` entries and the node count, rewrite the lists
    /// back to back in node order, each slot exactly full. A compaction
    /// costs O(n + live), so it waits for at least half that much dead
    /// room, which the edits since the last one paid for.
    fn compact_if_sparse(&mut self, live: usize) {
        let n = self.caps.len();
        if self.items.len() - live <= live.max(n) {
            return;
        }
        let mut items = Vec::with_capacity(live);
        for u in 0..n {
            let (lo, hi) = self.slot(u);
            self.bounds[u] = offset(items.len());
            items.extend_from_slice(&self.items[lo..hi]);
            self.bounds[n + u] = offset(items.len());
            self.caps[u] = offset(hi - lo);
        }
        self.items = items;
    }
}

/// A digraph in compressed-sparse-row form (both directions).
///
/// Reads are the whole point. The only writes are the edge splices
/// ([`Csr::splice_edge`] / [`Csr::unsplice_edge`]) that keep dynamic
/// graphs out of the thaw → mutate → refreeze slow path; the first one
/// moves the graph from the tight layout to the slot layout (module
/// docs), where an edit costs amortised O(degree). A graph that is
/// never edited keeps its tight arrays.
#[derive(Clone, Debug)]
pub struct Csr {
    out: Adjacency,
    inc: Adjacency,
    /// Distance from a node's start bound to its end bound: 1 tight,
    /// n in the slot layout.
    end_at: usize,
    nodes: usize,
    edges: usize,
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
            out_offsets.push(offset(out_targets.len()));
        }
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_sources = Vec::with_capacity(m);
        in_offsets.push(0);
        for v in g.nodes() {
            in_sources.extend_from_slice(g.in_neighbors(v));
            in_offsets.push(offset(in_sources.len()));
        }
        Self::tight(out_offsets, out_targets, in_offsets, in_sources)
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
        Self::tight(out_offsets, out_targets, in_offsets, in_sources)
    }

    /// Adopt tight arrays the caller has already shaped.
    fn tight(
        out_offsets: Vec<u32>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<u32>,
        in_sources: Vec<NodeId>,
    ) -> Self {
        let direction = |bounds, items| Adjacency {
            bounds,
            items,
            caps: Vec::new(),
        };
        Self {
            nodes: out_offsets.len() - 1,
            edges: out_targets.len(),
            out: direction(out_offsets, out_targets),
            inc: direction(in_offsets, in_sources),
            end_at: 1,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Out-neighbors (children) of `u`.
    #[inline]
    pub fn children(&self, u: NodeId) -> &[NodeId] {
        self.out.list(u.index(), self.end_at)
    }

    /// In-neighbors (parents) of `v`.
    #[inline]
    pub fn parents(&self, v: NodeId) -> &[NodeId] {
        self.inc.list(v.index(), self.end_at)
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
    /// it. Amortised O(deg(u) + deg(v)); the first edit of a graph also
    /// pays O(n) to enter the slot layout. The caller is responsible
    /// for endpoint validation and (for DAG consumers) acyclicity; this
    /// is pure storage maintenance.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn splice_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(u.index() < self.node_count(), "source out of range");
        assert!(v.index() < self.node_count(), "target out of range");
        self.enter_slots();
        self.out.push(u.index(), v);
        self.inc.push(v.index(), u);
        self.edges += 1;
        self.out.compact_if_sparse(self.edges);
        self.inc.compact_if_sparse(self.edges);
    }

    /// Remove the first occurrence of `u → v` from both adjacency
    /// arrays in place; returns whether the edge existed. Mirrors
    /// [`DiGraph::remove_edge`]'s order preservation, so unsplicing an
    /// edge that was just spliced restores the exact prior lists. Costs
    /// what [`Csr::splice_edge`] does.
    pub fn unsplice_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u.index() >= self.node_count() || v.index() >= self.node_count() {
            return false;
        }
        let Some(oi) = self.children(u).iter().position(|&t| t == v) else {
            return false;
        };
        let ii = self
            .parents(v)
            .iter()
            .position(|&s| s == u)
            .expect("in-adjacency mirrors out-adjacency");
        self.enter_slots();
        self.out.remove(u.index(), oi);
        self.inc.remove(v.index(), ii);
        self.edges -= 1;
        self.out.compact_if_sparse(self.edges);
        self.inc.compact_if_sparse(self.edges);
        true
    }

    fn enter_slots(&mut self) {
        if self.out.caps.is_empty() {
            self.out.enter_slots();
            self.inc.enter_slots();
            self.end_at = self.nodes;
        }
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

    /// Entries outside every live list, per direction, against the
    /// compaction bound `max(live, n)` (zero while tight).
    fn assert_dead_room_bounded(csr: &Csr) {
        for adj in [&csr.out, &csr.inc] {
            let dead = adj.items.len() - csr.edge_count();
            assert!(
                dead <= csr.edge_count().max(csr.node_count()),
                "dead room {dead} with {} live edges on {} nodes",
                csr.edge_count(),
                csr.node_count()
            );
        }
    }

    /// Every list equals the freshly frozen graph's, in order.
    fn assert_lists_match(csr: &Csr, g: &DiGraph) {
        let rebuilt = Csr::from_digraph(g);
        for u in g.nodes() {
            assert_eq!(csr.children(u), rebuilt.children(u), "children of {u}");
            assert_eq!(csr.parents(u), rebuilt.parents(u), "parents of {u}");
        }
        assert_eq!(csr.edge_count(), g.edge_count());
    }

    /// One edit on both representations, then the slot-layout checks.
    fn edit(csr: &mut Csr, g: &mut DiGraph, insert: bool, u: usize, v: usize) {
        let (u, v) = (NodeId::new(u), NodeId::new(v));
        if insert {
            g.add_edge(u, v);
            csr.splice_edge(u, v);
        } else {
            assert_eq!(csr.unsplice_edge(u, v), g.remove_edge(u, v));
        }
        assert_lists_match(csr, g);
        assert_dead_room_bounded(csr);
    }

    #[test]
    fn hammering_one_node_relocates_and_compacts() {
        // A path 0 → 1 → … → 39; node 0 then gains every later node as
        // a child and loses them again, six times over.
        let n = 40;
        let mut g = DiGraph::from_pairs(n, (1..n).map(|v| (v - 1, v))).unwrap();
        let mut csr = Csr::from_digraph(&g);
        let before = csr.clone();
        assert!(!csr.unsplice_edge(NodeId::new(0), NodeId::new(5)));
        assert!(csr.out.caps.is_empty(), "a graph stays tight until an edit");
        let (mut moves, mut compactions) = (0, 0);
        for _ in 0..6 {
            for insert in [true, false] {
                for v in 2..n {
                    let (start, len) = (csr.out.bounds[0], csr.out.items.len());
                    edit(&mut csr, &mut g, insert, 0, v);
                    moves += usize::from(csr.out.bounds[0] != start);
                    compactions += usize::from(csr.out.items.len() < len);
                }
            }
        }
        assert_eq!(csr.end_at, n, "an edited graph uses the slot layout");
        assert!(moves > compactions, "node 0's slot never moved");
        assert!(compactions > 0, "the arrays never compacted");
        for u in before.nodes() {
            assert_eq!(csr.children(u), before.children(u));
            assert_eq!(csr.parents(u), before.parents(u));
        }
    }

    proptest! {
        #[test]
        fn random_splices_match_digraph_mutations(
            edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
            ops in proptest::collection::vec(
                (any::<bool>(), 0usize..10, 0usize..12, 0usize..12),
                0..400,
            ),
        ) {
            let edges: Vec<(usize, usize)> = edges.into_iter().filter(|(u, v)| u != v).collect();
            let mut g = DiGraph::from_pairs(12, edges).unwrap();
            let mut csr = Csr::from_digraph(&g);
            for (insert, roll, u, v) in ops {
                // Seven ops in ten hit node 0's children or node 11's
                // parents, so slots relocate and the arrays compact.
                let (u, v) = match (roll < 7, u % 2) {
                    (false, _) => (u, v),
                    (true, 0) => (0, v),
                    (true, _) => (u, 11),
                };
                if u != v || !insert {
                    edit(&mut csr, &mut g, insert, u, v);
                }
            }
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
