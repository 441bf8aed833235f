//! [`Csr32`]: a compact CSR built in two passes over an [`EdgeStream`].
//!
//! Pass 1 counts per-node degrees (both directions); the counts become
//! prefix-summed offset arrays; pass 2 replays the stream and fills the
//! adjacency arrays with per-node write cursors. Filling in stream
//! order means each node's adjacency lists hold neighbors in exactly
//! the order the stream emitted them — which is the same order
//! [`fp_graph::DiGraph::add_edge`] would have recorded, so the [`Csr`]
//! a stream builds is bit-identical to [`fp_graph::Csr::from_digraph`]
//! over the materialized equivalent. At no point does an intermediate
//! edge `Vec` exist.

use crate::budget::graph_estimate;
use crate::pass::{count_degrees, try_room, Ledger};
use crate::{EdgeStream, MemBudget, ScaleError};
use fp_graph::{Csr, NodeId};

/// A [`Csr`] built from a stream under a [`MemBudget`]: the workspace's
/// one CSR type (`u32` offsets and `u32`-backed ids, 4 bytes per entry)
/// plus the ledger view of its bytes. It dereferences to the [`Csr`].
#[derive(Clone, Debug)]
pub struct Csr32 {
    csr: Csr,
}

impl std::ops::Deref for Csr32 {
    type Target = Csr;

    fn deref(&self) -> &Csr {
        &self.csr
    }
}

impl Csr32 {
    /// Build from `stream` in two passes, accounting every allocation
    /// against `budget`, and record a `stream.build` span with the
    /// `nodes` and `edges` args.
    ///
    /// On success the graph's resident bytes ([`Csr32::bytes`]) remain
    /// reserved — the caller owns releasing them when the graph is
    /// dropped. On error every byte this builder reserved (including
    /// pass-transient cursor arrays) has been released, so a failed
    /// build leaves the ledger exactly where it started. A stream whose
    /// second pass disagrees with its first — or puts more edges on a
    /// node than the first pass counted — is
    /// [`ScaleError::NotReplayable`]. Every per-node and per-edge array
    /// is allocated fallibly: one the process cannot get is
    /// [`ScaleError::AllocationFailed`], not an abort.
    pub fn from_stream<S>(stream: &mut S, budget: &MemBudget) -> Result<Self, ScaleError>
    where
        S: EdgeStream + ?Sized,
    {
        let span = fp_obs::span("stream.build");
        let mut ledger = Ledger::new(budget);

        // Pass 1: per-node degree counts in both directions.
        let (mut out_cnt, mut in_cnt) = (Vec::new(), Vec::new());
        let first = count_degrees(stream, &mut ledger, &mut out_cnt, &mut in_cnt)?;
        let (n, m) = (first.nodes, first.edges as usize);
        let _span = span.arg("nodes", n as i64).arg("edges", m as i64);

        // Prefix sums: counts become the `n + 1` offset arrays.
        ledger.reserve(8 * (n as u64 + 1))?;
        let prefix = |cnt: &[u32]| {
            let mut offsets = Vec::new();
            try_room(&mut offsets, cnt.len() + 1)?;
            let mut total = 0u32;
            offsets.push(0);
            for &c in cnt {
                total += c;
                offsets.push(total);
            }
            Ok::<_, ScaleError>(offsets)
        };
        let out_offsets = prefix(&out_cnt)?;
        let in_offsets = prefix(&in_cnt)?;
        // The count arrays double as pass-2 write cursors (reset them),
        // so the transient footprint stays at one extra u32 per node
        // and direction.
        out_cnt.iter_mut().for_each(|c| *c = 0);
        in_cnt.iter_mut().for_each(|c| *c = 0);
        let mut out_cursor = out_cnt;
        let mut in_cursor = in_cnt;

        // Pass 2: replay and fill; no node may take more edges than
        // pass 1 counted.
        ledger.reserve(8 * m as u64)?;
        let (mut out_targets, mut in_sources) = (Vec::new(), Vec::new());
        try_room(&mut out_targets, m)?;
        try_room(&mut in_sources, m)?;
        out_targets.resize(m, NodeId::new(0));
        in_sources.resize(m, NodeId::new(0));
        first.replay(stream, 2, |u, v| {
            let uo = out_offsets[u] + out_cursor[u];
            let vi = in_offsets[v] + in_cursor[v];
            if uo == out_offsets[u + 1] || vi == in_offsets[v + 1] {
                return false;
            }
            out_targets[uo as usize] = NodeId::new(v);
            in_sources[vi as usize] = NodeId::new(u);
            out_cursor[u] += 1;
            in_cursor[v] += 1;
            true
        })?;
        drop(out_cursor);
        drop(in_cursor);
        ledger.release(8 * n as u64);

        debug_assert_eq!(ledger.reserved, graph_estimate(n as u64, m as u64));
        ledger.commit();
        Ok(Self {
            csr: Csr::from_parts(out_offsets, out_targets, in_offsets, in_sources),
        })
    }

    /// Resident bytes of the CSR's four arrays (what a successful
    /// [`Csr32::from_stream`] leaves reserved).
    pub fn bytes(&self) -> u64 {
        graph_estimate(self.node_count() as u64, self.edge_count() as u64)
    }

    /// The built [`Csr`], moved out without copying.
    pub fn into_csr(self) -> Csr {
        self.csr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecStream;
    use fp_graph::DiGraph;

    fn stream_of(edges: &[(u32, u32)], nodes: Option<u64>) -> VecStream {
        VecStream::new(edges.to_vec(), nodes)
    }

    #[test]
    fn matches_from_digraph_exactly() {
        let edges = [(0, 1), (0, 2), (2, 1), (1, 3), (2, 3), (0, 3)];
        let budget = MemBudget::unlimited();
        let csr32 = Csr32::from_stream(&mut stream_of(&edges, None), &budget).unwrap();
        let g =
            DiGraph::from_pairs(4, edges.iter().map(|&(u, v)| (u as usize, v as usize))).unwrap();
        let reference = Csr::from_digraph(&g);
        assert_eq!(csr32.node_count(), reference.node_count());
        assert_eq!(csr32.edge_count(), reference.edge_count());
        for u in reference.nodes() {
            assert_eq!(csr32.children(u), reference.children(u));
            assert_eq!(csr32.parents(u), reference.parents(u));
        }
        let frozen = csr32.into_csr();
        for u in reference.nodes() {
            assert_eq!(frozen.children(u), reference.children(u));
            assert_eq!(frozen.parents(u), reference.parents(u));
        }
    }

    #[test]
    fn node_hint_covers_isolated_tail_nodes() {
        let budget = MemBudget::unlimited();
        let csr32 = Csr32::from_stream(&mut stream_of(&[(0, 1)], Some(5)), &budget).unwrap();
        assert_eq!(csr32.node_count(), 5);
        assert_eq!(csr32.edge_count(), 1);
        assert!(csr32.children(NodeId::new(4)).is_empty());
    }

    #[test]
    fn empty_stream_builds_an_empty_graph() {
        let budget = MemBudget::unlimited();
        let csr32 = Csr32::from_stream(&mut stream_of(&[], None), &budget).unwrap();
        assert_eq!(csr32.node_count(), 0);
        assert_eq!(csr32.edge_count(), 0);
        assert_eq!(budget.live(), csr32.bytes());
    }

    #[test]
    fn accounts_resident_bytes_and_releases_on_error() {
        let edges = [(0, 1), (1, 2), (2, 3)];
        let budget = MemBudget::unlimited();
        let csr32 = Csr32::from_stream(&mut stream_of(&edges, None), &budget).unwrap();
        assert_eq!(budget.live(), csr32.bytes());
        assert_eq!(csr32.bytes(), graph_estimate(4, 3));
        assert!(budget.peak() > csr32.bytes(), "cursors count transiently");
        budget.release(csr32.bytes());

        // A cap below the transient footprint fails the build cleanly.
        let tight = MemBudget::new(Some(graph_estimate(4, 3)));
        let err = Csr32::from_stream(&mut stream_of(&edges, None), &tight).unwrap_err();
        assert!(matches!(err, ScaleError::BudgetExceeded { .. }));
        assert_eq!(tight.live(), 0, "failed build releases everything");
    }

    #[test]
    fn budget_cap_gates_the_degree_pass() {
        let edges: Vec<(u32, u32)> = (0..100).map(|i| (i, i + 1)).collect();
        let budget = MemBudget::new(Some(64));
        let err = Csr32::from_stream(&mut stream_of(&edges, None), &budget).unwrap_err();
        assert!(matches!(err, ScaleError::BudgetExceeded { .. }));
        assert_eq!(budget.live(), 0);
    }

    #[test]
    fn oversized_node_hint_is_rejected() {
        let budget = MemBudget::unlimited();
        let hint = u64::from(u32::MAX) + 2;
        let err = Csr32::from_stream(&mut VecStream::new(vec![], Some(hint)), &budget).unwrap_err();
        assert_eq!(err, ScaleError::NodeOverflow { nodes: hint });
        assert_eq!(budget.live(), 0);
    }
}
