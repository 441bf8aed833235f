//! [`Csr32`]: a compact CSR built in one or two passes over an
//! [`EdgeStream`].
//!
//! Pass 1 counts per-node degrees (both directions), and the counts
//! become prefix-summed offset arrays. While the stream's targets never
//! decrease, pass 1 also records each edge's source: that record *is*
//! the in-list array, and the out-lists are its transpose (walk the
//! targets in ascending order and append each to its sources' lists).
//! A stream with a decreasing target drops the record and is replayed
//! once more, to fill both arrays with per-node write cursors. Either
//! way each node's adjacency lists hold neighbors in exactly the order
//! the stream emitted them — which is the same order
//! [`fp_graph::DiGraph::add_edge`] would have recorded, so the [`Csr`]
//! a stream builds is bit-identical to [`fp_graph::Csr::from_digraph`]
//! over the materialized equivalent. At no point does an intermediate
//! edge `Vec` exist.

use crate::budget::graph_estimate;
use crate::pass::{count_degrees, try_room, InSources, Ledger};
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
    /// Build from `stream`, accounting every allocation against
    /// `budget`, and record a `stream.build` span with the `nodes`,
    /// `edges` and `passes` args. A stream whose targets never decrease
    /// is read once (`passes` 1); any other is replayed once more
    /// (`passes` 2). Pass 1 picks the path from what it sees: no
    /// option selects it.
    ///
    /// On success the graph's resident bytes ([`Csr32::bytes`]) remain
    /// reserved — the caller owns releasing them when the graph is
    /// dropped. On error every byte this builder reserved (including
    /// pass-transient cursor arrays) has been released, so a failed
    /// build leaves the ledger exactly where it started. The ledger
    /// never peaks higher than a two-pass build of the same stream,
    /// and a source record the budget or the allocator refuses only
    /// sends the build down the two-pass path. A stream whose second
    /// pass disagrees with its first — or puts more edges on a node
    /// than the first pass counted — is [`ScaleError::NotReplayable`].
    /// Every per-node and per-edge array is allocated fallibly: one the
    /// process cannot get is [`ScaleError::AllocationFailed`], not an
    /// abort.
    pub fn from_stream<S>(stream: &mut S, budget: &MemBudget) -> Result<Self, ScaleError>
    where
        S: EdgeStream + ?Sized,
    {
        let span = fp_obs::span("stream.build");
        let mut ledger = Ledger::new(budget);

        // Pass 1: per-node degree counts in both directions, and each
        // edge's source while the targets never decrease.
        let (mut out_cnt, mut in_cnt) = (Vec::new(), Vec::new());
        let mut record = InSources::new();
        let first = count_degrees(
            stream,
            &mut ledger,
            &mut out_cnt,
            &mut in_cnt,
            Some(&mut record),
        )?;
        let recorded = record.finish(&mut ledger);
        let (n, m) = (first.nodes, first.edges as usize);
        let _span = span
            .arg("nodes", n as i64)
            .arg("edges", m as i64)
            .arg("passes", if recorded.is_some() { 1 } else { 2 });

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
        // The count arrays double as write cursors (reset where used),
        // so the transient footprint stays at one extra u32 per node
        // and direction; the transpose needs only the out-cursors.
        out_cnt.iter_mut().for_each(|c| *c = 0);
        let mut out_cursor = out_cnt;
        let mut in_cursor = in_cnt;
        let filled = |len: usize| {
            let mut adjacency = Vec::new();
            try_room(&mut adjacency, len)?;
            adjacency.resize(len, NodeId::new(0));
            Ok::<_, ScaleError>(adjacency)
        };

        let (out_targets, in_sources) = match recorded {
            // The record is the in-lists; the out-lists are their
            // transpose, each in its source's stream order.
            Some(in_sources) => {
                ledger.reserve(4 * m as u64)?;
                let mut out_targets = filled(m)?;
                for (v, w) in in_offsets.windows(2).enumerate() {
                    for &u in &in_sources[w[0] as usize..w[1] as usize] {
                        let u = u.index();
                        out_targets[(out_offsets[u] + out_cursor[u]) as usize] = NodeId::new(v);
                        out_cursor[u] += 1;
                    }
                }
                (out_targets, in_sources)
            }
            // Pass 2: replay and fill; no node may take more edges than
            // pass 1 counted.
            None => {
                in_cursor.iter_mut().for_each(|c| *c = 0);
                ledger.reserve(8 * m as u64)?;
                let mut out_targets = filled(m)?;
                let mut in_sources = filled(m)?;
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
                (out_targets, in_sources)
            }
        };
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
    use crate::stream::CHUNK;
    use crate::{EdgeSink, VecStream};
    use fp_graph::DiGraph;

    fn stream_of(edges: &[(u32, u32)], nodes: Option<u64>) -> VecStream {
        VecStream::new(edges.to_vec(), nodes)
    }

    /// A stream that counts its replays and, during its first, holds
    /// `hold` bytes of a budget it shares with the build, as another
    /// user of a process-wide budget would.
    struct Counted {
        edges: VecStream,
        replays: u32,
        hold: Option<(MemBudget, u64)>,
    }

    impl Counted {
        fn new(edges: &[(u32, u32)], nodes: Option<u64>) -> Self {
            Self {
                edges: stream_of(edges, nodes),
                replays: 0,
                hold: None,
            }
        }
    }

    impl EdgeStream for Counted {
        fn node_hint(&self) -> Option<u64> {
            self.edges.node_hint()
        }

        fn replay(&mut self, sink: &mut EdgeSink<'_>) -> Result<(), ScaleError> {
            self.replays += 1;
            let held = self.hold.as_ref().filter(|_| self.replays == 1);
            if let Some((budget, bytes)) = held {
                budget.reserve(*bytes)?;
            }
            let emitted = self.edges.replay(sink);
            if let Some((budget, bytes)) = held {
                budget.release(*bytes);
            }
            emitted
        }
    }

    /// `csr` holds exactly the graph of `edges` added in order.
    fn assert_matches_digraph(csr: &Csr, edges: &[(u32, u32)]) {
        let n = edges.iter().map(|&(u, v)| u.max(v) as usize + 1).max();
        let pairs = edges.iter().map(|&(u, v)| (u as usize, v as usize));
        let g = DiGraph::from_pairs(n.unwrap_or(0).max(csr.node_count()), pairs).unwrap();
        let reference = Csr::from_digraph(&g);
        assert_eq!(csr.node_count(), reference.node_count());
        assert_eq!(csr.edge_count(), reference.edge_count());
        for u in reference.nodes() {
            assert_eq!(csr.children(u), reference.children(u), "children of {u}");
            assert_eq!(csr.parents(u), reference.parents(u), "parents of {u}");
        }
    }

    /// `m` edges whose targets never decrease, three per target, over
    /// 997 sources.
    fn target_ordered(m: u32) -> Vec<(u32, u32)> {
        (0..m).map(|i| (i % 997, 997 + i / 3)).collect()
    }

    /// The ledger peak of a two-pass build: both degree arrays, both
    /// offset arrays and both adjacency arrays at once.
    fn two_pass_peak(n: u64, m: u64) -> u64 {
        16 * n + 8 * m + 8
    }

    #[test]
    fn a_target_ordered_stream_is_read_once_and_any_other_twice() {
        let ordered = [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3), (0, 3)];
        let unordered = [(0, 1), (0, 2), (2, 3), (1, 2), (1, 3), (0, 3)];
        for (edges, replays) in [(&ordered, 1), (&unordered, 2)] {
            let budget = MemBudget::unlimited();
            let mut stream = Counted::new(edges, None);
            let csr32 = Csr32::from_stream(&mut stream, &budget).unwrap();
            assert_eq!(stream.replays, replays, "{edges:?}");
            assert_matches_digraph(&csr32, edges);
            assert_eq!(budget.live(), csr32.bytes());
            assert_eq!(budget.peak(), two_pass_peak(4, 6), "{edges:?}");
        }
    }

    #[test]
    fn a_decreasing_target_in_the_last_chunk_falls_back_to_two_passes() {
        let mut edges = target_ordered(2 * CHUNK as u32 + 5);
        *edges.last_mut().unwrap() = (5, 997);
        let budget = MemBudget::unlimited();
        let mut stream = Counted::new(&edges, None);
        let csr32 = Csr32::from_stream(&mut stream, &budget).unwrap();
        assert_eq!(stream.replays, 2);
        assert_matches_digraph(&csr32, &edges);
        assert_eq!(budget.live(), csr32.bytes(), "the record's bytes went back");
    }

    #[test]
    fn a_cap_that_trips_while_the_record_grows_fails_cleanly_or_falls_back() {
        let edges = target_ordered(2 * CHUNK as u32 + 5);
        // Nodes seen after the first `m` edges (no hint).
        let nodes = |m: u64| 997 + (m - 1) / 3 + 1;
        let (n, m) = (nodes(edges.len() as u64), edges.len() as u64);
        let peak = two_pass_peak(n, m);
        // On either side of the ledger level each of the record's three
        // blocks reaches, of the copy into one array, and of the
        // two-pass peak, then spread in between.
        let mut caps = vec![0];
        for recorded in [CHUNK as u64, 2 * CHUNK as u64, m] {
            caps.push(8 * nodes(recorded) + 4 * recorded);
        }
        caps.extend([8 * n + 8 * m, peak]);
        caps = caps
            .into_iter()
            .flat_map(|c| [c.saturating_sub(1), c])
            .collect();
        caps.extend((1..8).map(|i| peak / 8 * i));
        for cap in caps {
            let budget = MemBudget::new(Some(cap));
            let mut stream = Counted::new(&edges, None);
            match Csr32::from_stream(&mut stream, &budget) {
                Ok(csr32) => {
                    assert!(cap >= peak, "cap {cap} is below the two-pass peak {peak}");
                    assert_matches_digraph(&csr32, &edges);
                    assert_eq!(budget.live(), csr32.bytes());
                }
                Err(e) => {
                    assert!(cap < peak, "cap {cap} covers the two-pass peak {peak}: {e}");
                    assert!(matches!(e, ScaleError::BudgetExceeded { .. }), "{e}");
                    assert_eq!(budget.live(), 0, "cap {cap}");
                }
            }
        }

        // With another user holding most of the budget during pass 1,
        // the record's first growth is refused, and the build replays.
        let n = 997 + (2 * CHUNK as u64 - 1) / 3 + 1;
        let edges = target_ordered(2 * CHUNK as u32);
        let peak = two_pass_peak(n, edges.len() as u64);
        let budget = MemBudget::new(Some(peak));
        let mut stream = Counted::new(&edges, Some(n));
        stream.hold = Some((budget.clone(), peak - 8 * n - 4 * CHUNK as u64 + 1));
        let csr32 = Csr32::from_stream(&mut stream, &budget).unwrap();
        assert_eq!(stream.replays, 2);
        assert_matches_digraph(&csr32, &edges);
        assert_eq!(budget.live(), csr32.bytes());

        // Without a hint, a degree array that must grow while the
        // record holds bytes drops the record instead of failing.
        let mut edges = target_ordered(2 * CHUNK as u32);
        let top = 997 + 3 * CHUNK as u32;
        *edges.last_mut().unwrap() = (0, top);
        let n = u64::from(top) + 1;
        let peak = two_pass_peak(n, edges.len() as u64);
        let budget = MemBudget::new(Some(peak));
        let mut stream = Counted::new(&edges, None);
        stream.hold = Some((budget.clone(), peak - 8 * n));
        let csr32 = Csr32::from_stream(&mut stream, &budget).unwrap();
        assert_eq!(stream.replays, 2);
        assert_matches_digraph(&csr32, &edges);
        assert_eq!(budget.live(), csr32.bytes());
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
