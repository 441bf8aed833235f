//! The passes of a multi-pass consumer ([`crate::Csr32::from_stream`],
//! [`crate::stream_stats`]): pass 1 counts per-node degrees and
//! fingerprints the edge sequence, and every later pass must replay
//! that sequence exactly. Pass 1 can also record each edge's source
//! for as long as the stream's targets never decrease
//! ([`InSources`]), which makes a later pass unnecessary.

use crate::{for_each_chunk, EdgeStream, MemBudget, ScaleError};
use fp_graph::NodeId;

/// Scoped budget bookkeeping: releases everything it still holds when
/// dropped uncommitted (every early error return), keeps the committed
/// remainder on success.
pub(crate) struct Ledger<'a> {
    budget: &'a MemBudget,
    pub(crate) reserved: u64,
    committed: bool,
}

impl<'a> Ledger<'a> {
    pub(crate) fn new(budget: &'a MemBudget) -> Self {
        Self {
            budget,
            reserved: 0,
            committed: false,
        }
    }

    pub(crate) fn reserve(&mut self, bytes: u64) -> Result<(), ScaleError> {
        self.budget.reserve(bytes)?;
        self.reserved += bytes;
        Ok(())
    }

    pub(crate) fn release(&mut self, bytes: u64) {
        assert!(bytes <= self.reserved, "ledger under-reserved");
        self.budget.release(bytes);
        self.reserved -= bytes;
    }

    pub(crate) fn commit(mut self) {
        self.committed = true;
    }
}

impl Drop for Ledger<'_> {
    fn drop(&mut self) {
        if !self.committed && self.reserved > 0 {
            self.budget.release(self.reserved);
        }
    }
}

/// Make room for `room` entries in `v` through `try_reserve_exact`, so
/// that an allocation the process cannot get is
/// [`ScaleError::AllocationFailed`], not an abort.
pub(crate) fn try_room<T>(v: &mut Vec<T>, room: usize) -> Result<(), ScaleError> {
    v.try_reserve_exact(room.saturating_sub(v.len()))
        .map_err(|_| ScaleError::AllocationFailed {
            bytes: (room as u64).saturating_mul(std::mem::size_of::<T>() as u64),
        })
}

/// What pass 1 saw: the node count (largest id seen plus one, or the
/// stream's hint if larger) and the edge sequence's length and
/// fingerprint.
pub(crate) struct FirstPass {
    pub(crate) nodes: usize,
    pub(crate) edges: u64,
    hash: u64,
}

/// Fold one edge into an order-sensitive sequence fingerprint.
#[inline]
fn mix(hash: u64, u: u32, v: u32) -> u64 {
    (hash ^ (u64::from(u) << 32 | u64::from(v))).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Pass 1's record of each edge's source, kept while the stream's
/// targets never decrease. A record that survives the pass lists each
/// node's in-edges together, nodes in ascending order and each list in
/// stream order: the in-lists a fill pass would write, in the order it
/// would write them.
///
/// It is kept as one exact block per chunk, each reserved on the ledger
/// before it is allocated, and copied into one array at the end of the
/// pass. (A doubling array read 4 % higher on the 10^6-node build's
/// peak RSS than blocks and a copy.) A decreasing target, a refused
/// reservation or a refused allocation drops the record and hands its
/// bytes back; so does a degree array that cannot grow while the record
/// holds bytes, so the record never makes pass 1 fail.
pub(crate) struct InSources {
    blocks: Option<Vec<Vec<NodeId>>>,
    last_target: u32,
    reserved: u64,
}

impl InSources {
    pub(crate) fn new() -> Self {
        Self {
            blocks: Some(Vec::new()),
            last_target: 0,
            reserved: 0,
        }
    }

    /// Append `chunk`'s sources as a block, or drop the record if a
    /// target in `chunk` decreases or the block cannot be had.
    fn record(&mut self, chunk: &[(u32, u32)], ledger: &mut Ledger<'_>) {
        let Some(blocks) = self.blocks.as_mut() else {
            return;
        };
        let ascending = chunk
            .iter()
            .try_fold(self.last_target, |last, &(_, v)| (v >= last).then_some(v));
        let Some(last_target) = ascending else {
            self.abandon(ledger);
            return;
        };
        self.last_target = last_target;
        let bytes = 4 * chunk.len() as u64;
        if ledger.reserve(bytes).is_err() {
            self.abandon(ledger);
            return;
        }
        self.reserved += bytes;
        let mut block = Vec::new();
        if try_room(&mut block, chunk.len()).is_err() || blocks.try_reserve(1).is_err() {
            self.abandon(ledger);
            return;
        }
        block.extend(chunk.iter().map(|&(u, _)| NodeId::new(u as usize)));
        blocks.push(block);
    }

    /// Drop the record and release its ledger bytes; `true` if it held
    /// any.
    fn abandon(&mut self, ledger: &mut Ledger<'_>) -> bool {
        self.blocks = None;
        ledger.release(self.reserved);
        std::mem::take(&mut self.reserved) > 0
    }

    /// The recorded in-lists as one array, with exactly its bytes left
    /// reserved; `None` if the record was dropped or the array cannot
    /// be had. The array is reserved beside the blocks it copies, a
    /// ledger peak of 8 bytes an edge: less than a fill pass holds.
    pub(crate) fn finish(mut self, ledger: &mut Ledger<'_>) -> Option<Vec<NodeId>> {
        let blocks = self.blocks.take()?;
        let bytes = self.reserved;
        let mut sources = Vec::new();
        let room = ledger.reserve(bytes).and_then(|()| {
            try_room(&mut sources, (bytes / 4) as usize).inspect_err(|_| ledger.release(bytes))
        });
        if room.is_ok() {
            for block in blocks {
                sources.extend_from_slice(&block);
            }
        }
        ledger.release(bytes);
        room.ok().map(|()| sources)
    }
}

/// Grow both degree arrays to `top` entries, 8 bytes a node reserved on
/// `ledger` (and released again if the allocation is refused).
fn grow_degrees(
    ledger: &mut Ledger<'_>,
    out_deg: &mut Vec<u32>,
    in_deg: &mut Vec<u32>,
    top: usize,
) -> Result<(), ScaleError> {
    let bytes = 8 * (top - out_deg.len()) as u64;
    ledger.reserve(bytes)?;
    // Room for at least twice the old length, as `resize` would grow,
    // keeps a stream of ascending ids linear.
    let room = top.max(2 * out_deg.len());
    if let Err(e) = try_room(out_deg, room).and_then(|()| try_room(in_deg, room)) {
        ledger.release(bytes);
        return Err(e);
    }
    out_deg.resize(top, 0);
    in_deg.resize(top, 0);
    Ok(())
}

/// Pass 1: count each node's out- and in-degree into `out_deg` and
/// `in_deg`, grown to the stream's hint and then to the largest id
/// seen, 8 bytes a node reserved on `ledger`. Both arrays grow through
/// [`try_room`]. With `sources`, also record each edge's source while
/// the targets never decrease.
pub(crate) fn count_degrees<S>(
    stream: &mut S,
    ledger: &mut Ledger<'_>,
    out_deg: &mut Vec<u32>,
    in_deg: &mut Vec<u32>,
    mut sources: Option<&mut InSources>,
) -> Result<FirstPass, ScaleError>
where
    S: EdgeStream + ?Sized,
{
    if let Some(hint) = stream.node_hint() {
        if hint > u64::from(u32::MAX) + 1 {
            return Err(ScaleError::NodeOverflow { nodes: hint });
        }
        grow_degrees(ledger, out_deg, in_deg, hint as usize)?;
    }
    let (mut edges, mut hash) = (0u64, 0u64);
    for_each_chunk(stream, |chunk| {
        edges += chunk.len() as u64;
        if edges > u64::from(u32::MAX) {
            return Err(ScaleError::EdgeOverflow { edges });
        }
        for &(u, v) in chunk {
            let top = u.max(v) as usize + 1;
            if top > out_deg.len() {
                if let Err(e) = grow_degrees(ledger, out_deg, in_deg, top) {
                    // The record is optional; the degrees are not.
                    if !sources.as_deref_mut().is_some_and(|r| r.abandon(ledger)) {
                        return Err(e);
                    }
                    grow_degrees(ledger, out_deg, in_deg, top)?;
                }
            }
            out_deg[u as usize] += 1;
            in_deg[v as usize] += 1;
            hash = mix(hash, u, v);
        }
        if let Some(record) = sources.as_deref_mut() {
            record.record(chunk, ledger);
        }
        Ok(())
    })?;
    Ok(FirstPass {
        nodes: out_deg.len(),
        edges,
        hash,
    })
}

impl FirstPass {
    /// Replay `stream` as pass number `pass`, handing `f` every edge as
    /// a pair of indices; `f` returns `false` for an edge pass 1 cannot
    /// account for. The pass must emit pass 1's sequence — its length,
    /// ids below [`FirstPass::nodes`], no veto from `f`, its
    /// fingerprint — or it fails with [`ScaleError::NotReplayable`].
    /// `f` never sees an id out of range or an edge past pass 1's count.
    pub(crate) fn replay<S>(
        &self,
        stream: &mut S,
        pass: u32,
        mut f: impl FnMut(usize, usize) -> bool,
    ) -> Result<(), ScaleError>
    where
        S: EdgeStream + ?Sized,
    {
        let diverged = |emitted| ScaleError::NotReplayable {
            pass,
            first: self.edges,
            emitted,
        };
        let (mut emitted, mut hash) = (0u64, 0u64);
        for_each_chunk(stream, |chunk| {
            for &(u, v) in chunk {
                emitted += 1;
                hash = mix(hash, u, v);
                let (u, v) = (u as usize, v as usize);
                if emitted > self.edges || u >= self.nodes || v >= self.nodes || !f(u, v) {
                    return Err(diverged(emitted));
                }
            }
            Ok(())
        })?;
        if emitted != self.edges || hash != self.hash {
            return Err(diverged(emitted));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{stream_stats, Csr32, EdgeSink, EdgeStream, MemBudget, ScaleError};
    use fp_graph::{Csr, DiGraph};

    /// Emits `first` on its first replay and `later` on every other.
    struct Drifting {
        first: Vec<(u32, u32)>,
        later: Vec<(u32, u32)>,
        replays: u32,
    }

    impl EdgeStream for Drifting {
        fn replay(&mut self, sink: &mut EdgeSink<'_>) -> Result<(), ScaleError> {
            self.replays += 1;
            let edges = if self.replays == 1 {
                &self.first
            } else {
                &self.later
            };
            edges.iter().try_for_each(|&(u, v)| sink.emit(u, v))
        }
    }

    #[test]
    fn an_array_the_allocator_refuses_is_a_typed_error() {
        let mut counts: Vec<u64> = Vec::new();
        assert_eq!(
            super::try_room(&mut counts, usize::MAX),
            Err(ScaleError::AllocationFailed { bytes: u64::MAX })
        );
        assert!(counts.is_empty());
    }

    #[test]
    fn a_second_pass_that_disagrees_is_a_typed_error() {
        let first = vec![(0, 1), (1, 2), (2, 3)];
        // The CSR build replays only a stream whose targets decrease
        // somewhere, so its half starts from the same edges with one
        // decreasing target (3, then 2).
        let unordered = vec![(0, 1), (2, 3), (1, 2)];
        for (case, later, later_unordered, emitted) in [
            ("fewer edges", vec![(0, 1), (1, 2)], vec![(0, 1), (2, 3)], 2),
            (
                "more edges",
                vec![(0, 1), (1, 2), (2, 3), (0, 2)],
                vec![(0, 1), (2, 3), (1, 2), (0, 2)],
                4,
            ),
            (
                "an id past the node count",
                vec![(0, 1), (1, 9), (2, 3)],
                vec![(0, 1), (2, 9), (1, 2)],
                2,
            ),
            (
                "a moved endpoint",
                vec![(0, 1), (1, 2), (1, 3)],
                vec![(0, 1), (2, 3), (1, 3)],
                3,
            ),
            (
                "the same edges reordered",
                vec![(1, 2), (0, 1), (2, 3)],
                vec![(2, 3), (0, 1), (1, 2)],
                3,
            ),
        ] {
            let expected = ScaleError::NotReplayable {
                pass: 2,
                first: 3,
                emitted,
            };
            let drifting = |first: &Vec<(u32, u32)>, later: &Vec<(u32, u32)>| Drifting {
                first: first.clone(),
                later: later.clone(),
                replays: 0,
            };
            let budget = MemBudget::unlimited();
            let stats = stream_stats(&mut drifting(&first, &later), &budget);
            assert_eq!(stats, Err(expected.clone()), "stats, {case}");
            assert_eq!(budget.live(), 0, "stats, {case}");
            let built = Csr32::from_stream(&mut drifting(&unordered, &later_unordered), &budget);
            assert_eq!(built.unwrap_err(), expected, "csr, {case}");
            assert_eq!(budget.live(), 0, "csr, {case}");
        }

        // A target-ordered first pass is the build's only pass: the
        // disagreeing replay never runs, and the CSR is the first's.
        let mut drifting = Drifting {
            first: first.clone(),
            later: vec![(0, 1)],
            replays: 0,
        };
        let budget = MemBudget::unlimited();
        let built = Csr32::from_stream(&mut drifting, &budget).unwrap();
        assert_eq!(drifting.replays, 1);
        let pairs = first.iter().map(|&(u, v)| (u as usize, v as usize));
        let reference = Csr::from_digraph(&DiGraph::from_pairs(4, pairs).unwrap());
        assert_eq!(built.edge_count(), reference.edge_count());
        for v in reference.nodes() {
            assert_eq!(built.children(v), reference.children(v));
            assert_eq!(built.parents(v), reference.parents(v));
        }
        assert_eq!(budget.live(), built.bytes());
    }
}
