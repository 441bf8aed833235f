//! The passes of a multi-pass consumer ([`crate::Csr32::from_stream`],
//! [`crate::stream_stats`]): pass 1 counts per-node degrees and
//! fingerprints the edge sequence, and every later pass must replay
//! that sequence exactly.

use crate::{for_each_chunk, EdgeStream, MemBudget, ScaleError};

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

/// Pass 1: count each node's out- and in-degree into `out_deg` and
/// `in_deg`, grown to the stream's hint and then to the largest id
/// seen, 8 bytes a node reserved on `ledger`. Both arrays grow through
/// [`try_room`].
pub(crate) fn count_degrees<S>(
    stream: &mut S,
    ledger: &mut Ledger<'_>,
    out_deg: &mut Vec<u32>,
    in_deg: &mut Vec<u32>,
) -> Result<FirstPass, ScaleError>
where
    S: EdgeStream + ?Sized,
{
    if let Some(hint) = stream.node_hint() {
        if hint > u64::from(u32::MAX) + 1 {
            return Err(ScaleError::NodeOverflow { nodes: hint });
        }
        ledger.reserve(8 * hint)?;
        try_room(out_deg, hint as usize)?;
        try_room(in_deg, hint as usize)?;
        out_deg.resize(hint as usize, 0);
        in_deg.resize(hint as usize, 0);
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
                ledger.reserve(8 * (top - out_deg.len()) as u64)?;
                // Room for at least twice the old length, as `resize`
                // would grow, keeps a stream of ascending ids linear.
                let room = top.max(2 * out_deg.len());
                try_room(out_deg, room)?;
                try_room(in_deg, room)?;
                out_deg.resize(top, 0);
                in_deg.resize(top, 0);
            }
            out_deg[u as usize] += 1;
            in_deg[v as usize] += 1;
            hash = mix(hash, u, v);
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
        for (case, later, emitted) in [
            ("fewer edges", vec![(0, 1), (1, 2)], 2),
            ("more edges", vec![(0, 1), (1, 2), (2, 3), (0, 2)], 4),
            ("an id past the node count", vec![(0, 1), (1, 9), (2, 3)], 2),
            ("a moved endpoint", vec![(0, 1), (1, 2), (1, 3)], 3),
            ("the same edges reordered", vec![(1, 2), (0, 1), (2, 3)], 3),
        ] {
            let expected = ScaleError::NotReplayable {
                pass: 2,
                first: 3,
                emitted,
            };
            let drifting = || Drifting {
                first: first.clone(),
                later: later.clone(),
                replays: 0,
            };
            let budget = MemBudget::unlimited();
            let stats = stream_stats(&mut drifting(), &budget);
            assert_eq!(stats, Err(expected.clone()), "stats, {case}");
            assert_eq!(budget.live(), 0, "stats, {case}");
            let built = Csr32::from_stream(&mut drifting(), &budget);
            assert_eq!(built.unwrap_err(), expected, "csr, {case}");
            assert_eq!(budget.live(), 0, "csr, {case}");
        }
    }
}
