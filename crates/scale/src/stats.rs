//! Streaming graph statistics: O(n + chunk) memory, never O(m).
//!
//! Degrees fall out of one counting pass. Depth (the longest path, in
//! edges) is computed by relaxation: repeat `depth[v] =
//! max(depth[v], depth[u] + 1)` over replayed edges until a pass
//! changes nothing. On a DAG whose stream order is topological — true
//! of every generator stream in `fp-datasets` — one relaxation pass
//! settles everything and a second confirms the fixpoint; adversarial
//! orders need up to `depth` passes, and a stream that never converges
//! within `n + 1` passes is cyclic ([`ScaleError::Cycle`]).

use crate::pass::{count_degrees, Ledger};
use crate::{EdgeStream, MemBudget, ScaleError};

/// Statistics of a streamed graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamStats {
    /// Number of nodes (`max id + 1`, or the stream's hint if larger).
    pub nodes: u64,
    /// Number of edges.
    pub edges: u64,
    /// Largest in-degree.
    pub max_in_degree: u32,
    /// Largest out-degree.
    pub max_out_degree: u32,
    /// Largest of in- and out-degree over all nodes (the paper's Δ).
    pub max_degree: u32,
    /// Longest path, in edges (0 for an edgeless graph).
    pub depth: u32,
    /// Stream passes consumed (1 counting pass + relaxation passes).
    pub passes: u32,
}

/// Compute [`StreamStats`] for `stream`, accounting the per-node
/// counter arrays (8 bytes per node — the out-degree array is reused
/// as the depth array) against `budget` for the duration of the
/// computation and releasing them before returning. A relaxation pass
/// that disagrees with the counting pass is
/// [`ScaleError::NotReplayable`].
pub fn stream_stats<S>(stream: &mut S, budget: &MemBudget) -> Result<StreamStats, ScaleError>
where
    S: EdgeStream + ?Sized,
{
    // Never committed: the ledger hands every reservation back on drop.
    let mut ledger = Ledger::new(budget);
    let (mut out_deg, mut in_deg) = (Vec::new(), Vec::new());
    let first = count_degrees(stream, &mut ledger, &mut out_deg, &mut in_deg, None)?;
    let max_in_degree = in_deg.iter().copied().max().unwrap_or(0);
    let max_out_degree = out_deg.iter().copied().max().unwrap_or(0);
    let max_degree = in_deg
        .iter()
        .zip(out_deg.iter())
        .map(|(&i, &o)| i.max(o))
        .max()
        .unwrap_or(0);
    let mut passes: u32 = 1;

    // Relaxation passes: the out-degree array has served its purpose;
    // reuse it as the depth array so the footprint stays at 8 bytes
    // per node.
    let mut depth = out_deg;
    depth.iter_mut().for_each(|d| *d = 0);
    if first.edges > 0 {
        loop {
            if u64::from(passes) > first.nodes as u64 + 1 {
                return Err(ScaleError::Cycle { passes });
            }
            passes += 1;
            let mut changed = false;
            first.replay(stream, passes, |u, v| {
                let candidate = depth[u] + 1;
                if candidate > depth[v] {
                    depth[v] = candidate;
                    changed = true;
                }
                true
            })?;
            if !changed {
                break;
            }
        }
    }
    Ok(StreamStats {
        nodes: first.nodes as u64,
        edges: first.edges,
        max_in_degree,
        max_out_degree,
        max_degree,
        depth: depth.iter().copied().max().unwrap_or(0),
        passes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecStream;

    fn stats_of(edges: &[(u32, u32)]) -> StreamStats {
        let mut s = VecStream::new(edges.to_vec(), None);
        stream_stats(&mut s, &MemBudget::unlimited()).unwrap()
    }

    #[test]
    fn diamond_stats() {
        let s = stats_of(&[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.max_in_degree, 2);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.depth, 2);
        // Topological stream order: one settling pass + one confirming.
        assert_eq!(s.passes, 3);
    }

    #[test]
    fn adversarial_order_still_converges() {
        // Path 0→1→2→3 streamed backwards: each pass settles one more
        // hop.
        let s = stats_of(&[(2, 3), (1, 2), (0, 1)]);
        assert_eq!(s.depth, 3);
        assert!(s.passes > 3, "reverse order needs extra passes");
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let s = stats_of(&[]);
        assert_eq!(
            s,
            StreamStats {
                nodes: 0,
                edges: 0,
                max_in_degree: 0,
                max_out_degree: 0,
                max_degree: 0,
                depth: 0,
                passes: 1,
            }
        );
        let mut hinted = VecStream::new(vec![], Some(7));
        let s = stream_stats(&mut hinted, &MemBudget::unlimited()).unwrap();
        assert_eq!(s.nodes, 7);
        assert_eq!(s.depth, 0);
    }

    #[test]
    fn cyclic_streams_are_detected() {
        let mut s = VecStream::new(vec![(0, 1), (1, 0)], None);
        let err = stream_stats(&mut s, &MemBudget::unlimited()).unwrap_err();
        assert!(matches!(err, ScaleError::Cycle { .. }));
    }

    #[test]
    fn budget_is_transient() {
        let budget = MemBudget::unlimited();
        let mut s = VecStream::new(vec![(0, 1), (1, 2)], None);
        let stats = stream_stats(&mut s, &budget).unwrap();
        assert_eq!(stats.nodes, 3);
        assert_eq!(budget.live(), 0, "stats memory is released");
        assert!(budget.peak() >= 8 * 3);
    }

    #[test]
    fn budget_cap_rejects_large_graphs() {
        let budget = MemBudget::new(Some(16));
        let mut s = VecStream::new((0..50).map(|i| (i, i + 1)).collect(), None);
        let err = stream_stats(&mut s, &budget).unwrap_err();
        assert!(matches!(err, ScaleError::BudgetExceeded { .. }));
        assert_eq!(budget.live(), 0);
    }
}
