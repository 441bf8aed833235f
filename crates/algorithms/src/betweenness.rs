//! Betweenness centrality baseline (the §2 related-work strawman).
//!
//! The paper argues Filter Placement is *not* a centrality problem:
//! "nodes with the highest betweenness centrality are x and y. However,
//! the only node where we can apply meaningful filtering functionality
//! … is z2." We implement Brandes' algorithm and a top-k selector so
//! the claim can be measured, not just asserted.

use crate::{top_k_by_count, RankedSession, Solver, SolverSession};
use fp_graph::{Csr, NodeId};
use fp_num::{Approx64, Count, Wide128};
use fp_propagation::CGraph;

/// Directed, unweighted betweenness centrality (Brandes 2001): for each
/// node the number of shortest `s→t` paths passing through it, summed
/// over all pairs, computed in O(|V|·|E|).
pub fn betweenness_centrality(g: &Csr) -> Vec<f64> {
    let n = g.node_count();
    let mut centrality = vec![0.0f64; n];
    // Reusable per-source buffers.
    let mut sigma = vec![0.0f64; n];
    let mut dist = vec![i64::MAX; n];
    let mut delta = vec![0.0f64; n];
    let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];

    for s in 0..n {
        let s = NodeId::new(s);
        sigma.fill(0.0);
        dist.fill(i64::MAX);
        delta.fill(0.0);
        for p in &mut preds {
            p.clear();
        }
        sigma[s.index()] = 1.0;
        dist[s.index()] = 0;
        let mut order: Vec<NodeId> = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in g.children(u) {
                if dist[v.index()] == i64::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    queue.push_back(v);
                }
                if dist[v.index()] == dist[u.index()] + 1 {
                    sigma[v.index()] += sigma[u.index()];
                    preds[v.index()].push(u);
                }
            }
        }
        for &w in order.iter().rev() {
            for &p in &preds[w.index()] {
                delta[p.index()] += sigma[p.index()] / sigma[w.index()] * (1.0 + delta[w.index()]);
            }
            if w != s {
                centrality[w.index()] += delta[w.index()];
            }
        }
    }
    centrality
}

/// Places filters at the `k` nodes of highest betweenness centrality.
#[derive(Default)]
pub struct BetweennessSolver;

impl BetweennessSolver {
    /// Construct the solver.
    pub fn new() -> Self {
        Self
    }
}

impl Solver for BetweennessSolver {
    fn session<'a>(&'a self, cg: &'a CGraph, _seed: u64) -> Box<dyn SolverSession + 'a> {
        // Centrality is a static score, so the ladder is the
        // descending-centrality order; every prefix is the top-k
        // placement (one-shot `place` comes from the trait default).
        let raw = betweenness_centrality(cg.csr());
        let scores: Vec<Approx64> = cg
            .nodes()
            .map(|v| {
                if v == cg.source() {
                    Approx64::zero()
                } else {
                    Approx64::new(raw[v.index()])
                }
            })
            .collect();
        let ranked = top_k_by_count(&scores, cg.node_count())
            .into_iter()
            .map(NodeId::new)
            .collect();
        // FR evaluation uses the production counter, not the float
        // ranking scores.
        Box::new(RankedSession::<Wide128>::new(cg, ranked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_graph::DiGraph;
    use fp_num::Sat64;
    use fp_propagation::f_value;

    fn figure1() -> (DiGraph, CGraph) {
        let g = DiGraph::from_pairs(
            7,
            [
                (0, 1),
                (0, 2),
                (1, 3),
                (1, 4),
                (2, 4),
                (2, 5),
                (3, 6),
                (4, 6),
                (5, 6),
            ],
        )
        .unwrap();
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        (g, cg)
    }

    #[test]
    fn path_graph_centrality() {
        // 0→1→2→3: node 1 lies on s-paths (0,2),(0,3) and 2 on (0,3),(1,3).
        let g = DiGraph::from_pairs(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let c = betweenness_centrality(&Csr::from_digraph(&g));
        assert_eq!(c[0], 0.0);
        assert_eq!(c[1], 2.0);
        assert_eq!(c[2], 2.0);
        assert_eq!(c[3], 0.0);
    }

    #[test]
    fn figure1_centrality_prefers_x_and_y() {
        // The paper's §2 example: x (1) and y (2) have the highest
        // betweenness, but the useful filter is z2 (4).
        let (_, cg) = figure1();
        let c = betweenness_centrality(cg.csr());
        let max_c = c.iter().cloned().fold(0.0f64, f64::max);
        assert!(c[1] == max_c || c[2] == max_c, "x or y tops centrality");
        assert!(c[1] > c[4] && c[2] > c[4], "both beat z2");
    }

    #[test]
    fn figure1_betweenness_solver_underperforms_greedy() {
        let (_, cg) = figure1();
        let bt = BetweennessSolver::new().place(&cg, 1, 0);
        let ga = crate::GreedyAll::<Sat64>::new().place(&cg, 1, 0);
        let f_bt: Sat64 = f_value(&cg, &bt);
        let f_ga: Sat64 = f_value(&cg, &ga);
        assert!(f_bt < f_ga, "centrality picks a useless filter here");
        assert!(f_bt.is_zero());
    }

    #[test]
    fn weighted_split_counts_path_multiplicity() {
        // Diamond 0→{1,2}→3: two shortest 0→3 paths, each middle node
        // carries half: centrality 1.0 each... plus being endpoint of
        // pairs (0,1): no. Brandes: for pair (0,3), each of 1,2 gets 0.5.
        let g = DiGraph::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let c = betweenness_centrality(&Csr::from_digraph(&g));
        assert!((c[1] - 0.5).abs() < 1e-12);
        assert!((c[2] - 0.5).abs() < 1e-12);
    }
}
