//! The Twitter (sigcomm09) stand-in (§5, Figures 8 and 11).
//!
//! The paper's subgraph: a 6-level BFS from "sigcomm09" filtered to CS
//! profiles — "about 90K nodes and 120K edges. The number of out-going
//! edges from the different levels … show an exponential growth: 2, 16,
//! 194, 43993 and 80639 for levels 1, 2, …, 5." Greedy_All removes all
//! redundancy with six filters.
//!
//! Construction: the exact per-level out-edge counts (scaled by
//! `scale`), a follower tree for the interior levels, a handful of
//! `celebrities` — interior nodes followed from multiple levels (the
//! only interior nodes with in-degree > 1, hence the perfect filter
//! cut) — and free target reuse into the final (sink) level.

use fp_graph::{DiGraph, NodeId};
use fp_scale::{EdgeSink, EdgeStream, ScaleError};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// The paper's per-level out-edge counts for levels 1..=5.
pub const PAPER_LEVEL_OUT_EDGES: [usize; 5] = [2, 16, 194, 43_993, 80_639];

/// Number of planted celebrity nodes (the paper needed 6 filters).
pub const CELEBRITIES: usize = 6;

/// Parameters for the twitter-like generator.
#[derive(Clone, Debug)]
pub struct TwitterLikeParams {
    /// Scale factor applied to the paper's level profile (1.0 = full
    /// 90k-node graph; tests use ~0.02).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TwitterLikeParams {
    fn default() -> Self {
        Self {
            scale: 1.0,
            seed: 2010,
        }
    }
}

/// A generated twitter-like c-graph.
#[derive(Clone, Debug)]
pub struct TwitterLikeGraph {
    /// The graph (node 0 is the root).
    pub graph: DiGraph,
    /// The root ("sigcomm09").
    pub source: NodeId,
    /// Planted celebrities — the minimal perfect filter set.
    pub celebrities: Vec<NodeId>,
    /// Nodes per level (level 0 is the root alone).
    pub level_sizes: Vec<usize>,
}

/// Generate a twitter-like graph.
pub fn generate(params: &TwitterLikeParams) -> TwitterLikeGraph {
    let mut stream = TwitterLikeStream::new(params);
    let graph = crate::materialize(&mut stream);
    TwitterLikeGraph {
        graph,
        source: NodeId::new(0),
        celebrities: stream.celebrities,
        level_sizes: stream.level_sizes,
    }
}

/// No first in-edge recorded yet.
const NO_PARENT: u32 = u32::MAX;

/// The generator: each replay emits the per-level follower edges (with
/// the duplicate re-draw), then the planted celebrity in-edges. Level
/// `k` occupies the id range after level `k − 1`. The graph reads a
/// materialized build would make (out-degree ranking, first parent,
/// dedup) are counters here, so resident state is O(n) counters plus
/// the set of wired pairs, never the adjacency itself.
#[derive(Clone, Debug)]
pub struct TwitterLikeStream {
    params: TwitterLikeParams,
    /// Scaled per-level edge budgets.
    out_edges: Vec<usize>,
    /// Nodes per level (level 0 is the root alone).
    level_sizes: Vec<usize>,
    /// The last replay's celebrities, ascending.
    celebrities: Vec<NodeId>,
}

impl TwitterLikeStream {
    /// Stream the graph described by `params`. Node 0 is the root.
    pub fn new(params: &TwitterLikeParams) -> Self {
        let out_edges: Vec<usize> = PAPER_LEVEL_OUT_EDGES
            .iter()
            .map(|&e| ((e as f64 * params.scale).round() as usize).max(2))
            .collect();
        let depth = out_edges.len();
        // Interior levels: tree edges to fresh nodes (in-degree 1).
        // Final level: targets may repeat (sinks can be followed by
        // many), averaging ~1.8 edges per sink as in the paper.
        let fresh = out_edges.iter().enumerate().map(|(li, &budget)| {
            if li + 1 == depth {
                (budget as f64 / 1.8).round() as usize
            } else {
                budget
            }
            .max(1)
        });
        Self {
            params: params.clone(),
            level_sizes: std::iter::once(1).chain(fresh).collect(),
            out_edges,
            celebrities: Vec::new(),
        }
    }

    /// The id range of level `k`.
    fn level(&self, k: usize) -> std::ops::Range<u32> {
        let start: usize = self.level_sizes[..k].iter().sum();
        start as u32..(start + self.level_sizes[k]) as u32
    }
}

/// What a materialized build reads back from its graph, kept as
/// counters: each node's out-degree (the celebrity ranking key) and
/// first parent, and the pairs already wired (dedup).
struct Wiring {
    out_deg: Vec<u32>,
    first_parent: Vec<u32>,
    wired: HashSet<(u32, u32)>,
}

impl Wiring {
    /// Emit `from → to` unless that pair is already wired; mirrors
    /// `DiGraph::add_edge_dedup`.
    fn add_dedup(
        &mut self,
        sink: &mut EdgeSink<'_>,
        from: u32,
        to: u32,
    ) -> Result<bool, ScaleError> {
        if !self.wired.insert((from, to)) {
            return Ok(false);
        }
        self.out_deg[from as usize] += 1;
        if self.first_parent[to as usize] == NO_PARENT {
            self.first_parent[to as usize] = from;
        }
        sink.emit(from, to)?;
        Ok(true)
    }
}

/// A uniform draw from `range`.
fn pick(rng: &mut ChaCha8Rng, range: &std::ops::Range<u32>) -> u32 {
    range.start + rng.random_range(0..range.len()) as u32
}

impl EdgeStream for TwitterLikeStream {
    fn node_hint(&self) -> Option<u64> {
        Some(self.level_sizes.iter().sum::<usize>() as u64)
    }

    fn replay(&mut self, sink: &mut EdgeSink<'_>) -> Result<(), ScaleError> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed);
        let depth = self.out_edges.len();
        let n: usize = self.level_sizes.iter().sum();
        let mut wiring = Wiring {
            out_deg: vec![0; n],
            first_parent: vec![NO_PARENT; n],
            wired: HashSet::new(),
        };

        for (li, &edge_budget) in self.out_edges.iter().enumerate() {
            let (cur, next) = (self.level(li), self.level(li + 1));
            let last_level = li + 1 == depth;
            for e in 0..edge_budget {
                let from = pick(&mut rng, &cur);
                let to = if last_level {
                    pick(&mut rng, &next)
                } else {
                    next.start + e.min(next.len() - 1) as u32
                };
                if !wiring.add_dedup(sink, from, to)? {
                    // Duplicate follower pair: spend the edge on another
                    // random sink instead (keeps the budget exact).
                    let alt = pick(&mut rng, &next);
                    wiring.add_dedup(sink, from, alt)?;
                }
            }
        }

        // Plant celebrities: the most-followed interior accounts (top
        // out-degree — in the information-flow direction a popular
        // account has many outgoing edges) gain followers-of-followers:
        // extra in-edges from the previous level. They become the only
        // interior in-degree->1 nodes, and because their degree product
        // dominates, every degree-based heuristic can find them —
        // matching the paper's "all algorithms achieve complete
        // filtering with at most ten filters" on this dataset.
        let mut interior: Vec<(usize, u32)> = (2..depth)
            .flat_map(|li| self.level(li).map(move |v| (li, v)))
            .collect();
        interior.sort_by_key(|&(_, v)| (std::cmp::Reverse(wiring.out_deg[v as usize]), v));
        let mut celebrities = Vec::with_capacity(CELEBRITIES);
        for &(li, celeb) in interior.iter().take(CELEBRITIES) {
            celebrities.push(NodeId::new(celeb as usize));
            let parent = wiring.first_parent[celeb as usize];
            let prev: Vec<u32> = self.level(li - 1).filter(|&u| u != parent).collect();
            if prev.is_empty() {
                continue;
            }
            let extra = rng.random_range(2..=4usize).min(prev.len());
            for _ in 0..extra {
                let from = prev[rng.random_range(0..prev.len())];
                wiring.add_dedup(sink, from, celeb)?;
            }
        }
        celebrities.sort_unstable();
        self.celebrities = celebrities;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_graph::{topo_order, Csr};
    use fp_num::Wide128;
    use fp_propagation::{CGraph, FilterSet, ObjectiveCache};

    fn small() -> TwitterLikeGraph {
        generate(&TwitterLikeParams {
            scale: 0.02,
            seed: 5,
        })
    }

    #[test]
    fn full_scale_matches_the_paper() {
        let t = generate(&TwitterLikeParams::default());
        let n = t.graph.node_count();
        let m = t.graph.edge_count();
        assert!((80_000..105_000).contains(&n), "nodes {n} vs paper's ~90K");
        assert!(
            (110_000..135_000).contains(&m),
            "edges {m} vs paper's ~120K+"
        );
        // Exponential level growth as reported.
        let s = &t.level_sizes;
        assert_eq!(s[0], 1);
        for w in s.windows(2).take(4) {
            assert!(w[1] > w[0], "levels must grow: {s:?}");
        }
    }

    #[test]
    fn small_scale_is_a_single_source_dag() {
        let t = small();
        let csr = Csr::from_digraph(&t.graph);
        assert!(topo_order(&csr).is_ok());
        assert_eq!(csr.in_degree(t.source), 0);
    }

    #[test]
    fn celebrities_form_a_perfect_filter_set() {
        let t = small();
        let cg = CGraph::new(&t.graph, t.source).unwrap();
        let cache = ObjectiveCache::<Wide128>::new(&cg);
        let filters = FilterSet::from_nodes(t.graph.node_count(), t.celebrities.iter().copied());
        assert_eq!(cache.filter_ratio(&cg, &filters), 1.0);
        assert!(filters.len() <= CELEBRITIES);
    }

    #[test]
    fn interior_multi_indegree_nodes_are_exactly_the_celebrities() {
        let t = small();
        let csr = Csr::from_digraph(&t.graph);
        let mut prop1: Vec<NodeId> = t
            .graph
            .nodes()
            .filter(|&v| csr.in_degree(v) > 1 && csr.out_degree(v) > 0)
            .collect();
        prop1.sort_unstable();
        assert_eq!(prop1, t.celebrities);
    }

    #[test]
    fn graph_is_sparse() {
        let t = small();
        let ratio = t.graph.edge_count() as f64 / t.graph.node_count() as f64;
        assert!(ratio < 2.0, "paper: ~1.4 edges per node, got {ratio}");
    }
}
