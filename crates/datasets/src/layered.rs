//! The paper's synthetic layered graphs (§5, Figures 4–5).
//!
//! "First, we assign nodes to 10 levels randomly, so that the expected
//! number of nodes per level is 100. Next, we generate directed edges
//! from every node v in level i to every node u in level j > i with
//! probability p(v,u) = x / y^(j−i)." The paper uses `(x,y) = (1,4)`
//! and `(3,4)`.
//!
//! A single source node is prepended with an edge to every level-0
//! node, giving propagation a well-defined entry point (the paper's
//! c-graph model always has one).

use fp_graph::{DiGraph, NodeId};
use fp_scale::{EdgeSink, EdgeStream, ScaleError};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Parameters of the layered generator.
#[derive(Clone, Debug)]
pub struct LayeredParams {
    /// Number of levels (paper: 10).
    pub levels: usize,
    /// Expected nodes per level (paper: 100).
    pub expected_per_level: usize,
    /// Numerator `x` of the edge probability.
    pub x: f64,
    /// Base `y` of the distance decay.
    pub y: f64,
    /// RNG seed.
    pub seed: u64,
}

impl LayeredParams {
    /// The paper's sparse configuration `x/y = 1/4`.
    pub fn paper_sparse(seed: u64) -> Self {
        Self {
            levels: 10,
            expected_per_level: 100,
            x: 1.0,
            y: 4.0,
            seed,
        }
    }

    /// The paper's dense configuration `x/y = 3/4`.
    pub fn paper_dense(seed: u64) -> Self {
        Self {
            levels: 10,
            expected_per_level: 100,
            x: 3.0,
            y: 4.0,
            seed,
        }
    }
}

/// A generated layered c-graph.
#[derive(Clone, Debug)]
pub struct LayeredGraph {
    /// The graph (node 0 is the source).
    pub graph: DiGraph,
    /// The source node.
    pub source: NodeId,
    /// `level[v.index()]`: the level of each node (source is level 0,
    /// generated nodes are `1..=levels`).
    pub level: Vec<u32>,
}

/// Generate a layered graph.
pub fn generate(params: &LayeredParams) -> LayeredGraph {
    let mut stream = LayeredStream::new(params);
    let graph = crate::materialize(&mut stream);
    LayeredGraph {
        graph,
        source: NodeId::new(0),
        level: stream.level,
    }
}

/// The generator: each replay draws the level assignment (one RNG call
/// per node, before any edge), emits the source's edges to level-0
/// nodes, then flips one coin per candidate edge of every `(i, j)`
/// level pair in loop order. Resident state is the per-level node
/// lists — O(n), inherent to the generator itself.
#[derive(Clone, Debug)]
pub struct LayeredStream {
    params: LayeredParams,
    /// The last replay's level assignment ([`LayeredGraph::level`]).
    level: Vec<u32>,
}

impl LayeredStream {
    /// Stream the graph described by `params`. Node 0 is the source.
    pub fn new(params: &LayeredParams) -> Self {
        Self {
            params: params.clone(),
            level: Vec::new(),
        }
    }
}

impl EdgeStream for LayeredStream {
    fn node_hint(&self) -> Option<u64> {
        Some((self.params.levels * self.params.expected_per_level) as u64 + 1)
    }

    fn replay(&mut self, sink: &mut EdgeSink<'_>) -> Result<(), ScaleError> {
        let params = &self.params;
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
        let total = params.levels * params.expected_per_level;
        // Random level assignment (uniform over levels) — expected size
        // per level is `expected_per_level`, matching the paper's
        // phrasing.
        let mut levels_of: Vec<Vec<u32>> = vec![Vec::new(); params.levels];
        let mut level = vec![0u32; total + 1];
        for (v, lvl) in level.iter_mut().enumerate().skip(1) {
            let l = rng.random_range(0..params.levels);
            levels_of[l].push(v as u32);
            *lvl = l as u32 + 1;
        }
        self.level = level;
        for &v in &levels_of[0] {
            sink.emit(0, v)?;
        }
        for i in 0..params.levels {
            for j in (i + 1)..params.levels {
                let p = params.x / params.y.powi((j - i) as i32);
                if p <= 0.0 {
                    continue;
                }
                let p = p.min(1.0);
                for &v in &levels_of[i] {
                    for &u in &levels_of[j] {
                        if rng.random::<f64>() < p {
                            sink.emit(v, u)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_graph::{topo_order, Csr};

    #[test]
    fn sparse_matches_paper_scale() {
        let lg = generate(&LayeredParams::paper_sparse(42));
        let n = lg.graph.node_count();
        let m = lg.graph.edge_count();
        // Paper: 1026 nodes, 32427 edges for x/y = 1/4 (their node count
        // includes only generated nodes that ended up used; ours is
        // exactly levels × expected + source).
        assert_eq!(n, 1001);
        assert!(
            (25_000..40_000).contains(&m),
            "edges {m} out of the paper's ballpark"
        );
    }

    #[test]
    fn dense_has_roughly_three_times_the_edges() {
        let sparse = generate(&LayeredParams::paper_sparse(7)).graph.edge_count();
        let dense = generate(&LayeredParams::paper_dense(7)).graph.edge_count();
        let ratio = dense as f64 / sparse as f64;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn is_a_dag_with_single_source() {
        let lg = generate(&LayeredParams::paper_sparse(3));
        let csr = Csr::from_digraph(&lg.graph);
        assert!(topo_order(&csr).is_ok());
        assert_eq!(csr.in_degree(lg.source), 0);
    }

    #[test]
    fn edges_respect_level_ordering() {
        let lg = generate(&LayeredParams::paper_dense(11));
        for (u, v) in lg.graph.edges() {
            assert!(
                lg.level[u.index()] < lg.level[v.index()],
                "edge {u}→{v} violates levels"
            );
        }
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = generate(&LayeredParams::paper_sparse(5));
        let b = generate(&LayeredParams::paper_sparse(5));
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        let e1: Vec<_> = a.graph.edges().collect();
        let e2: Vec<_> = b.graph.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn nearby_levels_are_denser() {
        let lg = generate(&LayeredParams::paper_sparse(13));
        let mut by_gap = [0usize; 10];
        let mut pairs_by_gap = [0usize; 10];
        let mut count_per_level = [0usize; 11];
        for &l in &lg.level {
            count_per_level[l as usize] += 1;
        }
        for (u, v) in lg.graph.edges() {
            if u == lg.source {
                continue;
            }
            let gap = (lg.level[v.index()] - lg.level[u.index()]) as usize;
            by_gap[gap] += 1;
        }
        for i in 1..=9usize {
            for j in (i + 1)..=10usize {
                pairs_by_gap[j - i] += count_per_level[i] * count_per_level[j];
            }
        }
        let rate = |g: usize| by_gap[g] as f64 / pairs_by_gap[g].max(1) as f64;
        assert!(
            rate(1) > 3.0 * rate(2),
            "decay by ~y per gap: {} vs {}",
            rate(1),
            rate(2)
        );
    }
}
