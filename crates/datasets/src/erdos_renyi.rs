//! Random DAGs (directed Erdős–Rényi over a fixed topological order).
//!
//! Generic stress-test inputs: edge `i → j` (for `i < j`) exists with
//! probability `p`, plus a source wired to every in-degree-0 node so
//! the result is a proper c-graph.

use fp_graph::{BitSet, DiGraph, NodeId};
use fp_scale::{EdgeSink, EdgeStream, ScaleError};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Generate a random DAG with `n` internal nodes and edge probability
/// `p`; returns the graph and its (super-)source.
pub fn generate(n: usize, p: f64, seed: u64) -> (DiGraph, NodeId) {
    let mut stream = ErdosRenyiStream::new(n, p, seed);
    (crate::materialize(&mut stream), stream.source())
}

/// The generator: each replay flips one coin per ordered pair `i < j`
/// in loop order, then wires the super-source (node `n`) to every
/// node left without an in-edge, in ascending id order. Resident state
/// is one bit per node.
#[derive(Clone, Debug)]
pub struct ErdosRenyiStream {
    n: usize,
    p: f64,
    seed: u64,
}

impl ErdosRenyiStream {
    /// Stream a random DAG with `n` internal nodes, edge probability
    /// `p`, and the super-source as node `n`.
    pub fn new(n: usize, p: f64, seed: u64) -> Self {
        Self { n, p, seed }
    }

    /// The super-source's id (`n`).
    pub fn source(&self) -> NodeId {
        NodeId::new(self.n)
    }
}

impl EdgeStream for ErdosRenyiStream {
    fn node_hint(&self) -> Option<u64> {
        Some(self.n as u64 + 1)
    }

    fn replay(&mut self, sink: &mut EdgeSink<'_>) -> Result<(), ScaleError> {
        let n = self.n;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut has_in = BitSet::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.random::<f64>() < self.p {
                    has_in.insert(j);
                    sink.emit(i as u32, j as u32)?;
                }
            }
        }
        // Node 0 never gains an in-edge, so for n > 0 the super-source
        // always has a node to feed.
        for v in (0..n).filter(|&v| !has_in.contains(v)) {
            sink.emit(n as u32, v as u32)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_graph::{topo_order, Csr};

    #[test]
    fn generates_valid_cgraphs() {
        for seed in 0..5 {
            let (g, s) = generate(30, 0.15, seed);
            let csr = Csr::from_digraph(&g);
            assert!(topo_order(&csr).is_ok());
            assert_eq!(csr.in_degree(s), 0);
            assert!(csr.out_degree(s) > 0);
        }
    }

    #[test]
    fn edge_count_tracks_probability() {
        let (lo, _) = generate(60, 0.05, 9);
        let (hi, _) = generate(60, 0.5, 9);
        assert!(hi.edge_count() > 5 * lo.edge_count());
    }

    #[test]
    fn p_zero_is_a_star_from_the_source() {
        let (g, s) = generate(10, 0.0, 1);
        assert_eq!(g.edge_count(), 10);
        for v in 0..10 {
            assert!(g.has_edge(s, NodeId::new(v)));
        }
    }
}
