//! Preferential-attachment DAGs (power-law in/out degrees).
//!
//! Citation-style growth: node `t` arrives and attaches to `d` earlier
//! nodes chosen proportionally to their current degree-plus-one, with
//! edges directed **old → new** (information flows from the cited work
//! to the citing work, as in the paper's APS graph where "a directed
//! edge from node A to B if B cites A"). Node 0 is the root/source.

use fp_graph::{DiGraph, NodeId};
use fp_scale::{EdgeSink, EdgeStream, ScaleError};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Parameters for the preferential-attachment DAG.
#[derive(Clone, Debug)]
pub struct PowerLawParams {
    /// Total nodes (including the root).
    pub nodes: usize,
    /// Average out-attachments per new node (each new node draws
    /// `1..=2·mean_degree − 1` attachment targets uniformly).
    pub mean_degree: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Generate; returns the graph and the root (node 0).
pub fn generate(params: &PowerLawParams) -> (DiGraph, NodeId) {
    let graph = crate::materialize(&mut PowerLawStream::new(params));
    (graph, NodeId::new(0))
}

/// The generator: each replay runs the attachment process from the
/// seed, emitting edges as it goes. The only resident state is the
/// preferential-sampling urn (one `u32` per edge endpoint — inherent
/// to the attachment process itself).
#[derive(Clone, Debug)]
pub struct PowerLawStream {
    params: PowerLawParams,
}

impl PowerLawStream {
    /// Stream the graph described by `params`. The root is node 0.
    pub fn new(params: &PowerLawParams) -> Self {
        assert!(params.nodes >= 1);
        assert!(params.mean_degree >= 1);
        Self {
            params: params.clone(),
        }
    }
}

impl EdgeStream for PowerLawStream {
    fn node_hint(&self) -> Option<u64> {
        Some(self.params.nodes as u64)
    }

    fn replay(&mut self, sink: &mut EdgeSink<'_>) -> Result<(), ScaleError> {
        let params = &self.params;
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
        // Repeated-node list for preferential sampling: node v appears
        // degree(v)+1 times.
        let mut urn: Vec<u32> = vec![0];
        let mut chosen: Vec<u32> = Vec::new();
        for t in 1..params.nodes {
            let d_max = 2 * params.mean_degree - 1;
            let d = rng.random_range(1..=d_max).min(t);
            chosen.clear();
            let mut guard = 0;
            while chosen.len() < d && guard < 50 * d {
                guard += 1;
                let pick = urn[rng.random_range(0..urn.len())];
                if !chosen.contains(&pick) {
                    chosen.push(pick);
                }
            }
            for &c in &chosen {
                sink.emit(c, t as u32)?;
                urn.push(c);
            }
            urn.push(t as u32);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_graph::{topo_order, Csr};

    #[test]
    fn generates_a_dag_rooted_at_zero() {
        let (g, root) = generate(&PowerLawParams {
            nodes: 300,
            mean_degree: 3,
            seed: 4,
        });
        let csr = Csr::from_digraph(&g);
        assert!(topo_order(&csr).is_ok());
        assert_eq!(csr.in_degree(root), 0);
        assert!(csr.out_degree(root) > 0, "root accumulates attachments");
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let (g, _) = generate(&PowerLawParams {
            nodes: 2000,
            mean_degree: 2,
            seed: 8,
        });
        let csr = Csr::from_digraph(&g);
        let max_out = (0..g.node_count())
            .map(|v| csr.out_degree(NodeId::new(v)))
            .max()
            .unwrap();
        let mean_out = g.edge_count() as f64 / g.node_count() as f64;
        assert!(
            max_out as f64 > 10.0 * mean_out,
            "hub of degree {max_out} vs mean {mean_out:.1} — not heavy tailed"
        );
    }

    #[test]
    fn edge_count_tracks_mean_degree() {
        let (g, _) = generate(&PowerLawParams {
            nodes: 1000,
            mean_degree: 3,
            seed: 2,
        });
        let avg = g.edge_count() as f64 / 1000.0;
        assert!((2.0..4.0).contains(&avg), "avg out-degree {avg}");
    }
}
