//! Dataset generators for the filter-placement evaluation (§5).
//!
//! The paper evaluates on one fully-specified synthetic family and
//! three real traces. The synthetic family ([`layered`]) is implemented
//! verbatim. The traces are not redistributable, so each is replaced by
//! a generator that reproduces every structural statistic the paper
//! reports about it (sizes, degree profile, sink fraction, level
//! structure, planted pathologies) — see DESIGN.md §4 for the
//! substitution argument:
//!
//! * [`quote_like`] — the memetracker "lipstick on a pig" DAG
//!   (932 nodes / 2,703 edges, ~70 % sinks, a 4-hub cut).
//! * [`twitter_like`] — the 6-level sigcomm09 BFS subgraph
//!   (≈90 k nodes / ≈125 k edges, per-level out-edge counts
//!   2, 16, 194, 43,993, 80,639, a ~6-celebrity cut).
//! * [`citation_like`] — the APS subgraph (9,982 nodes / 36,070 edges,
//!   power-law halves joined by the Figure-10 nine-node chain).
//!
//! Generic building blocks: [`erdos_renyi`] random DAGs, [`power_law`]
//! preferential-attachment DAGs, [`tree_gen`] random c-trees, and
//! [`stats`] degree statistics (the CDFs of Figures 4 and 6).
//!
//! Five generators (power-law, Erdős–Rényi, layered, citation-like,
//! twitter-like) are written once, as an [`fp_scale::EdgeStream`]
//! whose replay runs the construction from the seed and emits each
//! edge as it goes. `Csr32::from_stream` builds 10^6-node graphs from
//! that stream without an edge list, and each module's `generate`
//! replays the same stream into a [`DiGraph`].

pub mod citation_like;
pub mod erdos_renyi;
pub mod layered;
pub mod power_law;
pub mod quote_like;
pub mod stats;
pub mod tree_gen;
pub mod twitter_like;

use fp_graph::{DiGraph, NodeId};
use fp_scale::EdgeStream;

/// Replay `stream` into a [`DiGraph`] over its hinted node count.
fn materialize(stream: &mut impl EdgeStream) -> DiGraph {
    let nodes = stream
        .node_hint()
        .expect("generators hint their node count");
    let mut g = DiGraph::with_nodes(nodes as usize);
    fp_scale::for_each_chunk(stream, |chunk| {
        for &(u, v) in chunk {
            g.add_edge(NodeId::new(u as usize), NodeId::new(v as usize));
        }
        Ok(())
    })
    .expect("a DiGraph sink never fails");
    g
}
