//! # filter-placement
//!
//! A from-scratch Rust reproduction of **"The Filter-Placement Problem
//! and its Application to Minimizing Information Multiplicity"**
//! (Erdős, Ishakian, Lapets, Terzi, Bestavros — PVLDB 5(5), 2012).
//!
//! In information networks, nodes blindly relay every copy of an item
//! they receive; the same item arrives over many paths, and redundancy
//! ("information multiplicity") compounds exponentially. The paper asks:
//! given a budget of `k` deduplicating *filters*, where should they go
//! to remove the most redundancy? This crate is the full system:
//!
//! * [`graph`] — the directed-graph substrate (adjacency/CSR,
//!   traversals, topological order, trees, I/O);
//! * [`num`] — counting arithmetic (path counts overflow `u64` fast);
//! * [`propagation`] — the propagation model, objective `F`, impacts,
//!   simulators, and the probabilistic / multi-item / leaky-filter
//!   extensions;
//! * [`algorithms`] — Greedy_All/Max/1/L, randomized baselines, the
//!   exact tree DP, brute force, Acyclic extraction, and the
//!   NP-hardness constructions;
//! * [`datasets`] — the paper's synthetic family plus generators that
//!   stand in for its three real traces;
//! * [`results`] — persistent experiment results: the JSON model, the
//!   content-addressed on-disk run store behind `fp sweep --out` /
//!   `fp report`, and the work-stealing parallel sweep runner;
//! * [`Problem`] / [`experiment`] / [`report`] — a one-stop API tying
//!   those together, the FR-sweep runner behind every figure, and
//!   plain-text table/CSV rendering.
//!
//! ## Quickstart
//!
//! ```
//! use fp_core::prelude::*;
//!
//! // The paper's Figure-1 news network: s → {x,y}; x → {z1,z2};
//! // y → {z2,z3}; z1,z2,z3 → w.
//! let g = DiGraph::from_pairs(
//!     7,
//!     [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6)],
//! )
//! .unwrap();
//! let problem = Problem::new(&g, NodeId::new(0)).unwrap();
//!
//! // One filter, chosen by the (1 − 1/e)-approximate Greedy_All.
//! let placement = problem.solve(SolverKind::GreedyAll, 1);
//! assert_eq!(placement.nodes(), &[NodeId::new(4)]); // z2
//! assert_eq!(problem.filter_ratio(&placement), 1.0); // perfect
//! ```

pub mod cli;
pub mod experiment;
pub mod loadtest;
pub mod online;
mod problem;
pub mod registry;
pub mod report;
pub mod serve;
pub mod worker;

pub use fp_algorithms as algorithms;
pub use fp_datasets as datasets;
pub use fp_graph as graph;
pub use fp_num as num;
pub use fp_propagation as propagation;
pub use fp_results as results;
pub use fp_scale as scale;

pub use problem::Problem;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::experiment::{run_sweep, run_sweep_with, SweepConfig, SweepResult};
    pub use crate::online::{OnlineConfig, OnlinePlacement};
    pub use crate::problem::Problem;
    pub use crate::report::Table;
    pub use fp_algorithms::{Solver, SolverKind, SolverSession};
    pub use fp_graph::{DiGraph, NodeId};
    pub use fp_num::{BigCount, Count, Wide128};
    pub use fp_propagation::{CGraph, FilterSet};
    pub use fp_results::{DatasetFingerprint, RunManifest, RunStore, RunnerOptions};
}
