//! Directed-graph substrate for the filter-placement reproduction.
//!
//! The paper's propagation model runs over *communication graphs*
//! (c-graphs): directed graphs with a designated item source. This crate
//! provides everything the higher layers need, built from scratch:
//!
//! * [`DiGraph`] — a mutable adjacency-list digraph used while building
//!   or transforming graphs.
//! * [`Csr`] — a frozen compressed-sparse-row snapshot with both edge
//!   directions, the representation every propagation pass runs on.
//! * Topological ordering ([`topo_order`]), DFS traversal with
//!   discovery times ([`DfsResult`]), and forward reachability over a
//!   home-grown [`BitSet`].
//! * Rooted-tree utilities ([`CTree`]) including the binary-tree
//!   transformation the paper's tree DP requires.
//! * Plain-text edge-list and DOT I/O.
//!
//! Node identifiers are dense `u32`-backed [`NodeId`]s; all per-node
//! state in the workspace lives in flat `Vec`s indexed by them.

mod bitset;
mod csr;
mod digraph;
mod error;
mod id;
mod io;
mod reach;
mod source;
mod topo;
mod traversal;
mod tree;

pub use bitset::BitSet;
pub use csr::Csr;
pub use digraph::DiGraph;
pub use error::GraphError;
pub use id::NodeId;
pub use io::{from_edge_list, quote_input, to_dot, to_edge_list};
pub use reach::{reachable_from, reachable_without_edge};
pub use source::{sinks, sources};
pub use topo::{is_topological_order, topo_order};
pub use traversal::{dfs_from, DfsResult};
pub use tree::{BinaryTree, BinaryTreeNode, CTree};
