//! Filter-placement algorithms (§4 of the paper) and supporting
//! constructions.
//!
//! Solvers are stateless recipes exposing the **anytime session API**
//! (DESIGN.md §9): [`Solver::session`] returns a [`SolverSession`]
//! that owns all per-run state and walks the placement k-ladder rung
//! by rung, with `fr()` read from live engine state; trial seeds for
//! the randomized baselines enter at session start, not construction.
//!
//! DAG solvers (all implement [`Solver`]):
//!
//! * [`GreedyAll`] — the `(1 − 1/e)`-approximation: re-evaluates every
//!   node's exact marginal impact each round (Algorithm 1).
//! * [`LazyGreedyAll`] — same choices, CELF-style lazy evaluation
//!   (an implemented "computational speedup").
//! * [`GreedyMax`] — impacts computed once, top-k (heuristic).
//! * [`GreedyOne`] — `m(v) = din(v)·dout(v)`, top-k (the naive G_1).
//! * [`GreedyL`] — `I'(v) = Prefix(v)·dout(v)`, recomputed per round
//!   (Algorithm 2).
//! * [`RandK`], [`RandI`], [`RandW`] — the paper's randomized baselines.
//! * [`BetweennessSolver`] — group-betweenness baseline (the related-
//!   work strawman of §2, implemented to quantify the argument).
//!
//! Exact algorithms:
//!
//! * [`tree_dp::optimal_tree_placement`] — polynomial DP on c-trees (§4.1).
//! * [`brute_force::optimal_placement`] — `C(n,k)` enumeration, the
//!   ground truth for small graphs.
//! * [`unbounded::unbounded_optimal`] — Proposition 1's minimal filter
//!   set achieving `F(V)` with unlimited budget.
//!
//! Graph preparation:
//!
//! * [`acyclic`] — maximal connected acyclic subgraph extraction (§4.3),
//!   both a provably-correct reachability variant and the paper's
//!   signature-based variant.
//!
//! Hardness:
//!
//! * [`reductions`] — executable versions of the Theorem 1 (SetCover)
//!   and Theorem 2 (VertexCover multiplier-gadget) constructions.

pub mod acyclic;
pub mod betweenness;
pub mod branch_bound;
pub mod brute_force;
mod greedy_all;
mod greedy_l;
mod greedy_max;
mod greedy_one;
mod lazy_greedy;
mod multi_greedy;
mod random;
pub mod reductions;
mod session;
mod solver;
mod stochastic;
pub mod tree_dp;
pub mod unbounded;

pub use betweenness::BetweennessSolver;
pub use branch_bound::{optimal_placement_bb, ExactResult};
pub use greedy_all::GreedyAll;
pub use greedy_l::GreedyL;
pub use greedy_max::GreedyMax;
pub use greedy_one::GreedyOne;
pub use lazy_greedy::{Celf, Gains, LazyGreedyAll};
pub use multi_greedy::MultiGreedy;
pub use random::{RandI, RandK, RandW};
pub use session::{solve_ladder_with, walk_ladder, FrCache, RankedSession};
pub use solver::{argmax_count, top_k_by_count, Solver, SolverKind, SolverSession};
pub use stochastic::MonteCarloGreedy;
