//! The randomized baselines of §5: Rand_K, Rand_I, Rand_W.
//!
//! The solvers are stateless; the trial seed enters at
//! [`Solver::session`]/[`Solver::place`] time, so one built solver
//! serves every trial of a sweep. Rand_K's session ladders down one
//! seeded shuffle, so it is prefix-nested.
//!
//! Rand_I and Rand_W share one threshold draw: the trial seed gives one
//! ChaCha8 uniform `u_v` per non-source node, in node order, and `v` is
//! placed iff `u_v < min(1, w(v)·k/n)`, with `w ≡ 1` for Rand_I. The
//! threshold never falls as `k` rises, so a trial's draw at budget `k`
//! contains its draw at every smaller budget. One budget step can still
//! add several filters (in node order, not pick order), so earlier
//! budgets are not count prefixes of the draw:
//! [`SolverSession::next_filter`] reports `None`. A session takes the
//! draw once, keeping `(u_v, w(v))` per node, and
//! [`SolverSession::advance_to`] only compares those against budget
//! `k`'s threshold.

use crate::{FrCache, RankedSession, Solver, SolverSession};
use fp_graph::NodeId;
use fp_num::Wide128;
use fp_propagation::{CGraph, FilterSet};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Rand_K: `k` filters chosen uniformly at random without replacement.
#[derive(Default)]
pub struct RandK;

impl RandK {
    /// Construct the solver (stateless; seeds arrive per session).
    pub fn new() -> Self {
        Self
    }
}

impl Solver for RandK {
    fn session<'a>(&'a self, cg: &'a CGraph, seed: u64) -> Box<dyn SolverSession + 'a> {
        // One seeded shuffle is the whole ladder: the placement at
        // budget k is its first k entries, so Rand_K is prefix-nested
        // and `advance_to(k)` equals the one-shot draw at k.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut nodes: Vec<NodeId> = cg.nodes().filter(|&v| v != cg.source()).collect();
        nodes.shuffle(&mut rng);
        Box::new(RankedSession::<Wide128>::new(cg, nodes))
    }
}

/// Rand_I: every node becomes a filter independently with probability
/// `k/n` (expected size `k`, actual size varies).
#[derive(Default)]
pub struct RandI;

impl RandI {
    /// Construct the solver (stateless; seeds arrive per session).
    pub fn new() -> Self {
        Self
    }
}

impl Solver for RandI {
    fn session<'a>(&'a self, cg: &'a CGraph, seed: u64) -> Box<dyn SolverSession + 'a> {
        Box::new(ThresholdSession::new(cg, seed, |_, _| 1.0))
    }
}

/// Rand_W: node `v` becomes a filter with probability `w(v)·k/n`, where
/// `w(v) = Σ_{u ∈ children(v)} 1/din(u)` — children fed by few other
/// parents weigh more ("the influence of node v on the number of items
/// its child u receives is inversely proportional to the indegree of
/// u"). Probabilities are clamped to 1.
#[derive(Default)]
pub struct RandW;

impl RandW {
    /// Construct the solver (stateless; seeds arrive per session).
    pub fn new() -> Self {
        Self
    }

    /// The paper's node weight `w(v)`.
    pub fn weight(cg: &CGraph, v: NodeId) -> f64 {
        cg.csr()
            .children(v)
            .iter()
            .map(|&u| 1.0 / cg.csr().in_degree(u) as f64)
            .sum()
    }
}

impl Solver for RandW {
    fn session<'a>(&'a self, cg: &'a CGraph, seed: u64) -> Box<dyn SolverSession + 'a> {
        Box::new(ThresholdSession::new(cg, seed, Self::weight))
    }
}

/// The session behind Rand_I and Rand_W: the threshold draw of the
/// module docs, taken once at the start, and the placement at the
/// budget last asked. `advance_to(k)` recomputes the placement from the
/// kept draw alone — a pure function of `(k, seed)` with no ChaCha8 or
/// weight work — so the session lands on [`Solver::place`]'s placement
/// whatever budgets it visited before.
struct ThresholdSession<'a> {
    cg: &'a CGraph,
    /// `(u_v, w(v))` by node index; the source's `u = 1` is never
    /// placed.
    draw: Vec<(f64, f64)>,
    placement: FilterSet,
    fr: FrCache<Wide128>,
}

impl<'a> ThresholdSession<'a> {
    fn new(cg: &'a CGraph, seed: u64, weight: impl Fn(&CGraph, NodeId) -> f64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let draw = cg
            .nodes()
            .map(|v| {
                if v == cg.source() {
                    (1.0, 0.0)
                } else {
                    (rng.random::<f64>(), weight(cg, v))
                }
            })
            .collect();
        Self {
            cg,
            draw,
            placement: FilterSet::empty(cg.node_count()),
            fr: FrCache::new(),
        }
    }
}

impl SolverSession for ThresholdSession<'_> {
    fn next_filter(&mut self) -> Option<NodeId> {
        None
    }

    fn placement(&self) -> &FilterSet {
        &self.placement
    }

    fn fr(&mut self) -> f64 {
        self.fr.fr_of(self.cg, &self.placement)
    }

    fn advance_to(&mut self, k: usize) {
        let scale = k as f64 / self.cg.node_count() as f64;
        // `u_v ≤ 1 − 2⁻⁵³`, so a clamped threshold of 1 always places.
        let chosen = self
            .draw
            .iter()
            .enumerate()
            .filter(|&(_, &(u, w))| u < (w * scale).min(1.0))
            .map(|(i, _)| NodeId::new(i));
        self.placement = FilterSet::from_nodes(self.cg.node_count(), chosen);
    }

    fn into_placement(self: Box<Self>) -> FilterSet {
        self.placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_graph::DiGraph;

    fn figure1() -> CGraph {
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
        CGraph::new(&g, NodeId::new(0)).unwrap()
    }

    #[test]
    fn rand_k_returns_exactly_k_distinct_non_source_nodes() {
        let cg = figure1();
        for seed in 0..10 {
            let placement = RandK::new().place(&cg, 3, seed);
            assert_eq!(placement.len(), 3);
            assert!(!placement.contains(cg.source()));
        }
    }

    #[test]
    fn rand_k_sessions_are_prefix_nested() {
        let cg = figure1();
        let solver = RandK::new();
        let mut session = solver.session(&cg, 42);
        let mut picks = Vec::new();
        while let Some(v) = session.next_filter() {
            picks.push(v);
        }
        assert_eq!(picks.len(), 6, "every non-source node ladders in");
        for k in 0..=6 {
            assert_eq!(
                solver.place(&cg, k, 42).nodes(),
                &picks[..k],
                "prefix at k={k}"
            );
        }
    }

    #[test]
    fn rand_i_has_expected_size_k() {
        let cg = figure1();
        let k = 3;
        let solver = RandI::new();
        let total: usize = (0..600).map(|seed| solver.place(&cg, k, seed).len()).sum();
        let mean = total as f64 / 600.0;
        // E[size] = k·(n−1)/n ≈ 2.57 here (source excluded).
        let expect = k as f64 * 6.0 / 7.0;
        assert!((mean - expect).abs() < 0.3, "mean={mean} expect={expect}");
    }

    #[test]
    fn rand_w_weights_match_hand_computation() {
        let cg = figure1();
        // w(x=1) = 1/din(z1) + 1/din(z2) = 1 + 1/2.
        assert!((RandW::weight(&cg, NodeId::new(1)) - 1.5).abs() < 1e-12);
        // w(z2=4) = 1/din(w) = 1/3 (w's parents are z1, z2, z3).
        assert!((RandW::weight(&cg, NodeId::new(4)) - 1.0 / 3.0).abs() < 1e-12);
        // Sinks weigh 0.
        assert_eq!(RandW::weight(&cg, NodeId::new(6)), 0.0);
    }

    #[test]
    fn rand_w_never_selects_zero_weight_sinks() {
        let cg = figure1();
        for seed in 0..20 {
            let placement = RandW::new().place(&cg, 5, seed);
            assert!(
                !placement.contains(NodeId::new(6)),
                "sink chosen at seed {seed}"
            );
        }
    }

    #[test]
    fn seeded_runs_reproduce() {
        let cg = figure1();
        for seed in [1, 7, 42] {
            assert_eq!(
                RandK::new().place(&cg, 2, seed).nodes(),
                RandK::new().place(&cg, 2, seed).nodes()
            );
            assert_eq!(
                RandI::new().place(&cg, 2, seed).nodes(),
                RandI::new().place(&cg, 2, seed).nodes()
            );
            assert_eq!(
                RandW::new().place(&cg, 2, seed).nodes(),
                RandW::new().place(&cg, 2, seed).nodes()
            );
        }
    }

    #[test]
    fn non_nested_sessions_answer_any_budget_order_like_place() {
        let cg = figure1();
        let solver = RandI::new();
        let mut session = solver.session(&cg, 7);
        assert!(session.next_filter().is_none(), "Rand_I does not ladder");
        for k in [2usize, 5, 3] {
            session.advance_to(k);
            assert_eq!(
                session.placement().nodes(),
                solver.place(&cg, k, 7).nodes(),
                "advance_to({k}) must equal the one-shot draw"
            );
        }
    }
}
