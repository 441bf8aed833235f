//! [`Problem`]: the one-stop entry point.

use fp_algorithms::{acyclic, solve_ladder_with, SolverKind};
use fp_graph::{DiGraph, GraphError, NodeId};
use fp_num::Wide128;
use fp_propagation::{CGraph, FilterSet, ObjectiveCache};
use std::sync::OnceLock;

/// A Filter Placement instance: a c-graph plus the cached objective
/// denominators, ready to be solved by any [`SolverKind`].
///
/// The denominators (`Φ(∅,V)`, `F(V)`) cost one forward pass, run on
/// the first call that reads them — [`Problem::filter_ratio`],
/// [`Problem::f_value`], [`Problem::phi_empty`] or [`Problem::f_all`] —
/// and kept for the problem's life. Building a problem runs no pass,
/// and a problem only solved (solver sessions read FR off their own
/// kernels) never runs it. Threads that race on the first read all
/// wait for the one pass and read the same pair.
///
/// Cyclic inputs are handled the way the paper prescribes (§4.3): a
/// maximal connected acyclic subgraph rooted at the source is extracted
/// first; [`Problem::was_cyclic`] reports whether that happened.
///
/// All internal arithmetic is declared at [`Wide128`] (saturating
/// `u128`) — the cross-validation test suite pins its agreement with
/// exact [`fp_num::BigCount`] on every dataset in the evaluation. The
/// engine-backed solvers count in `u64` when `Φ(∅,V)` fits, which gives
/// the same bits ([`fp_num::Count::NARROWS_TO_U64`]).
pub struct Problem {
    cg: CGraph,
    cache: OnceLock<ObjectiveCache<Wide128>>,
    was_cyclic: bool,
}

impl Problem {
    /// Build from any directed graph and a source node.
    pub fn new(g: &DiGraph, source: NodeId) -> Result<Self, GraphError> {
        if source.index() >= g.node_count() {
            return Err(GraphError::NodeOutOfRange {
                node: source,
                node_count: g.node_count(),
            });
        }
        let (cg, was_cyclic) = match CGraph::new(g, source) {
            Ok(cg) => (cg, false),
            Err(GraphError::CycleDetected { .. }) => {
                let dag = acyclic::acyclic_naive(g, source);
                (CGraph::new(&dag, source)?, true)
            }
            Err(e) => return Err(e),
        };
        Ok(Self {
            cg,
            cache: OnceLock::new(),
            was_cyclic,
        })
    }

    /// Wrap an already-frozen (hence acyclic) c-graph directly.
    ///
    /// This is how mutation paths rebuild a `Problem` after editing a
    /// graph through [`fp_propagation::ImpactEngine`] or
    /// [`CGraph::insert_edge`]/[`CGraph::remove_edge`]: the mutated
    /// c-graph is acyclic by construction, so no Acyclic extraction
    /// runs and `was_cyclic` is `false`.
    pub fn from_cgraph(cg: CGraph) -> Self {
        Self {
            cg,
            cache: OnceLock::new(),
            was_cyclic: false,
        }
    }

    /// The (acyclic) communication graph being solved.
    pub fn cgraph(&self) -> &CGraph {
        &self.cg
    }

    /// Whether the input contained cycles and went through Acyclic.
    pub fn was_cyclic(&self) -> bool {
        self.was_cyclic
    }

    /// Run a solver with budget `k`.
    pub fn solve(&self, kind: SolverKind, k: usize) -> FilterSet {
        self.solve_seeded(kind, k, 0)
    }

    /// Run a solver with budget `k` and an explicit seed (only the
    /// randomized baselines depend on it). A thin wrapper over the
    /// session API: one session advanced to `k`.
    pub fn solve_seeded(&self, kind: SolverKind, k: usize, seed: u64) -> FilterSet {
        kind.build::<Wide128>().place(&self.cg, k, seed)
    }

    /// Solve a solver's whole **k-ladder** in one run: for each budget
    /// in `ks`, the placement and its FR, computed by walking a single
    /// [`fp_algorithms::SolverSession`] up the budget axis.
    ///
    /// The paper's greedy algorithms are anytime — the placement at
    /// every `k ≤ k_max` is a prefix of one run — so the whole curve
    /// costs one solve at `k_max` (O(solve(k_max)), not O(Σₖ solve(k)))
    /// and each FR readout comes from the session's live `Φ` instead of
    /// a fresh forward pass. Results come back in `ks`'s order
    /// (duplicates included; any order is accepted — budgets are walked
    /// ascending internally). Placements and FRs are bit-identical to
    /// per-k [`Problem::solve_seeded`] + [`Problem::filter_ratio`] —
    /// the ladder-equivalence proptests pin this for every solver.
    pub fn solve_ladder(
        &self,
        kind: SolverKind,
        ks: &[usize],
        seed: u64,
    ) -> Vec<(usize, FilterSet, f64)> {
        let solver = kind.build::<Wide128>();
        solve_ladder_with(solver.as_ref(), &self.cg, ks, seed)
    }

    /// The FR denominators, filled by one forward pass on first use.
    fn cache(&self) -> &ObjectiveCache<Wide128> {
        self.cache.get_or_init(|| ObjectiveCache::new(&self.cg))
    }

    /// `F(A)` for a placement.
    pub fn f_value(&self, filters: &FilterSet) -> Wide128 {
        self.cache().f_of(&self.cg, filters)
    }

    /// The paper's Filter Ratio `FR(A) = F(A)/F(V)` (1.0 = all
    /// removable redundancy removed).
    pub fn filter_ratio(&self, filters: &FilterSet) -> f64 {
        self.cache().filter_ratio(&self.cg, filters)
    }

    /// `Φ(∅, V)`: total receptions with no filters.
    pub fn phi_empty(&self) -> &Wide128 {
        self.cache().phi_empty()
    }

    /// `F(V)`: the maximum removable redundancy.
    pub fn f_all(&self) -> &Wide128 {
        self.cache().f_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1() -> DiGraph {
        DiGraph::from_pairs(
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
        .unwrap()
    }

    #[test]
    fn solves_the_figure1_instance() {
        let p = Problem::new(&figure1(), NodeId::new(0)).unwrap();
        assert!(!p.was_cyclic());
        let placement = p.solve(SolverKind::GreedyAll, 2);
        assert_eq!(p.filter_ratio(&placement), 1.0);
        assert!(p.f_value(&placement) == *p.f_all());
    }

    #[test]
    fn cyclic_inputs_go_through_acyclic_extraction() {
        // Figure 1 plus a cycle-closing edge w → s.
        let mut g = figure1();
        g.add_edge(NodeId::new(6), NodeId::new(0));
        let p = Problem::new(&g, NodeId::new(0)).unwrap();
        assert!(p.was_cyclic());
        // Still solvable, and z2 is still the best single filter.
        let placement = p.solve(SolverKind::GreedyAll, 1);
        assert_eq!(placement.nodes(), &[NodeId::new(4)]);
    }

    #[test]
    fn oracle_path_places_identically() {
        let p = Problem::new(&figure1(), NodeId::new(0)).unwrap();
        for kind in SolverKind::PAPER_SET {
            for k in 0..=3 {
                assert_eq!(
                    p.solve(kind, k).nodes(),
                    kind.place_oracle::<Wide128>(p.cgraph(), k, 0).nodes(),
                    "{kind:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn from_cgraph_matches_new_on_acyclic_inputs() {
        let g = figure1();
        let via_new = Problem::new(&g, NodeId::new(0)).unwrap();
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        let via_cg = Problem::from_cgraph(cg);
        assert!(!via_cg.was_cyclic());
        assert!(via_cg.phi_empty() == via_new.phi_empty());
        assert!(via_cg.f_all() == via_new.f_all());
        let a = via_new.solve(SolverKind::GreedyAll, 2);
        let b = via_cg.solve(SolverKind::GreedyAll, 2);
        assert_eq!(a.nodes(), b.nodes());
    }

    #[test]
    fn rejects_bad_sources() {
        assert!(Problem::new(&figure1(), NodeId::new(99)).is_err());
    }

    #[test]
    fn ladder_matches_per_k_solves_bit_for_bit() {
        let p = Problem::new(&figure1(), NodeId::new(0)).unwrap();
        let ks: Vec<usize> = (0..=4).collect();
        for kind in SolverKind::PAPER_SET {
            let ladder = p.solve_ladder(kind, &ks, 11);
            assert_eq!(ladder.len(), ks.len());
            for (k, placement, fr) in ladder {
                let one_shot = p.solve_seeded(kind, k, 11);
                assert_eq!(placement.nodes(), one_shot.nodes(), "{kind:?} k={k}");
                assert_eq!(
                    fr.to_bits(),
                    p.filter_ratio(&one_shot).to_bits(),
                    "{kind:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn ladder_accepts_unsorted_budgets_with_duplicates() {
        let p = Problem::new(&figure1(), NodeId::new(0)).unwrap();
        let ladder = p.solve_ladder(SolverKind::GreedyAll, &[3, 0, 3, 1], 0);
        let ks: Vec<usize> = ladder.iter().map(|&(k, _, _)| k).collect();
        assert_eq!(ks, vec![3, 0, 3, 1]);
        assert!(ladder[1].1.is_empty());
        assert_eq!(ladder[0].1.nodes(), ladder[2].1.nodes());
        assert_eq!(ladder[3].1.nodes(), &[NodeId::new(4)]);
    }

    #[test]
    fn random_solvers_honor_seeds() {
        let p = Problem::new(&figure1(), NodeId::new(0)).unwrap();
        let a = p.solve_seeded(SolverKind::RandK, 2, 11);
        let b = p.solve_seeded(SolverKind::RandK, 2, 11);
        assert_eq!(a.nodes(), b.nodes());
    }
}
