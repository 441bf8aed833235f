//! The [`Solver`] and [`SolverSession`] traits, the solver registry,
//! and shared selection helpers.

use fp_graph::NodeId;
use fp_num::Count;
use fp_propagation::{CGraph, FilterSet};

/// A filter-placement algorithm for DAG c-graphs.
///
/// Solvers are *stateless recipes*: one built solver serves any number
/// of graphs, budgets, and trial seeds. All per-run state — the
/// incremental engine, scratch buffers, the RNG of a randomized
/// baseline — lives in the [`SolverSession`] returned by
/// [`Solver::session`], so experiments are reproducible from
/// `(solver, graph, seed)` alone.
///
/// The paper's greedy algorithms are **anytime**: each round appends
/// one filter, so the placement at every budget `k ≤ k_max` is a prefix
/// of a single run. The session API exposes that ladder directly —
/// callers that need a whole FR-versus-k curve walk *one* session up
/// the budget axis instead of re-solving per `k` (see
/// `Problem::solve_ladder` in `fp-core`).
pub trait Solver: Send + Sync {
    /// Start an anytime placement session on `cg`.
    ///
    /// The session owns every piece of per-run state; `seed` is read
    /// only by randomized baselines (deterministic solvers ignore it).
    /// Sessions start at budget 0 (no filters placed).
    fn session<'a>(&'a self, cg: &'a CGraph, seed: u64) -> Box<dyn SolverSession + 'a>;

    /// One-shot convenience: a fresh session advanced to budget `k`.
    ///
    /// Greedy solvers may return fewer than `k` filters when no
    /// remaining candidate has positive impact (additional filters
    /// would be dead weight); randomized baselines return a set whose
    /// *expected* size is `k`, exactly as in §5. `seed` is read only by
    /// the randomized baselines.
    fn place(&self, cg: &CGraph, k: usize, seed: u64) -> FilterSet {
        let mut session = self.session(cg, seed);
        session.advance_to(k);
        session.into_placement()
    }
}

/// One in-progress placement run: a solver's engine/scratch state plus
/// the placement built so far, advanced one budget rung at a time.
///
/// Most solvers are **prefix-nested** (anytime): the placement at
/// budget `k` extends the placement at `k − 1` by at most one filter,
/// so [`SolverSession::next_filter`] walks the whole ladder and
/// [`SolverSession::advance_to`] is just a bounded walk. `Rand_I` and
/// `Rand_W` draw one threshold per node instead: their draw at `k`
/// contains every draw at a smaller budget, but one budget step can add
/// several filters, so `advance_to` recomputes the placement from the
/// session's one draw and `next_filter` returns `None`. Either way,
/// after `advance_to(k)` the placement is bit-identical to
/// [`Solver::place`]`(cg, k, seed)` (pinned by the ladder-equivalence
/// proptests).
pub trait SolverSession {
    /// Extend the ladder by one rung: pick, commit, and return the next
    /// filter. `None` when no remaining candidate helps (greedy early
    /// stop), when the ladder is exhausted, or for the threshold draws
    /// of `Rand_I`/`Rand_W` (which only support [`advance_to`]).
    ///
    /// [`advance_to`]: SolverSession::advance_to
    fn next_filter(&mut self) -> Option<NodeId>;

    /// The placement built so far.
    fn placement(&self) -> &FilterSet;

    /// The paper's Filter Ratio `FR(A) = F(A)/F(V)` of the current
    /// placement, read from a live forward kernel's `Φ(A, V)` against
    /// the denominators (`Φ(∅,V)`, `F(V)`) of that kernel's init.
    ///
    /// Engine-backed sessions read their own engine in O(1). The
    /// others keep a kernel beside the placement ([`crate::FrCache`]):
    /// the first read builds it (one forward pass), and each read
    /// flips only the filters that changed since the last one. Only
    /// where the declared counter saturates does a read run a pass.
    fn fr(&mut self) -> f64;

    /// Bring the placement to budget `k`.
    ///
    /// Ladder sessions step [`SolverSession::next_filter`] until the
    /// placement holds `k` filters (or the solver stops early);
    /// `Rand_I`/`Rand_W` sessions replace the placement with their
    /// draw's placement at budget `k`. Walking budgets in ascending
    /// order is the cheap direction — a ladder session never drops a
    /// filter, so asking for a *smaller* budget than already placed is a
    /// no-op there.
    fn advance_to(&mut self, k: usize) {
        while self.placement().len() < k {
            if self.next_filter().is_none() {
                break;
            }
        }
    }

    /// Surrender the placement (what a finished solver returns).
    fn into_placement(self: Box<Self>) -> FilterSet;
}

/// Registry of every solver the evaluation compares, in the paper's
/// legend order.
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub enum SolverKind {
    /// Greedy_All (Algorithm 1).
    GreedyAll,
    /// Greedy_Max.
    GreedyMax,
    /// Greedy_1.
    GreedyOne,
    /// Greedy_L (Algorithm 2).
    GreedyL,
    /// Random weighted (Rand_W).
    RandW,
    /// Random independent (Rand_I).
    RandI,
    /// Random k (Rand_K).
    RandK,
    /// Group betweenness baseline (not in the paper's evaluation; §2).
    Betweenness,
}

impl SolverKind {
    /// Every kind, in legend order: the paper's seven, then
    /// Betweenness.
    pub const ALL: [SolverKind; 8] = [
        SolverKind::GreedyAll,
        SolverKind::GreedyMax,
        SolverKind::GreedyOne,
        SolverKind::GreedyL,
        SolverKind::RandW,
        SolverKind::RandI,
        SolverKind::RandK,
        SolverKind::Betweenness,
    ];

    /// All kinds the paper's figures plot, in legend order.
    pub const PAPER_SET: [SolverKind; 7] = [
        SolverKind::GreedyAll,
        SolverKind::GreedyMax,
        SolverKind::GreedyOne,
        SolverKind::GreedyL,
        SolverKind::RandW,
        SolverKind::RandI,
        SolverKind::RandK,
    ];

    /// Instantiate with counter type `C`. Solvers are stateless — the
    /// trial seed enters at [`Solver::session`]/[`Solver::place`] time,
    /// so one built solver serves every trial of a sweep.
    pub fn build<C: Count>(self) -> Box<dyn Solver> {
        match self {
            SolverKind::GreedyAll => Box::new(crate::GreedyAll::<C>::new()),
            SolverKind::GreedyMax => Box::new(crate::GreedyMax::<C>::new()),
            SolverKind::GreedyOne => Box::new(crate::GreedyOne::new()),
            SolverKind::GreedyL => Box::new(crate::GreedyL::<C>::new()),
            SolverKind::RandW => Box::new(crate::RandW::new()),
            SolverKind::RandI => Box::new(crate::RandI::new()),
            SolverKind::RandK => Box::new(crate::RandK::new()),
            SolverKind::Betweenness => Box::new(crate::BetweennessSolver::new()),
        }
    }

    /// Place via the full-recompute oracle path: the greedy solvers'
    /// `place_full_recompute` reference implementations (fresh
    /// `impacts()` / `phi_total` sweeps every round) instead of the
    /// incremental [`fp_propagation::ImpactEngine`]. Placements are
    /// bit-identical to [`SolverKind::build`]`.place(..)` — the
    /// engine-equivalence proptests and the fp-core oracle gate compare
    /// the two paths; solvers without an engine path just run normally.
    pub fn place_oracle<C: Count>(self, cg: &CGraph, k: usize, seed: u64) -> FilterSet {
        match self {
            SolverKind::GreedyAll => crate::GreedyAll::<C>::place_full_recompute(cg, k),
            SolverKind::GreedyMax => crate::GreedyMax::<C>::place_full_recompute(cg, k),
            SolverKind::GreedyL => crate::GreedyL::<C>::place_full_recompute(cg, k),
            other => other.build::<C>().place(cg, k, seed),
        }
    }

    /// Whether this solver is randomized (experiments average 25 runs).
    pub fn is_randomized(self) -> bool {
        matches!(
            self,
            SolverKind::RandW | SolverKind::RandI | SolverKind::RandK
        )
    }

    /// Whether this solver's ladder is **prefix-nested**: the placement
    /// at budget `k` extends the placement at `k − 1`, so one
    /// [`SolverSession`] walked upward serves every budget and earlier
    /// rungs can be read back as prefixes of the pick sequence.
    ///
    /// `Rand_I` and `Rand_W` are the two registry members where this is
    /// false: their draws nest in `k`, but one budget step can add
    /// several filters, in node order, so an earlier budget is not a
    /// count prefix of a later draw and [`SolverSession::advance_to`]
    /// recomputes the placement from the session's one draw instead of
    /// extending. Long-running services use this to decide whether a
    /// warm session's history can answer a smaller budget than it has
    /// already reached.
    ///
    /// ```
    /// use fp_algorithms::SolverKind;
    /// assert!(SolverKind::GreedyAll.is_prefix_nested());
    /// assert!(SolverKind::RandK.is_prefix_nested()); // one shuffle, prefix-read
    /// assert!(!SolverKind::RandI.is_prefix_nested());
    /// assert!(!SolverKind::RandW.is_prefix_nested());
    /// ```
    pub fn is_prefix_nested(self) -> bool {
        !matches!(self, SolverKind::RandW | SolverKind::RandI)
    }

    /// The paper's legend label.
    pub fn label(self) -> &'static str {
        match self {
            SolverKind::GreedyAll => "G_ALL",
            SolverKind::GreedyMax => "G_Max",
            SolverKind::GreedyOne => "G_1",
            SolverKind::GreedyL => "G_L",
            SolverKind::RandW => "Rand_W",
            SolverKind::RandI => "Rand_I",
            SolverKind::RandK => "Rand_K",
            SolverKind::Betweenness => "Betweenness",
        }
    }

    /// The kind whose [`SolverKind::label`] is `label`, compared
    /// case-insensitively: the one parser behind every `--solver` flag,
    /// serve's `POST /sessions` and stored run manifests.
    ///
    /// ```
    /// use fp_algorithms::SolverKind;
    /// assert_eq!(SolverKind::from_label("g_max"), Ok(SolverKind::GreedyMax));
    /// assert!(SolverKind::from_label("nope").is_err());
    /// ```
    pub fn from_label(label: &str) -> Result<SolverKind, String> {
        Self::ALL
            .into_iter()
            .find(|k| k.label().eq_ignore_ascii_case(label))
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|k| k.label()).collect();
                format!(
                    "unknown solver {label:?}; expected one of {}",
                    names.join(", ")
                )
            })
    }
}

/// Index of the maximum positive count, ties broken toward the smallest
/// index (deterministic across runs and count types). `None` if every
/// entry is zero.
pub fn argmax_count<C: Count>(scores: &[C]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, s) in scores.iter().enumerate() {
        if s.is_zero() {
            continue;
        }
        match best {
            None => best = Some(i),
            Some(b) if *s > scores[b] => best = Some(i),
            _ => {}
        }
    }
    best
}

/// Indices of the `k` largest positive counts, in descending score
/// order, ties toward smaller indices.
pub fn top_k_by_count<C: Count>(scores: &[C], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len())
        .filter(|&i| !scores[i].is_zero())
        .collect();
    idx.sort_by(|&a, &b| scores[b].cmp(&scores[a]).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_num::Sat64;

    fn counts(v: &[u64]) -> Vec<Sat64> {
        v.iter().map(|&x| Sat64::from_u64(x)).collect()
    }

    #[test]
    fn argmax_prefers_smallest_index_on_ties() {
        assert_eq!(argmax_count(&counts(&[0, 5, 5, 3])), Some(1));
        assert_eq!(argmax_count(&counts(&[0, 0])), None);
        assert_eq!(argmax_count(&counts(&[7])), Some(0));
    }

    #[test]
    fn top_k_orders_and_truncates() {
        assert_eq!(top_k_by_count(&counts(&[1, 9, 0, 9, 4]), 3), vec![1, 3, 4]);
        assert_eq!(top_k_by_count(&counts(&[0, 0, 0]), 2), Vec::<usize>::new());
        assert_eq!(top_k_by_count(&counts(&[2, 1]), 10), vec![0, 1]);
    }

    #[test]
    fn registry_builds_every_kind() {
        for kind in SolverKind::ALL {
            kind.build::<Sat64>();
        }
    }

    #[test]
    fn paper_set_is_the_seven_figure_series() {
        assert_eq!(SolverKind::PAPER_SET.len(), 7);
        assert_eq!(
            SolverKind::PAPER_SET
                .iter()
                .filter(|k| k.is_randomized())
                .count(),
            3
        );
    }
}
