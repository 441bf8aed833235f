//! [`OnlinePlacement`]: maintaining a placement under an edge stream.
//!
//! The batch pipeline answers "where do `k` filters go on *this*
//! graph?". Live graphs keep changing: subscriptions appear and lapse,
//! so the c-graph the placement was computed on drifts away underneath
//! it. This module is the dynamic-graph driver built on
//! [`ImpactEngine`]'s full mutation set (DESIGN.md §12):
//!
//! * every stream event is applied incrementally
//!   ([`ImpactEngine::apply`]), which keeps the live `Φ(A)` exact on
//!   the mutated graph without any re-solve;
//! * the driver tracks **drift** — the relative movement of `Φ(A)`
//!   since the placement was last (re)computed — and triggers a
//!   **repair round** only when drift crosses a threshold;
//! * a repair drops every placed filter in one batch
//!   ([`ImpactEngine::clear_filters`]: one walk per direction, not one
//!   per filter) and re-picks `k` on the warm engine with the CELF loop
//!   Greedy_All's session runs ([`fp_algorithms::Celf`]), borrowing the
//!   engine through a [`DeferredEngine`]: one scan seeds the bound heap,
//!   a pick re-scores only the candidates that can still win, and the
//!   engine is settled again before the repair returns. Because filter
//!   removal restores engine state exactly (the mutation identity
//!   laws) and CELF picks what the eager argmax picks, the repaired
//!   placement is bit-identical to a cold greedy solve on the current
//!   graph ([`greedy_rebuild`], which keeps the eager argmax loop as
//!   the independent reference) at a fraction of the cost.
//!
//! The threshold is the knob of the repair-cost-versus-quality trade:
//! `0.0` repairs on any Φ movement (quality of rebuild-per-mutation,
//! maximal repair work), `∞` never repairs (zero repair work, quality
//! decays with the stream). `fp online` replays one stream per
//! threshold and reports repair cost against final quality for each;
//! perfbench's `online-churn` workload times [`OnlinePlacement`].

use fp_algorithms::Celf;
use fp_graph::NodeId;
use fp_num::{Count, Wide128};
use fp_obs::Counter;
use fp_propagation::{
    CGraph, DeferredEngine, FilterSet, ImpactEngine, Mutation, MutationError, ObjectiveCache,
};
use std::collections::HashSet;
use std::sync::Arc;

/// Configuration for an [`OnlinePlacement`] driver.
#[derive(Clone, Copy, Debug)]
pub struct OnlineConfig {
    /// Filter budget maintained across the stream.
    pub k: usize,
    /// Repair when `|Φ_now − Φ_ref| / max(Φ_ref, 1)` exceeds this.
    /// `0.0` repairs on any movement; `f64::INFINITY` never repairs.
    pub drift_threshold: f64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            k: 8,
            drift_threshold: 0.05,
        }
    }
}

/// What one stream event did to the driver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EventOutcome {
    /// Whether the mutation changed engine state.
    pub changed: bool,
    /// Drift after the event (relative to the last repair's Φ);
    /// `0.0` again if the event triggered a repair.
    pub drift: f64,
    /// Whether a repair round ran.
    pub repaired: bool,
    /// Greedy picks the repair spent (`0` when `repaired` is false).
    pub repair_picks: usize,
}

/// Running totals over a driver's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OnlineStats {
    /// Events that changed engine state.
    pub applied: usize,
    /// Repair rounds run.
    pub repairs: usize,
    /// Total greedy picks across all repairs (the stream's repair
    /// cost, in units of one incremental filter insertion).
    pub repair_picks: usize,
}

/// A filter placement kept live under a mutation stream.
pub struct OnlinePlacement {
    engine: ImpactEngine<'static, Wide128>,
    k: usize,
    drift_threshold: f64,
    phi_ref: f64,
    stats: OnlineStats,
    events_total: Arc<Counter>,
    repairs_total: Arc<Counter>,
}

impl OnlinePlacement {
    /// Take ownership of a c-graph and place the initial `k` filters
    /// (one cold CELF solve on the driver's engine).
    pub fn new(cg: CGraph, cfg: OnlineConfig) -> Self {
        let n = cg.node_count();
        let mut driver = Self {
            engine: ImpactEngine::from_owned(cg, FilterSet::empty(n)),
            k: cfg.k,
            drift_threshold: cfg.drift_threshold,
            phi_ref: 0.0,
            stats: OnlineStats::default(),
            events_total: fp_obs::counter("fp_online_events_total"),
            repairs_total: fp_obs::counter("fp_online_repairs_total"),
        };
        celf_fill(&mut driver.engine, cfg.k);
        driver.phi_ref = driver.engine.phi().to_f64();
        driver
    }

    /// The budget the driver maintains.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The current placement (insertion order = greedy pick order of
    /// the last repair).
    pub fn placement(&self) -> &FilterSet {
        self.engine.filters()
    }

    /// The live engine (current graph, Φ, impacts).
    pub fn engine(&self) -> &ImpactEngine<'static, Wide128> {
        &self.engine
    }

    /// Relative Φ movement since the last repair.
    pub fn drift(&self) -> f64 {
        let now = self.engine.phi().to_f64();
        (now - self.phi_ref).abs() / self.phi_ref.max(1.0)
    }

    /// Running totals.
    pub fn stats(&self) -> OnlineStats {
        self.stats
    }

    /// Apply one stream event; repair if drift crosses the threshold.
    ///
    /// Errors propagate from [`ImpactEngine::apply`] and leave the
    /// driver untouched (a rejected mutation contributes no drift).
    pub fn apply_event(&mut self, m: Mutation) -> Result<EventOutcome, MutationError> {
        let outcome = self.engine.apply(m)?;
        self.events_total.inc();
        if outcome.changed {
            self.stats.applied += 1;
        }
        let drift = self.drift();
        if drift > self.drift_threshold {
            let picks = self.repair();
            return Ok(EventOutcome {
                changed: outcome.changed,
                drift: self.drift(),
                repaired: true,
                repair_picks: picks,
            });
        }
        Ok(EventOutcome {
            changed: outcome.changed,
            drift,
            repaired: false,
            repair_picks: 0,
        })
    }

    /// Force a repair round: drop every placed filter in one batch,
    /// re-pick up to `k` by CELF on the driver's own engine, and
    /// re-anchor the drift reference. Returns the number of greedy
    /// picks spent. The result is bit-identical to [`greedy_rebuild`]
    /// on the current graph — filter removal restores engine state
    /// exactly, so the warm engine re-picks from the same empty-set
    /// state a cold solve would start from, and CELF picks what the
    /// eager argmax picks.
    pub fn repair(&mut self) -> usize {
        let span = fp_obs::span("online.repair");
        self.engine.clear_filters();
        let picks = celf_fill(&mut self.engine, self.k);
        self.phi_ref = self.engine.phi().to_f64();
        self.stats.repairs += 1;
        self.stats.repair_picks += picks;
        self.repairs_total.inc();
        let _span = span.arg("picks", picks as i64);
        picks
    }

    /// The placement's Filter Ratio on the *current* graph, from a
    /// fresh objective cache (two O(|E|) passes: the cache's one and
    /// the placement's — a checkpoint measurement, not something to
    /// call per event).
    pub fn quality(&self) -> f64 {
        let cg = self.engine.cgraph();
        let cache = ObjectiveCache::<Wide128>::new(cg);
        cache.filter_ratio(cg, self.engine.filters())
    }
}

/// Pick up to `k` filters into `engine`'s empty filter set by CELF
/// over deferred inserts, and leave the engine settled; returns the
/// number of picks.
fn celf_fill(engine: &mut ImpactEngine<'static, Wide128>, k: usize) -> usize {
    let mut celf = Celf::new(DeferredEngine::new(engine));
    let picks = celf.by_ref().take(k).count();
    celf.into_gains().settle();
    picks
}

/// Greedily insert filters, one eager argmax scan per pick, until the
/// budget is met or no candidate has positive impact; returns the
/// number of picks. The reference the CELF repair is checked against.
fn greedy_fill(engine: &mut ImpactEngine<'_, Wide128>, k: usize) -> usize {
    let mut picks = 0;
    while engine.filters().len() < k {
        match engine.best_candidate() {
            Some(v) => {
                engine.insert_filter(v);
                picks += 1;
            }
            None => break,
        }
    }
    picks
}

/// The rebuild-per-mutation baseline step: a cold greedy solve of
/// budget `k` on `cg`. Bit-identical to what a repair round on a warm
/// engine produces (the equivalence the tests pin).
pub fn greedy_rebuild(cg: &CGraph, k: usize) -> FilterSet {
    let mut engine = ImpactEngine::<Wide128>::new(cg, FilterSet::empty(cg.node_count()));
    greedy_fill(&mut engine, k);
    engine.into_filters()
}

/// A deterministic edge-mutation stream over `cg`.
///
/// Events alternate (seed-driven) between removing a present edge and
/// inserting an absent one. Inserted edges always run *forward* in
/// `cg`'s frozen topological order, so every prefix of the stream is
/// applicable: acyclicity is preserved by construction and the
/// engine's fast no-reorder path stays hot — the regime the paper's
/// pub-sub graphs live in, where subscriptions churn but the broker
/// hierarchy does not invert.
pub fn mutation_stream(cg: &CGraph, len: usize, seed: u64) -> Vec<Mutation> {
    // splitmix64: well-mixed, dependency-free, stable across platforms.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let n = cg.node_count();
    let mut edges: Vec<(u32, u32)> = cg
        .csr()
        .edges()
        .map(|(u, v)| (u.index() as u32, v.index() as u32))
        .collect();
    let mut present: HashSet<(u32, u32)> = edges.iter().copied().collect();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let want_remove = next() % 2 == 0 && edges.len() > 1;
        if want_remove {
            let i = (next() % edges.len() as u64) as usize;
            let (u, v) = edges.swap_remove(i);
            present.remove(&(u, v));
            out.push(Mutation::RemoveEdge {
                from: NodeId::new(u as usize),
                to: NodeId::new(v as usize),
            });
            continue;
        }
        // Rejection-sample an absent forward pair; on a saturated
        // graph fall back to a removal so the stream never stalls.
        let mut inserted = false;
        for _ in 0..64 {
            let a = (next() % n as u64) as usize;
            let b = (next() % n as u64) as usize;
            if a == b {
                continue;
            }
            let (u, v) = if cg.topo_position(NodeId::new(a)) < cg.topo_position(NodeId::new(b)) {
                (a as u32, b as u32)
            } else {
                (b as u32, a as u32)
            };
            if present.insert((u, v)) {
                edges.push((u, v));
                out.push(Mutation::InsertEdge {
                    from: NodeId::new(u as usize),
                    to: NodeId::new(v as usize),
                });
                inserted = true;
                break;
            }
        }
        if !inserted {
            let i = (next() % edges.len() as u64) as usize;
            let (u, v) = edges.swap_remove(i);
            present.remove(&(u, v));
            out.push(Mutation::RemoveEdge {
                from: NodeId::new(u as usize),
                to: NodeId::new(v as usize),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use fp_graph::DiGraph;

    fn layered(levels: usize, per_level: usize) -> CGraph {
        // Source fans into a small complete-bipartite layer stack —
        // enough redundancy that every budget has positive impact.
        let n = 1 + levels * per_level;
        let mut pairs = Vec::new();
        for t in 1..=per_level {
            pairs.push((0, t));
        }
        for level in 1..levels {
            for a in 0..per_level {
                for b in 0..per_level {
                    pairs.push((1 + (level - 1) * per_level + a, 1 + level * per_level + b));
                }
            }
        }
        let g = DiGraph::from_pairs(n, pairs).unwrap();
        CGraph::new(&g, NodeId::new(0)).unwrap()
    }

    #[test]
    fn streams_are_deterministic_and_applicable() {
        let cg = layered(4, 3);
        let a = mutation_stream(&cg, 60, 7);
        let b = mutation_stream(&cg, 60, 7);
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(
            mutation_stream(&cg, 60, 8),
            a,
            "different seed, different stream"
        );
        let mut engine = ImpactEngine::<Wide128>::from_owned(cg, FilterSet::empty(13));
        for (i, &m) in a.iter().enumerate() {
            engine.apply(m).unwrap_or_else(|e| panic!("event {i}: {e}"));
        }
    }

    #[test]
    fn repair_matches_a_cold_rebuild_exactly() {
        let cg = layered(4, 3);
        let stream = mutation_stream(&cg, 40, 11);
        let mut driver = OnlinePlacement::new(
            cg,
            OnlineConfig {
                k: 3,
                drift_threshold: f64::INFINITY,
            },
        );
        for &m in &stream {
            driver.apply_event(m).unwrap();
        }
        driver.repair();
        let cold = greedy_rebuild(driver.engine().cgraph(), 3);
        assert_eq!(driver.placement().nodes(), cold.nodes());
        // And the warm engine's Φ matches a fresh Problem's view.
        let p = Problem::from_cgraph(driver.engine().cgraph().clone());
        assert_eq!(
            driver.quality().to_bits(),
            p.filter_ratio(driver.placement()).to_bits()
        );
    }

    #[test]
    fn zero_threshold_repairs_track_every_change() {
        let cg = layered(3, 3);
        let stream = mutation_stream(&cg, 25, 3);
        let mut driver = OnlinePlacement::new(
            cg,
            OnlineConfig {
                k: 2,
                drift_threshold: 0.0,
            },
        );
        for &m in &stream {
            let out = driver.apply_event(m).unwrap();
            if out.repaired {
                let cold = greedy_rebuild(driver.engine().cgraph(), 2);
                assert_eq!(driver.placement().nodes(), cold.nodes());
            }
        }
        assert!(driver.stats().repairs > 0, "zero threshold must repair");
    }

    #[test]
    fn infinite_threshold_never_repairs() {
        let cg = layered(3, 3);
        let stream = mutation_stream(&cg, 25, 5);
        let mut driver = OnlinePlacement::new(
            cg,
            OnlineConfig {
                k: 2,
                drift_threshold: f64::INFINITY,
            },
        );
        let initial = driver.placement().nodes().to_vec();
        for &m in &stream {
            let out = driver.apply_event(m).unwrap();
            assert!(!out.repaired);
        }
        assert_eq!(driver.stats().repairs, 0);
        assert_eq!(driver.placement().nodes(), initial, "placement pinned");
    }
}
