//! The CELF pick loop, and the Greedy_All session it drives.

use fp_graph::NodeId;
use fp_num::Count;
use fp_propagation::incremental::{unfiltered_forward, Forward, IncrementalPropagation};
use fp_propagation::{CGraph, DeferredEngine, FilterSet, ImpactEngine, ObjectiveCache};
use std::borrow::BorrowMut;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::SolverSession;

/// What a [`Celf`] loop scores: a gain per candidate that can only
/// shrink as picks are taken, so a gain scored before a pick bounds the
/// gain after it.
///
/// Greedy_All's `I(v|A)` through a [`DeferredEngine`] has this shape by
/// the submodularity of `F` (received counts and suffixes only shrink,
/// and their product is monotone even for saturating counters), and so
/// does Greedy_L's `(recv − 1)₊·dout`, whose receptions only shrink as
/// filters are added.
pub trait Gains {
    /// The counter gains are scored in.
    type Gain: Count;

    /// Every candidate with a positive gain under the picks taken so
    /// far, with that gain, in node order.
    fn positive(&mut self) -> impl Iterator<Item = (NodeId, Self::Gain)> + '_;

    /// `v`'s exact gain under the picks taken so far.
    fn gain(&mut self, v: NodeId) -> Self::Gain;

    /// Take `v` as the next pick.
    fn take(&mut self, v: NodeId);
}

impl<'a, C: Count, E: BorrowMut<ImpactEngine<'a, C>>> Gains for DeferredEngine<'a, C, E> {
    type Gain = C;

    fn positive(&mut self) -> impl Iterator<Item = (NodeId, C)> + '_ {
        self.settle().positive_impacts()
    }

    fn gain(&mut self, v: NodeId) -> C {
        self.impact(v)
    }

    fn take(&mut self, v: NodeId) {
        self.insert_filter(v);
    }
}

/// A CELF heap entry: `(gain bound, node, picks made when it was
/// scored)`. Entries order by bound, then toward the smaller node id —
/// exactly the eager argmax's tie-break; the third field never decides,
/// since a node appears at most once. It marks an entry re-scored since
/// the last pick, which is therefore exact.
type Entry<C> = (C, Reverse<u32>, u32);

/// The one CELF pick loop [Leskovec et al., KDD'07] of every greedy
/// that re-scores between picks: an iterator of `(pick, its exact
/// gain)` over the [`Gains`] it holds.
///
/// * The bound heap is seeded at the first pick, from every positive
///   gain (one batch of evaluations, a `celf.seed` span), and sized to
///   them exactly.
/// * A pick re-scores stale candidates until one beats the next bound
///   (ties toward the smaller node id, as the eager argmax breaks
///   them), then takes it. By the upper-bound invariant it dominates
///   everything below it, so the picks are the eager argmax's.
/// * It ends once no candidate has a positive gain.
///
/// It runs on whatever its gains hold: an owned [`DeferredEngine`] (the
/// Greedy_All session), a borrowed one (an online repair, on the
/// driver's own engine) or Greedy_L's forward kernel.
pub struct Celf<G: Gains> {
    gains: G,
    heap: Option<BinaryHeap<Entry<G::Gain>>>,
    picks: u32,
}

impl<G: Gains> Celf<G> {
    /// A loop over `gains`, with nothing picked or scored yet.
    pub fn new(gains: G) -> Self {
        Self {
            gains,
            heap: None,
            picks: 0,
        }
    }

    /// The gains the loop scores.
    pub fn gains(&self) -> &G {
        &self.gains
    }

    /// The gains, mutably: for reads that settle state (an FR readout),
    /// never for a pick the loop did not make.
    pub fn gains_mut(&mut self) -> &mut G {
        &mut self.gains
    }

    /// Surrender the gains.
    pub fn into_gains(self) -> G {
        self.gains
    }
}

impl<G: Gains> Iterator for Celf<G> {
    type Item = (NodeId, G::Gain);

    fn next(&mut self) -> Option<Self::Item> {
        let gains = &mut self.gains;
        let heap = self.heap.get_or_insert_with(|| {
            let _span = fp_obs::span("celf.seed");
            let mut entries = Vec::with_capacity(gains.positive().count());
            entries.extend(
                gains
                    .positive()
                    .map(|(v, gain)| (gain, Reverse(v.index() as u32), 0)),
            );
            BinaryHeap::from(entries)
        });
        loop {
            let (mut gain, Reverse(id), scored) = heap.pop()?;
            let v = NodeId::new(id as usize);
            if scored != self.picks {
                // Stale: re-score exactly.
                gain = gains.gain(v);
                if gain.is_zero() {
                    continue;
                }
                // Take it now if it still beats the next-best bound.
                let beaten = heap.peek().is_some_and(|(next, Reverse(u), _)| {
                    gain < *next || (gain == *next && *u < id)
                });
                if beaten {
                    heap.push((gain, Reverse(id), self.picks));
                    continue;
                }
            }
            // Fresh for this pick: by the upper-bound invariant it
            // dominates everything below it.
            gains.take(v);
            self.picks += 1;
            return Some((v, gain));
        }
    }
}

/// The anytime session behind [`crate::GreedyAll`]: a [`Celf`] loop
/// over a [`DeferredEngine`], both persisting across budget rungs.
///
/// * Budget 0 costs the engine init alone: the loop seeds its heap at
///   the first pick, from the engine's unfiltered impacts.
/// * Each re-score settles the forward pass only through the candidate
///   it scores.
/// * `fr()` needs `Φ(A,V)`, which the session keeps as
///   `Φ(∅,V) − Σ I(pick | picks before it)` — the marginal-gain
///   identity `Φ(A ∪ v) = Φ(A) − I(v|A)` — so no read settles the
///   frontier. While `Φ(∅,V)` is unsaturated every count of an exact
///   counter is exact, and this is the engine's `Φ` bit for bit; where
///   `Φ(∅,V)` saturates, `fr()` settles fully and reads the engine's
///   `Φ` instead.
pub(crate) struct CelfSession<'a, C: Count> {
    celf: Celf<DeferredEngine<'a, C>>,
    denominators: ObjectiveCache<C>,
    /// `Φ(A,V)` from the picks' gains; `None` where `Φ(∅,V)` saturates.
    phi: Option<C>,
}

impl<'a, C: Count> CelfSession<'a, C> {
    fn new(cg: &'a CGraph, fwd: IncrementalPropagation<C>) -> Self {
        let denominators = ObjectiveCache::from_forward(cg, &fwd);
        let phi_empty = denominators.phi_empty();
        let phi = (!phi_empty.is_saturated()).then(|| phi_empty.clone());
        Self {
            celf: Celf::new(DeferredEngine::new(ImpactEngine::from_forward(cg, fwd))),
            denominators,
            phi,
        }
    }
}

impl<C: Count> SolverSession for CelfSession<'_, C> {
    fn next_filter(&mut self) -> Option<NodeId> {
        let (v, gain) = self.celf.next()?;
        if let Some(phi) = &mut self.phi {
            *phi = phi.saturating_sub(&gain);
        }
        Some(v)
    }

    fn placement(&self) -> &FilterSet {
        self.celf.gains().filters()
    }

    fn fr(&mut self) -> f64 {
        match &self.phi {
            Some(phi) => self.denominators.filter_ratio_from_phi(phi),
            None => self
                .denominators
                .filter_ratio_from_phi(self.celf.gains_mut().settle().phi()),
        }
    }

    fn into_placement(self: Box<Self>) -> FilterSet {
        self.celf.into_gains().into_filters()
    }
}

/// The Greedy_All session on `cg` for a solver declared at `C`.
pub(crate) fn celf_session<'a, C: Count>(cg: &'a CGraph) -> Box<dyn SolverSession + 'a> {
    match unfiltered_forward::<C>(cg) {
        Forward::U64(fwd) => Box::new(CelfSession::new(cg, fwd)),
        Forward::Declared(fwd) => Box::new(CelfSession::new(cg, fwd)),
    }
}
