//! The incremental impact engine: exact marginal impacts kept up to
//! date in both directions under graph and filter mutations.
//!
//! [`crate::impacts`] answers "what is `I(v|A)` for every `v`" with two
//! fresh O(|E|) sweeps and three freshly allocated vectors — fine once,
//! wasteful inside a greedy loop that asks the question `k` times while
//! changing `A` by a single node each round. [`ImpactEngine`] maintains
//! the same three vectors *incrementally* under the full
//! [`Mutation`] set (filter insert/remove, edge insert/remove):
//!
//! * **forward** (`received`/`emitted`/Φ): a mutation at `v` can
//!   change receptions only *downstream* of `v` — a dirty frontier
//!   processed in topological order. This half is the crate's forward
//!   kernel, [`IncrementalPropagation`], which Greedy_L runs on its own;
//! * **backward** (`suffix`): the suffix recurrence gates a child's
//!   continuation on `c ∉ A`, so a mutation at `v` changes only nodes
//!   *upstream* of `v` — a mirror frontier processed in reverse
//!   topological order.
//!
//! Each mutation has a fixed *drift direction* (see [`Mutation`]):
//! `insert_filter` and `remove_edge` can only shrink receptions and
//! suffixes, `remove_filter` and `insert_edge` can only grow them. The
//! frontier passes carry that direction so the monotonicity invariants
//! stay checkable per mutation (DESIGN.md §8, §12).
//!
//! An engine starts with one full sweep per direction. Neither reads
//! the other, so on a graph of at least [`INIT_HELPER_MIN_EDGES`] edges,
//! while a CPU is free ([`hold_cpu`]), the backward sweep runs on a
//! helper thread beside the forward one ([`unfiltered_engine`] also
//! reads the FR denominators meanwhile).
//!
//! Both frontiers are bounded by the affected span and stop early when
//! changes die out, so a greedy round after the first costs
//! O(n + affected ∪ ancestors-of-pick) instead of O(|E|), with **zero
//! per-round allocation**: the frontier flags and value vectors are
//! sized once, at construction. Edge mutations also edit the adjacency
//! lists in place ([`CGraph::insert_edge`] / [`CGraph::remove_edge`]),
//! at amortised O(degree) once the graph is in the CSR's slot layout.
//! An engine built over a shared borrow clones the graph on its first
//! edge mutation (O(|E| + n), once), and that first edit moves the
//! copy into the slot layout (O(n), once).
//!
//! [`ImpactEngine::clear_filters`] drops every filter in one walk per
//! direction, the batched form of one `RemoveFilter` per filter.
//! [`DeferredEngine`] wraps the engine for greedy loops that read only
//! a few nodes per round (CELF): its inserts leave the forward pass
//! pending, and each read settles it only through the node read.
//!
//! The engine's values are bit-identical to the naive path — the
//! equivalence proptests in `tests/engine_equivalence.rs` pin
//! `received == propagate().received`, `suffix == suffix_sensitivity()`
//! and `impacts == impacts()` after every mutation, against a fresh
//! rebuild on the mutated graph. `impacts()` stays around as the
//! oracle; the engine is the hot path.

use crate::incremental::{narrowing, IncrementalPropagation, Narrowing};
use crate::{CGraph, FilterSet, ObjectiveCache};
use fp_graph::NodeId;
use fp_num::{Count, Sat64};
use std::borrow::{BorrowMut, Cow};
use std::cell::Cell;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Edge count from which an engine's cold start may run its backward
/// sweep on a helper thread beside the forward one, while a CPU is free
/// (see [`hold_cpu`]). Measured on power-law graphs on 2 vCPUs: beside
/// an idle CPU a helper start takes 0.53–0.70× the inline time from
/// 48k edges up and breaks even between 6k and 12k; on a CPU that is
/// busy after all (with a thread no hold counts) it takes 1.10–1.68×
/// up to 96k edges but 0.87–1.12× from 192k up. From this size on a
/// miscounted CPU costs a start little (DESIGN.md §8).
pub const INIT_HELPER_MIN_EDGES: usize = 1 << 17;

/// CPUs held by threads of this process that run solver work: runner
/// workers through [`hold_cpu`], and each large engine start for its
/// calling thread and its helper.
static CPUS_HELD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's CPU is counted in [`CPUS_HELD`].
    static HOLDS_CPU: Cell<bool> = const { Cell::new(false) };
}

/// CPUs counted busy with solver work until this drops, on the thread
/// that took it (see [`hold_cpu`]).
#[must_use = "the CPUs are released when the hold drops"]
pub struct CpuHold {
    cpus: usize,
    thread: bool,
    _unsend: PhantomData<*const ()>,
}

/// Count the calling thread's CPU as busy with solver work until the
/// hold drops; a thread that already holds one holds nothing more. An
/// engine start runs its helper thread only while the process has a
/// CPU no thread holds, so a pool that keeps every core busy (a sweep's
/// runner at one job per core) starts its engines inline rather than
/// crowding a helper onto a CPU a sibling job is using.
pub fn hold_cpu() -> CpuHold {
    let thread = !HOLDS_CPU.replace(true);
    CPUS_HELD.fetch_add(usize::from(thread), Ordering::Relaxed);
    CpuHold {
        cpus: usize::from(thread),
        thread,
        _unsend: PhantomData,
    }
}

impl Drop for CpuHold {
    fn drop(&mut self) {
        CPUS_HELD.fetch_sub(self.cpus, Ordering::Relaxed);
        if self.thread {
            HOLDS_CPU.set(false);
        }
    }
}

/// Whether an engine start on `cg` runs a helper thread, and the CPUs
/// the start holds meanwhile: on a graph of at least
/// [`INIT_HELPER_MIN_EDGES`] edges the start holds its calling thread's
/// CPU, plus the helper's when one of the process's CPUs is still free.
fn init_helper(cg: &CGraph) -> (bool, Option<CpuHold>) {
    if cg.edge_count() < INIT_HELPER_MIN_EDGES {
        return (false, None);
    }
    let mut hold = hold_cpu();
    let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let free = |held: usize| (held < cpus).then_some(held + 1);
    let helper = CPUS_HELD
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, free)
        .is_ok();
    hold.cpus += usize::from(helper);
    (helper, Some(hold))
}

/// An unfiltered engine with the FR denominators of its init, at the
/// counter a solve declared at `C` runs at.
pub type UnfilteredEngine<'a, C> = Narrowing<
    (ImpactEngine<'a, Sat64>, ObjectiveCache<Sat64>),
    (ImpactEngine<'a, C>, ObjectiveCache<C>),
>;

/// The unfiltered engine of a solve declared at `C` on `cg`, and the
/// FR denominators (`Φ(∅,V)`, `F(V)`) read off its forward sweep while
/// the backward one may still run: the engine-backed sibling of
/// [`crate::incremental::unfiltered_forward`], picking the counter by
/// the same rule and moving `fp_engine_u64_fallbacks_total` and
/// `fp_count_saturated_total` exactly as it does. A `u64` start whose
/// `Φ(∅,V)` saturates is abandoned after its forward sweep.
pub fn unfiltered_engine<C: Count>(cg: &CGraph) -> UnfilteredEngine<'_, C> {
    let (helper, _cpus) = init_helper(cg);
    unfiltered_engine_on(cg, helper)
}

/// [`unfiltered_engine`] with the helper thread forced on or off.
fn unfiltered_engine_on<C: Count>(cg: &CGraph, helper: bool) -> UnfilteredEngine<'_, C> {
    let empty = || FilterSet::empty(cg.node_count());
    narrowing::<C, _, _>(
        || {
            ImpactEngine::<Sat64>::cold_start(Cow::Borrowed(cg), empty(), helper, |fwd| {
                (!fwd.phi().is_saturated()).then(|| ObjectiveCache::from_forward(cg, fwd))
            })
        },
        || {
            let started =
                ImpactEngine::<C>::cold_start(Cow::Borrowed(cg), empty(), helper, |fwd| {
                    Some(ObjectiveCache::from_forward(cg, fwd))
                })
                .expect("a start that keeps its forward sweep returns the engine");
            let saturated = started.1.phi_empty().is_saturated();
            (started, saturated)
        },
    )
}

/// One reverse-topological sweep filling `suffix` and its gated shadow
/// together, within the capacity the caller reserved (so a helper
/// thread running it allocates nothing). Same op order as
/// [`crate::suffix_sensitivity_into`] with the per-edge gate replaced by
/// a read of the (already final) child's gated entry — adding zero
/// where the oracle skips an add, so the results are bit-identical,
/// branch-free, and need no second pass. Traced as
/// `engine.init.backward` on whichever thread runs it, with arg
/// `helper` 1 on the helper thread.
fn init_suffix_gated<C: Count>(
    cg: &CGraph,
    filters: &FilterSet,
    (suffix, gated): (&mut Vec<C>, &mut Vec<C>),
    helper: bool,
) {
    let _span = fp_obs::span("engine.init.backward").arg("helper", i64::from(helper));
    let n = cg.node_count();
    let csr = cg.csr();
    let source = cg.source();
    let one = C::one();
    suffix.resize_with(n, C::zero);
    gated.resize_with(n, C::zero);
    for &v in cg.topo().iter().rev() {
        let mut s = C::zero();
        for &c in csr.children(v) {
            s.add_assign(&one);
            s.add_assign(&gated[c.index()]);
        }
        if !filters.contains(v) && v != source {
            gated[v.index()] = s.clone();
        }
        suffix[v.index()] = s;
    }
}

/// A reusable dirty frontier: a flag per node plus a cursor walking the
/// topological order, so each affected node is processed at most once
/// per pass, after all of its updated predecessors.
///
/// Marking is one bool store — no heap, no position lookup, no per-edge
/// tuple churn. Draining walks the topo array from where the pass began
/// — forward for descendants, backward for ancestors — and the walk is
/// sound because processing a node only ever dirties nodes strictly
/// ahead of the cursor in the walk direction (children in the forward
/// pass, parents in the backward pass).
///
/// The frontier is *adaptive*: while changes are sparse it tracks the
/// dirty set exactly and stops as soon as the last change is consumed
/// (the paper's "practically constant time" locality). But one greedy
/// pick on a dense graph can dirty most of a region, and then even a
/// bool store per in-edge costs more than the recomputation it
/// schedules — so once the pending dirty count exceeds an eighth of the
/// remaining span, the pass flips to **dense mode**: every remaining
/// node in the span is handed out in order (recomputation is
/// idempotent, so visiting an unchanged node is sound), marking becomes
/// a no-op, and the per-edge bookkeeping vanishes. Walk cost is bounded
/// by the affected span of the order either way.
///
/// The forward walk is also *resumable*: [`DirtyFrontier::next_up`]
/// stops at a given position and leaves the rest pending, and a pass
/// can begin with work pending once the frontier is settled through
/// its start. Dense mode then persists until a walk reaches the end.
#[derive(Clone, Debug)]
pub(crate) struct DirtyFrontier {
    dirty: Vec<bool>,
    cursor: usize,
    pending: usize,
    dense: bool,
}

impl DirtyFrontier {
    /// Pending-to-remaining-span ratio beyond which a pass goes dense
    /// (numerator/denominator of the flip test `pending > remaining/8`).
    const DENSE_DENOMINATOR: usize = 8;

    /// A frontier for an `n`-node graph, with nothing pending.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            dirty: vec![false; n],
            cursor: 0,
            pending: 0,
            dense: false,
        }
    }

    /// Whether no work is pending: nothing marked, no dense span left.
    #[inline]
    pub(crate) fn is_idle(&self) -> bool {
        self.pending == 0 && !self.dense
    }

    /// Start a pass at topological position `pos`, which the walk
    /// skips: the mutated node's own slot (the caller reprocesses the
    /// mutation site itself before the pass), or the slot just before a
    /// batch of marked nodes. Work still pending must lie past `pos`
    /// (the caller settled through it), so the walk from `pos` reaches
    /// all of it.
    pub(crate) fn begin(&mut self, pos: usize) {
        debug_assert!(
            self.is_idle() || self.cursor >= pos,
            "pending work before the new pass"
        );
        self.cursor = pos;
    }

    /// Whether the current pass has gone dense (callers skip the
    /// marking loops entirely — the walk reaches everything anyway, and
    /// the point of dense mode is to stop touching edge lists twice).
    #[inline]
    pub(crate) fn is_dense(&self) -> bool {
        self.dense
    }

    /// Mark `v` dirty unless it already is (no-op in dense mode — the
    /// walk will reach `v` regardless).
    #[inline]
    pub(crate) fn mark(&mut self, v: NodeId) {
        if !self.dense && !self.dirty[v.index()] {
            self.dirty[v.index()] = true;
            self.pending += 1;
        }
    }

    /// Clear `v`'s mark, if any, as the walk reaches it; returns
    /// whether it was marked.
    #[inline]
    fn take(&mut self, v: NodeId) -> bool {
        if !self.dirty[v.index()] {
            return false;
        }
        self.dirty[v.index()] = false;
        self.pending -= 1;
        true
    }

    /// Next node to reprocess at topological position `through` or
    /// before, walking `topo` forward from the cursor; `None` once
    /// every position through `through` is clean (the rest stays
    /// pending for a later call).
    #[inline]
    pub(crate) fn next_up(&mut self, topo: &[NodeId], through: usize) -> Option<NodeId> {
        if self.dense {
            if self.cursor + 1 >= topo.len() {
                debug_assert_eq!(self.pending, 0, "marks must lie within the span");
                self.dense = false;
                return None;
            }
            if self.cursor >= through {
                return None;
            }
            self.cursor += 1;
            let v = topo[self.cursor];
            self.take(v);
            return Some(v);
        }
        if self.pending == 0 {
            return None;
        }
        if self.pending * Self::DENSE_DENOMINATOR > topo.len() - self.cursor {
            self.dense = true;
            return self.next_up(topo, through);
        }
        while self.cursor < through {
            self.cursor += 1;
            let v = topo[self.cursor];
            if self.take(v) {
                return Some(v);
            }
        }
        None
    }

    /// Next node to reprocess, walking `topo` backward from the cursor.
    #[inline]
    pub(crate) fn next_down(&mut self, topo: &[NodeId]) -> Option<NodeId> {
        if self.dense {
            if self.cursor == 0 {
                debug_assert_eq!(self.pending, 0, "marks must lie within the span");
                self.dense = false;
                return None;
            }
            self.cursor -= 1;
            let v = topo[self.cursor];
            self.take(v);
            return Some(v);
        }
        if self.pending == 0 {
            return None;
        }
        if self.pending * Self::DENSE_DENOMINATOR > self.cursor {
            self.dense = true;
            return self.next_down(topo);
        }
        loop {
            self.cursor -= 1;
            let v = topo[self.cursor];
            if self.take(v) {
                return Some(v);
            }
        }
    }
}

/// Cached global-registry handles for the engine's counters, so the
/// per-mutation write path is pure atomics (the registry mutex is taken
/// once, at engine construction).
///
/// These observe the engine — mutation counts, per-pass frontier sizes,
/// sparse→dense flips — and never feed back into it: no solver-visible
/// state reads a metric, so instrumented and bare solves stay
/// bit-identical.
#[derive(Clone, Debug)]
struct EngineMetrics {
    inserts: std::sync::Arc<fp_obs::Counter>,
    mutations: std::sync::Arc<fp_obs::Counter>,
    dense_flips: std::sync::Arc<fp_obs::Counter>,
    forward_frontier: std::sync::Arc<fp_obs::Histogram>,
    backward_frontier: std::sync::Arc<fp_obs::Histogram>,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        let buckets = fp_obs::metrics::SIZE_BUCKETS;
        Self {
            inserts: fp_obs::counter("fp_engine_inserts_total"),
            mutations: fp_obs::counter("fp_engine_mutations_total"),
            dense_flips: fp_obs::counter("fp_engine_dense_flips_total"),
            forward_frontier: fp_obs::histogram("fp_engine_forward_frontier_nodes", buckets),
            backward_frontier: fp_obs::histogram("fp_engine_backward_frontier_nodes", buckets),
        }
    }
}

/// One engine mutation (the unified entry point of
/// [`ImpactEngine::apply`]).
///
/// Each variant has a fixed *drift direction*: `InsertFilter` and
/// `RemoveEdge` can only shrink receptions and suffixes, `RemoveFilter`
/// and `InsertEdge` can only grow them. The engine's frontier passes
/// assert the matching monotonicity invariant per mutation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// Add `v` to the filter set (drift: shrink).
    InsertFilter(NodeId),
    /// Remove `v` from the filter set (drift: grow).
    RemoveFilter(NodeId),
    /// Add the edge `from → to` (drift: grow).
    InsertEdge {
        /// Edge tail.
        from: NodeId,
        /// Edge head.
        to: NodeId,
    },
    /// Remove the edge `from → to` (drift: shrink).
    RemoveEdge {
        /// Edge tail.
        from: NodeId,
        /// Edge head.
        to: NodeId,
    },
}

impl Mutation {
    /// Short operation tag, used for spans and protocol frames.
    pub fn op(&self) -> &'static str {
        match self {
            Self::InsertFilter(_) => "insert_filter",
            Self::RemoveFilter(_) => "remove_filter",
            Self::InsertEdge { .. } => "insert_edge",
            Self::RemoveEdge { .. } => "remove_edge",
        }
    }

    /// Check this mutation against `cg` without changing anything — the
    /// rules [`ImpactEngine::apply`] enforces, shared with every other
    /// edge-by-edge editor of a [`CGraph`] (`fp serve`'s sessions):
    /// every node in range; an inserted edge is no self-loop, not
    /// already present and closes no cycle; a removed edge exists.
    pub fn validate(&self, cg: &CGraph) -> Result<(), MutationError> {
        let node_count = cg.node_count();
        let in_range = |node: NodeId| {
            if node.index() < node_count {
                Ok(())
            } else {
                Err(MutationError::NodeOutOfRange { node, node_count })
            }
        };
        match *self {
            Self::InsertFilter(v) | Self::RemoveFilter(v) => in_range(v),
            Self::InsertEdge { from, to } => {
                in_range(from)?;
                in_range(to)?;
                if from == to {
                    return Err(MutationError::SelfLoop { node: from });
                }
                if cg.csr().children(from).contains(&to) {
                    return Err(MutationError::DuplicateEdge { from, to });
                }
                // `from` reachable from `to` means to→…→from→to. A
                // forward edge in the cached topological order needs no
                // search — every path from `to` stays strictly after
                // it, so it can never revisit `from`.
                if cg.topo_position(from) >= cg.topo_position(to)
                    && fp_graph::reachable_from(cg.csr(), to).contains(from.index())
                {
                    return Err(MutationError::WouldCreateCycle { from, to });
                }
                Ok(())
            }
            Self::RemoveEdge { from, to } => {
                in_range(from)?;
                in_range(to)?;
                if cg.csr().children(from).contains(&to) {
                    Ok(())
                } else {
                    Err(MutationError::UnknownEdge { from, to })
                }
            }
        }
    }
}

impl core::fmt::Display for Mutation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InsertFilter(v) => write!(f, "insert_filter({v})"),
            Self::RemoveFilter(v) => write!(f, "remove_filter({v})"),
            Self::InsertEdge { from, to } => write!(f, "insert_edge({from} -> {to})"),
            Self::RemoveEdge { from, to } => write!(f, "remove_edge({from} -> {to})"),
        }
    }
}

/// What an applied [`Mutation`] did, so callers (and obs) stop
/// guessing: how many nodes each frontier pass reprocessed, and whether
/// the cached topological order had to be rebuilt.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ApplyOutcome {
    /// Whether the mutation changed anything (duplicate filter inserts
    /// and removals of absent filters are no-ops, not errors).
    pub changed: bool,
    /// Nodes reprocessed by the forward (reception) pass.
    pub forward_affected: usize,
    /// Nodes reprocessed by the backward (suffix) pass.
    pub backward_affected: usize,
    /// Whether an edge insertion invalidated — and rebuilt — the cached
    /// topological order.
    pub reordered: bool,
}

/// Why a [`Mutation`] was rejected. Rejected mutations leave the engine
/// exactly as it was.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutationError {
    /// A node id referenced a node outside the graph.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes in the graph.
        node_count: usize,
    },
    /// Self-loops are never allowed in a c-graph.
    SelfLoop {
        /// The node with the loop.
        node: NodeId,
    },
    /// Inserting this edge would create a cycle.
    WouldCreateCycle {
        /// Edge tail.
        from: NodeId,
        /// Edge head.
        to: NodeId,
    },
    /// The edge to insert already exists (c-graphs stay simple).
    DuplicateEdge {
        /// Edge tail.
        from: NodeId,
        /// Edge head.
        to: NodeId,
    },
    /// The edge to remove does not exist.
    UnknownEdge {
        /// Edge tail.
        from: NodeId,
        /// Edge head.
        to: NodeId,
    },
}

impl core::fmt::Display for MutationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range (graph has {node_count} nodes)")
            }
            Self::SelfLoop { node } => write!(f, "self-loop at {node} is not allowed"),
            Self::WouldCreateCycle { from, to } => {
                write!(f, "edge {from} -> {to} would create a cycle")
            }
            Self::DuplicateEdge { from, to } => {
                write!(f, "edge {from} -> {to} already exists")
            }
            Self::UnknownEdge { from, to } => {
                write!(f, "edge {from} -> {to} does not exist")
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// The direction values can move under a mutation: `Shrink` for
/// mutations that cut flow (filter inserts, edge removals), `Grow` for
/// mutations that add flow (filter removals, edge inserts). The drain
/// passes assert the matching inequality and apply the Φ delta with the
/// matching sign.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Drift {
    Shrink,
    Grow,
}

/// Exact marginal impacts `I(v|A)` maintained incrementally under
/// [`ImpactEngine::apply`].
///
/// ```
/// use fp_graph::{DiGraph, NodeId};
/// use fp_num::Sat64;
/// use fp_propagation::{impacts, CGraph, FilterSet, ImpactEngine, Mutation};
///
/// // The paper's Figure 1: z2 (node 4) is the only useful filter.
/// let g = DiGraph::from_pairs(
///     7,
///     [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6)],
/// ).unwrap();
/// let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
/// let mut engine = ImpactEngine::<Sat64>::new(&cg, FilterSet::empty(7));
/// assert_eq!(engine.best_candidate(), Some(NodeId::new(4)));
/// engine.apply(Mutation::InsertFilter(NodeId::new(4))).unwrap();
/// // After the pick the engine's impacts still equal the oracle's.
/// let oracle: Vec<Sat64> = impacts(&cg, engine.filters());
/// let live: Vec<Sat64> = engine.cgraph().nodes().map(|v| engine.impact(v)).collect();
/// assert_eq!(live, oracle);
/// ```
#[derive(Clone, Debug)]
pub struct ImpactEngine<'a, C> {
    /// The graph an engine computes over: borrowed until the first
    /// *structural* mutation, then a private owned copy
    /// (clone-on-write). Filter mutations never trigger the clone —
    /// only edge mutations diverge the adjacency structure from the
    /// caller's graph.
    graph: Cow<'a, CGraph>,
    /// The forward half: the filter set, received/emitted and Φ.
    fwd: IncrementalPropagation<C>,
    /// The backward half: suffix sensitivities, their gated shadow and
    /// the upstream frontier.
    suffix: Vec<C>,
    /// `gated[i]` = `suffix[i]` while node `i` passes the recurrence's
    /// gate (`i ∉ A`, `i ≠ source`), else zero. The backward re-sum
    /// reads this instead of testing the gate per edge — adding zero is
    /// the identity for every [`Count`], so the sums stay bit-identical
    /// to the oracle's gated loop while the inner loop becomes pure
    /// loads and adds.
    gated: Vec<C>,
    backward: DirtyFrontier,
    metrics: EngineMetrics,
}

impl<'a, C: Count> ImpactEngine<'a, C> {
    /// Initialize from an existing filter set: one forward and one
    /// backward O(|E|) sweep, side by side on a graph of at least
    /// [`INIT_HELPER_MIN_EDGES`] edges while a CPU is free.
    pub fn new(cg: &'a CGraph, filters: FilterSet) -> Self {
        Self::start(Cow::Borrowed(cg), filters)
    }

    /// Like [`ImpactEngine::new`], but taking ownership of the graph:
    /// the engine starts on its private copy, so it can outlive any
    /// borrow (what long-lived stream drivers need) and structural
    /// mutations never clone.
    pub fn from_owned(cg: CGraph, filters: FilterSet) -> ImpactEngine<'static, C> {
        ImpactEngine::start(Cow::Owned(cg), filters)
    }

    fn start(graph: Cow<'a, CGraph>, filters: FilterSet) -> Self {
        let (helper, _cpus) = init_helper(&graph);
        let (engine, ()) = Self::cold_start(graph, filters, helper, |_| Some(()))
            .expect("a start that keeps its forward sweep returns the engine");
        engine
    }

    /// The one cold start of every engine (DESIGN.md §8). The forward
    /// sweep runs on the calling thread, then `after_forward` reads the
    /// kernel there. With `helper`, the backward sweep runs beside both
    /// on a scoped helper thread; without it, or when the OS refuses the
    /// thread (counted in `fp_engine_init_spawn_refused_total`), it runs
    /// inline afterwards, unless `after_forward` answered `None` and so
    /// abandoned the start. Both sweeps stay sequential loops, so no
    /// bit depends on where they ran. A helper's buffers are reserved
    /// here before the spawn and only filled by the helper, which thus
    /// allocates nothing (untraced) and keeps every byte in the main
    /// malloc arena. An inline start enters no thread scope and
    /// allocates the forward arrays first: a scope entered on every
    /// start, or the backward buffers reserved first, each measured
    /// 10–15 % slower edge events on a citation-sized engine, whose
    /// events never touch the init (heap placement alone moved).
    fn cold_start<T>(
        graph: Cow<'a, CGraph>,
        filters: FilterSet,
        helper: bool,
        after_forward: impl FnOnce(&IncrementalPropagation<C>) -> Option<T>,
    ) -> Option<(Self, T)> {
        // Looked up before the first init so `/metrics` lists it at zero.
        let refused = fp_obs::counter("fp_engine_init_spawn_refused_total");
        let cg = &*graph;
        let n = cg.node_count();
        let forward = |filters| {
            let _span = fp_obs::span("engine.init.forward");
            IncrementalPropagation::new(cg, filters)
        };
        let (mut suffix, mut gated) = (Vec::new(), Vec::new());
        let (fwd, kept, inline) = if helper {
            std::thread::scope(|scope| {
                // The helper's own copy: the kernel takes `filters`.
                let gate = filters.clone();
                suffix.reserve_exact(n);
                gated.reserve_exact(n);
                let buffers = (&mut suffix, &mut gated);
                let spawned = std::thread::Builder::new()
                    .name("fp-engine-init".into())
                    .spawn_scoped(scope, move || init_suffix_gated(cg, &gate, buffers, true));
                let fwd = forward(filters);
                let kept = after_forward(&fwd);
                let inline = match spawned {
                    Ok(backward) => {
                        if let Err(panic) = backward.join() {
                            std::panic::resume_unwind(panic);
                        }
                        false
                    }
                    Err(_) => {
                        refused.inc();
                        true
                    }
                };
                (fwd, kept, inline)
            })
        } else {
            let fwd = forward(filters);
            let kept = after_forward(&fwd);
            (fwd, kept, true)
        };
        let kept = kept?;
        if inline {
            init_suffix_gated(cg, fwd.filters(), (&mut suffix, &mut gated), false);
        }
        let engine = Self {
            backward: DirtyFrontier::new(n),
            graph,
            fwd,
            suffix,
            gated,
            metrics: EngineMetrics::default(),
        };
        Some((engine, kept))
    }

    /// The graph being solved. After a structural mutation this is the
    /// engine's private (mutated) copy, not the graph it was built
    /// from.
    pub fn cgraph(&self) -> &CGraph {
        &self.graph
    }

    /// Whether the engine has diverged onto its own copy of the graph
    /// (true once any structural mutation has been applied).
    pub fn owns_graph(&self) -> bool {
        matches!(self.graph, Cow::Owned(_))
    }

    /// Current filter set.
    pub fn filters(&self) -> &FilterSet {
        self.fwd.filters()
    }

    /// Surrender the filter set (what a finished solver returns).
    pub fn into_filters(self) -> FilterSet {
        self.fwd.into_filters()
    }

    /// Surrender the forward half, dropping the suffix side, for a
    /// caller done with impacts that still reads receptions and `Φ`.
    pub fn into_forward(self) -> IncrementalPropagation<C> {
        self.fwd
    }

    /// Current `Φ(A, V)`, maintained by the forward kernel (see
    /// [`IncrementalPropagation::phi`] for how it behaves once a
    /// saturating counter has clamped).
    pub fn phi(&self) -> &C {
        self.fwd.phi()
    }

    /// Copies received by `v` under the current set.
    pub fn received(&self, v: NodeId) -> &C {
        self.fwd.received(v)
    }

    /// Copies emitted (per out-edge) by `v` under the current set.
    pub fn emitted(&self, v: NodeId) -> &C {
        self.fwd.emitted(v)
    }

    /// Filter-aware suffix sensitivity `S_A(v)`.
    pub fn suffix(&self, v: NodeId) -> &C {
        &self.suffix[v.index()]
    }

    /// Exact marginal impact `I(v|A) = (recv_A(v) − 1)₊ × S_A(v)`; zero
    /// for the source and for nodes already in `A`. O(1) — one
    /// subtraction and one multiplication on current state.
    pub fn impact(&self, v: NodeId) -> C {
        if v == self.graph.source() || self.filters().contains(v) {
            return C::zero();
        }
        self.fwd
            .received(v)
            .saturating_sub(&C::one())
            .mul(&self.suffix[v.index()])
    }

    /// Write `impact(v)` for every node into `out` (reused, resized —
    /// element-for-element what [`crate::impacts`] returns).
    pub fn impacts_into(&self, out: &mut Vec<C>) {
        out.clear();
        let n = self.graph.node_count();
        out.extend((0..n).map(|v| self.impact(NodeId::new(v))));
    }

    /// Every candidate with positive impact, with that impact, in node
    /// order: one O(n) scan, no allocation.
    pub fn positive_impacts(&self) -> impl Iterator<Item = (NodeId, C)> + '_ {
        let one = C::one();
        self.graph.nodes().filter_map(move |v| {
            // `(recv − 1)₊ × gated` equals `impact`: the gated entry is
            // already zero for the source and for members of `A`, and
            // multiplying by zero is zero for every counter type.
            let imp = self
                .fwd
                .received(v)
                .saturating_sub(&one)
                .mul(&self.gated[v.index()]);
            (!imp.is_zero()).then_some((v, imp))
        })
    }

    /// The next greedy pick: the candidate with the largest positive
    /// impact, ties toward the smaller node id — exactly
    /// `argmax_count(&impacts(cg, filters))`. `None` when no candidate
    /// has positive impact. One O(n) scan, no allocation.
    pub fn best_candidate(&self) -> Option<NodeId> {
        let mut best: Option<(NodeId, C)> = None;
        for (v, imp) in self.positive_impacts() {
            match &best {
                Some((_, b)) if imp <= *b => {}
                _ => best = Some((v, imp)),
            }
        }
        best.map(|(v, _)| v)
    }

    /// Apply one [`Mutation`], updating received/emitted/Φ downstream
    /// and suffix sensitivities upstream of the mutation site, each
    /// under the mutation's drift direction. Filter mutations are
    /// O(affected ∪ ancestors) and allocation-free; edge mutations
    /// additionally edit the adjacency lists of both endpoints in place
    /// (amortised O(degree)), after cloning the graph on first
    /// divergence. A backward insert, which the cached topological
    /// order does not admit, refreezes the whole graph instead
    /// ([`ApplyOutcome::reordered`]). Rejected mutations (see
    /// [`Mutation::validate`]) leave the engine untouched.
    pub fn apply(&mut self, m: Mutation) -> Result<ApplyOutcome, MutationError> {
        // Checked before any clone-on-write, so a rejection never has
        // to be rolled back.
        m.validate(&self.graph)?;
        let mut reordered = false;
        let (span, (fwd, fwd_dense), (bwd, bwd_dense)) = match m {
            Mutation::InsertFilter(v) => {
                if self.filters().contains(v) {
                    return Ok(ApplyOutcome::default());
                }
                let span = fp_obs::span("engine.insert");
                // `v` no longer passes the gate its parents apply,
                // whatever its (unchanged) suffix value is.
                self.gated[v.index()] = C::zero();
                self.metrics.inserts.inc();
                (
                    span,
                    self.fwd.flip_filter(&self.graph, v, Drift::Shrink),
                    self.update_backward(v, Drift::Shrink),
                )
            }
            Mutation::RemoveFilter(v) => {
                if !self.filters().contains(v) {
                    return Ok(ApplyOutcome::default());
                }
                let span = fp_obs::span("engine.remove_filter");
                // `v`'s gate reopens: parents see its (unchanged)
                // suffix again.
                if v != self.graph.source() {
                    self.gated[v.index()] = self.suffix[v.index()].clone();
                }
                (
                    span,
                    self.fwd.flip_filter(&self.graph, v, Drift::Grow),
                    self.update_backward(v, Drift::Grow),
                )
            }
            // An edge span opens before the adjacency edit, which
            // belongs to the mutation: amortised O(degree), plus the
            // clone on first divergence.
            Mutation::InsertEdge { from, to } => {
                let span = fp_obs::span("engine.insert_edge");
                reordered = match self.graph.to_mut().insert_edge(from, to) {
                    Ok(reordered) => reordered,
                    Err(e) => unreachable!("validated edge insertion cannot fail: {e}"),
                };
                (
                    span,
                    self.fwd.update_edge_head(&self.graph, to, Drift::Grow),
                    self.update_backward_from_edge(from, Drift::Grow),
                )
            }
            Mutation::RemoveEdge { from, to } => {
                let span = fp_obs::span("engine.remove_edge");
                let removed = self.graph.to_mut().remove_edge(from, to);
                debug_assert!(removed, "existence validated");
                (
                    span,
                    self.fwd.update_edge_head(&self.graph, to, Drift::Shrink),
                    self.update_backward_from_edge(from, Drift::Shrink),
                )
            }
        };
        self.observe(span, (fwd, fwd_dense), (bwd, bwd_dense));
        Ok(ApplyOutcome {
            changed: true,
            forward_affected: fwd,
            backward_affected: bwd,
            reordered,
        })
    }

    /// Remove every filter at once: the batched form of one
    /// [`Mutation::RemoveFilter`] per filter, equal to it bit for bit
    /// (drift: grow). One forward walk re-emits every dropped node and
    /// its descendants; one backward walk reopens every dropped gate,
    /// marks the parents behind it and drains once from the highest
    /// dropped position, where the per-filter path walks each direction
    /// once per filter. Recorded as one `engine.remove_filter` span
    /// with a `filters` arg.
    pub fn clear_filters(&mut self) -> ApplyOutcome {
        if self.filters().is_empty() {
            return ApplyOutcome::default();
        }
        let span = fp_obs::span("engine.remove_filter");
        let (dropped, fwd) = self.fwd.clear_filters(&self.graph);
        let bwd = self.reopen_gates(&dropped);
        self.observe(span.arg("filters", dropped.len() as i64), fwd, bwd);
        ApplyOutcome {
            changed: true,
            forward_affected: fwd.0,
            backward_affected: bwd.0,
            reordered: false,
        }
    }

    /// Backward pass for a batch of filter removals (the filter set
    /// already cleared): each dropped gate reopens on its unchanged
    /// suffix, its parents are marked, and one drain from the highest
    /// dropped position re-sums every ancestor after all of its
    /// children — including a dropped node below another.
    fn reopen_gates(&mut self, dropped: &[NodeId]) -> (usize, bool) {
        let cg = &*self.graph;
        // As in `update_backward`: the source's gate stays shut, and a
        // zero suffix (no children) changes no parent's sum.
        let reopened = || {
            dropped
                .iter()
                .copied()
                .filter(|&v| v != cg.source() && !self.suffix[v.index()].is_zero())
        };
        let Some(top) = reopened().map(|v| cg.topo_position(v)).max() else {
            return (0, false);
        };
        self.backward.begin(top);
        for v in reopened() {
            self.gated[v.index()] = self.suffix[v.index()].clone();
            for &p in cg.csr().parents(v) {
                self.backward.mark(p);
            }
        }
        self.drain_backward(Drift::Grow)
    }

    /// Count one mutation and its two frontier walks (`(nodes, whether
    /// the walk went dense)`), and close its span with the sizes.
    fn observe(
        &self,
        span: fp_obs::Span<'static>,
        (fwd, fwd_dense): (usize, bool),
        (bwd, bwd_dense): (usize, bool),
    ) {
        let metrics = &self.metrics;
        metrics.mutations.inc();
        metrics.forward_frontier.observe(fwd as u64);
        metrics.backward_frontier.observe(bwd as u64);
        metrics
            .dense_flips
            .add(u64::from(fwd_dense) + u64::from(bwd_dense));
        let _span = span.arg("fwd", fwd as i64).arg("bwd", bwd as i64);
    }

    /// Add `v` as a filter; returns `true` if `v` was newly inserted.
    /// Thin wrapper over [`ImpactEngine::apply`], kept because the
    /// greedy inner loops read as insertions.
    ///
    /// # Panics
    /// Panics if `v` is out of range (use `apply` for a fallible path).
    pub fn insert_filter(&mut self, v: NodeId) -> bool {
        self.apply(Mutation::InsertFilter(v))
            .expect("insert_filter: node out of range")
            .changed
    }

    /// Backward pass for a *filter* mutation at `v` (invariant per
    /// drift: suffixes only shrink on insert, only grow on remove).
    ///
    /// `S_A(u) = Σ_{c ∈ children(u)} (1 + [c ∉ A, c ≠ source]·S_A(c))`:
    /// a filter mutation at `v` changes no suffix *at or below* `v` — it
    /// flips the `[v ∉ A]` gate seen by `v`'s parents, and from there
    /// changes can only travel upward. Reverse topological order
    /// guarantees each ancestor is recomputed once, after all of its
    /// updated children.
    fn update_backward(&mut self, v: NodeId, drift: Drift) -> (usize, bool) {
        let cg = &*self.graph;
        // The source is already gated out of every parent's sum, and a
        // gate flip on a zero suffix changes nothing.
        if v == cg.source() || self.suffix[v.index()].is_zero() {
            return (0, false);
        }
        self.backward.begin(cg.topo_position(v));
        for &p in cg.csr().parents(v) {
            self.backward.mark(p);
        }
        self.drain_backward(drift)
    }

    /// Backward pass for an *edge* mutation whose tail is `u`: `u`'s
    /// own suffix changed (it gained or lost a child term), so it is
    /// re-summed before the upstream walk starts. Ancestors react only
    /// if `u` itself passes their gate.
    fn update_backward_from_edge(&mut self, u: NodeId, drift: Drift) -> (usize, bool) {
        let cg = &*self.graph;
        let csr = cg.csr();
        let one = C::one();
        let mut s = C::zero();
        for &c in csr.children(u) {
            s.add_assign(&one);
            s.add_assign(&self.gated[c.index()]);
        }
        if s == self.suffix[u.index()] {
            return (0, false);
        }
        match drift {
            Drift::Shrink => debug_assert!(
                s <= self.suffix[u.index()],
                "a shrink mutation cannot increase suffixes"
            ),
            Drift::Grow => debug_assert!(
                s >= self.suffix[u.index()],
                "a grow mutation cannot decrease suffixes"
            ),
        }
        let open = !self.fwd.filters().contains(u) && u != cg.source();
        if open {
            self.gated[u.index()] = s.clone();
        }
        self.suffix[u.index()] = s;
        if !open {
            // A filtered (or source) tail absorbs the change: no
            // ancestor's sum reads its suffix.
            return (1, false);
        }
        self.backward.begin(cg.topo_position(u));
        for &p in csr.parents(u) {
            self.backward.mark(p);
        }
        let (drained, dense) = self.drain_backward(drift);
        (drained + 1, dense)
    }

    /// Drain the backward frontier (upstream of the mutation site, in
    /// reverse topological order), checking the drift invariant on
    /// every re-summed suffix.
    fn drain_backward(&mut self, drift: Drift) -> (usize, bool) {
        let cg = &*self.graph;
        let source = cg.source();
        let csr = cg.csr();
        let topo = cg.topo();
        let one = C::one();
        let mut processed = 0usize;
        let mut dense = false;
        while let Some(u) = self.backward.next_down(topo) {
            processed += 1;
            dense |= self.backward.is_dense();
            // Same op order as the oracle's gated loop (`s += 1` then a
            // possibly-zero suffix term per child), so even saturating
            // counters clamp identically.
            let mut s = C::zero();
            for &c in csr.children(u) {
                s.add_assign(&one);
                s.add_assign(&self.gated[c.index()]);
            }
            let old = &self.suffix[u.index()];
            match drift {
                Drift::Shrink => {
                    debug_assert!(s <= *old, "a shrink mutation cannot increase suffixes")
                }
                Drift::Grow => {
                    debug_assert!(s >= *old, "a grow mutation cannot decrease suffixes")
                }
            }
            if s != *old {
                let open = !self.fwd.filters().contains(u) && u != source;
                if open {
                    self.gated[u.index()] = s.clone();
                }
                self.suffix[u.index()] = s;
                // Parents consume S(u) only while u itself passes their
                // gate; a filtered (or source) u propagates no further.
                if open && !self.backward.is_dense() {
                    for &p in csr.parents(u) {
                        self.backward.mark(p);
                    }
                }
            }
        }
        (processed, dense)
    }
}

/// An [`ImpactEngine`] whose filter inserts leave the forward pass
/// pending, and whose reads settle it only as far as they need.
///
/// An insert at `v` flips `v`'s emission, marks its children and runs
/// the backward (suffix) pass, which only reaches `v`'s ancestors. A
/// read of `received(v)` or `impact(v)` then settles the forward
/// frontier through `v`'s topological position — a reception depends
/// only on nodes before it in the order — and no further. A CELF greedy
/// that only re-scores a few candidates early in the order therefore
/// pays for those, not for the dense pass every pick would trigger on
/// the eager engine. Every value read is the eager engine's bit for bit
/// (`tests/engine_equivalence.rs`).
///
/// It owns its engine (`E = ImpactEngine`, what a solver session
/// keeps across rungs) or borrows one its caller holds
/// (`E = &mut ImpactEngine`, what an online repair re-picks on). The
/// wrapped engine is reachable only through [`DeferredEngine::settle`],
/// which drains the frontier first, so no read sees an unsettled value;
/// a borrower settles before handing the engine back.
///
/// ```
/// use fp_graph::{DiGraph, NodeId};
/// use fp_num::Sat64;
/// use fp_propagation::{CGraph, DeferredEngine, FilterSet, ImpactEngine};
///
/// // The paper's Figure 1: filtering z2 (node 4) leaves w one copy.
/// let g = DiGraph::from_pairs(
///     7,
///     [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6)],
/// ).unwrap();
/// let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
/// let mut lazy = DeferredEngine::new(ImpactEngine::<Sat64>::new(&cg, FilterSet::empty(7)));
/// assert_eq!(lazy.impact(NodeId::new(4)).get(), 1);
/// assert!(lazy.insert_filter(NodeId::new(4)));
/// assert_eq!(lazy.received(NodeId::new(6)).get(), 3);
/// assert_eq!(lazy.settle().phi().get(), 9);
/// ```
#[derive(Debug)]
pub struct DeferredEngine<'a, C, E = ImpactEngine<'a, C>> {
    engine: E,
    unreported: Unreported,
    _engine: PhantomData<ImpactEngine<'a, C>>,
}

/// Forward nodes a [`DeferredEngine`] settled since its last insert,
/// and whether any of those walks went dense. The next insert reports
/// them as its forward frontier; what is left when the wrapper drops
/// (the re-scores after its last insert, a final settle) is reported
/// then, as a forward walk of no mutation.
#[derive(Debug)]
struct Unreported {
    walked: (usize, bool),
    metrics: EngineMetrics,
}

impl Drop for Unreported {
    fn drop(&mut self) {
        let (nodes, dense) = self.walked;
        if nodes > 0 {
            self.metrics.forward_frontier.observe(nodes as u64);
            self.metrics.dense_flips.add(u64::from(dense));
        }
    }
}

impl<'a, C: Count, E: BorrowMut<ImpactEngine<'a, C>>> DeferredEngine<'a, C, E> {
    /// Take over an engine, owned or borrowed (every `ImpactEngine` is
    /// settled).
    pub fn new(engine: E) -> Self {
        let metrics = engine.borrow().metrics.clone();
        Self {
            engine,
            unreported: Unreported {
                walked: (0, false),
                metrics,
            },
            _engine: PhantomData,
        }
    }

    /// Current filter set (always final: only receptions are deferred).
    pub fn filters(&self) -> &FilterSet {
        self.engine.borrow().filters()
    }

    /// Add `v` as a filter, deferring the forward pass; returns `true`
    /// if `v` was newly inserted. Counted in the engine's metrics like
    /// [`ImpactEngine::insert_filter`], with the nodes settled since
    /// the previous insert as its forward frontier (the nodes settled
    /// after the last insert are reported when the wrapper drops).
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn insert_filter(&mut self, v: NodeId) -> bool {
        if self.filters().contains(v) {
            return false;
        }
        let span = fp_obs::span("engine.insert");
        // `v`'s own reception must be final before its emission flips.
        self.settle_through(Some(v));
        let engine = self.engine.borrow_mut();
        engine.fwd.flip(&engine.graph, v, Drift::Shrink);
        // `v` no longer passes the gate its parents apply.
        engine.gated[v.index()] = C::zero();
        engine.metrics.inserts.inc();
        let bwd = engine.update_backward(v, Drift::Shrink);
        engine.observe(span, std::mem::take(&mut self.unreported.walked), bwd);
        true
    }

    /// Settle the forward frontier through `v`'s topological position
    /// (`None`: to the end), and hand out the engine.
    fn settle_through(&mut self, v: Option<NodeId>) -> &ImpactEngine<'a, C> {
        let engine = self.engine.borrow_mut();
        let cg = &*engine.graph;
        let through = v.map_or(usize::MAX, |v| cg.topo_position(v));
        let (nodes, dense) = engine.fwd.settle_through(cg, through, Drift::Shrink);
        self.unreported.walked.0 += nodes;
        self.unreported.walked.1 |= dense;
        engine
    }

    /// Copies received by `v` under the current set.
    pub fn received(&mut self, v: NodeId) -> &C {
        self.settle_through(Some(v)).fwd.received(v)
    }

    /// Exact marginal impact `I(v|A)` (see [`ImpactEngine::impact`]).
    pub fn impact(&mut self, v: NodeId) -> C {
        self.settle_through(Some(v)).impact(v)
    }

    /// Drain the forward frontier to the end and hand out the engine,
    /// every value of it settled.
    pub fn settle(&mut self) -> &ImpactEngine<'a, C> {
        self.settle_through(None)
    }
}

impl<C: Count> DeferredEngine<'_, C> {
    /// Surrender the filter set of an owned engine.
    pub fn into_filters(self) -> FilterSet {
        self.engine.into_filters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{impacts, phi_total, propagate, suffix_sensitivity};
    use fp_graph::DiGraph;
    use fp_num::{Sat64, Wide128};

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

    fn assert_matches_oracle<C: Count>(engine: &ImpactEngine<C>, tag: &str) {
        // Oracles run on the engine's *current* graph, so the same
        // assertion pins filter and structural mutations alike.
        let cg = engine.cgraph();
        let fresh = propagate::<C>(cg, engine.filters());
        let suffix = suffix_sensitivity::<C>(cg, engine.filters());
        let oracle: Vec<C> = impacts(cg, engine.filters());
        for v in cg.nodes() {
            assert_eq!(
                engine.received(v),
                &fresh.received[v.index()],
                "{tag}: recv {v:?}"
            );
            assert_eq!(
                engine.emitted(v),
                &fresh.emitted[v.index()],
                "{tag}: emit {v:?}"
            );
            assert_eq!(engine.suffix(v), &suffix[v.index()], "{tag}: suffix {v:?}");
            assert_eq!(engine.impact(v), oracle[v.index()], "{tag}: impact {v:?}");
        }
        assert_eq!(
            *engine.phi(),
            phi_total::<C>(cg, engine.filters()),
            "{tag}: phi"
        );
    }

    /// `diamonds` diamonds in a chain from node 0: `2^diamonds` paths
    /// reach the last node.
    fn diamond_chain(diamonds: usize) -> CGraph {
        let edges = (0..diamonds).flat_map(|i| {
            let (top, bottom) = (3 * i, 3 * i + 3);
            [
                (top, top + 1),
                (top, top + 2),
                (top + 1, bottom),
                (top + 2, bottom),
            ]
        });
        let g = DiGraph::from_pairs(3 * diamonds + 1, edges).unwrap();
        CGraph::new(&g, NodeId::new(0)).unwrap()
    }

    /// A random DAG on 40 nodes: each forward pair `i → j` is an edge
    /// with probability ~1/6.
    fn random_dag(seed: u64) -> CGraph {
        let n = 40;
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state % 6 == 0 {
                    pairs.push((i, j));
                }
            }
        }
        CGraph::new(&DiGraph::from_pairs(n, pairs).unwrap(), NodeId::new(0)).unwrap()
    }

    /// Every score and `Φ` of two engines, bit for bit.
    fn assert_engines_equal<C: Count>(a: &ImpactEngine<C>, b: &ImpactEngine<C>, tag: &str) {
        assert_eq!(a.filters().nodes(), b.filters().nodes(), "{tag}: filters");
        for v in a.cgraph().nodes() {
            assert_eq!(a.received(v), b.received(v), "{tag}: recv {v:?}");
            assert_eq!(a.emitted(v), b.emitted(v), "{tag}: emit {v:?}");
            assert_eq!(a.suffix(v), b.suffix(v), "{tag}: suffix {v:?}");
            assert_eq!(a.impact(v), b.impact(v), "{tag}: impact {v:?}");
        }
        assert_eq!(a.phi(), b.phi(), "{tag}: phi");
    }

    /// The inline start against the oracle and the helper start against
    /// the inline one, right after the start and after each of three
    /// inserts.
    fn assert_starts_agree<C: Count>(
        (mut inline, inline_pair): (ImpactEngine<C>, ObjectiveCache<C>),
        (mut helper, helper_pair): (ImpactEngine<C>, ObjectiveCache<C>),
        tag: &str,
    ) {
        assert_eq!(inline_pair.phi_empty(), helper_pair.phi_empty(), "{tag}");
        assert_eq!(inline_pair.f_all(), helper_pair.f_all(), "{tag}");
        assert_matches_oracle(&inline, tag);
        assert_engines_equal(&inline, &helper, tag);
        let n = inline.cgraph().node_count();
        for v in [n / 2, n / 3, n - 2].map(NodeId::new) {
            assert_eq!(inline.insert_filter(v), helper.insert_filter(v));
            assert_engines_equal(&inline, &helper, &format!("{tag}, after {v:?}"));
        }
    }

    /// Start `cg`'s unfiltered engine at `C` inline, then with the
    /// helper thread: the two starts must agree bit for bit and move
    /// `(fallbacks, saturations)` by `moves` each.
    fn cold_starts_agree<C: Count>(cg: &CGraph, moves: (u64, u64), tag: &str) {
        let fallbacks = fp_obs::counter("fp_engine_u64_fallbacks_total");
        let saturated = fp_obs::counter("fp_count_saturated_total");
        let read = || (fallbacks.get(), saturated.get());
        let delta = |from: (u64, u64), to: (u64, u64)| (to.0 - from.0, to.1 - from.1);
        let before = read();
        let inline = unfiltered_engine_on::<C>(cg, false);
        let between = read();
        let helper = unfiltered_engine_on::<C>(cg, true);
        assert_eq!(delta(before, between), moves, "{tag}: inline");
        assert_eq!(delta(between, read()), moves, "{tag}: helper");
        match (inline, helper) {
            (Narrowing::U64(a), Narrowing::U64(b)) => assert_starts_agree(a, b, tag),
            (Narrowing::Declared(a), Narrowing::Declared(b)) => assert_starts_agree(a, b, tag),
            _ => panic!("{tag}: the two starts picked different counters"),
        }
    }

    /// The helper path and the inline path of the cold start: random
    /// DAGs, a chain where the `u64` start saturates and falls back, and
    /// one past `2^128` paths. The only test of this binary that moves
    /// the fallback and saturation counters, so their deltas are exact.
    #[test]
    fn helper_and_inline_cold_starts_are_bit_identical() {
        for seed in 0..12 {
            let cg = random_dag(seed);
            cold_starts_agree::<Wide128>(&cg, (0, 0), &format!("random DAG {seed}"));
            cold_starts_agree::<Sat64>(&cg, (0, 0), &format!("random DAG {seed}, Sat64"));
        }
        let deep = diamond_chain(70);
        cold_starts_agree::<Wide128>(&deep, (1, 0), "70 diamonds");
        cold_starts_agree::<Sat64>(&deep, (0, 1), "70 diamonds, Sat64");
        let past_u128 = diamond_chain(130);
        cold_starts_agree::<Wide128>(&past_u128, (1, 1), "130 diamonds");
        cold_starts_agree::<fp_num::BigCount>(&past_u128, (0, 0), "130 diamonds, BigCount");
    }

    /// A large start holds its thread's CPU and takes a helper only
    /// while another CPU is free; a thread holds one CPU however often
    /// it asks. The only test of this binary that holds CPUs, so the
    /// counts are exact.
    #[test]
    fn a_large_start_takes_a_helper_only_while_a_cpu_is_free() {
        let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let held = || CPUS_HELD.load(Ordering::Relaxed);
        let (helper, hold) = init_helper(&figure1());
        assert!(!helper && hold.is_none(), "a small start holds nothing");
        let big = diamond_chain(INIT_HELPER_MIN_EDGES / 4);
        assert_eq!(big.edge_count(), INIT_HELPER_MIN_EDGES);
        {
            let (helper, _hold) = init_helper(&big);
            assert_eq!(helper, cpus > 1);
            assert_eq!(held(), 1 + usize::from(helper));
        }
        assert_eq!(held(), 0);

        let worker = hold_cpu();
        let again = hold_cpu();
        assert_eq!(held(), 1, "a thread holds one CPU");
        // Every other CPU busy, as in a runner at one job per core.
        CPUS_HELD.fetch_add(cpus - 1, Ordering::Relaxed);
        {
            let (helper, _hold) = init_helper(&big);
            assert!(!helper, "no CPU is free");
            assert_eq!(held(), cpus);
        }
        CPUS_HELD.fetch_sub(cpus - 1, Ordering::Relaxed);
        {
            let (helper, _hold) = init_helper(&big);
            assert_eq!(helper, cpus > 1, "the other CPUs are free again");
            assert_eq!(held(), 1 + usize::from(helper));
        }
        drop(again);
        assert_eq!(held(), 1);
        drop(worker);
        assert_eq!(held(), 0);
    }

    #[test]
    fn both_directions_track_the_oracle_through_insertions() {
        let cg = figure1();
        let mut engine = ImpactEngine::<Wide128>::new(&cg, FilterSet::empty(7));
        assert_matches_oracle(&engine, "initial");
        for v in [4usize, 1, 6, 2, 3, 5] {
            assert!(engine.insert_filter(NodeId::new(v)));
            assert_matches_oracle(&engine, &format!("after {v}"));
        }
    }

    #[test]
    fn duplicate_and_source_insertions_are_safe() {
        let cg = figure1();
        let mut engine = ImpactEngine::<Sat64>::new(&cg, FilterSet::empty(7));
        assert!(engine.insert_filter(NodeId::new(4)));
        let phi = *engine.phi();
        assert!(
            !engine.insert_filter(NodeId::new(4)),
            "duplicate is a no-op"
        );
        assert_eq!(*engine.phi(), phi);
        assert!(
            engine.insert_filter(NodeId::new(0)),
            "source enters the set"
        );
        assert_matches_oracle(&engine, "after source insert");
    }

    #[test]
    fn starting_from_a_nonempty_set_matches() {
        let cg = figure1();
        let base = FilterSet::from_nodes(7, [NodeId::new(1)]);
        let mut engine = ImpactEngine::<Wide128>::new(&cg, base);
        assert_matches_oracle(&engine, "nonempty start");
        engine.insert_filter(NodeId::new(4));
        assert_matches_oracle(&engine, "nonempty start + z2");
    }

    #[test]
    fn best_candidate_matches_argmax_semantics() {
        let cg = figure1();
        let mut engine = ImpactEngine::<Sat64>::new(&cg, FilterSet::empty(7));
        // z2 is the only positive-impact node in Figure 1.
        assert_eq!(engine.best_candidate(), Some(NodeId::new(4)));
        engine.insert_filter(NodeId::new(4));
        assert_eq!(engine.best_candidate(), None, "nothing left to gain");
    }

    #[test]
    fn from_owned_matches_the_borrowed_constructor() {
        let cg = figure1();
        let mut borrowed = ImpactEngine::<Wide128>::new(&cg, FilterSet::empty(7));
        let mut owned = ImpactEngine::<Wide128>::from_owned(cg.clone(), FilterSet::empty(7));
        assert!(owned.owns_graph(), "starts on its private copy");
        assert_matches_oracle(&owned, "owned initial");
        for v in [4usize, 1] {
            assert_eq!(
                borrowed.insert_filter(NodeId::new(v)),
                owned.insert_filter(NodeId::new(v))
            );
        }
        assert_eq!(borrowed.phi(), owned.phi());
        owned
            .apply(Mutation::InsertEdge {
                from: NodeId::new(3),
                to: NodeId::new(5),
            })
            .unwrap();
        assert_matches_oracle(&owned, "owned after edge insert");
        assert_eq!(cg.edge_count(), 9, "caller's graph untouched");
    }

    #[test]
    fn deep_chain_suffix_updates_stop_at_filters() {
        // s → a → b → ... → tail, with a diamond at the head; filters
        // inserted mid-chain must update ancestors' suffixes and leave
        // descendants' untouched.
        let mut g = DiGraph::with_nodes(1);
        let s = NodeId::new(0);
        let a = g.add_node();
        let b = g.add_node();
        let join = g.add_node();
        g.add_edge(s, a);
        g.add_edge(s, b);
        g.add_edge(a, join);
        g.add_edge(b, join);
        let mut tail = join;
        let mut chain = vec![join];
        for _ in 0..30 {
            let next = g.add_node();
            g.add_edge(tail, next);
            tail = next;
            chain.push(next);
        }
        let cg = CGraph::new(&g, s).unwrap();
        let mut engine = ImpactEngine::<Wide128>::new(&cg, FilterSet::empty(g.node_count()));
        for &v in [chain[15], chain[7], join].iter() {
            engine.insert_filter(v);
            assert_matches_oracle(&engine, "chain insert");
        }
    }

    #[test]
    fn remove_filter_reverses_insert_exactly() {
        let cg = figure1();
        let mut engine = ImpactEngine::<Wide128>::new(&cg, FilterSet::empty(7));
        let phi0 = *engine.phi();
        engine
            .apply(Mutation::InsertFilter(NodeId::new(4)))
            .unwrap();
        engine
            .apply(Mutation::InsertFilter(NodeId::new(1)))
            .unwrap();
        assert_matches_oracle(&engine, "two inserts");
        let out = engine
            .apply(Mutation::RemoveFilter(NodeId::new(4)))
            .unwrap();
        assert!(out.changed);
        assert_matches_oracle(&engine, "after remove 4");
        engine
            .apply(Mutation::RemoveFilter(NodeId::new(1)))
            .unwrap();
        assert_matches_oracle(&engine, "after remove 1");
        assert_eq!(*engine.phi(), phi0, "back to the empty-set Φ");
        assert!(engine.filters().is_empty());
        assert!(
            !engine
                .apply(Mutation::RemoveFilter(NodeId::new(4)))
                .unwrap()
                .changed,
            "removing an absent filter is a no-op"
        );
    }

    #[test]
    fn edge_mutations_track_the_oracle() {
        let cg = figure1();
        let mut engine = ImpactEngine::<Wide128>::new(&cg, FilterSet::empty(7));
        // Grow: a new edge x → z3 (1 → 5) adds flow.
        let out = engine
            .apply(Mutation::InsertEdge {
                from: NodeId::new(1),
                to: NodeId::new(5),
            })
            .unwrap();
        assert!(out.changed && !out.reordered);
        assert!(
            engine.owns_graph(),
            "structural mutation diverges the graph"
        );
        assert_eq!(engine.cgraph().edge_count(), 10);
        assert_matches_oracle(&engine, "insert edge 1->5");
        // Shrink: drop it again.
        engine
            .apply(Mutation::RemoveEdge {
                from: NodeId::new(1),
                to: NodeId::new(5),
            })
            .unwrap();
        assert_eq!(engine.cgraph().edge_count(), 9);
        assert_matches_oracle(&engine, "remove edge 1->5");
        // Remove a pre-existing edge, with filters placed.
        engine.insert_filter(NodeId::new(4));
        engine
            .apply(Mutation::RemoveEdge {
                from: NodeId::new(2),
                to: NodeId::new(4),
            })
            .unwrap();
        assert_matches_oracle(&engine, "remove edge 2->4 with filter at 4");
    }

    #[test]
    fn remove_edge_undoes_insert_edge() {
        let cg = figure1();
        let mut engine = ImpactEngine::<Wide128>::new(&cg, FilterSet::empty(7));
        engine.insert_filter(NodeId::new(4));
        let baseline =
            ImpactEngine::<Wide128>::new(&cg, FilterSet::from_nodes(7, [NodeId::new(4)]));
        let e = Mutation::InsertEdge {
            from: NodeId::new(3),
            to: NodeId::new(5),
        };
        engine.apply(e).unwrap();
        engine
            .apply(Mutation::RemoveEdge {
                from: NodeId::new(3),
                to: NodeId::new(5),
            })
            .unwrap();
        for v in cg.nodes() {
            assert_eq!(engine.received(v), baseline.received(v), "recv {v:?}");
            assert_eq!(engine.emitted(v), baseline.emitted(v), "emit {v:?}");
            assert_eq!(engine.suffix(v), baseline.suffix(v), "suffix {v:?}");
        }
        assert_eq!(engine.phi(), baseline.phi());
        assert_eq!(
            engine.cgraph().csr().edges().collect::<Vec<_>>(),
            cg.csr().edges().collect::<Vec<_>>(),
            "adjacency restored exactly"
        );
    }

    #[test]
    fn rejected_mutations_leave_the_engine_untouched() {
        let cg = figure1();
        let mut engine = ImpactEngine::<Wide128>::new(&cg, FilterSet::empty(7));
        let phi = *engine.phi();
        assert_eq!(
            engine.apply(Mutation::InsertEdge {
                from: NodeId::new(6),
                to: NodeId::new(0),
            }),
            Err(MutationError::WouldCreateCycle {
                from: NodeId::new(6),
                to: NodeId::new(0),
            })
        );
        assert_eq!(
            engine.apply(Mutation::InsertEdge {
                from: NodeId::new(0),
                to: NodeId::new(1),
            }),
            Err(MutationError::DuplicateEdge {
                from: NodeId::new(0),
                to: NodeId::new(1),
            })
        );
        assert_eq!(
            engine.apply(Mutation::RemoveEdge {
                from: NodeId::new(0),
                to: NodeId::new(6),
            }),
            Err(MutationError::UnknownEdge {
                from: NodeId::new(0),
                to: NodeId::new(6),
            })
        );
        assert_eq!(
            engine.apply(Mutation::InsertEdge {
                from: NodeId::new(2),
                to: NodeId::new(2),
            }),
            Err(MutationError::SelfLoop {
                node: NodeId::new(2)
            })
        );
        assert_eq!(
            engine.apply(Mutation::InsertFilter(NodeId::new(9))),
            Err(MutationError::NodeOutOfRange {
                node: NodeId::new(9),
                node_count: 7,
            })
        );
        assert!(
            !engine.owns_graph(),
            "no rejected mutation cloned the graph"
        );
        assert_eq!(*engine.phi(), phi);
        assert_matches_oracle(&engine, "after rejections");
    }

    #[test]
    fn reordering_insertions_stay_exact() {
        // 1 is the source; node 0 sits *after* 1 in any topo order only
        // once the edge 1 → 0 exists, so inserting it forces a rebuild
        // of the cached order.
        let g = DiGraph::from_pairs(3, [(1, 2)]).unwrap();
        let cg = CGraph::new(&g, NodeId::new(1)).unwrap();
        let mut engine = ImpactEngine::<Wide128>::new(&cg, FilterSet::empty(3));
        let out = engine
            .apply(Mutation::InsertEdge {
                from: NodeId::new(1),
                to: NodeId::new(0),
            })
            .unwrap();
        assert!(out.reordered, "cached order had 0 before 1");
        assert_matches_oracle(&engine, "after reorder");
        engine
            .apply(Mutation::InsertEdge {
                from: NodeId::new(0),
                to: NodeId::new(2),
            })
            .unwrap();
        assert_matches_oracle(&engine, "after second insert");
    }

    #[test]
    fn apply_outcome_reports_affected_counts() {
        let cg = figure1();
        let mut engine = ImpactEngine::<Wide128>::new(&cg, FilterSet::empty(7));
        let out = engine
            .apply(Mutation::InsertFilter(NodeId::new(4)))
            .unwrap();
        // z2's emission shrinks 2 → 1: w is reprocessed downstream, and
        // x, y, s upstream.
        assert!(out.changed);
        assert!(out.forward_affected >= 1, "w must be reprocessed");
        assert!(out.backward_affected >= 2, "x and y must be reprocessed");
        let dup = engine
            .apply(Mutation::InsertFilter(NodeId::new(4)))
            .unwrap();
        assert_eq!(dup, ApplyOutcome::default());
    }

    #[test]
    fn mutation_sequences_on_a_chain_stay_exact() {
        // A long chain exercises both frontier directions across many
        // interleaved mutation kinds.
        let mut g = DiGraph::with_nodes(1);
        let s = NodeId::new(0);
        let mut tail = s;
        let mut nodes = vec![s];
        for _ in 0..20 {
            let next = g.add_node();
            g.add_edge(tail, next);
            tail = next;
            nodes.push(next);
        }
        let cg = CGraph::new(&g, s).unwrap();
        let mut engine = ImpactEngine::<Wide128>::new(&cg, FilterSet::empty(g.node_count()));
        let steps = [
            Mutation::InsertFilter(nodes[10]),
            Mutation::InsertEdge {
                from: nodes[2],
                to: nodes[12],
            },
            Mutation::RemoveFilter(nodes[10]),
            Mutation::InsertFilter(nodes[5]),
            Mutation::RemoveEdge {
                from: nodes[2],
                to: nodes[12],
            },
            Mutation::InsertEdge {
                from: nodes[1],
                to: nodes[19],
            },
            Mutation::RemoveFilter(nodes[5]),
        ];
        for (i, m) in steps.into_iter().enumerate() {
            engine.apply(m).unwrap();
            assert_matches_oracle(&engine, &format!("step {i}: {m}"));
        }
    }
}
