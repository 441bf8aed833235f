//! Stream-vs-materialized equivalence (the fp-scale contract): a graph
//! built by `Csr32::from_stream` — chunked edges, two passes, u32
//! indices, no intermediate edge `Vec` — must be *bit-identical* to the
//! in-memory `Csr::from_digraph` path. Same adjacency in the same
//! order, same topological order, same solver placements. Random DAGs,
//! pinned by proptest.
//!
//! Also pins the budget accountant's failure path: a build that trips
//! `BudgetExceeded` must release every reservation it made, leaving the
//! ledger clean and later builds unaffected.
//!
//! `dag_edges` draws u < v DAGs, which freeze in the identity order;
//! the relabelling proptest below keeps the Kahn order covered and
//! checks that no value depends on which order a graph froze in.

use fp_core::algorithms::{GreedyAll, GreedyMax, Solver};
use fp_core::graph::{DiGraph, NodeId};
use fp_core::num::{Count, Sat64, Wide128};
use fp_core::propagation::{
    phi_total, propagate, suffix_sensitivity, CGraph, FilterSet, ImpactEngine,
};
use fp_core::scale::{Csr32, MemBudget, ScaleError, VecStream};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Shape raw random pairs into a DAG edge list on `n` nodes: every
/// edge points from a lower id to a higher id, so any pair set is
/// acyclic by construction. Deduplicated and sorted, so both build
/// paths consume the identical sequence; nodes may be unreachable or
/// isolated (the node-count hint must still agree).
fn dag_edges(n: usize, raw: &[(u32, u32)]) -> Vec<(u32, u32)> {
    raw.iter()
        .map(|&(a, b)| {
            let u = a % (n as u32 - 1);
            let v = u + 1 + b % (n as u32 - 1 - u);
            (u, v)
        })
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// Build the same graph both ways and return `(materialized, streamed)`.
fn both_paths(n: usize, edges: &[(u32, u32)]) -> (CGraph, CGraph) {
    let g = DiGraph::from_pairs(
        n,
        edges
            .iter()
            .map(|&(u, v)| (u as usize, v as usize))
            .collect::<Vec<_>>(),
    )
    .expect("u < v edges form a DAG");
    let materialized = CGraph::new(&g, NodeId::new(0)).expect("DAG");

    let budget = MemBudget::unlimited();
    let mut stream = VecStream::new(edges.to_vec(), Some(n as u64));
    let csr32 = Csr32::from_stream(&mut stream, &budget).expect("unlimited budget");
    let bytes = csr32.bytes();
    let streamed = CGraph::from_csr(csr32.into_csr(), NodeId::new(0)).expect("DAG");
    budget.release(bytes);
    (materialized, streamed)
}

/// A permutation of `0..n` drawn from `seed` (Fisher–Yates over
/// splitmix64), mirrored (`v ↦ n − 1 − v`) if it would keep every edge
/// ascending, so the relabelled graph always has a descending edge
/// when it has any edge at all.
fn descending_relabelling(n: usize, edges: &[(u32, u32)], mut seed: u64) -> Vec<usize> {
    let mut next = || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    if edges
        .iter()
        .all(|&(u, v)| perm[u as usize] < perm[v as usize])
    {
        for v in &mut perm {
            *v = n - 1 - *v;
        }
    }
    perm
}

/// Freeze `edges` (source 0) and its image under `perm` (source
/// `perm[0]`).
fn labelled_twice(n: usize, edges: &[(u32, u32)], perm: &[usize]) -> (CGraph, CGraph) {
    let freeze = |pairs: Vec<(usize, usize)>, source: usize| {
        let g = DiGraph::from_pairs(n, pairs).expect("a relabelled DAG");
        CGraph::new(&g, NodeId::new(source)).expect("DAG")
    };
    let up = edges.iter().map(|&(u, v)| (u as usize, v as usize));
    let mapped = up.clone().map(|(u, v)| (perm[u], perm[v]));
    (freeze(up.collect(), 0), freeze(mapped.collect(), perm[0]))
}

/// Every propagation value agrees under the relabelling `perm`, for
/// the filters `picks` (inserted into an engine in that order).
fn values_agree_under<C: Count + std::fmt::Debug>(
    up: &CGraph,
    relabelled: &CGraph,
    perm: &[usize],
    picks: &[usize],
) -> Result<(), TestCaseError> {
    let n = up.node_count();
    let map = |v: NodeId| NodeId::new(perm[v.index()]);
    let filters = FilterSet::from_nodes(n, picks.iter().map(|&v| NodeId::new(v)));
    let mapped = FilterSet::from_nodes(n, filters.nodes().iter().map(|&v| map(v)));

    let (a, b) = (
        propagate::<C>(up, &filters),
        propagate::<C>(relabelled, &mapped),
    );
    let (sa, sb) = (
        suffix_sensitivity::<C>(up, &filters),
        suffix_sensitivity::<C>(relabelled, &mapped),
    );
    for v in up.nodes() {
        let w = map(v).index();
        prop_assert_eq!(&a.received[v.index()], &b.received[w], "received {}", v);
        prop_assert_eq!(&a.emitted[v.index()], &b.emitted[w], "emitted {}", v);
        prop_assert_eq!(&sa[v.index()], &sb[w], "suffix {}", v);
    }
    prop_assert_eq!(
        phi_total::<C>(up, &filters),
        phi_total::<C>(relabelled, &mapped)
    );

    let mut ea = ImpactEngine::<C>::new(up, FilterSet::empty(n));
    let mut eb = ImpactEngine::<C>::new(relabelled, FilterSet::empty(n));
    for &p in picks {
        let p = NodeId::new(p);
        prop_assert_eq!(ea.insert_filter(p), eb.insert_filter(map(p)));
        prop_assert_eq!(ea.phi(), eb.phi(), "Φ after inserting {}", p);
        for v in up.nodes() {
            let w = map(v);
            prop_assert_eq!(ea.received(v), eb.received(w), "engine received {}", v);
            prop_assert_eq!(ea.emitted(v), eb.emitted(w), "engine emitted {}", v);
            prop_assert_eq!(ea.suffix(v), eb.suffix(w), "engine suffix {}", v);
            prop_assert_eq!(ea.impact(v), eb.impact(w), "engine impact {}", v);
        }
    }
    Ok(())
}

proptest! {
    /// Order independence: the same DAG with ascending labels (frozen
    /// in the identity order) and under a relabelling with a
    /// descending edge (frozen in Kahn's order) gives bit-equal
    /// `received`, `suffix`, Φ and engine state under the mapping, at
    /// Sat64 and Wide128.
    #[test]
    fn values_do_not_depend_on_the_frozen_order(
        n in 2usize..48,
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..96),
        perm_seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u32>(), 0..6),
    ) {
        let edges = dag_edges(n, &raw);
        let perm = descending_relabelling(n, &edges, perm_seed);
        let (up, relabelled) = labelled_twice(n, &edges, &perm);
        prop_assert!(up.topo().iter().enumerate().all(|(i, v)| v.index() == i));
        prop_assert!(
            relabelled.topo().iter().enumerate().any(|(i, v)| v.index() != i),
            "a descending edge forces Kahn's order"
        );
        // Filters anywhere but the source (node 0 of the ascending copy).
        let picks: Vec<usize> = picks.iter().map(|&p| 1 + p as usize % (n - 1)).collect();
        values_agree_under::<Sat64>(&up, &relabelled, &perm, &picks)?;
        values_agree_under::<Wide128>(&up, &relabelled, &perm, &picks)?;
    }

    /// Adjacency equivalence: same node/edge counts, same children and
    /// parents per node, in the same storage order.
    #[test]
    fn streamed_csr_matches_the_materialized_csr(
        n in 2usize..48,
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..96),
    ) {
        let edges = dag_edges(n, &raw);
        let (mat, st) = both_paths(n, &edges);
        prop_assert_eq!(mat.node_count(), st.node_count());
        prop_assert_eq!(mat.edge_count(), st.edge_count());
        for v in 0..n {
            let v = NodeId::new(v);
            prop_assert_eq!(mat.csr().children(v), st.csr().children(v));
            prop_assert_eq!(mat.csr().parents(v), st.csr().parents(v));
        }
    }

    /// Topological-order equivalence: identical sequences, not merely
    /// both valid — a frozen graph is the same whichever way it was
    /// built.
    #[test]
    fn streamed_topo_order_is_identical(
        n in 2usize..48,
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..96),
    ) {
        let edges = dag_edges(n, &raw);
        let (mat, st) = both_paths(n, &edges);
        prop_assert_eq!(mat.topo(), st.topo());
    }

    /// Placement equivalence: Greedy_All and Greedy_Max pick the same
    /// filters in the same order on both builds, for every k.
    #[test]
    fn solvers_place_identically_on_both_builds(
        n in 2usize..48,
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..96),
    ) {
        let edges = dag_edges(n, &raw);
        let (mat, st) = both_paths(n, &edges);
        for k in 0..=4usize {
            let a = GreedyAll::<Wide128>::new().place(&mat, k, 0);
            let b = GreedyAll::<Wide128>::new().place(&st, k, 0);
            prop_assert_eq!(a.nodes(), b.nodes(), "GreedyAll k={}", k);
            let a = GreedyMax::<Wide128>::new().place(&mat, k, 0);
            let b = GreedyMax::<Wide128>::new().place(&st, k, 0);
            prop_assert_eq!(a.nodes(), b.nodes(), "GreedyMax k={}", k);
        }
    }
}

/// A build that trips the cap fails with the typed error, rolls every
/// reservation back (nothing live), and leaves the accountant usable:
/// the identical build under a sufficient cap then succeeds and matches
/// an unconstrained build bit-for-bit.
#[test]
fn budget_exceeded_rolls_back_and_leaves_the_ledger_clean() {
    let edges: Vec<(u32, u32)> = (0u32..2_000).map(|i| (i, i + 1)).collect();

    let tight = MemBudget::new(Some(64));
    let mut stream = VecStream::new(edges.clone(), None);
    match Csr32::from_stream(&mut stream, &tight) {
        Err(ScaleError::BudgetExceeded { .. }) => {}
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    assert_eq!(tight.live(), 0, "failed build must release everything");

    // Same accountant object, raised cap: the rollback left no debris.
    tight.set_cap(Some(1 << 20));
    let mut stream = VecStream::new(edges.clone(), None);
    let constrained = Csr32::from_stream(&mut stream, &tight).expect("1 MiB covers a 2k-node path");
    let bytes = constrained.bytes();
    assert_eq!(tight.live(), bytes, "graph bytes stay reserved on success");

    let unlimited = MemBudget::unlimited();
    let mut stream = VecStream::new(edges, None);
    let free = Csr32::from_stream(&mut stream, &unlimited).expect("unlimited");
    assert_eq!(constrained.node_count(), free.node_count());
    assert_eq!(constrained.edge_count(), free.edge_count());
    assert!(
        constrained.edges().eq(free.edges()),
        "identical edge storage"
    );

    tight.release(bytes);
    unlimited.release(free.bytes());
    assert_eq!(tight.live(), 0);
}
