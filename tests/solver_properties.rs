//! Property-based guarantees of the placement algorithms.
//!
//! * Theorem 3: Greedy_All is a (1 − 1/e)-approximation — checked
//!   against brute force on random DAGs.
//! * Objective laws: `F` is nonnegative, monotone, and submodular.
//! * §4.1: the tree DP equals brute force on random c-trees.

use fp_core::algorithms::{brute_force, tree_dp, GreedyAll, Solver};
use fp_core::datasets::{erdos_renyi, tree_gen};
use fp_core::prelude::*;
use fp_core::propagation::{f_value, phi_total};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn greedy_all_meets_the_nemhauser_bound(
        seed in 0u64..4000,
        p in 0.08f64..0.35,
        k in 1usize..4,
    ) {
        let (g, s) = erdos_renyi::generate(12, p, seed);
        let cg = CGraph::new(&g, s).unwrap();
        let greedy = GreedyAll::<Wide128>::new().place(&cg, k, 0);
        let f_greedy: Wide128 = f_value(&cg, &greedy);
        let (_, f_opt) = brute_force::optimal_placement::<Wide128>(&cg, k);
        let bound = (1.0 - (-1.0f64).exp()) * f_opt.get() as f64;
        prop_assert!(
            f_greedy.get() as f64 >= bound - 1e-9,
            "greedy {} < bound {} (opt {})", f_greedy.get(), bound, f_opt.get()
        );
    }

    #[test]
    fn greedy_all_is_optimal_for_k1(seed in 0u64..4000, p in 0.08f64..0.4) {
        let (g, s) = erdos_renyi::generate(14, p, seed);
        let cg = CGraph::new(&g, s).unwrap();
        let greedy = GreedyAll::<Wide128>::new().place(&cg, 1, 0);
        let f_greedy: Wide128 = f_value(&cg, &greedy);
        let (_, f_opt) = brute_force::optimal_placement::<Wide128>(&cg, 1);
        prop_assert_eq!(f_greedy, f_opt);
    }

    #[test]
    fn f_is_monotone_and_submodular(
        seed in 0u64..4000,
        p in 0.08f64..0.35,
        x in 0usize..15,
        extra in 0usize..15,
    ) {
        let (g, s) = erdos_renyi::generate(15, p, seed);
        let cg = CGraph::new(&g, s).unwrap();
        let n = g.node_count();
        let v = NodeId::new(x % n);
        // X ⊂ Y differing by `extra` elements.
        let xs = FilterSet::from_nodes(n, (0..3).map(|i| NodeId::new((seed as usize + i) % n)));
        let mut ys = xs.clone();
        for i in 0..3 {
            ys.insert(NodeId::new((seed as usize + extra + i * 5) % n));
        }
        if ys.contains(v) || xs.contains(v) {
            return Ok(());
        }
        let f = |set: &FilterSet| -> u128 {
            let f: Wide128 = f_value(&cg, set);
            f.get()
        };
        // Monotone.
        prop_assert!(f(&ys) >= f(&xs));
        // Submodular: F(X ∪ v) − F(X) ≥ F(Y ∪ v) − F(Y).
        let mut xv = xs.clone();
        xv.insert(v);
        let mut yv = ys.clone();
        yv.insert(v);
        prop_assert!(
            f(&xv) - f(&xs) >= f(&yv) - f(&ys),
            "submodularity violated at v={}", v
        );
    }

    #[test]
    fn tree_dp_matches_brute_force_on_random_trees(
        seed in 0u64..3000,
        n in 3usize..12,
        inject in 0.2f64..0.9,
        k in 0usize..4,
    ) {
        let tree = tree_gen::random_ctree(n, inject, seed);
        let placement = tree_dp::optimal_tree_placement(&tree, k);
        let (g, s) = tree.to_digraph();
        let cg = CGraph::new(&g, s).unwrap();
        // DP's reported Φ is self-consistent …
        let fs = FilterSet::from_nodes(g.node_count(), placement.filters.iter().copied());
        let phi: Wide128 = phi_total(&cg, &fs);
        prop_assert_eq!(placement.phi as u128, phi.get());
        // … and optimal.
        let (_, f_opt) = brute_force::optimal_placement::<Wide128>(&cg, k);
        let f_dp = placement.phi_empty - placement.phi;
        prop_assert_eq!(f_dp as u128, f_opt.get(), "k={}", k);
    }

    #[test]
    fn greedy_placements_never_include_dead_filters(
        seed in 0u64..3000,
        p in 0.08f64..0.3,
    ) {
        // Every filter Greedy_All places has strictly positive marginal
        // value at its insertion point, so F strictly increases along
        // the insertion order.
        let (g, s) = erdos_renyi::generate(18, p, seed);
        let cg = CGraph::new(&g, s).unwrap();
        let placement = GreedyAll::<Wide128>::new().place(&cg, 8, 0);
        let mut last: u128 = 0;
        for i in 1..=placement.len() {
            let f: Wide128 = f_value(&cg, &placement.truncated(i));
            prop_assert!(f.get() > last, "filter #{} added no value", i);
            last = f.get();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// The experiment runner evaluates deterministic solvers once at
    /// k_max and truncates — valid only if every deterministic solver
    /// is *prefix-stable*: its k-budget answer is the first k picks of
    /// its k_max-budget answer.
    #[test]
    fn deterministic_solvers_are_prefix_stable(
        seed in 0u64..2000,
        p in 0.08f64..0.3,
    ) {
        let (g, s) = erdos_renyi::generate(18, p, seed);
        let cg = CGraph::new(&g, s).unwrap();
        for kind in [
            SolverKind::GreedyAll,
            SolverKind::GreedyMax,
            SolverKind::GreedyOne,
            SolverKind::GreedyL,
            SolverKind::Betweenness,
        ] {
            let solver = kind.build::<Wide128>();
            let full = solver.place(&cg, 6, 0);
            for k in 0..6 {
                let partial = solver.place(&cg, k, 0);
                let prefix: Vec<_> = full.nodes().iter().copied().take(k).collect();
                prop_assert_eq!(
                    partial.nodes(),
                    &prefix[..partial.len().min(prefix.len())],
                    "{} not prefix-stable at k={}", kind.label(), k
                );
            }
        }
    }
}
