//! Dataset-level reproductions of the paper's qualitative findings,
//! including the Figure-10 pathology.

use fp_core::datasets::citation_like::{self, CitationLikeParams, CitationLikeStream};
use fp_core::datasets::erdos_renyi::{self, ErdosRenyiStream};
use fp_core::datasets::layered::{self, LayeredParams, LayeredStream};
use fp_core::datasets::power_law::{self, PowerLawParams, PowerLawStream};
use fp_core::datasets::quote_like::{self, QuoteLikeParams};
use fp_core::datasets::stats::DegreeStats;
use fp_core::datasets::twitter_like::{self, TwitterLikeParams, TwitterLikeStream};
use fp_core::prelude::*;
use fp_core::scale::EdgeStream;

#[test]
fn quote_like_fr_curve_is_steep_and_saturates_by_k4() {
    // Figure 7: "as few as four nodes achieve perfect redundancy
    // elimination for this dataset", with Greedy_All leading.
    let q = quote_like::generate(&QuoteLikeParams::default());
    let p = Problem::new(&q.graph, q.source).unwrap();
    let ga = p.solve(SolverKind::GreedyAll, 4);
    assert_eq!(p.filter_ratio(&ga), 1.0, "four filters suffice");
    let ga1 = p.solve(SolverKind::GreedyAll, 1);
    assert!(p.filter_ratio(&ga1) > 0.2, "the first filter already bites");
}

#[test]
fn quote_like_randomized_baselines_suffer_from_sinks() {
    // "Random_k and Random_Independent perform significantly worse than
    // all others because of the high fraction of sink nodes."
    let q = quote_like::generate(&QuoteLikeParams::default());
    let p = Problem::new(&q.graph, q.source).unwrap();
    let k = 4;
    let avg = |kind: SolverKind| -> f64 {
        (0..25)
            .map(|t| p.filter_ratio(&p.solve_seeded(kind, k, t)))
            .sum::<f64>()
            / 25.0
    };
    let rand_k = avg(SolverKind::RandK);
    let rand_w = avg(SolverKind::RandW);
    let ga = p.filter_ratio(&p.solve(SolverKind::GreedyAll, k));
    assert!(ga > rand_w, "greedy beats weighted random");
    assert!(
        rand_w > rand_k + 0.05,
        "weighted random ({rand_w:.3}) must clearly beat uniform ({rand_k:.3}) — \
         weights steer away from sinks"
    );
}

#[test]
fn twitter_like_all_greedy_variants_reach_fr1_within_ten_filters() {
    // Figure 8: "Greedy_All can remove all redundancy with placing as
    // few as six filters. … Greedy_Max, Greedy_1 and Greedy_L all
    // achieve complete filtering with at most ten filters."
    let t = twitter_like::generate(&TwitterLikeParams {
        scale: 0.02,
        seed: 5,
    });
    let p = Problem::new(&t.graph, t.source).unwrap();
    let ga = p.solve(SolverKind::GreedyAll, 6);
    assert_eq!(p.filter_ratio(&ga), 1.0, "G_ALL perfect by k=6");
    for kind in [
        SolverKind::GreedyMax,
        SolverKind::GreedyOne,
        SolverKind::GreedyL,
    ] {
        let fr = p.filter_ratio(&p.solve(kind, 10));
        assert!(
            fr > 0.95,
            "{} should nearly saturate by k=10, got {fr:.3}",
            kind.label()
        );
    }
}

#[test]
fn citation_like_greedy_max_plateaus_on_the_chain() {
    // Figure 9/10: Greedy_Max wastes picks on the mutually-redundant
    // chain, so Greedy_All strictly dominates somewhere on the curve.
    let c = citation_like::generate(&citation_like::test_params(1997));
    let p = Problem::new(&c.graph, c.source).unwrap();
    let mut dominated = false;
    let mut strictly = 0.0f64;
    for k in 1..=10 {
        let fa = p.filter_ratio(&p.solve(SolverKind::GreedyAll, k));
        let fm = p.filter_ratio(&p.solve(SolverKind::GreedyMax, k));
        assert!(fa >= fm - 1e-9, "G_ALL never loses to G_Max (k={k})");
        if fa > fm + 1e-6 {
            dominated = true;
            strictly = strictly.max(fa - fm);
        }
    }
    assert!(
        dominated,
        "G_ALL must strictly beat G_Max somewhere on the citation curve"
    );
    assert!(strictly > 0.01, "the gap should be visible ({strictly:.4})");

    // The mechanism: Greedy_Max's picks pile onto the collector+chain.
    let gm = p.solve(SolverKind::GreedyMax, 10);
    let on_chain = gm
        .nodes()
        .iter()
        .filter(|v| c.chain.contains(v) || **v == c.collector)
        .count();
    assert!(
        on_chain >= 3,
        "expected several correlated picks on the planted chain, got {on_chain}"
    );
}

#[test]
fn synthetic_layered_fr_grows_gradually() {
    // Figure 5: "a gradual increase in FR as a function of the number
    // of filters" — dense graphs have no small cut of key nodes, so
    // even Greedy_All needs many filters.
    let lg = layered::generate(&LayeredParams {
        levels: 10,
        expected_per_level: 30,
        x: 1.0,
        y: 4.0,
        seed: 77,
    });
    let p = Problem::new(&lg.graph, lg.source).unwrap();
    let fr10 = p.filter_ratio(&p.solve(SolverKind::GreedyAll, 10));
    let fr50 = p.filter_ratio(&p.solve(SolverKind::GreedyAll, 50));
    assert!(
        fr10 < 0.9,
        "no tiny perfect cut in dense synthetic graphs ({fr10:.3})"
    );
    assert!(
        fr50 > fr10 + 0.1,
        "more filters keep helping ({fr10:.3} → {fr50:.3})"
    );
}

#[test]
fn figure4_and_6_degree_cdfs_have_the_reported_shape() {
    // Fig 4: the dense config's in-degree distribution extends ~2-3×
    // further right than the sparse one.
    let sparse = layered::generate(&LayeredParams::paper_sparse(42));
    let dense = layered::generate(&LayeredParams::paper_dense(42));
    let cdf_sparse = DegreeStats::in_degrees(&sparse.graph);
    let cdf_dense = DegreeStats::in_degrees(&dense.graph);
    assert!(cdf_dense.max_degree() > cdf_sparse.max_degree());
    assert!(cdf_dense.mean() > 2.0 * cdf_sparse.mean());

    // Fig 6: quote-like in-degree CDF — half the mass at in-degree ≤ 1,
    // long tail beyond 20.
    let q = quote_like::generate(&QuoteLikeParams::default());
    let qd = DegreeStats::in_degrees(&q.graph);
    assert!(
        (0.35..0.75).contains(&qd.cdf_at(1)),
        "cdf(1) = {}",
        qd.cdf_at(1)
    );
    assert!(qd.max_degree() >= 10, "hub tail missing");
}

/// FNV-1a over 64-bit little-endian words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One pass over `stream` from its start: FNV-1a over the emitted
/// `(source, target)` sequence, and the edge count.
fn emission(stream: &mut dyn EdgeStream) -> (u64, usize) {
    let mut words = Vec::new();
    fp_core::scale::for_each_chunk(stream, |chunk| {
        words.extend(
            chunk
                .iter()
                .flat_map(|&(u, v)| [u64::from(u), u64::from(v)]),
        );
        Ok(())
    })
    .unwrap();
    (fnv1a(words.iter().copied()), words.len() / 2)
}

/// What one generator produced: its materialized graph, source,
/// metadata flattened to words, and the streamed twin.
struct Generated {
    name: &'static str,
    graph: DiGraph,
    source: NodeId,
    meta: Vec<u64>,
    stream: Box<dyn EdgeStream>,
}

fn ids(nodes: &[NodeId]) -> impl Iterator<Item = u64> + '_ {
    std::iter::once(nodes.len() as u64).chain(nodes.iter().map(|v| v.index() as u64))
}

fn power_law_case(name: &'static str, params: PowerLawParams) -> Generated {
    let (graph, source) = power_law::generate(&params);
    Generated {
        name,
        graph,
        source,
        meta: vec![source.index() as u64],
        stream: Box::new(PowerLawStream::new(&params)),
    }
}

fn erdos_case(name: &'static str, n: usize, p: f64, seed: u64) -> Generated {
    let (graph, source) = erdos_renyi::generate(n, p, seed);
    Generated {
        name,
        graph,
        source,
        meta: vec![source.index() as u64],
        stream: Box::new(ErdosRenyiStream::new(n, p, seed)),
    }
}

fn layered_case(name: &'static str, params: LayeredParams) -> Generated {
    let lg = layered::generate(&params);
    let mut meta = vec![lg.source.index() as u64];
    meta.extend(lg.level.iter().map(|&l| u64::from(l)));
    Generated {
        name,
        graph: lg.graph,
        source: lg.source,
        meta,
        stream: Box::new(LayeredStream::new(&params)),
    }
}

fn citation_case(name: &'static str, params: CitationLikeParams) -> Generated {
    let c = citation_like::generate(&params);
    let mut meta = vec![c.source.index() as u64, c.collector.index() as u64];
    meta.extend(ids(&c.chain).chain(ids(&c.majors)).chain(ids(&c.minors)));
    Generated {
        name,
        graph: c.graph,
        source: c.source,
        meta,
        stream: Box::new(CitationLikeStream::new(&params)),
    }
}

fn twitter_case(name: &'static str, params: TwitterLikeParams) -> Generated {
    let t = twitter_like::generate(&params);
    let mut meta = vec![t.source.index() as u64];
    meta.extend(ids(&t.celebrities));
    meta.push(t.level_sizes.len() as u64);
    meta.extend(t.level_sizes.iter().map(|&s| s as u64));
    Generated {
        name,
        graph: t.graph,
        source: t.source,
        meta,
        stream: Box::new(TwitterLikeStream::new(&params)),
    }
}

/// Every streamed generator's output, pinned at its test parameters
/// and at its paper defaults: node and edge counts, the stored-run
/// `edge_hash` of the materialized graph, an FNV-1a over the stream's
/// emission order (which fixes in-adjacency order; `edge_hash` walks
/// out-lists only) and over the metadata. Two passes over one stream
/// must emit the same sequence, and the stream must describe the same
/// graph `generate` builds.
#[test]
fn streamed_generators_emit_pinned_graphs() {
    let cases = vec![
        power_law_case(
            "power-law test",
            PowerLawParams {
                nodes: 500,
                mean_degree: 3,
                seed: 77,
            },
        ),
        power_law_case(
            "power-law:100000:3:7",
            PowerLawParams {
                nodes: 100_000,
                mean_degree: 3,
                seed: 7,
            },
        ),
        erdos_case("erdos:0:0.5:1", 0, 0.5, 1),
        erdos_case("erdos:1:0.5:2", 1, 0.5, 2),
        erdos_case("erdos:25:0:3", 25, 0.0, 3),
        erdos_case("erdos:40:0.12:9", 40, 0.12, 9),
        erdos_case("erdos:300:0.05:9", 300, 0.05, 9),
        layered_case(
            "layered test",
            LayeredParams {
                levels: 6,
                expected_per_level: 30,
                x: 1.0,
                y: 3.0,
                seed: 21,
            },
        ),
        layered_case("layered-sparse:2012", LayeredParams::paper_sparse(2012)),
        layered_case("layered-dense:2012", LayeredParams::paper_dense(2012)),
        citation_case("citation test", citation_like::test_params(9)),
        citation_case("citation default", CitationLikeParams::default()),
        twitter_case(
            "twitter test",
            TwitterLikeParams {
                scale: 0.02,
                seed: 5,
            },
        ),
        twitter_case("twitter default", TwitterLikeParams::default()),
    ];
    let mut got = Vec::new();
    for mut c in cases {
        let (order, edges) = emission(&mut *c.stream);
        assert_eq!(
            emission(&mut *c.stream),
            (order, edges),
            "{}: replay",
            c.name
        );
        assert_eq!(edges, c.graph.edge_count(), "{}", c.name);
        assert_eq!(
            c.stream.node_hint(),
            Some(c.graph.node_count() as u64),
            "{}",
            c.name
        );
        let fp = DatasetFingerprint::of_graph(c.name, &c.graph, c.source, "s");
        got.push((
            c.name,
            c.graph.node_count(),
            edges,
            fp.edge_hash,
            format!("{order:016x}"),
            format!("{:016x}", fnv1a(c.meta)),
        ));
    }
    // (name, nodes, edges, edge_hash, emission FNV, metadata FNV)
    #[rustfmt::skip]
    let pinned: Vec<(&str, usize, usize, &str, &str, &str)> = vec![
        ("power-law test", 500, 1471, "872a1c3280259ef0", "8ae68c2b5fc9b703", "a8c7f832281a39c5"),
        ("power-law:100000:3:7", 100000, 300268, "d8b93242ff4c6b2b", "fe65e4813204011c", "a8c7f832281a39c5"),
        ("erdos:0:0.5:1", 1, 0, "392209f14dea4c24", "cbf29ce484222325", "a8c7f832281a39c5"),
        ("erdos:1:0.5:2", 2, 1, "3f89e2d1e922a487", "392209f14dea4c24", "89cd31291d2aefa4"),
        ("erdos:25:0:3", 26, 25, "89b06e91bca19087", "77a6b3eab52a1f24", "714fda022399e2bc"),
        ("erdos:40:0.12:9", 41, 109, "e65cb1eb3d259253", "baea087d3a85c6d2", "c1454f5921ab46ad"),
        ("erdos:300:0.05:9", 301, 2316, "0fdff0ad70e2cac2", "f85f7f1c1ef97183", "8007b7aaa41a4b4e"),
        ("layered test", 181, 2118, "768bd654c7bc7a8c", "8ec2706539595579", "95c3ab53d3692ac3"),
        ("layered-sparse:2012", 1001, 29573, "98b06ae5dbdef5aa", "5d401b0a3fcda23e", "7ec9b0a1ae8737cc"),
        ("layered-dense:2012", 1001, 88072, "d2edbd1624abf379", "d1c23a6b364e77e9", "7ec9b0a1ae8737cc"),
        ("citation test", 1036, 2471, "a9700caa6a6a37be", "ebdb6fec2e7c0856", "99e91a5e002ef6c2"),
        ("citation default", 9982, 35875, "957c2744b691909f", "072374e09b954abf", "08b8eaaceb2ace8e"),
        ("twitter test", 1785, 2510, "1bd1ab4e129149c3", "271bedbc70e1d1f4", "632db348117b2fd8"),
        ("twitter default", 89005, 124857, "d96e043452e645ae", "64d7db3962112497", "1fde9d2333bf0d62"),
    ];
    let got_ref: Vec<_> = got
        .iter()
        .map(|(n, v, e, h, o, m)| (*n, *v, *e, h.as_str(), o.as_str(), m.as_str()))
        .collect();
    assert_eq!(got_ref, pinned);
}
