//! The APS citation stand-in (§5, Figures 9–10).
//!
//! The paper's G_Citation: 9,982 nodes / 36,070 edges, power-law in and
//! out degrees, rooted at a single 1997 article. Figure 10 sketches its
//! pathology: "a set of nine nodes, interconnected by a path, that all
//! have indegree one. All paths from the upper to the lower half of the
//! graph traverse through these nodes, which makes them all
//! high-impact. However, placing a filter in the first node highly
//! diminishes the impact of the remaining nodes. This remains
//! unobserved by Greedy_Max resulting in the long range over which
//! G_Max is constant."
//!
//! Construction, calibrated so both reported behaviours are visible in
//! FR terms (Figure 9: the best algorithms converge high with < 15
//! filters; Figure 10: G_Max sits on a long constant plateau):
//!
//! * an *upper half*: a preferential-attachment **tree** rooted at the
//!   source (heavy-tailed out-degrees, in-degree 1 — citation trees of
//!   derivative work);
//! * `feeders` upper nodes cite the *collector*, which is followed by
//!   the planted [`CHAIN_LEN`]-node in-degree-1 chain, which seeds the
//!   *lower half* (another preferential tree). The collector and all
//!   nine chain nodes own the largest *static* impacts in the graph —
//!   Greedy_Max's first ten picks — yet filtering the collector makes
//!   the other nine worthless;
//! * `majors` high-value consolidation points (multi-cited surveys
//!   fanning out to many sinks): the concentrated redundancy that lets
//!   Greedy_All/Greedy_L/Greedy_1 converge steeply while Greedy_Max is
//!   stuck on the chain;
//! * `minors` small three-citation diamonds (the long tail of modest
//!   redundancy);
//! * extra citations into a shared sink pool bring node/edge totals and
//!   the in-degree tail to the reported scale.

use fp_graph::{DiGraph, NodeId};
use fp_scale::{EdgeSink, EdgeStream, ScaleError};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Length of the planted chain (Figure 10: nine nodes).
pub const CHAIN_LEN: usize = 9;

/// Parameters (defaults match the paper's G_Citation scale).
#[derive(Clone, Debug)]
pub struct CitationLikeParams {
    /// Nodes in the upper tree (including the source).
    pub upper_nodes: usize,
    /// Nodes in the lower tree.
    pub lower_nodes: usize,
    /// Upper nodes citing the collector (its in-degree).
    pub feeders: usize,
    /// Sink edges cited directly by the collector (gives it the degree
    /// product visibility Greedy_1 needs).
    pub collector_sink_edges: usize,
    /// Number of major consolidation points.
    pub majors: usize,
    /// In-degree of each major (distinct upper citers).
    pub major_indeg: usize,
    /// Sink fan-out of each major.
    pub major_fanout: usize,
    /// Number of small diamond gadgets.
    pub minors: usize,
    /// Sink-pool size.
    pub sinks: usize,
    /// Extra citation edges into the sink pool.
    pub sink_edges: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CitationLikeParams {
    fn default() -> Self {
        // Nodes: 2500 + 1 + 9 + 2000 + 15 + 300·3 + 4557 = 9,982.
        // Edges: 2499 + 10 + 9 + 2000 + 200 + 15·(5+500) + 300·5
        //        + minor fanouts (~1050) + 21,000 ≈ 36,000.
        Self {
            upper_nodes: 2500,
            lower_nodes: 2000,
            feeders: 10,
            collector_sink_edges: 200,
            majors: 15,
            major_indeg: 5,
            major_fanout: 500,
            minors: 300,
            sinks: 4557,
            sink_edges: 21_000,
            seed: 1997,
        }
    }
}

/// A generated citation-like c-graph.
#[derive(Clone, Debug)]
pub struct CitationLikeGraph {
    /// The graph.
    pub graph: DiGraph,
    /// The source (the cited 1997 article).
    pub source: NodeId,
    /// The collector that funnels the upper half into the chain.
    pub collector: NodeId,
    /// The planted chain (in path order), each with in-degree 1.
    pub chain: Vec<NodeId>,
    /// The major consolidation points.
    pub majors: Vec<NodeId>,
    /// The minor diamond join nodes.
    pub minors: Vec<NodeId>,
}

/// Generate a citation-like graph.
pub fn generate(params: &CitationLikeParams) -> CitationLikeGraph {
    let mut stream = CitationLikeStream::new(params);
    let graph = crate::materialize(&mut stream);
    let ids = |v: &[u32]| v.iter().map(|&v| NodeId::new(v as usize)).collect();
    CitationLikeGraph {
        graph,
        source: NodeId::new(0),
        collector: NodeId::new(stream.collector as usize),
        chain: ids(&stream.chain),
        majors: ids(&stream.majors),
        minors: ids(&stream.minors),
    }
}

/// The generator: each replay runs the construction from the seed,
/// emitting edges as it goes and handing out node ids in allocation
/// order. Resident state is the id pools the sampler draws from and
/// the preferential-attachment urns (O(n)), never the edge list.
#[derive(Clone, Debug)]
pub struct CitationLikeStream {
    params: CitationLikeParams,
    /// The last replay's landmarks (see [`CitationLikeGraph`]).
    collector: u32,
    chain: Vec<u32>,
    majors: Vec<u32>,
    minors: Vec<u32>,
}

impl CitationLikeStream {
    /// Stream the graph described by `params`. Node 0 is the source.
    pub fn new(params: &CitationLikeParams) -> Self {
        Self {
            params: params.clone(),
            collector: 0,
            chain: Vec::new(),
            majors: Vec::new(),
            minors: Vec::new(),
        }
    }
}

/// Node ids in allocation order: the streamed `DiGraph::add_node`.
struct Ids(u32);

impl Ids {
    fn add_node(&mut self) -> u32 {
        self.0 += 1;
        self.0 - 1
    }
}

/// Grow a preferential-attachment tree: `count` new nodes, each with
/// one parent chosen degree-proportionally from `roots` ∪ previously
/// added nodes. Returns the added node ids.
fn grow_tree(
    sink: &mut EdgeSink<'_>,
    ids: &mut Ids,
    roots: &[u32],
    count: usize,
    rng: &mut ChaCha8Rng,
) -> Result<Vec<u32>, ScaleError> {
    let mut urn: Vec<u32> = roots.to_vec();
    let mut added = Vec::with_capacity(count);
    for _ in 0..count {
        let parent = urn[rng.random_range(0..urn.len())];
        let v = ids.add_node();
        sink.emit(parent, v)?;
        // Parent re-enters twice (degree bias), child once.
        urn.push(parent);
        urn.push(v);
        added.push(v);
    }
    Ok(added)
}

/// Pick `count` distinct elements of `pool` (uniformly, with retries),
/// returned in first-pick order. The retry loop consumes one RNG draw
/// per attempt whether or not the pick is fresh. (An earlier version
/// collected into a `HashSet`, whose iteration order — and therefore
/// the graph's adjacency order and dataset fingerprint — varied per
/// process.)
fn distinct_sample(pool: &[u32], count: usize, rng: &mut ChaCha8Rng) -> Vec<u32> {
    let count = count.min(pool.len());
    let mut chosen: Vec<u32> = Vec::with_capacity(count);
    while chosen.len() < count {
        let pick = pool[rng.random_range(0..pool.len())];
        if !chosen.contains(&pick) {
            chosen.push(pick);
        }
    }
    chosen
}

impl EdgeStream for CitationLikeStream {
    fn node_hint(&self) -> Option<u64> {
        let p = &self.params;
        let nodes = p.upper_nodes.max(1)
            + 1
            + CHAIN_LEN
            + p.lower_nodes
            + p.majors
            + 3 * p.minors
            + p.sinks;
        Some(nodes as u64)
    }

    fn replay(&mut self, sink: &mut EdgeSink<'_>) -> Result<(), ScaleError> {
        let params = &self.params;
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
        let mut ids = Ids(0);
        let source = ids.add_node();

        // Upper tree.
        let upper = grow_tree(
            sink,
            &mut ids,
            &[source],
            params.upper_nodes.saturating_sub(1),
            &mut rng,
        )?;
        let upper_all: Vec<u32> = std::iter::once(source).chain(upper).collect();

        // Collector fed by `feeders` distinct upper nodes.
        let collector = ids.add_node();
        for u in distinct_sample(&upper_all, params.feeders, &mut rng) {
            sink.emit(u, collector)?;
        }

        // The chain.
        let mut chain = Vec::with_capacity(CHAIN_LEN);
        let mut tail = collector;
        for _ in 0..CHAIN_LEN {
            let c = ids.add_node();
            sink.emit(tail, c)?;
            chain.push(c);
            tail = c;
        }

        // Lower tree seeded from the chain tail.
        grow_tree(sink, &mut ids, &[tail], params.lower_nodes, &mut rng)?;

        // Major consolidation points (nodes only — their edges connect
        // once the sink pool exists).
        let majors: Vec<u32> = (0..params.majors).map(|_| ids.add_node()).collect();

        // Minor diamond gadgets: u → {a, b} → join, u → join.
        let mut minors = Vec::with_capacity(params.minors);
        for _ in 0..params.minors {
            let u = upper_all[rng.random_range(0..upper_all.len())];
            let (a, b, join) = (ids.add_node(), ids.add_node(), ids.add_node());
            for (from, to) in [(u, a), (u, b), (a, join), (b, join), (u, join)] {
                sink.emit(from, to)?;
            }
            minors.push(join);
        }

        // Sink pool.
        let sinks: Vec<u32> = (0..params.sinks).map(|_| ids.add_node()).collect();

        // Wire majors: distinct upper citers in, large sink fan-out.
        for &m in &majors {
            for u in distinct_sample(&upper_all, params.major_indeg, &mut rng) {
                sink.emit(u, m)?;
            }
            for s in distinct_sample(&sinks, params.major_fanout, &mut rng) {
                sink.emit(m, s)?;
            }
        }

        // Minor joins fan out to 2–8 sinks.
        for &join in &minors {
            let fanout = 2 + (rng.random::<f64>().powi(2) * 6.0) as usize;
            for s in distinct_sample(&sinks, fanout, &mut rng) {
                sink.emit(join, s)?;
            }
        }

        // The collector also cites sinks directly (degree-product mass).
        for s in distinct_sample(&sinks, params.collector_sink_edges, &mut rng) {
            sink.emit(collector, s)?;
        }

        // Extra citations into the sink pool from upper nodes (in-degree
        // tail + edge totals; upper nodes all receive exactly one copy,
        // so these carry no removable redundancy).
        for _ in 0..params.sink_edges {
            let from = upper_all[rng.random_range(0..upper_all.len())];
            let to = sinks[rng.random_range(0..sinks.len())];
            sink.emit(from, to)?;
        }

        debug_assert_eq!(Some(u64::from(ids.0)), self.node_hint());
        self.collector = collector;
        self.chain = chain;
        self.majors = majors;
        self.minors = minors;
        Ok(())
    }
}

/// Small-scale parameters used across the test suites.
pub fn test_params(seed: u64) -> CitationLikeParams {
    CitationLikeParams {
        upper_nodes: 200,
        lower_nodes: 300,
        feeders: 6,
        collector_sink_edges: 30,
        majors: 6,
        major_indeg: 4,
        major_fanout: 60,
        minors: 40,
        sinks: 400,
        sink_edges: 1200,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_graph::{topo_order, Csr};
    use fp_num::{Count, Wide128};
    use fp_propagation::{impacts, CGraph, FilterSet};

    fn small() -> CitationLikeGraph {
        generate(&test_params(9))
    }

    #[test]
    fn full_scale_matches_the_paper() {
        let c = generate(&CitationLikeParams::default());
        let n = c.graph.node_count();
        let m = c.graph.edge_count();
        assert_eq!(n, 9982);
        assert!((32_000..40_000).contains(&m), "edges {m} vs paper's 36,070");
    }

    #[test]
    fn is_a_single_source_dag_with_the_planted_chain() {
        let c = small();
        let csr = Csr::from_digraph(&c.graph);
        assert!(topo_order(&csr).is_ok());
        assert_eq!(csr.in_degree(c.source), 0);
        assert_eq!(c.chain.len(), CHAIN_LEN);
        for &node in &c.chain {
            assert_eq!(csr.in_degree(node), 1, "chain nodes have in-degree one");
        }
    }

    #[test]
    fn chain_owns_the_top_static_impacts() {
        let c = small();
        let cg = CGraph::new(&c.graph, c.source).unwrap();
        let n = c.graph.node_count();
        let imp: Vec<Wide128> = impacts(&cg, &FilterSet::empty(n));
        let mut ranked: Vec<usize> = (0..n).collect();
        ranked.sort_by(|&a, &b| imp[b].cmp(&imp[a]));
        let top: Vec<NodeId> = ranked[..CHAIN_LEN + 1]
            .iter()
            .map(|&i| NodeId::new(i))
            .collect();
        for t in &top {
            assert!(
                *t == c.collector || c.chain.contains(t),
                "top-10 static impacts must be the collector+chain, found {t}"
            );
        }
    }

    #[test]
    fn chain_impacts_die_once_the_collector_is_filtered() {
        let c = small();
        let cg = CGraph::new(&c.graph, c.source).unwrap();
        let n = c.graph.node_count();
        let after: Vec<Wide128> = impacts(&cg, &FilterSet::from_nodes(n, [c.collector]));
        for &node in &c.chain {
            assert!(
                after[node.index()].is_zero(),
                "chain is dead after the collector"
            );
        }
        // But the majors keep their full value.
        let before: Vec<Wide128> = impacts(&cg, &FilterSet::empty(n));
        for &m in &c.majors {
            assert_eq!(after[m.index()], before[m.index()]);
            assert!(!after[m.index()].is_zero());
        }
    }

    #[test]
    fn chain_plus_majors_split_the_redundancy() {
        let c = small();
        let cg = CGraph::new(&c.graph, c.source).unwrap();
        let n = c.graph.node_count();
        let cache = fp_propagation::ObjectiveCache::<Wide128>::new(&cg);
        let chain_only = FilterSet::from_nodes(
            n,
            std::iter::once(c.collector).chain(c.chain.iter().copied()),
        );
        let fr_chain = cache.filter_ratio(&cg, &chain_only);
        assert!(
            (0.3..0.85).contains(&fr_chain),
            "chain covers a majority share but not everything: {fr_chain:.3}"
        );
        // Collector + majors approach FR 1 — the steep Figure-9 curve.
        let good = FilterSet::from_nodes(
            n,
            std::iter::once(c.collector).chain(c.majors.iter().copied()),
        );
        let fr_good = cache.filter_ratio(&cg, &good);
        assert!(
            fr_good > 0.85,
            "collector+majors should be near-perfect: {fr_good:.3}"
        );
    }
}
