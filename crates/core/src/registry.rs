//! The serve-side **graph registry**: load each graph once, key it by
//! structural fingerprint, and hand out cheap shared handles.
//!
//! `fp serve` answers placement queries in milliseconds precisely
//! because the expensive part — parsing an edge list, collapsing it to
//! a c-graph, building a [`Problem`] — happens once per graph, at
//! registration time. Everything after that is an
//! [`Arc<GraphEntry>`](GraphEntry) clone.
//!
//! Two ways in:
//!
//! * **Built-ins** ([`GraphRegistry::with_builtins`]): the paper's
//!   Figure-1 network plus the synthetic stand-ins used throughout the
//!   repro (`layered-sparse`, `layered-dense`, `quote`), all generated
//!   with the fixed seed 2012 so every daemon instance registers
//!   byte-identical graphs.
//! * **Uploads** ([`GraphRegistry::put_edge_list`]): the same
//!   whitespace edge-list format `fp solve --input` reads. Uploads are
//!   idempotent on identical content and a *conflict* (HTTP 409 in the
//!   serve layer) when a name is re-used for different content — a
//!   registry never silently swaps a graph out from under the warm
//!   sessions that reference it.
//!
//! The fingerprint is [`DatasetFingerprint`]: FNV-1a over node count,
//! source index, and every edge in storage order — the same identity
//! the run store keys its cache on, so a serve answer and a stored
//! sweep can be audited against each other.

use crate::Problem;
use fp_graph::{from_edge_list, DiGraph, NodeId};
use fp_results::DatasetFingerprint;
use fp_scale::{graph_estimate, MemBudget};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One registered graph: the placement problem plus enough identity to
/// audit what is being solved.
///
/// Entries are immutable once registered and shared by `Arc`; a warm
/// session holds one for its whole lifetime, so a registry conflict can
/// never change the bits under a running solve.
pub struct GraphEntry {
    /// Registry key ("fig1", "quote", an upload name, ...).
    pub name: String,
    /// Node labels, indexed by [`NodeId::index`]. Built-ins label
    /// nodes by index (`"0"`, `"1"`, ...) except `fig1`, which uses
    /// the paper's names (`s`, `x`, `y`, `z1`, `z2`, `z3`, `w`).
    pub labels: Vec<String>,
    /// Structural identity: node/edge counts, source label, edge hash.
    pub fingerprint: DatasetFingerprint,
    /// The ready-to-solve placement problem (source already bound).
    pub problem: Problem,
}

impl std::fmt::Debug for GraphEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphEntry")
            .field("name", &self.name)
            .field("fingerprint", &self.fingerprint)
            .finish_non_exhaustive()
    }
}

impl GraphEntry {
    /// The display label of a node, falling back to its index if the
    /// graph somehow grew past its label table (it cannot — both come
    /// from the same parse — but a panic in a server is worse than a
    /// number).
    pub fn node_label(&self, id: NodeId) -> String {
        self.labels
            .get(id.index())
            .cloned()
            .unwrap_or_else(|| id.index().to_string())
    }

    fn from_parts(
        name: &str,
        g: &DiGraph,
        labels: Vec<String>,
        source: NodeId,
    ) -> Result<Self, String> {
        let fingerprint = DatasetFingerprint::of_graph(name, g, source, &labels[source.index()]);
        let problem = Problem::new(g, source).map_err(|e| e.to_string())?;
        Ok(Self {
            name: name.to_string(),
            labels,
            fingerprint,
            problem,
        })
    }
}

/// What [`GraphRegistry::put_edge_list`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutOutcome {
    /// The name was free; the graph is now registered.
    Created,
    /// The name was already bound to *identical* content; the existing
    /// entry was kept (uploads are idempotent).
    AlreadyPresent,
}

/// Why [`GraphRegistry::put_edge_list`] refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PutError {
    /// The name is bound to *different* content. The serve layer maps
    /// this to HTTP 409; the caller must pick a new name (or close the
    /// sessions and restart the daemon — entries are immutable).
    Conflict {
        /// The contested registry key.
        name: String,
        /// Edge hash of the entry already registered.
        existing: String,
        /// Edge hash of the rejected upload.
        incoming: String,
    },
    /// The upload itself is unusable: unparseable edge list, a source
    /// label that never appears, or a graph [`Problem::new`] rejects.
    /// The serve layer maps this to HTTP 400.
    Invalid(String),
    /// Registering the graph would push the daemon's tracked graph
    /// bytes past its `--mem-budget` cap. The registry is unchanged;
    /// the serve layer maps this to HTTP 503.
    OverBudget(String),
}

impl std::fmt::Display for PutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PutError::Conflict {
                name,
                existing,
                incoming,
            } => write!(
                f,
                "graph {name:?} already registered with different content \
                 (edge hash {existing} vs {incoming})"
            ),
            PutError::Invalid(msg) => write!(f, "bad graph upload: {msg}"),
            PutError::OverBudget(msg) => write!(f, "graph upload over memory budget: {msg}"),
        }
    }
}

/// A thread-safe, name-keyed table of [`GraphEntry`]s.
///
/// All methods take `&self`; the registry is meant to sit in an `Arc`
/// shared by every connection handler of the daemon.
///
/// ```
/// use fp_core::registry::{GraphRegistry, PutOutcome};
///
/// let reg = GraphRegistry::new();
/// let (outcome, entry) = reg
///     .put_edge_list("diamond", "s", "s a\ns b\na t\nb t\n")
///     .unwrap();
/// assert_eq!(outcome, PutOutcome::Created);
/// assert_eq!(entry.fingerprint.nodes, 4);
///
/// // Same name, same bytes: idempotent.
/// let (again, _) = reg
///     .put_edge_list("diamond", "s", "s a\ns b\na t\nb t\n")
///     .unwrap();
/// assert_eq!(again, PutOutcome::AlreadyPresent);
///
/// // Same name, different content: conflict, original kept.
/// assert!(reg.put_edge_list("diamond", "s", "s t\n").is_err());
/// assert_eq!(reg.get("diamond").unwrap().fingerprint.nodes, 4);
/// ```
pub struct GraphRegistry {
    graphs: Mutex<BTreeMap<String, Arc<GraphEntry>>>,
    budget: MemBudget,
}

impl Default for GraphRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for GraphRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphRegistry")
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl GraphRegistry {
    /// An empty registry (no built-ins), accounting uploads against
    /// the process-wide [`fp_scale::global_budget`] — `fp serve
    /// --mem-budget` caps it.
    pub fn new() -> Self {
        Self::with_budget(fp_scale::global_budget())
    }

    /// An empty registry accounting uploads against `budget`.
    ///
    /// Each accepted upload reserves its coarse CSR footprint
    /// ([`graph_estimate`]) for as long as the entry lives (entries are
    /// immutable and never evicted, so that is the daemon's lifetime);
    /// an upload that would cross the cap is refused with
    /// [`PutError::OverBudget`] and changes nothing. Built-ins are
    /// fixed-size and not accounted.
    pub fn with_budget(budget: MemBudget) -> Self {
        Self {
            graphs: Mutex::new(BTreeMap::new()),
            budget,
        }
    }

    /// A registry pre-loaded with the repro's standard graphs, all
    /// deterministic (generator seed 2012):
    ///
    /// | name | nodes | source | provenance |
    /// |---|---|---|---|
    /// | `fig1` | 7 | `s` | the paper's Figure-1 news network |
    /// | `layered-sparse` | 1001 | `0` | §6.1 layered DAG, sparse |
    /// | `layered-dense` | 1001 | `0` | §6.1 layered DAG, dense |
    /// | `quote` | 932 | `0` | quote-trace stand-in |
    pub fn with_builtins() -> Self {
        let reg = Self::new();
        let fig1 = DiGraph::from_pairs(
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
        .expect("fig1 is well-formed");
        let fig1_labels = ["s", "x", "y", "z1", "z2", "z3", "w"]
            .map(String::from)
            .to_vec();
        reg.insert_built_in("fig1", &fig1, fig1_labels, NodeId::new(0));

        const SEED: u64 = 2012;
        let sparse = fp_datasets::layered::generate(
            &fp_datasets::layered::LayeredParams::paper_sparse(SEED),
        );
        reg.insert_built_in(
            "layered-sparse",
            &sparse.graph,
            index_labels(sparse.graph.node_count()),
            sparse.source,
        );
        let dense =
            fp_datasets::layered::generate(&fp_datasets::layered::LayeredParams::paper_dense(SEED));
        reg.insert_built_in(
            "layered-dense",
            &dense.graph,
            index_labels(dense.graph.node_count()),
            dense.source,
        );
        let quote = fp_datasets::quote_like::generate(&fp_datasets::quote_like::QuoteLikeParams {
            nodes: 932,
            seed: SEED,
        });
        reg.insert_built_in(
            "quote",
            &quote.graph,
            index_labels(quote.graph.node_count()),
            quote.source,
        );
        reg
    }

    fn insert_built_in(&self, name: &str, g: &DiGraph, labels: Vec<String>, source: NodeId) {
        let entry = GraphEntry::from_parts(name, g, labels, source)
            .expect("built-in graphs are well-formed");
        self.graphs
            .lock()
            .expect("registry lock poisoned")
            .insert(name.to_string(), Arc::new(entry));
    }

    /// Register an edge list under `name`, with the propagation source
    /// named by `source_label`. Idempotent on identical content; a
    /// [`PutError::Conflict`] on name re-use with different content.
    ///
    /// The heavy work (parse + [`Problem::new`]) runs *outside* the
    /// registry lock, so a large upload never stalls concurrent reads.
    pub fn put_edge_list(
        &self,
        name: &str,
        source_label: &str,
        edges_text: &str,
    ) -> Result<(PutOutcome, Arc<GraphEntry>), PutError> {
        if name.is_empty() {
            return Err(PutError::Invalid("graph name must be non-empty".into()));
        }
        let (g, labels) =
            from_edge_list(edges_text).map_err(|e| PutError::Invalid(e.to_string()))?;
        let source = labels
            .iter()
            .position(|l| l == source_label)
            .map(NodeId::new)
            .ok_or_else(|| {
                PutError::Invalid(format!(
                    "source {source_label:?} does not appear in the edge list"
                ))
            })?;
        // Reserve the graph's resident footprint before building the
        // entry; every refusal path below must hand the bytes back.
        let bytes = graph_estimate(g.node_count() as u64, g.edge_count() as u64);
        self.budget
            .reserve(bytes)
            .map_err(|e| PutError::OverBudget(e.to_string()))?;
        let entry = match GraphEntry::from_parts(name, &g, labels, source) {
            Ok(entry) => entry,
            Err(msg) => {
                self.budget.release(bytes);
                return Err(PutError::Invalid(msg));
            }
        };

        let mut graphs = self.graphs.lock().expect("registry lock poisoned");
        if let Some(existing) = graphs.get(name) {
            self.budget.release(bytes);
            return if existing.fingerprint.edge_hash == entry.fingerprint.edge_hash {
                Ok((PutOutcome::AlreadyPresent, Arc::clone(existing)))
            } else {
                Err(PutError::Conflict {
                    name: name.to_string(),
                    existing: existing.fingerprint.edge_hash.clone(),
                    incoming: entry.fingerprint.edge_hash,
                })
            };
        }
        let entry = Arc::new(entry);
        graphs.insert(name.to_string(), Arc::clone(&entry));
        Ok((PutOutcome::Created, entry))
    }

    /// Look a graph up by name.
    pub fn get(&self, name: &str) -> Option<Arc<GraphEntry>> {
        self.graphs
            .lock()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
    }

    /// All entries, in name order (BTreeMap order ⇒ a stable listing).
    pub fn list(&self) -> Vec<Arc<GraphEntry>> {
        self.graphs
            .lock()
            .expect("registry lock poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.graphs.lock().expect("registry lock poisoned").len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn index_labels(n: usize) -> Vec<String> {
    (0..n).map(|i| i.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_algorithms::SolverKind;

    #[test]
    fn builtins_are_registered_and_deterministic() {
        let a = GraphRegistry::with_builtins();
        let b = GraphRegistry::with_builtins();
        assert_eq!(a.len(), 4);
        for entry in a.list() {
            let twin = b.get(&entry.name).unwrap();
            assert_eq!(entry.fingerprint, twin.fingerprint, "{}", entry.name);
        }
        let fig1 = a.get("fig1").unwrap();
        assert_eq!(fig1.fingerprint.nodes, 7);
        assert_eq!(fig1.fingerprint.source, "s");
        assert_eq!(fig1.node_label(NodeId::new(4)), "z2");
    }

    #[test]
    fn fig1_builtin_solves_like_the_paper() {
        let reg = GraphRegistry::with_builtins();
        let fig1 = reg.get("fig1").unwrap();
        let placement = fig1.problem.solve(SolverKind::GreedyAll, 1);
        assert_eq!(placement.nodes(), &[NodeId::new(4)]); // z2
        assert_eq!(fig1.problem.filter_ratio(&placement), 1.0);
    }

    #[test]
    fn upload_then_get_round_trips() {
        let reg = GraphRegistry::new();
        let (outcome, entry) = reg.put_edge_list("t", "s", "s a\na b\n").unwrap();
        assert_eq!(outcome, PutOutcome::Created);
        assert_eq!(entry.fingerprint.nodes, 3);
        assert!(Arc::ptr_eq(&entry, &reg.get("t").unwrap()));
    }

    #[test]
    fn conflicting_upload_keeps_the_original() {
        let reg = GraphRegistry::new();
        reg.put_edge_list("t", "s", "s a\n").unwrap();
        let err = reg.put_edge_list("t", "s", "s a\ns b\n").unwrap_err();
        assert!(matches!(err, PutError::Conflict { .. }), "{err}");
        assert!(err.to_string().contains("already registered"), "{err}");
        assert_eq!(reg.get("t").unwrap().fingerprint.nodes, 2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn bad_uploads_are_invalid_not_conflicts() {
        let reg = GraphRegistry::new();
        for (name, source, text, needle) in [
            ("", "s", "s a\n", "non-empty"),
            ("g", "zz", "s a\n", "does not appear"),
            ("g", "s", "s\n", ""), // malformed line: any parse error will do
        ] {
            let err = reg.put_edge_list(name, source, text).unwrap_err();
            assert!(matches!(err, PutError::Invalid(_)), "{name:?}: {err}");
            assert!(err.to_string().contains(needle), "{name:?}: {err}");
        }
        assert!(reg.is_empty());
    }

    #[test]
    fn over_budget_uploads_are_refused_and_release_their_bytes() {
        // Cap fits one tiny graph but not two; conflicts and idempotent
        // re-uploads must hand their reservation back.
        let budget = MemBudget::new(Some(100));
        let reg = GraphRegistry::with_budget(budget.clone());
        reg.put_edge_list("a", "s", "s x\n").unwrap(); // 2 nodes, 1 edge: 32 bytes
        let live_after_a = budget.live();
        assert_eq!(live_after_a, graph_estimate(2, 1));
        // Idempotent re-upload: no extra bytes.
        reg.put_edge_list("a", "s", "s x\n").unwrap();
        assert_eq!(budget.live(), live_after_a);
        // Conflict: refused, bytes released.
        let err = reg.put_edge_list("a", "s", "s x\nx y\n").unwrap_err();
        assert!(matches!(err, PutError::Conflict { .. }), "{err}");
        assert_eq!(budget.live(), live_after_a);
        // A graph that would cross the cap: typed refusal, registry and
        // ledger untouched.
        let big = (0..20).fold(String::new(), |acc, i| acc + &format!("s n{i}\n"));
        let err = reg.put_edge_list("big", "s", &big).unwrap_err();
        assert!(matches!(err, PutError::OverBudget(_)), "{err}");
        assert!(err.to_string().contains("memory budget"), "{err}");
        assert!(reg.get("big").is_none());
        assert_eq!(budget.live(), live_after_a);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn same_content_under_two_names_is_two_entries_one_hash() {
        let reg = GraphRegistry::new();
        let (_, a) = reg.put_edge_list("a", "s", "s x\nx y\n").unwrap();
        let (_, b) = reg.put_edge_list("b", "s", "s x\nx y\n").unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(a.fingerprint.edge_hash, b.fingerprint.edge_hash);
        assert_ne!(a.fingerprint.name, b.fingerprint.name);
    }
}
