//! Typed errors for streamed ingestion and budget accounting.

use fp_graph::GraphError;

/// Errors produced by edge streams, the compact CSR builder, and the
/// memory-budget accountant.
#[derive(Clone, PartialEq, Debug)]
pub enum ScaleError {
    /// An underlying I/O operation failed (reason carries the OS text).
    Io {
        /// File involved, when known.
        path: String,
        /// OS error text.
        reason: String,
    },
    /// An edge-list line failed to parse.
    Parse {
        /// 1-based line number.
        line: u64,
        /// Explanation.
        reason: String,
    },
    /// The stream names more nodes than a `u32` index can address.
    NodeOverflow {
        /// Observed node count.
        nodes: u64,
    },
    /// The stream carries more edges than a `u32` degree count or CSR
    /// offset can address.
    EdgeOverflow {
        /// Observed edge count.
        edges: u64,
    },
    /// The allocator refused an array the streamed build needs — a
    /// short input can name a node id near `u32::MAX` — so the build
    /// fails with this error instead of aborting the process.
    AllocationFailed {
        /// Bytes the refused array would have held.
        bytes: u64,
    },
    /// A reservation would push live bytes past the configured cap.
    ///
    /// The reservation is rolled back before this is returned: the
    /// accountant's live counter never includes the rejected bytes, so
    /// callers can recover, release what they hold, and continue.
    BudgetExceeded {
        /// Bytes the failed reservation asked for.
        requested: u64,
        /// Live bytes at the time of the request (without it).
        live: u64,
        /// The configured hard cap.
        cap: u64,
    },
    /// A later pass over a stream disagreed with the first: a different
    /// edge count or sequence, an id at or past the first pass's node
    /// count, or (in a CSR fill) a node with more edges than the first
    /// pass counted. A pipe read twice is the usual cause.
    NotReplayable {
        /// The pass that disagreed (the first pass is pass 1).
        pass: u32,
        /// Edges the first pass emitted.
        first: u64,
        /// Edges this pass had emitted when the disagreement showed.
        emitted: u64,
    },
    /// Depth relaxation failed to converge: the stream is not a DAG.
    Cycle {
        /// Relaxation passes spent before giving up.
        passes: u32,
    },
    /// A downstream graph-layer operation failed.
    Graph(GraphError),
}

impl core::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io { path, reason } => write!(f, "io error on {path}: {reason}"),
            Self::Parse { line, reason } => write!(f, "edge stream parse error at line {line}: {reason}"),
            Self::NodeOverflow { nodes } => {
                write!(f, "{nodes} nodes exceed the u32 index space of Csr32")
            }
            Self::EdgeOverflow { edges } => {
                write!(f, "{edges} edges exceed the u32 counters of a streamed pass")
            }
            Self::AllocationFailed { bytes } => write!(
                f,
                "memory allocation of {bytes} bytes refused while building a streamed graph"
            ),
            Self::BudgetExceeded {
                requested,
                live,
                cap,
            } => write!(
                f,
                "memory budget exceeded: {requested} requested with {live} live against a cap of {cap} bytes"
            ),
            Self::NotReplayable {
                pass,
                first,
                emitted,
            } => write!(
                f,
                "edge stream is not replayable: pass {pass} disagreed with pass 1 after \
                 {emitted} edge(s) (pass 1 emitted {first})"
            ),
            Self::Cycle { passes } => write!(
                f,
                "depth relaxation did not converge after {passes} passes; the stream is cyclic"
            ),
            Self::Graph(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScaleError {}

impl From<GraphError> for ScaleError {
    fn from(e: GraphError) -> Self {
        Self::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = ScaleError::BudgetExceeded {
            requested: 100,
            live: 50,
            cap: 120,
        };
        let s = e.to_string();
        assert!(s.contains("100") && s.contains("50") && s.contains("120"));
        assert!(ScaleError::NodeOverflow { nodes: 1 }
            .to_string()
            .contains("u32"));
        assert!(ScaleError::Cycle { passes: 7 }.to_string().contains("7"));
        assert!(ScaleError::AllocationFailed { bytes: 1 << 34 }
            .to_string()
            .contains("17179869184 bytes refused"));
        let replay = ScaleError::NotReplayable {
            pass: 2,
            first: 3,
            emitted: 0,
        }
        .to_string();
        assert!(replay.contains("not replayable") && replay.contains("pass 2"));
        assert!(
            replay.contains("after 0 edge(s) (pass 1 emitted 3)"),
            "{replay}"
        );
        let io = ScaleError::Io {
            path: "x.txt".into(),
            reason: "gone".into(),
        };
        assert!(io.to_string().contains("x.txt"));
        let p = ScaleError::Parse {
            line: 3,
            reason: "bad".into(),
        };
        assert!(p.to_string().contains("line 3"));
    }

    #[test]
    fn wraps_graph_errors() {
        let g = GraphError::SelfLoop {
            node: fp_graph::NodeId::new(2),
        };
        let e: ScaleError = g.clone().into();
        assert_eq!(e, ScaleError::Graph(g));
    }
}
