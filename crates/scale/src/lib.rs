//! Large-graph scaffolding: streamed ingestion, compact CSR, budgets.
//!
//! The paper's figures top out around 10^5 edges; the rest of the
//! workspace happily materializes a `Vec<(usize, usize)>` edge list
//! (often twice) before freezing a CSR. This crate is the layer that
//! lets the same stack survive 10^6–10^7 nodes:
//!
//! * [`EdgeStream`] — a replayable edge producer: each replay emits the
//!   whole edge sequence into an [`EdgeSink`], which hands it on a
//!   bounded chunk at a time. File readers ([`FileEdgeStream`]) and
//!   every streamed dataset generator (see `fp-datasets`) implement it,
//!   so no consumer ever needs the full edge list in memory at once.
//! * [`Csr32`] — a compact compressed-sparse-row snapshot with `u32`
//!   node indices; no intermediate edge `Vec`. A stream whose targets
//!   never decrease is read once: the degree-count pass also records
//!   each edge's source, which is the in-list array, and the out-lists
//!   are its transpose. Any other stream is replayed for a fill pass.
//!   It converts into the workspace-wide [`fp_graph::Csr`] without
//!   copying the adjacency arrays.
//! * [`MemBudget`] — an explicit live-byte accountant with a hard cap:
//!   loading or solving under a budget fails with a typed
//!   [`ScaleError::BudgetExceeded`] instead of taking the process down
//!   with the OOM killer. Live/peak bytes are published as the
//!   `fp_scale_bytes_live` / `fp_scale_peak_bytes` gauges in `fp-obs`.
//! * [`stream_stats`] — single-machine statistics (n, m, max degrees,
//!   depth) computed in O(n + chunk) memory by replaying, never O(m).
//!
//! A stream whose later replay disagrees with its first is a typed
//! [`ScaleError::NotReplayable`], never a panic or a wrong answer.
//!
//! See DESIGN.md §14 for the architecture and the accounting semantics.

mod budget;
mod csr32;
mod error;
mod pass;
mod stats;
mod stream;

pub use budget::{
    global_budget, graph_estimate, parse_bytes, set_global_cap, MemBudget, BYTES_LIVE_GAUGE,
    PEAK_BYTES_GAUGE,
};
pub use csr32::Csr32;
pub use error::ScaleError;
pub use stats::{stream_stats, StreamStats};
pub use stream::{for_each_chunk, EdgeSink, EdgeStream, FileEdgeStream, VecStream};
