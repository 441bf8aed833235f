//! # fp-results — persistent, parallel experiment results
//!
//! The paper's §5 evaluation is a grid of FR sweeps: (dataset × solver
//! × budget `k` × trial). This crate makes that grid a *managed*
//! workload instead of a print-and-forget loop:
//!
//! * [`json`] — a dependency-free JSON value model, writer, and parser
//!   with lossless `u64`/`f64` round trips; the working serializer
//!   behind the workspace's `serde` derive markers.
//! * [`model`] — [`SweepConfig`]/[`SolverSeries`]/[`SweepResult`]
//!   (moved here from `fp-core::experiment`, which re-exports them)
//!   plus their [`json::ToJson`]/[`json::FromJson`] impls.
//! * [`hash`] — FNV-1a, for content-derived run ids and dataset
//!   fingerprints.
//! * [`runner`] — a work-stealing scoped-thread executor with `--jobs`
//!   and deadline knobs; deterministic output for any worker count.
//! * [`sweep`] — decomposes a sweep into (solver, `k`, trial) cells for
//!   the runner and reduces them back in configuration order.
//! * [`store`] — one directory per run (`manifest.json`, `result.json`,
//!   `result.csv`) keyed by config+dataset hash, so re-running an
//!   identical sweep is a cache hit.
//! * [`csv`] — the figure-table CSV rendering shared by the store and
//!   the `fp` CLI.
//! * [`protocol`] — length-prefixed JSON frames for shipping sweep
//!   cells to worker *processes* (`fp worker --connect`) and for the
//!   `fp serve` frame transport.
//! * [`net`] — the multi-process sweep fabric: the TCP
//!   [`SweepListener`] workers dial into, the constant-time token
//!   handshake, a dispatcher that streams cells through a credit window
//!   under heartbeat and per-cell deadlines and re-queues a lost
//!   worker's in-flight cells (bit-identical to the in-process runner),
//!   and the `FP_CHAOS` deterministic fault injector.
//!
//! `fp-core` builds [`sweep::SweepBackend`] on `Problem` and the `fp`
//! CLI exposes the store as `fp sweep --out DIR --jobs N` (or
//! `--listen ADDR --token T` for remote workers) and
//! `fp report --run DIR` / `--list DIR`; `fp-bench`'s `repro` persists
//! every figure through it. See DESIGN.md §6–§7 for the subsystem
//! rationale and README.md for the workflow.

pub mod csv;
pub mod hash;
pub mod json;
pub mod model;
pub mod net;
pub mod protocol;
pub mod runner;
pub mod store;
pub mod sweep;

pub use json::{FromJson, Json, JsonError, ToJson};
pub use model::{SolverSeries, SweepConfig, SweepResult};
pub use net::{Chaos, ChaosAction, ChaosSpec, NetOptions, SweepListener};
pub use runner::{available_cores, run_parallel, RunOutcome, RunnerOptions};
pub use store::{DatasetFingerprint, GcPolicy, RunListEntry, RunManifest, RunStore, StoredRun};
pub use sweep::{run_sweep_cells, SweepBackend};
