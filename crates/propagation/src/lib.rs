//! The paper's propagation model and objective function.
//!
//! A *c-graph* ([`CGraph`]) is a DAG with a designated source that emits
//! one item; every other node blindly relays every copy it receives to
//! all of its children, unless it is a *filter*, in which case it relays
//! exactly one copy (deduplication on relay — see DESIGN.md §1.1 for why
//! this is the semantics consistent with the paper's Proposition 1).
//!
//! Everything is generic over [`fp_num::Count`] because copy counts are
//! path counts and grow exponentially with graph depth.
//!
//! Layers:
//!
//! * [`propagate`] — the forward (topological) pass computing per-node
//!   received/emitted counts under a [`FilterSet`]; `received` is the
//!   paper's `Prefix` when no filters are placed.
//! * [`suffix_sensitivity`] — the backward pass computing, for each
//!   node, how many extra receptions one extra emitted copy causes
//!   downstream; the paper's `Suffix` (filter-aware).
//! * [`impacts`] — the exact marginal gain `I(v|A)` of each candidate
//!   filter, the quantity Greedy_All maximizes.
//! * [`ImpactEngine`] — the same marginals kept up to date
//!   *incrementally* in both directions under filter insertions
//!   (O(affected ∪ ancestors) per greedy round, zero per-round
//!   allocation); `impacts` stays as its correctness oracle.
//!   [`DeferredEngine`] wraps it for CELF: inserts leave the forward
//!   pass pending and a read settles it only through the node read.
//! * [`objective`] — `Φ`, `F`, and the Filter Ratio `FR`.
//! * [`plist`] — the paper's original quadratic `plist` bookkeeping,
//!   kept as an independently-derived validation oracle.
//! * [`simulate`] — a message-level event simulator (every physical copy
//!   is an event), a second validation oracle.
//! * [`probabilistic`] — Monte-Carlo propagation over random edge
//!   subgraphs (the paper's probabilistic relay extension).
//! * [`multi_item`] — multiple sources with per-source rates (the
//!   paper's multirate future-work extension).
//! * [`partial`] — leaky filters that pass a fraction of duplicates
//!   (the paper's footnote-1 generalization).

mod cgraph;
mod engine;
mod filter_set;
mod impact;
pub mod incremental;
pub mod multi_item;
pub mod objective;
pub mod partial;
pub mod plist;
pub mod probabilistic;
mod propagate;
pub mod simulate;
mod suffix;

pub use cgraph::CGraph;
pub use engine::{ApplyOutcome, DeferredEngine, ImpactEngine, Mutation, MutationError};
pub use filter_set::FilterSet;
pub use impact::impacts;
pub use objective::{f_value, filter_ratio, phi_per_node, phi_total, ObjectiveCache};
pub use propagate::{propagate, propagate_into, Propagation};
pub use suffix::{suffix_sensitivity, suffix_sensitivity_into};
