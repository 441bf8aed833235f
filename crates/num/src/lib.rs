//! Counting arithmetic for the filter-placement reproduction.
//!
//! Path counts in a DAG grow exponentially with depth: the paper's dense
//! synthetic graphs (10 levels, ~100 nodes per level) have on the order of
//! 10²⁰ source→node paths, which overflows `u64`. Every propagation and
//! placement routine in this workspace is therefore generic over the
//! [`Count`] trait, with four interchangeable implementations:
//!
//! * [`Sat64`] — saturating `u64`; fastest, fine for sparse graphs.
//! * [`Wide128`] — saturating `u128`; the default for all experiments
//!   (engine-backed solvers count in `u64` when `Φ(∅,V)` fits —
//!   [`Count::NARROWS_TO_U64`]).
//! * [`Approx64`] — `f64` magnitudes; approximate but never saturates.
//! * [`BigCount`] — arbitrary-precision unsigned integer; exact ground
//!   truth used by the test suite to validate the saturating types.
//!
//! Saturating types report saturation through [`Count::is_saturated`] so
//! callers can escalate to `BigCount` instead of silently comparing
//! clamped values.

mod approx;
mod bigcount;
mod count;
mod ratio;
mod sat;

pub use approx::Approx64;
pub use bigcount::BigCount;
pub use count::Count;
pub use ratio::{ratio, ratio_or};
pub use sat::{Sat64, Wide128};
