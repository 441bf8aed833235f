//! The [`Count`] trait: the arithmetic interface required by the
//! propagation passes.
//!
//! Only the operations the propagation engine actually performs are
//! included: counts are built from `u64` seeds, accumulated with
//! addition, combined with multiplication (prefix × suffix impact
//! products), compared, and occasionally decremented by one
//! (`saturating_sub`). Division is deliberately absent — ratios are
//! computed through [`crate::ratio`], which goes through mantissa /
//! exponent decomposition so that astronomically large exact counts can
//! still produce a meaningful `f64` quotient.

/// An unsigned counter suitable for path/copy counting in DAGs.
///
/// Implementations must behave like a (possibly clamped) unsigned
/// integer: `zero() < one()`, addition and multiplication are monotone,
/// and `Ord` is a total order consistent with the represented magnitude.
pub trait Count:
    Clone
    + PartialEq
    + Eq
    + PartialOrd
    + Ord
    + core::fmt::Debug
    + core::fmt::Display
    + Send
    + Sync
    + 'static
{
    /// The additive identity.
    fn zero() -> Self;

    /// The multiplicative identity (one copy of an item).
    fn one() -> Self;

    /// Embed a `u64`.
    fn from_u64(v: u64) -> Self;

    /// `self + other`, clamping at the representation maximum for the
    /// saturating implementations.
    fn add(&self, other: &Self) -> Self;

    /// In-place [`Count::add`]. Implementations override this when an
    /// allocation can be avoided.
    fn add_assign(&mut self, other: &Self) {
        *self = self.add(other);
    }

    /// `max(self - other, 0)`.
    fn saturating_sub(&self, other: &Self) -> Self;

    /// `self * other`, clamping at the representation maximum for the
    /// saturating implementations.
    fn mul(&self, other: &Self) -> Self;

    /// Whether this count is exactly zero.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// Lossy conversion for reporting and ratio computation. May be
    /// `f64::INFINITY` for values beyond `f64` range.
    fn to_f64(&self) -> f64;

    /// Decompose as `mantissa × 2^exponent` with `mantissa ∈ [1, 2)`
    /// (or `(0.0, 0)` for zero). Used by [`crate::ratio`] so quotients
    /// of huge counts stay finite.
    fn to_f64_parts(&self) -> (f64, i64) {
        let v = self.to_f64();
        if v == 0.0 {
            return (0.0, 0);
        }
        debug_assert!(
            v.is_finite(),
            "to_f64_parts default impl needs a finite to_f64"
        );
        let exp = v.log2().floor() as i64;
        (v / (2f64).powi(exp as i32), exp)
    }

    /// Whether the value has been clamped at the representation maximum.
    ///
    /// Exact implementations always return `false`. Callers that need
    /// exact argmax decisions check this and escalate to [`crate::BigCount`].
    fn is_saturated(&self) -> bool {
        false
    }

    /// Human-readable name of the counter implementation (for reports).
    fn type_name() -> &'static str;

    /// Whether engine-backed solvers declared at this counter may count
    /// in `u64` ([`crate::Sat64`]) instead, when a `u64` forward pass
    /// finds `Φ(∅,V)` unsaturated.
    ///
    /// That is exact: every reception, suffix, impact and Greedy_L
    /// score counts distinct source paths, so none exceeds `Φ(∅,V)`,
    /// and below `2⁶⁴` a `u64` compares, subtracts and converts to
    /// `f64` bit for bit like a `u128`. Only [`crate::Wide128`] sets
    /// it: [`crate::BigCount`] stays the un-narrowed validation oracle,
    /// [`crate::Approx64`] is inexact (its `f64` sums would become
    /// integer sums), and [`crate::Sat64`] already is `u64`.
    const NARROWS_TO_U64: bool = false;
}

#[cfg(test)]
mod tests {
    use crate::{Approx64, BigCount, Count, Sat64, Wide128};

    fn laws<C: Count>() {
        let zero = C::zero();
        let one = C::one();
        let five = C::from_u64(5);
        assert!(zero < one);
        assert!(one < five);
        assert!(zero.is_zero());
        assert!(!one.is_zero());
        assert_eq!(zero.add(&five), five);
        assert_eq!(five.add(&zero), five);
        assert_eq!(one.mul(&five), five);
        assert_eq!(five.mul(&one), five);
        assert_eq!(five.mul(&zero), zero);
        assert_eq!(five.saturating_sub(&one), C::from_u64(4));
        assert_eq!(one.saturating_sub(&five), zero);
        let mut acc = C::zero();
        for _ in 0..5 {
            acc.add_assign(&one);
        }
        assert_eq!(acc, five);
        assert!((five.to_f64() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn sat64_laws() {
        laws::<Sat64>();
    }

    #[test]
    fn wide128_laws() {
        laws::<Wide128>();
    }

    #[test]
    fn approx64_laws() {
        laws::<Approx64>();
    }

    #[test]
    fn bigcount_laws() {
        laws::<BigCount>();
    }

    #[test]
    fn f64_parts_roundtrip() {
        for v in [1u64, 2, 3, 100, 12345, u64::MAX / 7] {
            let c = Sat64::from_u64(v);
            let (m, e) = c.to_f64_parts();
            let recon = m * (2f64).powi(e as i32);
            let rel = (recon - v as f64).abs() / v as f64;
            assert!(rel < 1e-9, "v={v} recon={recon}");
        }
    }
}
