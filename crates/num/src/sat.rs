//! Saturating fixed-width counters: [`Sat64`] and [`Wide128`].
//!
//! These clamp at their maximum instead of wrapping, which keeps the
//! propagation passes total and preserves the ordering of *unsaturated*
//! values. Saturation is observable through [`Count::is_saturated`].

use crate::Count;

macro_rules! saturating_count {
    ($name:ident, $inner:ty, $narrows:literal, $doc:literal) => {
        #[doc = $doc]
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// The largest representable count (the saturation point).
            pub const MAX: Self = Self(<$inner>::MAX);

            /// The raw clamped value.
            #[inline]
            pub fn get(self) -> $inner {
                self.0
            }
        }

        impl Count for $name {
            #[inline]
            fn zero() -> Self {
                Self(0)
            }

            #[inline]
            fn one() -> Self {
                Self(1)
            }

            #[inline]
            fn from_u64(v: u64) -> Self {
                Self(v as $inner)
            }

            #[inline]
            fn add(&self, other: &Self) -> Self {
                Self(self.0.saturating_add(other.0))
            }

            #[inline]
            fn add_assign(&mut self, other: &Self) {
                self.0 = self.0.saturating_add(other.0);
            }

            #[inline]
            fn saturating_sub(&self, other: &Self) -> Self {
                Self(self.0.saturating_sub(other.0))
            }

            #[inline]
            fn mul(&self, other: &Self) -> Self {
                Self(self.0.saturating_mul(other.0))
            }

            #[inline]
            fn is_zero(&self) -> bool {
                self.0 == 0
            }

            #[inline]
            fn to_f64(&self) -> f64 {
                self.0 as f64
            }

            #[inline]
            fn is_saturated(&self) -> bool {
                self.0 == <$inner>::MAX
            }

            fn type_name() -> &'static str {
                stringify!($name)
            }

            const NARROWS_TO_U64: bool = $narrows;
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                if self.is_saturated() {
                    write!(f, "saturated")
                } else {
                    write!(f, "{}", self.0)
                }
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self::from_u64(v)
            }
        }
    };
}

saturating_count!(
    Sat64,
    u64,
    false,
    "Saturating `u64` counter — fastest, adequate for sparse graphs."
);
saturating_count!(
    Wide128,
    u128,
    true,
    "Saturating `u128` counter — the declared counter of every experiment; \
     engine-backed solvers count in `u64` when `Φ(∅,V)` fits \
     ([`Count::NARROWS_TO_U64`])."
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_is_sticky_and_observable() {
        let max = Sat64::MAX;
        assert!(max.is_saturated());
        assert!(max.add(&Sat64::one()).is_saturated());
        assert!(max.mul(&Sat64::from_u64(2)).is_saturated());
        assert_eq!(max.saturating_sub(&Sat64::one()).get(), u64::MAX - 1);
        assert!(!Sat64::from_u64(12).is_saturated());
    }

    #[test]
    fn wide128_holds_values_beyond_u64() {
        let big = Wide128::from_u64(u64::MAX).mul(&Wide128::from_u64(u64::MAX));
        assert!(!big.is_saturated());
        let expected = (u64::MAX as u128) * (u64::MAX as u128);
        assert_eq!(big.get(), expected);
    }

    #[test]
    fn display_marks_saturation() {
        assert_eq!(Sat64::from_u64(42).to_string(), "42");
        assert_eq!(Sat64::MAX.to_string(), "saturated");
    }

    #[test]
    fn wide128_parts_cover_beyond_f64_integer_precision() {
        let big = Wide128::from_u64(u64::MAX).mul(&Wide128::from_u64(3));
        let (m, e) = big.to_f64_parts();
        let recon = m * (2f64).powi(e as i32);
        let rel = (recon - big.to_f64()).abs() / big.to_f64();
        assert!(rel < 1e-9);
    }
}
