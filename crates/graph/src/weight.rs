//! Fixed-point, non-negative edge and path weights.
//!
//! The paper's weight function `w_e((u,v)) = log2(1 + N_in(v))` produces
//! fractional weights. [`Weight`] holds them as a count of `10⁻⁹` units,
//! rounded to the nearest unit once, where a weight enters from `f64`
//! ([`Weight::new`] / [`Weight::try_new`]). Every path sum after that is
//! integer addition, so a sum does not depend on the end a path is folded
//! from, and every comparison is exact.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Units per `1.0`: weights are multiples of `10⁻⁹`.
const UNITS_PER_ONE: u64 = 1_000_000_000;

/// A non-negative path/edge weight in `10⁻⁹` units.
///
/// `Weight` is `Copy` and 8 bytes; `Weight::INFINITY` (`u64::MAX` units)
/// marks unreachable distances, and addition saturates at it. Decimal
/// literals with up to nine fractional digits are exact, so
/// `new(0.1) + new(0.2) + new(0.3) == new(0.6)`; the finite range is
/// `[0, ≈ 1.8 × 10¹⁰]`. `repr(transparent)` so CSR weight arrays can be
/// viewed zero-copy inside a mapped container file (see
/// [`crate::storage`]); on-disk weights are re-validated at load.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Weight(u64);

impl Weight {
    /// The zero weight (virtual edges in the paper's Algorithms 2/4/6).
    pub const ZERO: Weight = Weight(0);
    /// Unreachable marker; also what a saturating sum reaches.
    pub const INFINITY: Weight = Weight(u64::MAX);

    /// Creates a weight, panicking on NaN, negative or out-of-range input.
    ///
    /// Shortest-path algorithms require non-negative weights; a NaN would
    /// silently corrupt every comparison, so all three are rejected eagerly.
    #[inline]
    #[expect(
        clippy::panic,
        reason = "NaN/negative weights are caller bugs; try_new is fallible"
    )]
    pub fn new(w: f64) -> Weight {
        Weight::try_new(w).unwrap_or_else(|| {
            panic!("edge weights must be non-negative, not NaN and in range, got {w}")
        })
    }

    /// Creates a weight rounded to the nearest `10⁻⁹` unit, returning
    /// `None` on NaN, negative input or a finite value past the range
    /// instead of panicking — the validation hook behind the query APIs.
    /// `+∞` maps to [`Weight::INFINITY`].
    #[inline]
    pub fn try_new(w: f64) -> Option<Weight> {
        if w == f64::INFINITY {
            return Some(Weight::INFINITY);
        }
        let units = (w * UNITS_PER_ONE as f64).round();
        // 2⁶⁴ is the first float past `u64`; the largest float below it
        // is `2⁶⁴ − 2048`, short of `INFINITY`'s `2⁶⁴ − 1`.
        (w >= 0.0 && units < 18_446_744_073_709_551_616.0).then_some(Weight(units as u64))
    }

    /// The weight a count of `10⁻⁹` units stands for (`u64::MAX` is
    /// [`Weight::INFINITY`]): how the on-disk formats read one back.
    #[inline]
    pub const fn from_units(units: u64) -> Weight {
        Weight(units)
    }

    /// The count of `10⁻⁹` units: how the on-disk formats write one.
    #[inline]
    pub const fn units(self) -> u64 {
        self.0
    }

    /// The value as an `f64` (`+∞` for [`Weight::INFINITY`]), for display
    /// and the wire. Exact for decimals of up to nine fractional digits:
    /// `new(0.6).get() == 0.6`.
    #[inline]
    pub fn get(self) -> f64 {
        if self.is_finite() {
            self.0 as f64 / UNITS_PER_ONE as f64
        } else {
            f64::INFINITY
        }
    }

    /// Whether this weight is finite (i.e. represents a reachable distance).
    #[inline]
    pub fn is_finite(self) -> bool {
        self != Weight::INFINITY
    }
}

/// Narrows a `usize` index to `u32`, returning `None` when it does not fit.
///
/// Node ids, CSR offsets, and row ids are `u32` by design (flat-vector
/// indexing at DBLP scale); every `usize → u32` narrowing in the workspace
/// funnels through here or [`index_to_u32`] so the truncation check lives in
/// exactly one audited place (enforced by `cargo xtask lint`,
/// rule `narrowing_cast`).
#[inline]
pub fn try_index_to_u32(i: usize) -> Option<u32> {
    u32::try_from(i).ok()
}

/// Narrows a `usize` index to `u32`, panicking when it does not fit.
///
/// Use this at call sites whose surrounding structure already bounds the
/// index (e.g. a `Vec` that is grown one `u32` id at a time); prefer
/// [`try_index_to_u32`] where an error can be returned.
#[inline]
#[expect(
    clippy::panic,
    reason = "the single audited usize→u32 chokepoint; >4G ids is unsupported"
)]
pub fn index_to_u32(i: usize) -> u32 {
    try_index_to_u32(i).unwrap_or_else(|| panic!("index {i} exceeds the u32 id space"))
}

/// Converts a `u64` on-disk field to `usize`, returning `None` when it does
/// not fit the host (possible on 32-bit targets).
#[inline]
pub fn try_u64_to_usize(x: u64) -> Option<usize> {
    usize::try_from(x).ok()
}

impl From<u32> for Weight {
    #[inline]
    fn from(w: u32) -> Weight {
        Weight(u64::from(w) * UNITS_PER_ONE)
    }
}

impl Add for Weight {
    type Output = Weight;
    #[inline]
    fn add(self, rhs: Weight) -> Weight {
        Weight(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Weight {
    #[inline]
    fn add_assign(&mut self, rhs: Weight) {
        *self = *self + rhs;
    }
}

impl Sum for Weight {
    fn sum<I: Iterator<Item = Weight>>(iter: I) -> Weight {
        iter.fold(Weight::ZERO, Add::add)
    }
}

impl fmt::Debug for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.get())
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        assert!(Weight::ZERO < Weight::new(1.0));
        assert!(Weight::new(1.0) < Weight::INFINITY);
        assert_eq!(Weight::new(2.5), Weight::new(2.5));
    }

    #[test]
    fn addition_saturates_at_infinity() {
        let w = Weight::INFINITY + Weight::new(3.0);
        assert!(!w.is_finite());
        assert_eq!(w, Weight::INFINITY);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rejected() {
        let _ = Weight::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_rejected() {
        let _ = Weight::new(f64::NAN);
    }

    #[test]
    fn try_new_rejects_without_panicking() {
        assert_eq!(Weight::try_new(2.5), Some(Weight::new(2.5)));
        assert_eq!(Weight::try_new(0.0), Some(Weight::ZERO));
        assert_eq!(Weight::try_new(-0.0), Some(Weight::ZERO));
        assert_eq!(Weight::try_new(f64::INFINITY), Some(Weight::INFINITY));
        assert_eq!(Weight::try_new(-1.0), None);
        assert_eq!(Weight::try_new(-1e-12), None, "negative, even below a unit");
        assert_eq!(Weight::try_new(f64::NEG_INFINITY), None);
        assert_eq!(Weight::try_new(f64::NAN), None);
    }

    #[test]
    fn finite_values_past_the_range_are_rejected() {
        assert!(Weight::try_new(1.8e10).is_some_and(Weight::is_finite));
        assert_eq!(Weight::try_new(1.9e10), None);
        assert_eq!(Weight::try_new(f64::MAX), None);
    }

    #[test]
    fn rounds_to_the_nearest_unit() {
        assert_eq!(Weight::new(1e-9).units(), 1);
        assert_eq!(Weight::new(0.4e-9).units(), 0);
        assert_eq!(Weight::new(0.6e-9).units(), 1);
        assert_eq!(Weight::new(2.0000000014).units(), 2_000_000_001);
        assert_eq!(Weight::new(2.0000000016).units(), 2_000_000_002);
        assert_eq!(
            Weight::new(1.0_f64.log2() + 3.0_f64.log2()).units(),
            1_584_962_501
        );
    }

    #[test]
    fn decimal_sums_are_exact() {
        let w = Weight::new;
        assert_eq!(w(0.1) + w(0.2) + w(0.3), w(0.6));
        assert_eq!(w(0.3) + w(0.2) + w(0.1), w(0.1) + (w(0.2) + w(0.3)));
        assert_eq!(w(5.0) + w(0.0005), w(5.0005));
        let tenth_sum: Weight = std::iter::repeat_n(w(0.1), 10).sum();
        assert_eq!(tenth_sum, w(1.0));
    }

    #[test]
    fn get_returns_the_decimal_literal() {
        for x in [0.1, 0.2, 0.3, 0.6, 5.0005, 7.25, 8.0, 0.000_000_001] {
            assert_eq!(Weight::new(x).get(), x);
        }
        let w = Weight::new;
        assert_eq!((w(0.1) + w(0.2)).get(), 0.3);
        assert_eq!(Weight::INFINITY.get(), f64::INFINITY);
        assert_eq!(Weight::ZERO.get(), 0.0);
    }

    #[test]
    fn units_round_trip() {
        for w in [Weight::ZERO, Weight::new(0.6), Weight::INFINITY] {
            assert_eq!(Weight::from_units(w.units()), w);
        }
        assert_eq!(Weight::INFINITY.units(), u64::MAX);
    }

    #[test]
    fn addition_saturates_at_infinity_from_finite_operands() {
        let big = Weight::from_units(u64::MAX - 1);
        assert!(big.is_finite());
        assert_eq!(big + Weight::from_units(1), Weight::INFINITY);
        assert_eq!(big + big, Weight::INFINITY);
        let mut acc = big;
        acc += big;
        assert_eq!(acc, Weight::INFINITY);
    }

    #[test]
    fn sum_of_weights() {
        let total: Weight = [1u32, 2, 3].into_iter().map(Weight::from).sum();
        assert_eq!(total, Weight::new(6.0));
    }

    #[test]
    fn from_u32() {
        assert_eq!(Weight::from(7u32), Weight::new(7.0));
    }

    #[test]
    fn checked_index_narrowing() {
        assert_eq!(try_index_to_u32(0), Some(0));
        assert_eq!(try_index_to_u32(u32::MAX as usize), Some(u32::MAX));
        assert_eq!(try_index_to_u32(u32::MAX as usize + 1), None);
        assert_eq!(index_to_u32(41), 41);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 id space")]
    fn unchecked_index_narrowing_panics() {
        let _ = index_to_u32(u32::MAX as usize + 1);
    }

    #[test]
    fn checked_u64_widening() {
        assert_eq!(try_u64_to_usize(12), Some(12));
        assert_eq!(
            try_u64_to_usize(u64::from(u32::MAX)),
            Some(u32::MAX as usize)
        );
    }
}
