//! Total-ordered, non-negative edge weights.
//!
//! The paper's weight function `w_e((u,v)) = log2(1 + N_in(v))` produces
//! fractional weights, so weights are `f64` under the hood; [`Weight`] wraps
//! them with a *total* order (`f64::total_cmp`) so they can key heaps and be
//! compared exactly in tie-breaking rules.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// A non-negative, totally ordered path/edge weight.
///
/// `Weight` is `Copy` and 8 bytes; `Weight::INFINITY` marks unreachable
/// distances. Constructing a NaN or negative weight is a caller bug and is
/// rejected by [`Weight::new`]. `repr(transparent)` so CSR weight arrays
/// can be viewed zero-copy inside a mapped container file (see
/// [`crate::storage`]); on-disk weights are re-validated at load.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(transparent)]
pub struct Weight(f64);

impl Weight {
    /// The zero weight (virtual edges in the paper's Algorithms 2/4/6).
    pub const ZERO: Weight = Weight(0.0);
    /// Unreachable marker.
    pub const INFINITY: Weight = Weight(f64::INFINITY);

    /// Creates a weight, panicking on NaN or negative input.
    ///
    /// Shortest-path algorithms require non-negative weights; a NaN would
    /// silently corrupt heap ordering, so both are rejected eagerly.
    #[inline]
    #[expect(
        clippy::panic,
        reason = "NaN/negative weights are caller bugs; try_new is fallible"
    )]
    pub fn new(w: f64) -> Weight {
        Weight::try_new(w)
            .unwrap_or_else(|| panic!("edge weights must be non-negative and not NaN, got {w}"))
    }

    /// Creates a weight, returning `None` on NaN or negative input instead
    /// of panicking — the validation hook behind the query APIs.
    #[inline]
    pub fn try_new(w: f64) -> Option<Weight> {
        if w >= 0.0 {
            Some(Weight(w))
        } else {
            None
        }
    }

    /// The raw `f64` value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Whether this weight is finite (i.e. represents a reachable distance).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
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
        Weight(f64::from(w))
    }
}

impl Eq for Weight {}

impl PartialOrd for Weight {
    #[inline]
    fn partial_cmp(&self, other: &Weight) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Weight {
    #[inline]
    fn cmp(&self, other: &Weight) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for Weight {
    type Output = Weight;
    #[inline]
    fn add(self, rhs: Weight) -> Weight {
        Weight(self.0 + rhs.0)
    }
}

impl AddAssign for Weight {
    #[inline]
    fn add_assign(&mut self, rhs: Weight) {
        self.0 += rhs.0;
    }
}

impl Sum for Weight {
    fn sum<I: Iterator<Item = Weight>>(iter: I) -> Weight {
        iter.fold(Weight::ZERO, Add::add)
    }
}

impl fmt::Debug for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
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
        assert_eq!(Weight::try_new(f64::INFINITY), Some(Weight::INFINITY));
        assert_eq!(Weight::try_new(-1.0), None);
        assert_eq!(Weight::try_new(f64::NAN), None);
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
