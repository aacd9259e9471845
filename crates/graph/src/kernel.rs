//! Priority-queue kernel selection for the Dijkstra engines.
//!
//! The paper's weight function `w_e((u,v)) = log2(1 + N_in(v))` yields
//! weights ≥ 1 on every real edge (a referenced tuple has at least one
//! in-edge), and every sweep is truncated at `Rmax` — so the reachable
//! distance range of one sweep spans at most `Rmax / w_min` "rings". That
//! is exactly the regime where a bucket queue (Dial / delta-stepping with
//! an exact in-bucket order) beats a comparison heap: most pushes become
//! an O(1) append into a narrow distance bucket, and the comparison work
//! is confined to one bucket's worth of entries at a time.
//!
//! [`Kernel`] picks the queue behind [`DijkstraEngine`](crate::DijkstraEngine):
//!
//! * [`Kernel::Heap`] — the classic lazy-deletion binary heap, the
//!   reference kernel the equivalence tests compare against;
//! * [`Kernel::Bucket`] — the bucket queue, **bit-identical** to the heap
//!   kernel by construction (see [`crate::bucket`] for the tie-break
//!   argument); falls back to the heap for an untruncated sweep. This is
//!   the default everywhere: results never depend on the choice, only the
//!   constant factor does.
//!
//! The bucket width derives from the graph's minimum positive
//! edge weight (the finest ring that can matter), narrowed by
//! [`BUCKET_REFINE`] so the in-bucket heaps stay small — measured on the
//! sampled-DBLP and 1M-torus sweeps, `w_min / 16` beats both `w_min`
//! (mini-heaps too big) and `w_min / 64` (no further gain) — rounded down
//! to a power of two of `Weight` units, so a bucket index is one shift,
//! and widened so the bucket count stays within [`MAX_BUCKETS`] for very
//! large `Rmax / w_min` ratios. Correctness is independent of the width —
//! a wider bucket only moves more entries into the exact in-bucket heap.

use crate::weight::Weight;

/// Upper bound on bucket-array length; beyond this the width is widened
/// (never the kernel abandoned) so engine scratch stays cache-resident.
pub const MAX_BUCKETS: usize = 1 << 16;

/// How many buckets each minimum-edge-weight "ring" is split into; see
/// the module docs for the measured tuning.
pub const BUCKET_REFINE: u64 = 16;

/// Which priority-queue kernel a [`DijkstraEngine`](crate::DijkstraEngine)
/// runs its sweeps on. Both kernels produce bit-identical results; the
/// selection is purely a performance choice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Binary heap with lazy deletion (the reference kernel).
    Heap,
    /// Radius-aware bucket queue when the sweep is radius-bounded, the
    /// heap otherwise (no finite radius to size buckets from). Default.
    #[default]
    Bucket,
}

impl Kernel {
    /// Resolves the kernel for one sweep: the bucket width is derived from
    /// `radius` and `w_min`, the swept adjacency's minimum positive edge
    /// weight, and the heap is chosen when the radius is infinite.
    pub(crate) fn resolve(self, w_min: Option<Weight>, radius: Weight) -> ResolvedKernel {
        if self == Kernel::Heap {
            return ResolvedKernel::Heap;
        }
        let Some(plan) = BucketPlan::for_sweep(w_min, radius) else {
            return ResolvedKernel::Heap;
        };
        ResolvedKernel::Bucket(plan)
    }
}

/// A kernel choice resolved against one sweep's graph and radius.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ResolvedKernel {
    Heap,
    Bucket(BucketPlan),
}

/// The bucket geometry for one sweep: a power-of-two bucket width in
/// `Weight` units plus the bucket count implied by the radius. (The
/// `Default` is an empty zero-bucket plan so an idle
/// [`crate::bucket::BucketQueue`] can hold one.)
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BucketPlan {
    /// `log2` of the bucket width: a distance `d` lands in bucket
    /// `d.units() >> shift`.
    pub(crate) shift: u32,
    /// Number of buckets needed for distances in `[0, radius]`.
    pub(crate) buckets: usize,
}

impl BucketPlan {
    /// Derives the bucket width for a sweep truncated at `radius`: the
    /// largest power of two ≤ `w_min⁺ / BUCKET_REFINE`, where `w_min⁺` is
    /// the adjacency's minimum positive edge weight, widened until the
    /// bucket count is at most `MAX_BUCKETS + 1`. Returns `None` for an
    /// untruncated sweep.
    pub(crate) fn for_sweep(w_min: Option<Weight>, radius: Weight) -> Option<BucketPlan> {
        if !radius.is_finite() {
            return None;
        }
        let r = radius.units();
        let fine = (w_min.map_or(0, Weight::units) / BUCKET_REFINE)
            .max(1)
            .ilog2();
        let coarse = r
            .div_ceil(MAX_BUCKETS as u64)
            .next_power_of_two()
            .trailing_zeros();
        let shift = fine.max(coarse);
        // `r >> shift ≤ MAX_BUCKETS`, so the cast cannot truncate.
        let buckets = (r >> shift) as usize + 1;
        Some(BucketPlan { shift, buckets })
    }

    /// The bucket a distance `d ∈ [0, radius]` lands in; monotone in `d`,
    /// which is all the exactness argument in [`crate::bucket`] needs.
    #[inline]
    pub(crate) fn bucket_of(&self, d: Weight) -> usize {
        (d.units() >> self.shift) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::graph_from_edges;

    #[test]
    fn default_is_bucket() {
        assert_eq!(Kernel::default(), Kernel::Bucket);
    }

    #[test]
    fn heap_never_resolves_to_bucket() {
        let g = graph_from_edges(3, &[(0, 1, 1.0)]);
        assert!(matches!(
            Kernel::Heap.resolve(g.min_positive_weight(), Weight::new(4.0)),
            ResolvedKernel::Heap
        ));
    }

    #[test]
    fn bucket_covers_bounded_sweeps_only() {
        let g = graph_from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]);
        assert!(matches!(
            Kernel::Bucket.resolve(g.min_positive_weight(), Weight::new(8.0)),
            ResolvedKernel::Bucket(_)
        ));
        assert!(matches!(
            Kernel::Bucket.resolve(g.min_positive_weight(), Weight::INFINITY),
            ResolvedKernel::Heap
        ));
    }

    #[test]
    fn plan_uses_min_positive_weight() {
        let g = graph_from_edges(3, &[(0, 1, 0.0), (1, 2, 2.0)]);
        let plan = BucketPlan::for_sweep(g.min_positive_weight(), Weight::new(8.0)).unwrap();
        // 2.0 / BUCKET_REFINE = 1.25e8 units → width 2²⁶ units, so
        // buckets ⌊8e9 / 2²⁶⌋ + 1.
        assert_eq!(plan.shift, 26);
        assert_eq!(plan.buckets, 120);
        assert_eq!(plan.bucket_of(Weight::new(3.9)), 58);
        assert_eq!(plan.bucket_of(Weight::new(4.0)), 59);
    }

    #[test]
    fn plan_caps_bucket_count() {
        // Tiny weights and a huge radius: the width widens to radius/MAX.
        let g = graph_from_edges(2, &[(0, 1, 1e-9)]);
        let plan = BucketPlan::for_sweep(g.min_positive_weight(), Weight::new(1e6)).unwrap();
        assert!(plan.buckets <= MAX_BUCKETS + 1);
    }

    #[test]
    fn zero_radius_zero_weights_single_bucket() {
        let g = graph_from_edges(2, &[(0, 1, 0.0)]);
        let plan = BucketPlan::for_sweep(g.min_positive_weight(), Weight::ZERO).unwrap();
        assert_eq!(plan.buckets, 1);
        assert_eq!(plan.bucket_of(Weight::ZERO), 0);
    }

    #[test]
    fn bucket_of_is_monotone_on_samples() {
        let g = graph_from_edges(3, &[(0, 1, 0.5), (1, 2, 1.5)]);
        let plan = BucketPlan::for_sweep(g.min_positive_weight(), Weight::new(10.0)).unwrap();
        let mut last = 0usize;
        for i in 0..=1000 {
            let d = Weight::new(10.0 * f64::from(i) / 1000.0);
            let b = plan.bucket_of(d);
            assert!(b >= last, "bucket_of must be monotone");
            last = b;
        }
        assert!(last < plan.buckets);
    }
}
