//! A bucket queue over quantized distances with an exact tie-break path.
//!
//! # Why this is bit-identical to the binary heap
//!
//! The heap kernel pops `Reverse<(Weight, NodeId)>` entries: every pop
//! returns the least `(dist, node)` entry *currently queued* —
//! `Weight`'s `total_cmp` order on distances, node id as the tie-break.
//! [`BucketQueue`] makes the same choice at every pop, not merely some
//! valid Dijkstra choice:
//!
//! * every entry is keyed by `bucket_of(d) = ⌊d · delta_inv⌋`, which is
//!   monotone in `d` (multiplication by a positive finite constant and
//!   `floor` are both monotone under IEEE-754 round-to-nearest), so equal
//!   distances always share a bucket and a smaller distance never lands in
//!   a later bucket;
//! * the queue drains bucket `base` through a **mini binary heap** holding
//!   that bucket's entries, popping them in exact `(dist, node)` order;
//! * Dijkstra's invariant (no relaxation produces a distance below the
//!   distance currently being settled) means new pushes land in bucket
//!   `≥ base`; pushes into bucket `base` itself (zero-weight edges,
//!   same-bucket short edges) go straight into the active heap, so they
//!   compete with everything else still queued in the current bucket;
//! * `base` only advances when the active heap is empty, and takes the
//!   next non-empty bucket's entries as the new active heap.
//!
//! Hence each pop is the minimum of what is queued, as the heap's is; the
//! sweep pushes as a function of what it pops, so by induction both
//! kernels see the same pushes and pop the same sequence, element for
//! element. That is all the contract needs, and all that holds in
//! general: the sequence as a whole is sorted by `(dist, node)` only when
//! every relaxation makes progress (`fl(d + w) > d`). A zero-weight or
//! absorbed edge pushes an entry *at* the distance being settled, and its
//! node id may be smaller than one already popped there — seeds `{2, 4}`
//! and an edge `4 → 1` of weight zero pop `(0, 2), (0, 4), (0, 1)`, on
//! both kernels alike (`DijkstraEngine::run` says what follows from the
//! sorted case). The bucket width `delta` affects only how much work the
//! mini heap sees: a wider bucket means more comparisons, a narrower one
//! more empty-bucket skips. Correctness needs no tuning.
//!
//! The win over one big heap: pushes into future buckets are `O(1)` vector
//! appends (no sift-up), and the mini heap's size is the bucket occupancy —
//! for the paper's weights (`log2(1 + N_in) ≥ 1`) and `Rmax`-truncated
//! sweeps, a small fraction of the frontier.

use crate::csr::NodeId;
use crate::kernel::BucketPlan;
use crate::weight::Weight;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A radius-aware bucket queue; see the module docs for the exactness
/// argument. Retains its allocations across sweeps like the heap kernel.
#[derive(Default)]
pub(crate) struct BucketQueue {
    /// Bucket geometry of the current sweep (set by [`begin`](Self::begin)).
    plan: BucketPlan,
    /// Future entries, keyed by bucket index.
    buckets: Vec<Vec<(Weight, NodeId)>>,
    /// The current bucket's entries in exact `(dist, node)` pop order.
    active: BinaryHeap<Reverse<(Weight, NodeId)>>,
    /// Index of the bucket currently draining through `active`.
    base: usize,
    /// Entries parked in `buckets` (not counting `active`).
    pending: usize,
}

impl BucketQueue {
    /// Prepares the queue for a sweep with the given bucket geometry.
    /// Retained bucket vectors are reused; the bucket array only grows.
    pub(crate) fn begin(&mut self, plan: &BucketPlan) {
        debug_assert!(
            self.pending == 0 && self.active.is_empty(),
            "begin on a drained queue"
        );
        self.plan = *plan;
        if self.buckets.len() < plan.buckets {
            self.buckets.resize_with(plan.buckets, Vec::new);
        }
        self.base = 0;
    }

    /// Pushes an entry. `d` must be within the sweep radius the queue was
    /// sized for and (per Dijkstra's invariant) not below the bucket
    /// currently draining.
    #[inline]
    pub(crate) fn push(&mut self, d: Weight, v: NodeId) {
        let b = self.plan.bucket_of(d).min(self.buckets.len() - 1);
        if b <= self.base {
            // Same-bucket push: joins the exact in-bucket ordering. (An
            // earlier bucket is unreachable mid-sweep; clamped entries at
            // the array edge also stay exact because every clamped
            // distance sorts inside the final bucket's heap.)
            self.active.push(Reverse((d, v)));
        } else {
            self.buckets[b].push((d, v));
            self.pending += 1;
        }
    }

    /// Pops the smallest `(dist, node)` entry queued.
    pub(crate) fn pop(&mut self) -> Option<(Weight, NodeId)> {
        loop {
            if let Some(Reverse(entry)) = self.active.pop() {
                return Some(entry);
            }
            if self.pending == 0 {
                return None;
            }
            // Advance to the next non-empty bucket and heapify it as the
            // new active set.
            self.base += 1;
            while self.buckets[self.base].is_empty() {
                self.base += 1;
            }
            let batch = &mut self.buckets[self.base];
            self.pending -= batch.len();
            self.active.extend(batch.drain(..).map(Reverse));
        }
    }

    /// Discards all entries, keeping allocations for the next sweep.
    pub(crate) fn clear(&mut self) {
        self.active.clear();
        if self.pending > 0 {
            for b in &mut self.buckets {
                b.clear();
            }
            self.pending = 0;
        }
        self.base = 0;
    }

    /// Retained capacity in bytes (the engine's scratch accounting).
    pub(crate) fn retained_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(Weight, NodeId)>();
        let vecs: usize = self.buckets.iter().map(Vec::capacity).sum::<usize>() * entry;
        vecs + self.buckets.capacity() * std::mem::size_of::<Vec<(Weight, NodeId)>>()
            + self.active.capacity() * entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(delta: f64, buckets: usize) -> BucketPlan {
        BucketPlan {
            delta_inv: delta.recip(),
            buckets,
        }
    }

    fn drain(q: &mut BucketQueue) -> Vec<(Weight, NodeId)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_sorted_dist_node_order() {
        let mut q = BucketQueue::default();
        q.begin(&plan(1.0, 12));
        for (d, v) in [(5.0, 2), (1.25, 7), (5.0, 1), (0.0, 3), (9.9, 0)] {
            q.push(Weight::new(d), NodeId(v));
        }
        let mut want = vec![
            (Weight::ZERO, NodeId(3)),
            (Weight::new(1.25), NodeId(7)),
            (Weight::new(5.0), NodeId(1)),
            (Weight::new(5.0), NodeId(2)),
            (Weight::new(9.9), NodeId(0)),
        ];
        want.sort();
        assert_eq!(drain(&mut q), want);
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        // Mimics a sweep: after popping d, push entries with dist ≥ d.
        let mut q = BucketQueue::default();
        q.begin(&plan(0.5, 24));
        q.push(Weight::ZERO, NodeId(0));
        let mut popped = Vec::new();
        let mut next_id = 1u32;
        while let Some((d, u)) = q.pop() {
            popped.push((d, u));
            if popped.len() >= 32 {
                break;
            }
            // Zero-weight self-bucket push and a forward push.
            if next_id < 16 {
                q.push(d, NodeId(next_id + 100));
                q.push(d + Weight::new(0.75), NodeId(next_id));
                next_id += 1;
            }
        }
        let mut sorted = popped.clone();
        sorted.sort();
        assert_eq!(popped, sorted);
        assert_eq!(popped.len(), 31); // 1 seed + 15×2 pushes
    }

    #[test]
    fn entries_past_the_last_bucket_clamp_exactly() {
        let mut q = BucketQueue::default();
        q.begin(&plan(1.0, 3));
        // Buckets cover [0,3); distances beyond clamp into bucket 2 and
        // still pop in exact order via the mini heap.
        for (d, v) in [(10.0, 1), (2.5, 2), (7.0, 3), (0.5, 4)] {
            q.push(Weight::new(d), NodeId(v));
        }
        let got = drain(&mut q);
        assert_eq!(
            got,
            vec![
                (Weight::new(0.5), NodeId(4)),
                (Weight::new(2.5), NodeId(2)),
                (Weight::new(7.0), NodeId(3)),
                (Weight::new(10.0), NodeId(1)),
            ]
        );
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut q = BucketQueue::default();
        q.begin(&plan(1.0, 8));
        q.push(Weight::new(3.0), NodeId(1));
        q.push(Weight::ZERO, NodeId(2));
        q.clear();
        assert_eq!(q.pop(), None);
        q.begin(&plan(2.0, 4));
        q.push(Weight::new(1.0), NodeId(9));
        assert_eq!(drain(&mut q), vec![(Weight::new(1.0), NodeId(9))]);
    }
}
