//! Weighted sampling for preferential attachment at scale.
//!
//! The generators pick authors/movies proportionally to `load + 1`. A
//! linear scan per pick (`preferential_pick`) is `O(n)` and fine at the
//! default benchmark scale, but makes paper-full-scale generation (597K
//! authors, 2.4M writes) quadratic. [`WeightedSampler`] is a Fenwick
//! (binary indexed) tree over the same weights with `O(log n)` update and
//! prefix-search sampling — and it consumes randomness identically to the
//! linear scan (one draw in `[0, total)` mapped through the cumulative
//! weights), so swapping it in does not change any generated dataset.

use comm_graph::SplitMix64;

/// Fenwick-tree sampler over integer weights.
pub struct WeightedSampler {
    /// 1-based Fenwick tree of weight sums.
    tree: Vec<u64>,
    n: usize,
    total: u64,
}

impl WeightedSampler {
    /// Creates a sampler over `n` items, each with initial weight 1
    /// (the add-one smoothing of preferential attachment).
    pub fn new(n: usize) -> WeightedSampler {
        let mut s = WeightedSampler {
            tree: vec![0; n + 1],
            n,
            total: 0,
        };
        for i in 0..n {
            s.add(i, 1);
        }
        s
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the sampler is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The total weight.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Adds `delta` to item `i`'s weight.
    pub fn add(&mut self, i: usize, delta: u64) {
        debug_assert!(i < self.n);
        self.total += delta;
        let mut idx = i + 1;
        while idx <= self.n {
            self.tree[idx] += delta;
            idx += idx & idx.wrapping_neg();
        }
    }

    /// The weight of item `i`.
    pub fn weight(&self, i: usize) -> u64 {
        self.prefix(i + 1) - self.prefix(i)
    }

    fn prefix(&self, mut idx: usize) -> u64 {
        let mut sum = 0;
        while idx > 0 {
            sum += self.tree[idx];
            idx -= idx & idx.wrapping_neg();
        }
        sum
    }

    /// Finds the item whose cumulative weight interval contains `t`
    /// (`0 ≤ t < total`), i.e. the smallest `i` with `prefix(i+1) > t`.
    pub fn find(&self, mut t: u64) -> usize {
        debug_assert!(t < self.total);
        let mut pos = 0usize;
        let mut step = self.n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= self.n && self.tree[next] <= t {
                t -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos.min(self.n - 1)
    }

    /// Samples an item proportional to its weight — randomness-compatible
    /// with `preferential_pick` (one `below(total)` draw).
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        self.find(rng.below(self.total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keywords::preferential_pick;

    #[test]
    fn prefix_search_exact() {
        let mut s = WeightedSampler::new(4); // weights 1,1,1,1
        s.add(1, 4); // weights 1,5,1,1 → cumulative 1,6,7,8
        assert_eq!(s.total(), 8);
        assert_eq!(s.find(0), 0);
        assert_eq!(s.find(1), 1);
        assert_eq!(s.find(5), 1);
        assert_eq!(s.find(6), 2);
        assert_eq!(s.find(7), 3);
        assert_eq!(s.weight(1), 5);
        assert_eq!(s.weight(3), 1);
    }

    #[test]
    fn matches_linear_scan_draw_for_draw() {
        // The Fenwick sampler must map the same uniform draw to the same
        // item as the linear walk, so generators stay deterministic.
        let mut weights = vec![0u32; 50];
        let mut sampler = WeightedSampler::new(50);
        let mut rng_a = SplitMix64::new(7);
        let mut rng_b = SplitMix64::new(7);
        for step in 0..5_000 {
            let total: u64 = weights.iter().map(|&w| u64::from(w) + 1).sum();
            let a = preferential_pick(&mut rng_a, &weights, total);
            let b = sampler.sample(&mut rng_b);
            assert_eq!(a, b, "diverged at step {step}");
            weights[a] += 1;
            sampler.add(b, 1);
        }
    }

    #[test]
    fn single_item() {
        let s = WeightedSampler::new(1);
        assert_eq!(s.find(0), 0);
        assert_eq!(s.total(), 1);
        assert!(!s.is_empty());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn heavy_tail_sampling_is_fast_and_skewed() {
        let mut s = WeightedSampler::new(10_000);
        s.add(42, 1_000_000);
        let mut rng = SplitMix64::new(3);
        let hits = (0..2_000).filter(|_| s.sample(&mut rng) == 42).count();
        assert!(hits > 1_900, "heavy item sampled {hits}/2000");
    }
}
