//! The workspace's one pseudo-random generator.
//!
//! SplitMix64 (Steele, Lea & Flood): a 64-bit counter pushed through an
//! avalanche finalizer. Tiny, seedable, identical on every platform —
//! which is all the synthetic dataset generators and the seeded property
//! loops in the test tree need. Not cryptographic.

use std::ops::RangeInclusive;

/// A deterministic SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed` (every seed, zero included, is valid).
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` by multiply-shift (bias below `n / 2^64`).
    /// `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0) has no valid result");
        // The high half of the 128-bit product; it is below `n`.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `0..n` for slice indexing. `n` must be positive.
    pub fn index(&mut self, n: usize) -> usize {
        // The draw is below `n`, so it converts back losslessly.
        self.below(n as u64) as usize
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index(i + 1));
        }
    }

    /// Up to `max_chars` characters, each from one of `classes` (class
    /// chosen uniformly, then a scalar value inside it; surrogates, if a
    /// class spans them, come out as U+FFFD) — the property loops' stand-in
    /// for a regex character class.
    pub fn string(&mut self, classes: &[RangeInclusive<char>], max_chars: usize) -> String {
        (0..self.index(max_chars + 1))
            .map(|_| {
                let class = &classes[self.index(classes.len())];
                let (lo, hi) = (u64::from(*class.start()), u64::from(*class.end()));
                u32::try_from(lo + self.below(hi - lo + 1))
                    .ok()
                    .and_then(char::from_u32)
                    .unwrap_or(char::REPLACEMENT_CHARACTER)
            })
            .collect()
    }

    /// The driver of the test tree's property loops: runs `body` once per
    /// case on the streams seeded `0..cases`. When a case panics its seed
    /// is printed on the way out, so the failure replays in isolation
    /// with `SplitMix64::new(seed)`.
    pub fn for_each_case(cases: u64, mut body: impl FnMut(&mut SplitMix64)) {
        struct Case(u64);
        impl Drop for Case {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    eprintln!("property failed on the case seeded {}", self.0);
                }
            }
        }
        for seed in 0..cases {
            let _case = Case(seed);
            body(&mut SplitMix64::new(seed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // The first outputs for seed 1234567, from the reference C code.
        let mut r = SplitMix64::new(1_234_567);
        assert_eq!(r.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(r.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn draws_stay_in_range_and_cover_it() {
        let mut r = SplitMix64::new(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.index(5)] = true;
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
        assert_eq!(seen, [true; 5]);
        assert_eq!(r.below(1), 0);
        let s = r.string(&['a'..='c', '가'..='힣'], 40);
        assert!(s.chars().count() <= 40);
        assert!(s
            .chars()
            .all(|c| ('a'..='c').contains(&c) || ('가'..='힣').contains(&c)));
    }

    #[test]
    fn case_loop_visits_every_seed_once() {
        let mut firsts = Vec::new();
        SplitMix64::for_each_case(4, |rng| firsts.push(rng.next_u64()));
        let expect: Vec<u64> = (0..4).map(|s| SplitMix64::new(s).next_u64()).collect();
        assert_eq!(firsts, expect);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let run = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            SplitMix64::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
        let mut sorted = run(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }
}
