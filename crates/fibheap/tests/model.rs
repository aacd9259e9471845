//! Model-based property test: the Fibonacci heap must behave exactly like
//! a reference priority queue under arbitrary operation sequences, drawn
//! from [`CASES`] seeded streams.

use comm_fibheap::{FibHeap, HeapError, NodeRef};

const CASES: u64 = 256;

/// A private copy of `comm_graph::SplitMix64` (this crate sits below
/// `comm-graph`, so it cannot borrow the shared one).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// Runs `body` on the streams seeded `0..CASES`, printing the seed of a
/// case that panics.
fn for_each_case(mut body: impl FnMut(&mut SplitMix64)) {
    struct Case(u64);
    impl Drop for Case {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed on the case seeded {}", self.0);
            }
        }
    }
    for seed in 0..CASES {
        let _case = Case(seed);
        body(&mut SplitMix64(seed));
    }
}

fn keys(rng: &mut SplitMix64, max_key: usize, max_len: usize) -> Vec<u32> {
    (0..rng.below(max_len))
        .map(|_| rng.below(max_key) as u32)
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    PopMin,
    DecreaseKey { live_idx: usize, by: u32 },
    Peek,
    Meld(Vec<u32>),
}

/// 1–199 operations, the five kinds equally likely.
fn ops(rng: &mut SplitMix64) -> Vec<Op> {
    (0..1 + rng.below(199))
        .map(|_| match rng.below(5) {
            0 => Op::Push(rng.below(10_000) as u32),
            1 => Op::PopMin,
            2 => Op::DecreaseKey {
                live_idx: rng.below(64),
                by: 1 + rng.below(499) as u32,
            },
            3 => Op::Peek,
            _ => Op::Meld(keys(rng, 10_000, 8)),
        })
        .collect()
}

#[test]
fn matches_reference_model() {
    for_each_case(|rng| {
        let ops = ops(rng);
        // Model: a Vec of (key, id) kept unsorted; min extracted by scan.
        // Ids make entries distinguishable so decrease-key tracks exactly.
        let mut heap: FibHeap<(u32, u64), u64> = FibHeap::new();
        let mut live: Vec<(NodeRef, u32, u64)> = Vec::new(); // (handle, key, id)
        let mut next_id = 0u64;
        for op in ops {
            match op {
                Op::Push(k) => {
                    let id = next_id;
                    next_id += 1;
                    let r = heap.push((k, id), id);
                    live.push((r, k, id));
                }
                Op::PopMin => {
                    let expect = live
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(_, k, id))| (k, id))
                        .map(|(i, &(_, k, id))| (i, k, id));
                    match (heap.pop_min(), expect) {
                        (None, None) => {}
                        (Some(((k, id), v)), Some((i, ek, eid))) => {
                            assert_eq!((k, id, v), (ek, eid, eid));
                            live.swap_remove(i);
                        }
                        (got, want) => {
                            panic!("pop mismatch: got {got:?}, want {want:?}")
                        }
                    }
                }
                Op::DecreaseKey { live_idx, by } => {
                    if live.is_empty() {
                        continue;
                    }
                    let i = live_idx % live.len();
                    let (r, k, id) = live[i];
                    let nk = k.saturating_sub(by);
                    heap.decrease_key(r, (nk, id)).unwrap();
                    live[i].1 = nk;
                }
                Op::Peek => {
                    let expect = live.iter().map(|&(_, k, id)| (k, id)).min();
                    assert_eq!(heap.peek_min().map(|(&(k, id), _)| (k, id)), expect);
                }
                Op::Meld(keys) => {
                    // Build a side heap, meld it in, and rebase its handles
                    // by the returned slot offset.
                    let mut side: FibHeap<(u32, u64), u64> = FibHeap::new();
                    let mut side_live: Vec<(NodeRef, u32, u64)> = Vec::new();
                    for k in keys {
                        let id = next_id;
                        next_id += 1;
                        side_live.push((side.push((k, id), id), k, id));
                    }
                    side.validate().unwrap();
                    let offset = heap.meld(side);
                    live.extend(
                        side_live
                            .into_iter()
                            .map(|(r, k, id)| (r.rebased(offset), k, id)),
                    );
                }
            }
            // The deep structural validator must hold after *every* op.
            heap.validate().unwrap();
            assert_eq!(heap.len(), live.len());
        }
        // Drain and verify global order.
        let mut rest: Vec<(u32, u64)> = live.iter().map(|&(_, k, id)| (k, id)).collect();
        rest.sort_unstable();
        let mut drained = Vec::new();
        while let Some((key, _)) = heap.pop_min() {
            drained.push(key);
        }
        assert_eq!(drained, rest);
    });
}

#[test]
fn meld_heapsort_matches_binaryheap() {
    for_each_case(|rng| {
        let chunks: Vec<Vec<u32>> = (0..1 + rng.below(7))
            .map(|_| keys(rng, 10_000, 50))
            .collect();
        // Meld chunk-heaps together and heapsort; a std::BinaryHeap fed the
        // same keys is the oracle.
        let mut reference = std::collections::BinaryHeap::new();
        let mut heap: FibHeap<u32, u32> = FibHeap::new();
        for chunk in &chunks {
            let mut side = FibHeap::new();
            for &k in chunk {
                side.push(k, k);
                reference.push(std::cmp::Reverse(k));
            }
            heap.meld(side);
            heap.validate().unwrap();
        }
        while let Some((k, _)) = heap.pop_min() {
            assert_eq!(Some(std::cmp::Reverse(k)), reference.pop());
            heap.validate().unwrap();
        }
        assert!(reference.is_empty());
    });
}

#[test]
fn stale_handles_always_detected() {
    for_each_case(|rng| {
        let keys: Vec<u32> = (0..1 + rng.below(39))
            .map(|_| rng.below(100) as u32)
            .collect();
        let mut heap = FibHeap::new();
        let handles: Vec<NodeRef> = keys.iter().map(|&k| heap.push(k, k)).collect();
        while heap.pop_min().is_some() {}
        for r in handles {
            assert_eq!(heap.decrease_key(r, 0), Err(HeapError::StaleHandle));
        }
    });
}
