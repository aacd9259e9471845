//! Guarded caches: an LRU of [`ProjectionIndex`]es keyed by keyword set,
//! under it a byte-capped LRU of [`KeywordRun`]s keyed by keyword, and an
//! exact-hit answer cache keyed by `(keywords, Rmax, k)` (the cost
//! function is fixed per engine, so it is not part of the key).
//!
//! All three hold `Arc`s, so a hit never copies the cached structure and
//! an eviction never invalidates an in-flight reader. Insertion is
//! *guarded*: sweeps and index assembly run under the request's
//! [`RunGuard`](comm_graph::RunGuard), and a trip returns an error
//! **before** the interrupted piece touches a cache — a half-swept run or
//! a half-built `ProjectionIndex` can never become visible (exercised by
//! the cache-contract tests).
//!
//! One [`Lru`] type serves all three. Its capacity is in units of a
//! *weigher*: the index and answer caches count entries (every entry
//! weighs 1), the run cache counts bytes (a run weighs its
//! [`byte_size`](KeywordRun::byte_size)) — a rare keyword's run is a few
//! hundred bytes and a frequent one's megabytes, so an entry count would
//! bound nothing.
//!
//! The caches are deliberately small and exact. The bit-identical
//! contract — a cached answer must equal the uncached answer bit for bit —
//! holds structurally: cache hits replay the stored value of a previous
//! `Complete` run, and the engine is deterministic, so storing the value
//! *is* storing the recomputation.

use comm_core::{Community, KeywordRun, ProjectionIndex};
use std::collections::HashMap;
use std::sync::Arc;

/// A tiny exact LRU: move-to-front over a `Vec`. With the small capacities
/// the daemon uses (a handful of indexes, a few hundred answers or runs)
/// the O(len) scan is cheaper than a linked-map and trivially correct.
pub struct Lru<K, V> {
    /// Most total weight the cache may hold.
    cap: usize,
    weigh: fn(&V) -> usize,
    /// Total weight of `entries`, at most `cap`.
    weight: usize,
    entries: Vec<(K, V)>,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Clone, V: Clone> Lru<K, V> {
    /// An empty LRU holding at most `cap` entries (`cap ≥ 1`).
    pub fn new(cap: usize) -> Lru<K, V> {
        Lru::weighted(cap, |_| 1)
    }

    /// An empty LRU holding entries of total weight at most `cap`
    /// (`cap ≥ 1`). `weigh` must give one value the same weight every
    /// time it is asked.
    pub fn weighted(cap: usize, weigh: fn(&V) -> usize) -> Lru<K, V> {
        Lru {
            cap: cap.max(1),
            weigh,
            weight: 0,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        match self.entries.iter().position(|(k, _)| k == key) {
            Some(pos) => {
                let entry = self.entries.remove(pos);
                let value = entry.1.clone();
                self.entries.insert(0, entry);
                self.hits += 1;
                Some(value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting least-recently-used entries
    /// until the total weight fits the cap.
    ///
    /// A value heavier than the whole cap is not admitted and evicts
    /// nothing (a stale value under the same key is still dropped):
    /// flushing every resident entry for one that cannot stay would trade
    /// many future hits for none. The caller keeps the value it built, so
    /// the request that produced it is served either way.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            let (_, old) = self.entries.remove(pos);
            self.weight -= (self.weigh)(&old);
        }
        let weight = (self.weigh)(&value);
        if weight > self.cap {
            return;
        }
        self.entries.insert(0, (key, value));
        self.weight += weight;
        while self.weight > self.cap {
            let Some((_, evicted)) = self.entries.pop() else {
                break;
            };
            self.weight -= (self.weigh)(&evicted);
        }
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total weight of the cached entries: their count under
    /// [`new`](Self::new), the weigher's sum under
    /// [`weighted`](Self::weighted).
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// `(hits, misses)` lookup counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Key of the projection-index cache: the *set* of keywords (sorted,
/// deduplicated, lowercased) plus the index radius bits. Requests that
/// differ only in keyword order or `k` share one index.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct IndexKey {
    /// Sorted, deduplicated, lowercased keywords.
    pub keywords: Vec<String>,
    /// The index radius as raw bits.
    pub radius_bits: u64,
}

impl IndexKey {
    /// Normalizes a request's keywords into a cache key.
    pub fn new(keywords: &[String], radius_bits: u64) -> IndexKey {
        let mut kws: Vec<String> = keywords.iter().map(|k| k.to_lowercase()).collect();
        kws.sort_unstable();
        kws.dedup();
        IndexKey {
            keywords: kws,
            radius_bits,
        }
    }
}

/// Key of the exact-hit answer cache. Keyword *order* matters here: cores
/// are position-wise (`c_i` holds keyword `k_i`), so reordering keywords
/// permutes every core.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AnswerKey {
    /// Lowercased keywords in request order.
    pub keywords: Vec<String>,
    /// `Rmax` as raw bits.
    pub rmax_bits: u64,
    /// The `k` of top-k.
    pub k: u32,
}

impl AnswerKey {
    /// Normalizes a request into an answer-cache key.
    pub fn new(keywords: &[String], rmax: f64, k: u32) -> AnswerKey {
        AnswerKey {
            keywords: keywords.iter().map(|k| k.to_lowercase()).collect(),
            rmax_bits: rmax.to_bits(),
            k,
        }
    }
}

/// A cached complete answer: the exact `Vec<Community>` of a prior
/// `Complete` run, shared by reference.
pub type CachedAnswer = Arc<Vec<Community>>;

/// A cached projection index, shared by reference.
pub type CachedIndex = Arc<ProjectionIndex>;

/// A cached keyword run, shared by reference — with the indexes assembled
/// from it, which hold its `V_w` and distances.
pub type CachedRun = Arc<KeywordRun>;

/// The engine's vocabulary: lowercased keyword → the nodes containing it.
pub type Vocabulary = HashMap<String, Vec<comm_graph::NodeId>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_moves_hits_to_front_and_evicts_lru() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        assert!(lru.is_empty());
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(&1), Some(10)); // refresh 1; 2 is now LRU
        lru.insert(3, 30); // evicts 2
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.stats(), (3, 1));
    }

    #[test]
    fn lru_reinsert_refreshes_instead_of_duplicating() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        lru.insert(1, 11); // refresh + overwrite, no duplicate
        assert_eq!(lru.len(), 2);
        lru.insert(3, 30); // evicts 2, not 1
        assert_eq!(lru.get(&1), Some(11));
        assert_eq!(lru.get(&2), None);
    }

    #[test]
    fn weighted_lru_evicts_by_total_weight() {
        let mut lru: Lru<u32, usize> = Lru::weighted(10, |v| *v);
        lru.insert(1, 4);
        lru.insert(2, 4);
        assert_eq!((lru.len(), lru.weight()), (2, 8));
        lru.insert(3, 4); // 12 > 10: evicts 1, the least recently used
        assert_eq!(lru.get(&1), None);
        assert_eq!((lru.len(), lru.weight()), (2, 8));
        assert_eq!(lru.get(&2), Some(4)); // refresh 2; 3 is now LRU
        lru.insert(2, 1); // overwrite with a lighter value: 4 + 1
        assert_eq!((lru.len(), lru.weight()), (2, 5));
        lru.insert(4, 10); // evicts as many as it takes: 3, then 2
        assert_eq!((lru.len(), lru.weight()), (1, 10));
        assert_eq!(lru.get(&4), Some(10));
        // Entry-counted caches are the weight-1 case.
        let mut unit: Lru<u32, u32> = Lru::new(2);
        unit.insert(1, 10);
        unit.insert(2, 20);
        unit.insert(3, 30);
        assert_eq!((unit.len(), unit.weight()), (2, 2));
    }

    #[test]
    fn entry_heavier_than_the_cap_is_not_admitted_and_evicts_nothing() {
        let mut lru: Lru<u32, usize> = Lru::weighted(10, |v| *v);
        lru.insert(1, 4);
        lru.insert(2, 4);
        lru.insert(3, 11);
        assert_eq!(lru.get(&3), None);
        assert_eq!((lru.len(), lru.weight()), (2, 8));
        assert_eq!((lru.get(&1), lru.get(&2)), (Some(4), Some(4)));
        // Overwriting a resident key with an oversized value drops the
        // stale one: the key never serves a value it was told is outdated.
        lru.insert(1, 11);
        assert_eq!(lru.get(&1), None);
        assert_eq!((lru.len(), lru.weight()), (1, 4));
        lru.insert(5, 10); // exactly the cap is admitted
        assert_eq!((lru.len(), lru.weight()), (1, 10));
    }

    #[test]
    fn index_key_normalizes_order_case_and_duplicates() {
        let a = IndexKey::new(&["Bob".into(), "alice".into(), "BOB".into()], 42);
        let b = IndexKey::new(&["alice".into(), "bob".into()], 42);
        assert_eq!(a, b);
        let c = IndexKey::new(&["alice".into(), "bob".into()], 43);
        assert_ne!(a, c);
    }

    #[test]
    fn answer_key_is_order_sensitive() {
        let ab = AnswerKey::new(&["a".into(), "b".into()], 5.0, 3);
        let ba = AnswerKey::new(&["b".into(), "a".into()], 5.0, 3);
        assert_ne!(ab, ba, "cores are position-wise; order is significant");
        let ab2 = AnswerKey::new(&["A".into(), "B".into()], 5.0, 3);
        assert_eq!(ab, ab2, "case is not significant");
    }
}
