//! Guarded caches: an LRU of [`ProjectionIndex`]es keyed by keyword set,
//! under it a byte-capped LRU of [`KeywordRun`]s keyed by keyword, and a
//! byte-capped answer cache keyed by `(keywords, Rmax)` (the cost function
//! is fixed per engine, so it is not part of the key; neither is `k`).
//!
//! An answer entry ([`AnswerEntry`]) holds the longest complete ranked
//! prefix computed for its key and the parked `COMM-k` that produced it
//! ([`ParkedTopK`]): a request for `k ≤ len` is a slice of the prefix, one
//! for `k > len` resumes the parked can-list and pays only for the
//! communities past `len`. An index entry ([`IndexEntry`]) also records
//! the deepest `k` a resume over its keyword set asked for, which later
//! enumerations over the set read ahead to.
//!
//! All three hold `Arc`s, so a hit never copies the cached structure and
//! an eviction never invalidates an in-flight reader. That holds inside
//! an answer entry too: a [`Community`] is a handle to one immutable,
//! `Arc`'d body, so a slice copies one pointer per community, and the
//! entry, its replies and the enumeration that filled it share the same
//! node lists and subgraphs. Insertion is
//! *guarded*: sweeps, index assembly and enumeration run under the
//! request's [`RunGuard`](comm_graph::RunGuard), and a trip returns
//! **before** the interrupted piece touches a cache — a half-swept run, a
//! half-built `ProjectionIndex` or a can-list left mid-subdivision can
//! never become visible (exercised by the cache-contract tests).
//!
//! One [`Lru`] type serves all three. Its capacity is in units of a
//! *weigher*: the index cache counts entries (every entry weighs 1), the
//! run and answer caches count bytes (a run weighs its
//! [`byte_size`](KeywordRun::byte_size), an answer its communities plus
//! its parked state) — a rare keyword's run is a few hundred bytes and a
//! frequent one's megabytes, so an entry count would bound nothing.
//!
//! The caches are deliberately small and exact. The bit-identical
//! contract — a cached answer must equal the uncached answer bit for bit —
//! holds structurally: a slice replays the stored prefix of a previous
//! `Complete` run, a resume is the same enumeration the uncached path runs
//! (which is itself a resume, from the empty frontier), and the engine is
//! deterministic, so storing the value *is* storing the recomputation.

use comm_core::{Community, KeywordRun, ParkedTopK, ProjectionIndex};
use comm_graph::Weight;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
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
        self.get_if(key, |_| true)
    }

    /// Looks up `key` like [`get`](Self::get), but counts the lookup as a
    /// hit only if `serves` accepts the value found, and as a miss
    /// otherwise. The value found is returned and refreshed either way.
    pub fn get_if(&mut self, key: &K, serves: impl FnOnce(&V) -> bool) -> Option<V> {
        let Some(pos) = self.entries.iter().position(|(k, _)| k == key) else {
            self.misses += 1;
            return None;
        };
        let entry = self.entries.remove(pos);
        let value = entry.1.clone();
        self.entries.insert(0, entry);
        if serves(&value) {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        Some(value)
    }

    /// The value under `key`, without touching recency or the counters.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
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
/// deduplicated, lowercased) plus the index radius. Requests that differ
/// only in keyword order or `k` share one index.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct IndexKey {
    /// Sorted, deduplicated, lowercased keywords.
    pub keywords: Vec<String>,
    /// The index radius.
    pub radius: Weight,
}

impl IndexKey {
    /// Normalizes a request's keywords into a cache key.
    pub fn new(keywords: &[String], radius: Weight) -> IndexKey {
        let mut kws: Vec<String> = keywords.iter().map(|k| k.to_lowercase()).collect();
        kws.sort_unstable();
        kws.dedup();
        IndexKey {
            keywords: kws,
            radius,
        }
    }
}

/// Key of the answer cache. Keyword *order* matters here: cores are
/// position-wise (`c_i` holds keyword `k_i`), so reordering keywords
/// permutes every core. `k` is not part of it: every `k` of one query is a
/// prefix of one ranking, held by one entry.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AnswerKey {
    /// Lowercased keywords in request order.
    pub keywords: Vec<String>,
    /// `Rmax` as the query runs it: two wire radii that round to one
    /// [`Weight`] are one query, and share an entry.
    pub rmax: Weight,
}

impl AnswerKey {
    /// Normalizes a request into an answer-cache key.
    pub fn new(keywords: &[String], rmax: Weight) -> AnswerKey {
        AnswerKey {
            keywords: keywords.iter().map(|k| k.to_lowercase()).collect(),
            rmax,
        }
    }
}

/// One answer-cache entry: the longest complete ranked prefix computed for
/// its key, and the parked enumeration that produced it.
pub struct AnswerEntry {
    /// The first `prefix.len()` communities of the ranking, from a
    /// `Complete` run.
    pub prefix: Vec<Community>,
    /// Where the enumeration stopped; `None` once it is exhausted, when
    /// `prefix` is the whole ranking.
    pub parked: Option<ParkedTopK>,
}

impl AnswerEntry {
    /// Whether the top-`k` answer is a slice of `prefix`.
    pub fn covers(&self, k: usize) -> bool {
        k <= self.prefix.len() || self.parked.is_none()
    }

    /// Whether this entry knows more of the ranking than `old`: a longer
    /// prefix, or the same one known to be the whole ranking. An entry is
    /// only ever replaced by one that extends it.
    pub fn extends(&self, old: &AnswerEntry) -> bool {
        let exhausted = self.parked.is_none() && old.parked.is_some();
        self.prefix.len() > old.prefix.len() || exhausted
    }

    /// Logical bytes held: the entry, its communities and its parked
    /// state — what the answer cache's byte cap is charged. An exhausted
    /// entry with no community still weighs its own struct.
    pub fn byte_size(&self) -> usize {
        let prefix: usize = self.prefix.iter().map(Community::byte_size).sum();
        let parked = self.parked.as_ref().map_or(0, ParkedTopK::byte_size);
        std::mem::size_of::<AnswerEntry>() + prefix + parked
    }
}

/// A cached answer entry, shared by reference.
pub type CachedAnswer = Arc<AnswerEntry>;

/// A projection-index cache entry: the index, and how deep answers over
/// its keyword set have been resumed.
pub struct IndexEntry {
    /// The index, built for the engine's index radius.
    pub index: ProjectionIndex,
    /// The largest `k` a resume over this keyword set asked for, at any
    /// `Rmax`.
    depth: AtomicUsize,
}

impl IndexEntry {
    /// An entry whose keyword set has not been resumed.
    pub fn new(index: ProjectionIndex) -> IndexEntry {
        IndexEntry {
            index,
            depth: AtomicUsize::new(0),
        }
    }

    /// How far an enumeration over this keyword set runs at least: the
    /// deepest `k` a resume of it asked for, 0 if none did.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Records a resume to `k` and returns the depth after it.
    pub fn note_resume(&self, k: usize) -> usize {
        self.depth.fetch_max(k, Ordering::Relaxed).max(k)
    }
}

/// A cached projection index, shared by reference.
pub type CachedIndex = Arc<IndexEntry>;

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
    fn get_if_counts_what_it_serves_and_peek_counts_nothing() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get_if(&1, |v| *v > 10), Some(10)); // found, a miss
        assert_eq!(lru.get_if(&2, |v| *v > 10), Some(20)); // a hit
        assert_eq!(lru.get_if(&3, |_| true), None);
        assert_eq!(lru.stats(), (1, 2));
        assert_eq!(lru.peek(&1), Some(&10));
        assert_eq!(lru.peek(&3), None);
        assert_eq!(lru.stats(), (1, 2));
        lru.insert(3, 30); // 2 was refreshed last, so 1 goes
        assert_eq!(lru.peek(&1), None);
    }

    /// An entry of `len` copies of one community of a two-node graph,
    /// parked unless `exhausted`.
    fn entry(len: usize, exhausted: bool) -> AnswerEntry {
        use comm_core::{CommunityBody, Core, CostFn};
        use comm_graph::{EnginePool, GraphBuilder, NodeId, RunGuard};
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), Weight::new(1.0));
        let g = b.build();
        let (guard, a) = (RunGuard::unlimited(), [NodeId(0)]);
        let built = ProjectionIndex::build_guarded(
            &g,
            [("a", &a[..])],
            Weight::new(2.0),
            &guard,
            &EnginePool::new(),
        );
        let index = built.unwrap();
        let one = Weight::new(1.0);
        let parked = ParkedTopK::project(&index, &["a"], one, CostFn::SumDistances, &guard);
        let c = Community::new(CommunityBody {
            core: Core(vec![NodeId(0)]),
            cost: Weight::ZERO,
            centers: vec![NodeId(0)],
            knodes: vec![NodeId(0)],
            path_nodes: Vec::new(),
            subgraph: g.induce(&[NodeId(0)]),
        });
        AnswerEntry {
            prefix: vec![c; len],
            parked: (!exhausted).then(|| parked.unwrap()),
        }
    }

    #[test]
    fn an_entry_is_replaced_only_by_one_that_knows_more() {
        let (short, long) = (entry(3, false), entry(5, false));
        assert!(long.extends(&short));
        assert!(
            !short.extends(&long),
            "a shorter prefix never replaces a longer one"
        );
        assert!(!short.extends(&entry(3, false)));
        // The same prefix, now known to be the whole ranking.
        let whole = entry(3, true);
        assert!(whole.extends(&short) && !short.extends(&whole));
        assert!(whole.covers(100) && short.covers(3) && !short.covers(4));
        assert!(long.byte_size() > short.byte_size() && short.byte_size() > whole.byte_size());
    }

    #[test]
    fn index_key_normalizes_order_case_and_duplicates() {
        let r = Weight::new;
        let a = IndexKey::new(&["Bob".into(), "alice".into(), "BOB".into()], r(4.2));
        let b = IndexKey::new(&["alice".into(), "bob".into()], r(4.2));
        assert_eq!(a, b);
        let c = IndexKey::new(&["alice".into(), "bob".into()], r(4.3));
        assert_ne!(a, c);
    }

    #[test]
    fn answer_key_is_order_sensitive() {
        let five = Weight::new(5.0);
        let ab = AnswerKey::new(&["a".into(), "b".into()], five);
        let ba = AnswerKey::new(&["b".into(), "a".into()], five);
        assert_ne!(ab, ba, "cores are position-wise; order is significant");
        let ab2 = AnswerKey::new(&["A".into(), "B".into()], five);
        assert_eq!(ab, ab2, "case is not significant");
    }
}
