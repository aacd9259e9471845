//! A classic Fibonacci heap (Fredman & Tarjan) with `O(1)` amortized
//! `push`/`decrease_key`/`meld` and `O(log n)` amortized `pop_min`.
//!
//! The ICDE'09 community-search paper uses a Fibonacci heap to order the
//! *can-list* of core candidates in `COMM-k` (its Algorithm 5 relies on
//! `enheap` being `O(1)` and `deheap` being `O(log(p·l))`), and the same
//! structure doubles as a priority queue for Dijkstra with decrease-key.
//!
//! Nodes live in a slab arena; [`FibHeap::push`] returns a [`NodeRef`]
//! handle that stays valid until the node is popped or the heap cleared.
//! Handles are generation-checked, so using a stale handle returns an error
//! instead of corrupting the heap.
//!
//! # Example
//! ```
//! use comm_fibheap::FibHeap;
//!
//! let mut h = FibHeap::new();
//! let a = h.push(5u64, "a");
//! let _b = h.push(3, "b");
//! h.decrease_key(a, 1).unwrap();
//! assert_eq!(h.pop_min().map(|(k, v)| (k, v)), Some((1, "a")));
//! assert_eq!(h.pop_min().map(|(k, v)| (k, v)), Some((3, "b")));
//! assert!(h.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Sentinel for "no node".
const NIL: u32 = u32::MAX;

/// A handle to a live heap node, returned by [`FibHeap::push`].
///
/// The handle is invalidated when its node is popped; a stale handle is
/// detected via a generation counter and rejected by the mutating methods.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef {
    slot: u32,
    gen: u32,
}

impl NodeRef {
    /// Translates a handle issued by a heap that was later melded *into*
    /// another heap (see [`FibHeap::meld`]): pass the slot offset `meld`
    /// returned. Handles of the receiving heap stay valid unchanged.
    ///
    /// An offset that would overflow the slot space yields a handle that
    /// fails the staleness check instead of aliasing another node.
    #[must_use]
    pub fn rebased(self, offset: u32) -> NodeRef {
        NodeRef {
            slot: self.slot.checked_add(offset).unwrap_or(NIL),
            gen: self.gen,
        }
    }
}

impl fmt::Debug for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeRef({}@{})", self.slot, self.gen)
    }
}

/// Errors returned by handle-based operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// The handle refers to a node that was already removed.
    StaleHandle,
    /// `decrease_key` was called with a key greater than the current key.
    KeyNotDecreased,
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::StaleHandle => write!(f, "stale Fibonacci-heap handle"),
            HeapError::KeyNotDecreased => {
                write!(f, "decrease_key called with a larger key")
            }
        }
    }
}

impl std::error::Error for HeapError {}

/// A violated structural invariant, reported by [`FibHeap::validate`].
///
/// Each variant is one independent invariant class, so tests can corrupt a
/// heap in a specific way and assert the matching diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapInvariantError {
    /// A sibling ring is broken: a pointer leaves the arena, lands on a
    /// retired slot, or left/right are not mutual.
    BrokenRing {
        /// The slot at which the defect was detected.
        slot: u32,
        /// What exactly is wrong with the ring there.
        detail: &'static str,
    },
    /// A node is reachable through two different paths (trees must be
    /// disjoint).
    NodeRevisited {
        /// The doubly-reached slot.
        slot: u32,
    },
    /// A child's key is smaller than its parent's (min-heap order).
    HeapOrderViolation {
        /// The parent slot.
        parent: u32,
        /// The offending child slot.
        child: u32,
    },
    /// A node's stored degree disagrees with its actual child count.
    WrongDegree {
        /// The slot with the bad degree.
        slot: u32,
        /// The stored degree.
        stored: u32,
        /// The number of children actually present.
        actual: usize,
    },
    /// A node's parent pointer does not match the tree it sits in (root
    /// with a parent, or child pointing at the wrong parent).
    WrongParentPointer {
        /// The slot with the bad parent pointer.
        slot: u32,
    },
    /// A root is marked; this implementation clears marks on every path to
    /// the root ring, so a marked root means lost bookkeeping.
    MarkedRoot {
        /// The marked root slot.
        slot: u32,
    },
    /// A node's degree exceeds the Fibonacci bound `log_φ(len)`.
    DegreeBoundExceeded {
        /// The slot with the oversized degree.
        slot: u32,
        /// Its stored degree.
        degree: u32,
        /// The heap size bounding the degree.
        len: usize,
    },
    /// A subtree is smaller than `F(degree + 2)` — the size lower bound
    /// that makes Fibonacci-heap amortization work.
    SubtreeTooSmall {
        /// The subtree's root slot.
        slot: u32,
        /// Its degree.
        degree: u32,
        /// The actual subtree size.
        size: usize,
    },
    /// `len`, the number of live slots, and the number of reachable nodes
    /// disagree.
    LengthMismatch {
        /// The stored `len`.
        stored: usize,
        /// The count actually found.
        found: usize,
        /// Which count disagreed ("live slots" or "reachable nodes").
        what: &'static str,
    },
    /// The free list and the set of retired slots disagree.
    FreeListCorrupt {
        /// What exactly is wrong.
        detail: &'static str,
    },
    /// `min` does not point at a smallest-key root.
    MinNotMinimum {
        /// The root whose key undercuts `min`'s.
        better: u32,
    },
}

impl fmt::Display for HeapInvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapInvariantError::BrokenRing { slot, detail } => {
                write!(f, "broken sibling ring at slot {slot}: {detail}")
            }
            HeapInvariantError::NodeRevisited { slot } => {
                write!(f, "slot {slot} is reachable via two paths")
            }
            HeapInvariantError::HeapOrderViolation { parent, child } => {
                write!(f, "child {child} has a smaller key than parent {parent}")
            }
            HeapInvariantError::WrongDegree {
                slot,
                stored,
                actual,
            } => write!(
                f,
                "slot {slot} stores degree {stored} but has {actual} children"
            ),
            HeapInvariantError::WrongParentPointer { slot } => {
                write!(f, "slot {slot} has a wrong parent pointer")
            }
            HeapInvariantError::MarkedRoot { slot } => {
                write!(f, "root {slot} is marked")
            }
            HeapInvariantError::DegreeBoundExceeded { slot, degree, len } => {
                write!(
                    f,
                    "slot {slot} has degree {degree}, above the Fibonacci bound for len {len}"
                )
            }
            HeapInvariantError::SubtreeTooSmall { slot, degree, size } => {
                write!(
                    f,
                    "subtree at slot {slot} has degree {degree} but only {size} nodes"
                )
            }
            HeapInvariantError::LengthMismatch {
                stored,
                found,
                what,
            } => write!(f, "len is {stored} but found {found} {what}"),
            HeapInvariantError::FreeListCorrupt { detail } => {
                write!(f, "free list corrupt: {detail}")
            }
            HeapInvariantError::MinNotMinimum { better } => {
                write!(f, "min pointer skips the smaller-keyed root {better}")
            }
        }
    }
}

impl std::error::Error for HeapInvariantError {}

struct Node<K, V> {
    /// `Some` while the node is live; taken on pop so slots stay stable
    /// (handle slots are never relocated).
    data: Option<(K, V)>,
    parent: u32,
    child: u32,
    left: u32,
    right: u32,
    degree: u32,
    gen: u32,
    mark: bool,
}

/// A min-ordered Fibonacci heap mapping keys `K` to payloads `V`.
pub struct FibHeap<K, V> {
    nodes: Vec<Node<K, V>>,
    free: Vec<u32>,
    min: u32,
    len: usize,
}

impl<K: Ord, V> Default for FibHeap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> FibHeap<K, V> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        FibHeap {
            nodes: Vec::new(),
            free: Vec::new(),
            min: NIL,
            len: 0,
        }
    }

    /// Creates an empty heap with room for `cap` nodes.
    pub fn with_capacity(cap: usize) -> Self {
        FibHeap {
            nodes: Vec::with_capacity(cap),
            free: Vec::new(),
            min: NIL,
            len: 0,
        }
    }

    /// Number of elements currently in the heap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every element. Outstanding handles all become stale.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.min = NIL;
        self.len = 0;
    }

    fn alloc(&mut self, key: K, value: V) -> u32 {
        if let Some(slot) = self.free.pop() {
            let gen = self.nodes[slot as usize].gen;
            self.nodes[slot as usize] = Node {
                data: Some((key, value)),
                parent: NIL,
                child: NIL,
                left: slot,
                right: slot,
                degree: 0,
                gen,
                mark: false,
            };
            slot
        } else {
            let slot = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&s| s != NIL)
                // xtask-allow: no_panics — NodeRef slots are u32 with NIL = u32::MAX; a larger arena is unsupported
                .expect("fibheap arena exceeds the u32 slot space");
            self.nodes.push(Node {
                data: Some((key, value)),
                parent: NIL,
                child: NIL,
                left: slot,
                right: slot,
                degree: 0,
                gen: 0,
                mark: false,
            });
            slot
        }
    }

    #[inline]
    fn key_of(&self, i: u32) -> &K {
        // xtask-allow: no_panics — key_of is only called on nodes reachable from the root/child rings, which are live
        &self.nodes[i as usize].data.as_ref().expect("live node").0
    }

    /// Splices node `x` (a singleton ring) into the ring containing `at`.
    fn splice_into_ring(&mut self, at: u32, x: u32) {
        let at_right = self.nodes[at as usize].right;
        self.nodes[x as usize].left = at;
        self.nodes[x as usize].right = at_right;
        self.nodes[at as usize].right = x;
        self.nodes[at_right as usize].left = x;
    }

    /// Unlinks node `x` from its sibling ring, leaving it a singleton.
    fn unlink(&mut self, x: u32) {
        let l = self.nodes[x as usize].left;
        let r = self.nodes[x as usize].right;
        self.nodes[l as usize].right = r;
        self.nodes[r as usize].left = l;
        self.nodes[x as usize].left = x;
        self.nodes[x as usize].right = x;
    }

    /// Inserts `(key, value)` and returns a handle to the new node.
    /// Amortized `O(1)`.
    pub fn push(&mut self, key: K, value: V) -> NodeRef {
        let slot = self.alloc(key, value);
        if self.min == NIL {
            self.min = slot;
        } else {
            self.splice_into_ring(self.min, slot);
            if self.key_of(slot) < self.key_of(self.min) {
                self.min = slot;
            }
        }
        self.len += 1;
        NodeRef {
            slot,
            gen: self.nodes[slot as usize].gen,
        }
    }

    /// Returns the minimum key/value without removing it.
    pub fn peek_min(&self) -> Option<(&K, &V)> {
        if self.min == NIL {
            None
        } else {
            let (k, v) = self.nodes[self.min as usize].data.as_ref()?;
            Some((k, v))
        }
    }

    fn check(&self, r: NodeRef) -> Result<(), HeapError> {
        let n = self
            .nodes
            .get(r.slot as usize)
            .ok_or(HeapError::StaleHandle)?;
        if n.data.is_none() || n.gen != r.gen {
            return Err(HeapError::StaleHandle);
        }
        Ok(())
    }

    /// Reads the key of a live node.
    pub fn key(&self, r: NodeRef) -> Result<&K, HeapError> {
        self.check(r)?;
        Ok(self.key_of(r.slot))
    }

    /// Reads the payload of a live node.
    pub fn value(&self, r: NodeRef) -> Result<&V, HeapError> {
        self.check(r)?;
        Ok(&self.nodes[r.slot as usize]
            .data
            .as_ref()
            // xtask-allow: no_panics — check() verified the handle, so the slot is live
            .expect("live node")
            .1)
    }

    /// Cuts `x` from its parent and moves it to the root ring.
    fn cut(&mut self, x: u32, parent: u32) {
        // Fix parent's child pointer / degree.
        if self.nodes[parent as usize].child == x {
            let r = self.nodes[x as usize].right;
            self.nodes[parent as usize].child = if r == x { NIL } else { r };
        }
        self.unlink(x);
        self.nodes[parent as usize].degree -= 1;
        self.nodes[x as usize].parent = NIL;
        self.nodes[x as usize].mark = false;
        self.splice_into_ring(self.min, x);
    }

    fn cascading_cut(&mut self, mut y: u32) {
        loop {
            let p = self.nodes[y as usize].parent;
            if p == NIL {
                return;
            }
            if !self.nodes[y as usize].mark {
                self.nodes[y as usize].mark = true;
                return;
            }
            self.cut(y, p);
            y = p;
        }
    }

    /// Lowers the key of the node behind `r` to `new_key`.
    /// Amortized `O(1)`. Fails if the handle is stale or the key larger.
    pub fn decrease_key(&mut self, r: NodeRef, new_key: K) -> Result<(), HeapError> {
        self.check(r)?;
        let x = r.slot;
        if &new_key > self.key_of(x) {
            return Err(HeapError::KeyNotDecreased);
        }
        // xtask-allow: no_panics — check() verified the handle, so the slot is live
        self.nodes[x as usize].data.as_mut().expect("live node").0 = new_key;
        let parent = self.nodes[x as usize].parent;
        if parent != NIL && self.key_of(x) < self.key_of(parent) {
            self.cut(x, parent);
            self.cascading_cut(parent);
        }
        if self.key_of(x) < self.key_of(self.min) {
            self.min = x;
        }
        Ok(())
    }

    /// Removes and returns the minimum `(key, value)`.
    /// Amortized `O(log n)`.
    pub fn pop_min(&mut self) -> Option<(K, V)> {
        if self.min == NIL {
            return None;
        }
        let z = self.min;

        // Promote z's children to the root ring.
        let mut child = self.nodes[z as usize].child;
        while child != NIL {
            let next = {
                let r = self.nodes[child as usize].right;
                if r == child {
                    NIL
                } else {
                    r
                }
            };
            self.unlink(child);
            self.nodes[child as usize].parent = NIL;
            self.nodes[child as usize].mark = false;
            self.splice_into_ring(z, child);
            child = next;
        }
        self.nodes[z as usize].child = NIL;

        // Remove z from the root ring.
        let ring_rest = {
            let r = self.nodes[z as usize].right;
            if r == z {
                NIL
            } else {
                r
            }
        };
        self.unlink(z);
        self.len -= 1;

        if ring_rest == NIL {
            self.min = NIL;
        } else {
            self.min = ring_rest;
            self.consolidate(ring_rest);
        }

        // Retire slot z: take the payload, bump the generation so stale
        // handles are detected, and recycle the slot.
        let node = &mut self.nodes[z as usize];
        // xtask-allow: no_panics — min was reachable, hence live; pop transitions it to retired exactly once
        let data = node.data.take().expect("popped node was live");
        node.gen = node.gen.wrapping_add(1);
        self.free.push(z);
        Some(data)
    }

    fn consolidate(&mut self, start: u32) {
        // Collect roots first (the ring is mutated during linking).
        let mut roots = Vec::new();
        let mut cur = start;
        loop {
            roots.push(cur);
            cur = self.nodes[cur as usize].right;
            if cur == start {
                break;
            }
        }

        let max_degree = 2 + (usize::BITS - (self.len.max(1)).leading_zeros()) as usize * 2;
        let mut by_degree: Vec<u32> = vec![NIL; max_degree + 2];

        for mut x in roots {
            let mut d = self.nodes[x as usize].degree as usize;
            while by_degree[d] != NIL {
                let mut y = by_degree[d];
                by_degree[d] = NIL;
                if self.key_of(y) < self.key_of(x) {
                    std::mem::swap(&mut x, &mut y);
                }
                // Link y under x.
                self.unlink(y);
                self.nodes[y as usize].parent = x;
                self.nodes[y as usize].mark = false;
                let c = self.nodes[x as usize].child;
                if c == NIL {
                    self.nodes[x as usize].child = y;
                } else {
                    self.splice_into_ring(c, y);
                }
                self.nodes[x as usize].degree += 1;
                d += 1;
            }
            by_degree[d] = x;
        }

        // Find new min among the remaining roots.
        let mut min = NIL;
        for &root in by_degree.iter() {
            if root == NIL {
                continue;
            }
            if min == NIL || self.key_of(root) < self.key_of(min) {
                min = root;
            }
        }
        self.min = min;
    }

    /// Merges `other` into `self` in `O(other.arena)` time (no comparisons
    /// beyond the two minima; the root rings are spliced, as in the
    /// textbook `meld`).
    ///
    /// Returns the slot offset by which `other`'s nodes were shifted:
    /// handles issued by `other` stay usable against `self` after
    /// [`NodeRef::rebased`]`(offset)`.
    pub fn meld(&mut self, other: FibHeap<K, V>) -> u32 {
        let offset = u32::try_from(self.nodes.len())
            .ok()
            .filter(|o| (*o as usize) + other.nodes.len() <= NIL as usize)
            // xtask-allow: no_panics — NodeRef slots are u32 with NIL = u32::MAX; a larger combined arena is unsupported
            .expect("melded fibheap arenas exceed the u32 slot space");
        let shift = |p: u32| if p == NIL { NIL } else { p + offset };
        for n in other.nodes {
            self.nodes.push(Node {
                data: n.data,
                parent: shift(n.parent),
                child: shift(n.child),
                left: shift(n.left),
                right: shift(n.right),
                degree: n.degree,
                gen: n.gen,
                mark: n.mark,
            });
        }
        self.free.extend(other.free.iter().map(|&s| s + offset));
        let other_min = shift(other.min);
        if other_min != NIL {
            if self.min == NIL {
                self.min = other_min;
            } else {
                // Splice the two root rings: cut each ring open after its
                // min and cross-link the loose ends.
                let a = self.min;
                let b = other_min;
                let ar = self.nodes[a as usize].right;
                let br = self.nodes[b as usize].right;
                self.nodes[a as usize].right = br;
                self.nodes[br as usize].left = a;
                self.nodes[b as usize].right = ar;
                self.nodes[ar as usize].left = b;
                if self.key_of(b) < self.key_of(a) {
                    self.min = b;
                }
            }
        }
        self.len += other.len;
        offset
    }

    /// Fetches a node for validation, diagnosing out-of-arena pointers and
    /// links to retired slots.
    fn live_node(&self, slot: u32) -> Result<&Node<K, V>, HeapInvariantError> {
        let n = self
            .nodes
            .get(slot as usize)
            .ok_or(HeapInvariantError::BrokenRing {
                slot,
                detail: "pointer leaves the arena",
            })?;
        if n.data.is_none() {
            return Err(HeapInvariantError::BrokenRing {
                slot,
                detail: "pointer lands on a retired slot",
            });
        }
        Ok(n)
    }

    /// Walks the sibling ring starting at `start`, checking left/right
    /// mutuality and liveness, and returns the ring's members.
    fn collect_ring(&self, start: u32) -> Result<Vec<u32>, HeapInvariantError> {
        let mut out = Vec::new();
        let mut cur = start;
        loop {
            let n = self.live_node(cur)?;
            let right = n.right;
            let rnode = self.live_node(right)?;
            if rnode.left != cur {
                return Err(HeapInvariantError::BrokenRing {
                    slot: cur,
                    detail: "left/right pointers are not mutual",
                });
            }
            out.push(cur);
            if out.len() > self.nodes.len() {
                return Err(HeapInvariantError::BrokenRing {
                    slot: start,
                    detail: "ring does not close",
                });
            }
            cur = right;
            if cur == start {
                return Ok(out);
            }
        }
    }

    /// Checks every structural invariant of the heap in `O(n)`:
    ///
    /// 1. `len` equals the number of live slots *and* of nodes reachable
    ///    from the root ring;
    /// 2. the free list holds exactly the retired slots, without
    ///    duplicates;
    /// 3. every sibling ring is mutually linked and closes;
    /// 4. every tree is parent-consistent, min-heap ordered, and each
    ///    node's stored degree equals its child count;
    /// 5. no root is marked (every path to the root ring clears marks in
    ///    this implementation);
    /// 6. degrees respect the Fibonacci bound and every subtree of degree
    ///    `d` holds at least `F(d + 2)` nodes;
    /// 7. `min` points at a smallest-key root.
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), HeapInvariantError> {
        let live = self.nodes.iter().filter(|n| n.data.is_some()).count();
        if live != self.len {
            return Err(HeapInvariantError::LengthMismatch {
                stored: self.len,
                found: live,
                what: "live slots",
            });
        }
        let mut on_free = vec![false; self.nodes.len()];
        for &s in &self.free {
            match self.nodes.get(s as usize) {
                None => {
                    return Err(HeapInvariantError::FreeListCorrupt {
                        detail: "free slot outside the arena",
                    })
                }
                Some(n) if n.data.is_some() => {
                    return Err(HeapInvariantError::FreeListCorrupt {
                        detail: "free slot is live",
                    })
                }
                Some(_) => {}
            }
            if on_free[s as usize] {
                return Err(HeapInvariantError::FreeListCorrupt {
                    detail: "slot listed twice",
                });
            }
            on_free[s as usize] = true;
        }
        if self.free.len() != self.nodes.len() - live {
            return Err(HeapInvariantError::FreeListCorrupt {
                detail: "retired slot missing from the free list",
            });
        }
        if self.min == NIL {
            return if self.len == 0 {
                Ok(())
            } else {
                Err(HeapInvariantError::LengthMismatch {
                    stored: self.len,
                    found: 0,
                    what: "reachable nodes",
                })
            };
        }

        // Smallest subtree size per degree: need[d] = F(d + 2).
        let mut need: Vec<usize> = vec![1, 2];
        while *need.last().unwrap_or(&usize::MAX) <= self.len {
            let k = need.len();
            need.push(need[k - 1].saturating_add(need[k - 2]));
        }
        let min_size = |d: u32| need.get(d as usize).copied().unwrap_or(usize::MAX);

        let roots = self.collect_ring(self.min)?;
        for &r in &roots {
            let n = &self.nodes[r as usize];
            if n.parent != NIL {
                return Err(HeapInvariantError::WrongParentPointer { slot: r });
            }
            if n.mark {
                return Err(HeapInvariantError::MarkedRoot { slot: r });
            }
            if self.key_of(r) < self.key_of(self.min) {
                return Err(HeapInvariantError::MinNotMinimum { better: r });
            }
        }

        // DFS every tree, collecting a pre-order so subtree sizes can be
        // accumulated leaf-to-root afterwards.
        let mut visited = vec![false; self.nodes.len()];
        let mut order: Vec<u32> = Vec::with_capacity(self.len);
        let mut stack: Vec<u32> = roots.clone();
        for &r in &roots {
            if visited[r as usize] {
                return Err(HeapInvariantError::NodeRevisited { slot: r });
            }
            visited[r as usize] = true;
        }
        while let Some(x) = stack.pop() {
            order.push(x);
            let n = &self.nodes[x as usize];
            let kids = if n.child == NIL {
                Vec::new()
            } else {
                self.collect_ring(n.child)?
            };
            if kids.len() != n.degree as usize {
                return Err(HeapInvariantError::WrongDegree {
                    slot: x,
                    stored: n.degree,
                    actual: kids.len(),
                });
            }
            if min_size(n.degree) > self.len {
                return Err(HeapInvariantError::DegreeBoundExceeded {
                    slot: x,
                    degree: n.degree,
                    len: self.len,
                });
            }
            for &c in &kids {
                if visited[c as usize] {
                    return Err(HeapInvariantError::NodeRevisited { slot: c });
                }
                visited[c as usize] = true;
                if self.nodes[c as usize].parent != x {
                    return Err(HeapInvariantError::WrongParentPointer { slot: c });
                }
                if self.key_of(c) < self.key_of(x) {
                    return Err(HeapInvariantError::HeapOrderViolation {
                        parent: x,
                        child: c,
                    });
                }
                stack.push(c);
            }
        }
        if order.len() != self.len {
            return Err(HeapInvariantError::LengthMismatch {
                stored: self.len,
                found: order.len(),
                what: "reachable nodes",
            });
        }

        let mut size = vec![1usize; self.nodes.len()];
        for &x in order.iter().rev() {
            let p = self.nodes[x as usize].parent;
            if p != NIL {
                size[p as usize] += size[x as usize];
            }
        }
        for &x in &order {
            let d = self.nodes[x as usize].degree;
            if size[x as usize] < min_size(d) {
                return Err(HeapInvariantError::SubtreeTooSmall {
                    slot: x,
                    degree: d,
                    size: size[x as usize],
                });
            }
        }
        Ok(())
    }

    /// Drains the heap in ascending key order.
    pub fn into_sorted_vec(mut self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(kv) = self.pop_min() {
            out.push(kv);
        }
        out
    }
}

impl<K: Ord + fmt::Debug, V> fmt::Debug for FibHeap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FibHeap(len={}", self.len)?;
        if let Some((k, _)) = self.peek_min() {
            write!(f, ", min={k:?}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_heap() {
        let mut h: FibHeap<u32, ()> = FibHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.peek_min(), None);
        assert_eq!(h.pop_min(), None);
    }

    #[test]
    fn push_pop_ordering() {
        let mut h = FibHeap::new();
        for k in [5, 1, 4, 2, 3] {
            h.push(k, k * 10);
        }
        assert_eq!(h.len(), 5);
        let out: Vec<_> = h.into_sorted_vec();
        assert_eq!(out, vec![(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)]);
    }

    #[test]
    fn duplicate_keys() {
        let mut h = FibHeap::new();
        h.push(1, "a");
        h.push(1, "b");
        h.push(0, "c");
        assert_eq!(h.pop_min().unwrap().0, 0);
        assert_eq!(h.pop_min().unwrap().0, 1);
        assert_eq!(h.pop_min().unwrap().0, 1);
    }

    #[test]
    fn decrease_key_moves_to_front() {
        let mut h = FibHeap::new();
        let _a = h.push(10, "a");
        let b = h.push(20, "b");
        h.push(5, "c");
        // Force some tree structure.
        assert_eq!(h.pop_min().unwrap().1, "c");
        h.decrease_key(b, 1).unwrap();
        assert_eq!(h.pop_min().unwrap(), (1, "b"));
        assert_eq!(h.pop_min().unwrap(), (10, "a"));
    }

    #[test]
    fn decrease_key_rejects_increase() {
        let mut h = FibHeap::new();
        let a = h.push(10, ());
        assert_eq!(h.decrease_key(a, 11), Err(HeapError::KeyNotDecreased));
        // Equal key is allowed (no-op).
        assert_eq!(h.decrease_key(a, 10), Ok(()));
    }

    #[test]
    fn stale_handle_detected() {
        let mut h = FibHeap::new();
        let a = h.push(1, ());
        assert_eq!(h.pop_min(), Some((1, ())));
        assert_eq!(h.decrease_key(a, 0), Err(HeapError::StaleHandle));
        assert_eq!(h.key(a), Err(HeapError::StaleHandle));
    }

    #[test]
    fn handle_reads() {
        let mut h = FibHeap::new();
        let a = h.push(7, "x");
        assert_eq!(h.key(a), Ok(&7));
        assert_eq!(h.value(a), Ok(&"x"));
    }

    #[test]
    fn clear_invalidates() {
        let mut h = FibHeap::new();
        let a = h.push(7, "x");
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.key(a), Err(HeapError::StaleHandle));
        // Heap remains usable.
        h.push(3, "y");
        assert_eq!(h.pop_min(), Some((3, "y")));
    }

    #[test]
    fn interleaved_push_pop() {
        let mut h = FibHeap::new();
        h.push(4, 4);
        h.push(2, 2);
        assert_eq!(h.pop_min().unwrap().0, 2);
        h.push(1, 1);
        h.push(3, 3);
        assert_eq!(h.pop_min().unwrap().0, 1);
        assert_eq!(h.pop_min().unwrap().0, 3);
        assert_eq!(h.pop_min().unwrap().0, 4);
        assert!(h.pop_min().is_none());
    }

    #[test]
    fn slot_reuse_after_pop() {
        let mut h = FibHeap::new();
        for i in 0..100 {
            h.push(i, i);
        }
        for i in 0..50 {
            assert_eq!(h.pop_min().unwrap().0, i);
        }
        for i in 0..50 {
            h.push(i, i);
        }
        let out = h.into_sorted_vec();
        let keys: Vec<_> = out.iter().map(|&(k, _)| k).collect();
        let mut expect: Vec<_> = (0..50).chain(50..100).collect();
        expect.sort_unstable();
        assert_eq!(keys, expect);
    }

    #[test]
    fn heap_sort_large_random() {
        // Deterministic LCG so the test needs no rand dependency wiring here.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut h = FibHeap::new();
        let mut keys = Vec::new();
        // Miri runs the same logic at a size it can interpret in seconds.
        let count = if cfg!(miri) { 300 } else { 5000 };
        for _ in 0..count {
            let k = next() % 10_000;
            keys.push(k);
            h.push(k, ());
        }
        keys.sort_unstable();
        let drained: Vec<u32> = h.into_sorted_vec().into_iter().map(|(k, _)| k).collect();
        assert_eq!(drained, keys);
    }

    #[test]
    fn decrease_key_stress_matches_reference() {
        // Mirror operations against a simple sorted-vec reference model.
        let mut state = 0xDEAD_BEEF_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut h = FibHeap::new();
        let mut live: Vec<(NodeRef, u32)> = Vec::new();
        let mut model: Vec<u32> = Vec::new();
        let steps = if cfg!(miri) { 500 } else { 20_000u32 };
        for step in 0..steps {
            match next() % 4 {
                0 | 1 => {
                    let k = next() % 1_000_000;
                    let r = h.push(k, step);
                    live.push((r, k));
                    model.push(k);
                }
                2 if !live.is_empty() => {
                    let i = (next() as usize) % live.len();
                    let (r, old) = live[i];
                    let nk = old / 2;
                    if h.decrease_key(r, nk).is_ok() {
                        live[i].1 = nk;
                        let pos = model.iter().position(|&m| m == old).unwrap();
                        model[pos] = nk;
                    }
                }
                _ => {
                    let got = h.pop_min().map(|(k, _)| k);
                    model.sort_unstable();
                    let want = if model.is_empty() {
                        None
                    } else {
                        Some(model.remove(0))
                    };
                    assert_eq!(got, want, "mismatch at step {step}");
                    if let Some(k) = got {
                        // Drop one matching live handle (it is now stale).
                        if let Some(p) = live.iter().position(|&(_, lk)| lk == k) {
                            live.swap_remove(p);
                        }
                    }
                }
            }
            assert_eq!(h.len(), model.len());
        }
    }

    #[test]
    fn validate_accepts_evolving_heap() {
        let mut h = FibHeap::new();
        h.validate().unwrap();
        let mut handles = Vec::new();
        for k in [9, 3, 7, 1, 8, 2, 6, 4, 5, 0] {
            handles.push(h.push(k, k));
            h.validate().unwrap();
        }
        h.pop_min();
        h.validate().unwrap();
        h.decrease_key(handles[2], 0).unwrap();
        h.validate().unwrap();
        while h.pop_min().is_some() {
            h.validate().unwrap();
        }
    }

    /// Builds a heap with real tree structure (a pop forces consolidation).
    fn consolidated(n: u32) -> FibHeap<u32, u32> {
        let mut h = FibHeap::new();
        for k in 0..n {
            h.push(k, k);
        }
        h.pop_min();
        h
    }

    #[test]
    fn validate_detects_marked_root() {
        let mut h = consolidated(8);
        let root = h.min;
        h.nodes[root as usize].mark = true;
        assert_eq!(
            h.validate(),
            Err(HeapInvariantError::MarkedRoot { slot: root })
        );
    }

    #[test]
    fn validate_detects_heap_order_violation() {
        let mut h = consolidated(8);
        // Find a parent/child pair and invert their keys by hand.
        let (p, c) = h
            .nodes
            .iter()
            .enumerate()
            .find_map(|(i, n)| {
                (n.data.is_some() && n.parent != NIL).then_some((n.parent, i as u32))
            })
            .expect("consolidated heap has at least one child");
        let parent_key = h.key_of(p).to_owned();
        h.nodes[c as usize].data.as_mut().unwrap().0 = parent_key - 1;
        assert!(matches!(
            h.validate(),
            Err(HeapInvariantError::HeapOrderViolation { .. })
        ));
    }

    #[test]
    fn validate_detects_wrong_degree() {
        let mut h = consolidated(8);
        let root = h.min;
        h.nodes[root as usize].degree += 1;
        assert!(matches!(
            h.validate(),
            Err(HeapInvariantError::WrongDegree { .. })
                | Err(HeapInvariantError::DegreeBoundExceeded { .. })
        ));
    }

    #[test]
    fn validate_detects_length_mismatch() {
        let mut h = consolidated(8);
        h.len += 1;
        assert!(matches!(
            h.validate(),
            Err(HeapInvariantError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn validate_detects_broken_ring() {
        let mut h = FibHeap::new();
        h.push(1, ());
        h.push(2, ());
        h.push(3, ());
        // Snap one root's left pointer.
        let r = h.nodes[h.min as usize].right;
        h.nodes[r as usize].left = r;
        assert!(matches!(
            h.validate(),
            Err(HeapInvariantError::BrokenRing { .. })
        ));
    }

    #[test]
    fn validate_detects_free_list_corruption() {
        let mut h = consolidated(4);
        // pop_min retired a slot; hide it from the free list.
        assert!(!h.free.is_empty());
        h.free.pop();
        assert_eq!(
            h.validate(),
            Err(HeapInvariantError::FreeListCorrupt {
                detail: "retired slot missing from the free list",
            })
        );
    }

    #[test]
    fn validate_detects_min_not_minimum() {
        let mut h = FibHeap::new();
        h.push(5, ());
        h.push(1, ());
        // Point min at the larger root.
        let wrong = h.nodes[h.min as usize].right;
        h.min = wrong;
        assert!(matches!(
            h.validate(),
            Err(HeapInvariantError::MinNotMinimum { .. })
        ));
    }

    #[test]
    fn meld_merges_and_orders() {
        let mut a = FibHeap::new();
        let mut b = FibHeap::new();
        for k in [5, 1, 9] {
            a.push(k, "a");
        }
        for k in [4, 0, 8] {
            b.push(k, "b");
        }
        let _off = a.meld(b);
        a.validate().unwrap();
        assert_eq!(a.len(), 6);
        let keys: Vec<u32> = a.into_sorted_vec().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![0, 1, 4, 5, 8, 9]);
    }

    #[test]
    fn meld_rebases_handles() {
        let mut a = FibHeap::new();
        a.push(10, "a");
        let mut b = FibHeap::new();
        let hb = b.push(20, "b");
        let off = a.meld(b);
        let hb = hb.rebased(off);
        assert_eq!(a.key(hb), Ok(&20));
        a.decrease_key(hb, 1).unwrap();
        a.validate().unwrap();
        assert_eq!(a.pop_min(), Some((1, "b")));
        assert_eq!(a.key(hb), Err(HeapError::StaleHandle));
    }

    #[test]
    fn meld_with_empty_either_way() {
        let mut a: FibHeap<u32, ()> = FibHeap::new();
        let mut b = FibHeap::new();
        b.push(3, ());
        a.meld(b);
        a.validate().unwrap();
        assert_eq!(a.len(), 1);

        let mut c = FibHeap::new();
        c.push(2, ());
        let d: FibHeap<u32, ()> = FibHeap::new();
        c.meld(d);
        c.validate().unwrap();
        assert_eq!(c.pop_min(), Some((2, ())));
    }

    #[test]
    fn meld_preserves_structure_under_load() {
        let mut a = FibHeap::new();
        let mut b = FibHeap::new();
        let mut expect = Vec::new();
        for k in 0..40u32 {
            let key = (k * 17) % 101;
            expect.push(key);
            if k % 2 == 0 {
                a.push(key, ());
            } else {
                b.push(key, ());
            }
        }
        // Give both heaps tree structure before the meld.
        expect.sort_unstable();
        let la = a.pop_min().unwrap().0;
        let lb = b.pop_min().unwrap().0;
        expect.retain({
            let mut seen = (false, false);
            move |&k| {
                if k == la && !seen.0 {
                    seen.0 = true;
                    false
                } else if k == lb && !seen.1 {
                    seen.1 = true;
                    false
                } else {
                    true
                }
            }
        });
        a.meld(b);
        a.validate().unwrap();
        let keys: Vec<u32> = a.into_sorted_vec().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, expect);
    }
}
