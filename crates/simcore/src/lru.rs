//! An O(1) LRU set used to model on-chip metadata caches.
//!
//! The RNIC's SRAM holds translation-table entries and QP contexts; the
//! simulator only needs to know *whether* a lookup hits, so this is an LRU
//! **set** of `u64` keys (page numbers, QP ids) rather than a map.
//!
//! # Storage layout
//!
//! The set is the simulator's innermost hot structure — every simulated
//! verb touches it several times (QPC + one entry per translated page) —
//! so it avoids `HashMap` entirely: a `SipHash` invocation per access
//! costs more than the rest of the bookkeeping combined. Instead it keeps
//!
//! * a slab of nodes forming an intrusive doubly linked recency list
//!   (`head` = MRU, `tail` = LRU), and
//! * an open-addressed index: a power-of-two table of node indices probed
//!   linearly from a multiplicative (Fibonacci) hash of the key, with
//!   backward-shift deletion so no tombstones accumulate.
//!
//! The table is kept at most half full and grows by doubling while the
//! set fills; once the set reaches its fixed capacity the table size is
//! stable and `access` performs **no allocation** (the steady-state
//! zero-alloc property the cluster testbed's hot path relies on).

const NIL: u32 = u32::MAX;

/// Fibonacci hashing multiplier (`2^64 / φ`, odd): a single `wrapping_mul`
/// mixes low-entropy keys (page numbers, QP ids) well enough for a
/// half-full linear-probed table.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Clone, Copy)]
struct Node {
    key: u64,
    prev: u32,
    next: u32,
}

/// Fixed-capacity LRU set over `u64` keys.
#[derive(Clone)]
pub struct LruSet {
    capacity: usize,
    /// Open-addressed index: slot → node index, `NIL` when empty. Length
    /// is a power of two, load factor ≤ 1/2.
    table: Box<[u32]>,
    /// `table.len() - 1`, for cheap wraparound.
    mask: usize,
    /// Slot of a key's first probe: the top `log2(table.len())` bits of
    /// the mixed hash, i.e. `mixed >> shift`.
    shift: u32,
    nodes: Vec<Node>,
    free: Vec<u32>,
    len: usize,
    head: u32, // most recently used
    tail: u32, // least recently used
    hits: u64,
    misses: u64,
}

impl LruSet {
    /// An empty set that holds at most `capacity ≥ 1` keys.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LruSet capacity must be at least 1");
        // Start at 8 slots whatever the capacity and double while filling:
        // the index costs what the set holds, not what it could hold, so a
        // fleet of mostly idle NIC caches stays cheap.
        let table_len = 8;
        LruSet {
            capacity,
            table: vec![NIL; table_len].into_boxed_slice(),
            mask: table_len - 1,
            shift: 64 - table_len.trailing_zeros(),
            nodes: Vec::new(),
            free: Vec::new(),
            len: 0,
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Touch `key`: returns `true` on hit. On miss the key is inserted,
    /// evicting the least-recently-used key if at capacity. Either way the
    /// key ends up most-recently-used.
    pub fn access(&mut self, key: u64) -> bool {
        // MRU fast path: repeated touches of the hottest key (sequential
        // page runs, one active QP) skip even the index probe. Semantics
        // are unchanged — moving the head to the front is a no-op.
        if self.head != NIL && self.nodes[self.head as usize].key == key {
            self.hits += 1;
            return true;
        }
        match self.find_slot(key) {
            Some(slot) => {
                self.hits += 1;
                let idx = self.table[slot];
                self.move_to_front(idx);
                true
            }
            None => {
                self.misses += 1;
                self.insert_front(key);
                false
            }
        }
    }

    /// Hit test without updating recency or statistics.
    pub fn contains(&self, key: u64) -> bool {
        self.find_slot(key).is_some()
    }

    /// Insert without counting a miss (e.g. warming the cache).
    pub fn warm(&mut self, key: u64) {
        match self.find_slot(key) {
            Some(slot) => {
                let idx = self.table[slot];
                self.move_to_front(idx);
            }
            None => self.insert_front(key),
        }
    }

    /// Whether `key` is the most-recently-used resident key. Fast paths
    /// (translation memos, same-QP doorbell batches) use this to prove
    /// that a full `access` would hit *and* leave recency unchanged, then
    /// account the hit via [`record_hits`](Self::record_hits).
    pub fn is_mru(&self, key: u64) -> bool {
        self.head != NIL && self.nodes[self.head as usize].key == key
    }

    /// Count `n` hits without touching the structure. Only valid when the
    /// caller has proved the accesses would hit with unchanged recency
    /// (see [`is_mru`](Self::is_mru)); keeps fast-path statistics
    /// identical to the slow path.
    pub fn record_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(hits, misses)` since creation or the last `reset_stats`.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Zero the hit/miss counters (contents are kept).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Drop all resident keys and statistics.
    pub fn clear(&mut self) {
        self.table.fill(NIL);
        self.nodes.clear();
        self.free.clear();
        self.len = 0;
        self.head = NIL;
        self.tail = NIL;
        self.hits = 0;
        self.misses = 0;
    }

    /// First probe slot for `key`.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// Slot holding `key`, if resident. Linear probe from the home slot;
    /// an empty slot terminates the probe (no tombstones exist).
    #[inline]
    fn find_slot(&self, key: u64) -> Option<usize> {
        let mut slot = self.home(key);
        loop {
            let idx = self.table[slot];
            if idx == NIL {
                return None;
            }
            if self.nodes[idx as usize].key == key {
                return Some(slot);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Index `node` under `key` (which must not be resident).
    fn index_insert(&mut self, key: u64, node: u32) {
        let mut slot = self.home(key);
        while self.table[slot] != NIL {
            slot = (slot + 1) & self.mask;
        }
        self.table[slot] = node;
    }

    /// Remove `key` from the index by backward-shift deletion: scan the
    /// probe chain past the hole and slide back every entry whose own
    /// probe path crosses the hole, so chains never break.
    fn index_remove(&mut self, key: u64) {
        let mut hole = self.find_slot(key).expect("removing non-resident key");
        let mut slot = hole;
        loop {
            slot = (slot + 1) & self.mask;
            let idx = self.table[slot];
            if idx == NIL {
                break;
            }
            let home = self.home(self.nodes[idx as usize].key);
            // The entry may fill the hole iff the hole lies on its probe
            // path, i.e. cyclically within [home, slot].
            if hole.wrapping_sub(home) & self.mask <= slot.wrapping_sub(home) & self.mask {
                self.table[hole] = idx;
                hole = slot;
            }
        }
        self.table[hole] = NIL;
    }

    /// Double the index and rehash every resident node. Only runs while
    /// the set is still filling; a set at capacity never grows again.
    fn grow(&mut self) {
        let table_len = self.table.len() * 2;
        self.table = vec![NIL; table_len].into_boxed_slice();
        self.mask = table_len - 1;
        self.shift = 64 - table_len.trailing_zeros();
        let mut idx = self.head;
        while idx != NIL {
            let node = self.nodes[idx as usize];
            self.index_insert(node.key, idx);
            idx = node.next;
        }
    }

    fn insert_front(&mut self, key: u64) {
        if self.len == self.capacity {
            self.evict_tail();
        }
        if 2 * (self.len + 1) > self.table.len() {
            self.grow();
        }
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = Node { key, prev: NIL, next: self.head };
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node { key, prev: NIL, next: self.head });
            idx
        };
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
        self.index_insert(key, idx);
        self.len += 1;
    }

    fn evict_tail(&mut self) {
        let idx = self.tail;
        debug_assert!(idx != NIL, "evict from empty LruSet");
        let node = self.nodes[idx as usize];
        self.index_remove(node.key);
        self.tail = node.prev;
        if self.tail != NIL {
            self.nodes[self.tail as usize].next = NIL;
        } else {
            self.head = NIL;
        }
        self.free.push(idx);
        self.len -= 1;
    }

    fn move_to_front(&mut self, idx: u32) {
        if self.head == idx {
            return;
        }
        let node = self.nodes[idx as usize];
        // Unlink.
        if node.prev != NIL {
            self.nodes[node.prev as usize].next = node.next;
        }
        if node.next != NIL {
            self.nodes[node.next as usize].prev = node.prev;
        } else {
            self.tail = node.prev;
        }
        // Relink at head.
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = LruSet::new(4);
        assert!(!c.access(1));
        assert!(c.access(1));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruSet::new(2);
        c.access(1);
        c.access(2);
        c.access(1); // 2 is now LRU
        c.access(3); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn sequential_scan_over_capacity_always_misses() {
        let mut c = LruSet::new(100);
        for round in 0..3 {
            for k in 0..200u64 {
                let hit = c.access(k);
                // Working set (200) exceeds capacity (100): pure LRU never
                // hits on a cyclic scan after the first round either.
                if round == 0 {
                    assert!(!hit);
                } else {
                    assert!(!hit, "cyclic scan defeats LRU");
                }
            }
        }
    }

    #[test]
    fn small_working_set_always_hits_after_warmup() {
        let mut c = LruSet::new(100);
        for k in 0..50u64 {
            c.warm(k);
        }
        c.reset_stats();
        for _ in 0..10 {
            for k in 0..50u64 {
                assert!(c.access(k));
            }
        }
        assert_eq!(c.stats(), (500, 0));
    }

    #[test]
    fn capacity_one() {
        let mut c = LruSet::new(1);
        assert!(!c.access(1));
        assert!(c.access(1));
        assert!(!c.access(2));
        assert!(!c.access(1));
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = LruSet::new(8);
        for k in 0..8 {
            c.access(k);
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats(), (0, 0));
        assert!(!c.access(3));
    }

    #[test]
    fn reuses_freed_slots() {
        let mut c = LruSet::new(3);
        for k in 0..1000u64 {
            c.access(k);
        }
        // Slab should not have grown past capacity + O(1).
        assert!(c.nodes.len() <= 4, "slab grew to {}", c.nodes.len());
    }

    #[test]
    fn steady_state_index_stays_fixed() {
        let mut c = LruSet::new(64);
        for k in 0..64u64 {
            c.access(k);
        }
        let table_len = c.table.len();
        // A long eviction churn (every access misses and evicts) must not
        // resize the index or grow the slab.
        for k in 64..100_000u64 {
            c.access(k);
        }
        assert_eq!(c.table.len(), table_len);
        assert!(c.nodes.len() <= 65);
        assert_eq!(c.len(), 64);
    }

    /// A huge-capacity set pays for what it holds: its index starts at 8
    /// slots, doubles while filling (hit/miss-exact against a reference
    /// LRU), and stays fixed under churn once full. The reference orders
    /// keys by last-use stamp — same semantics as the `lru_props` naive
    /// model, but O(log n), so 65536 entries stay cheap in a debug build.
    #[test]
    fn huge_capacity_index_grows_on_demand_then_stays_fixed() {
        use std::collections::{BTreeMap, HashMap};
        const CAP: usize = 65536;
        let mut c = LruSet::new(CAP);
        assert_eq!(c.table.len(), 8, "index must not be sized by capacity");
        let (mut stamps, mut by_age) = (HashMap::new(), BTreeMap::new());
        let (mut hits, mut misses, mut now) = (0u64, 0u64, 0u64);
        let mut access = |c: &mut LruSet, key: u64| {
            now += 1;
            let hit = match stamps.insert(key, now) {
                Some(old) => {
                    by_age.remove(&old);
                    hits += 1;
                    true
                }
                None => {
                    misses += 1;
                    if stamps.len() > CAP {
                        let (_, lru) = by_age.pop_first().expect("non-empty");
                        stamps.remove(&lru);
                    }
                    false
                }
            };
            by_age.insert(now, key);
            assert_eq!(c.access(key), hit, "access({key}) diverged at stamp {now}");
            assert_eq!(c.stats(), (hits, misses));
        };
        let mut rng = crate::SimRng::new(0x1DE5);
        // Fill: every new key misses, interleaved with hits on older ones.
        let mut sizes = vec![c.table.len()];
        for k in 0..CAP as u64 {
            access(&mut c, k);
            access(&mut c, rng.gen_range(k + 1));
            if *sizes.last().unwrap() != c.table.len() {
                sizes.push(c.table.len());
            }
        }
        assert_eq!(c.len(), CAP);
        let doublings: Vec<usize> = (3..=17).map(|b| 1 << b).collect();
        assert_eq!(sizes, doublings, "index grows by doubling up to 2 × capacity");
        // Churn at capacity: hits, misses and evictions, no more growth.
        for _ in 0..100_000 {
            access(&mut c, rng.gen_range(2 * CAP as u64));
        }
        assert_eq!(c.table.len(), 2 * CAP);
        assert!(c.nodes.len() <= CAP + 1);
        assert_eq!(c.len(), CAP);
    }

    #[test]
    fn is_mru_tracks_last_touch() {
        let mut c = LruSet::new(4);
        c.access(7);
        c.access(9);
        assert!(c.is_mru(9));
        assert!(!c.is_mru(7));
        assert!(!c.is_mru(42)); // non-resident
        c.access(7);
        assert!(c.is_mru(7));
    }

    #[test]
    fn record_hits_matches_slow_path_stats() {
        let mut a = LruSet::new(4);
        let mut b = LruSet::new(4);
        for c in [&mut a, &mut b] {
            c.access(1);
        }
        // Fast path: proven-MRU hit accounted without an index probe.
        assert!(a.is_mru(1));
        a.record_hits(1);
        // Slow path: a full access of the same key.
        b.access(1);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.is_mru(1), b.is_mru(1));
    }

    /// Colliding probe chains survive eviction: backward-shift deletion
    /// must keep every still-resident key reachable.
    #[test]
    fn eviction_churn_keeps_chains_intact() {
        let mut c = LruSet::new(8);
        // Stride chosen so many keys share probe neighbourhoods.
        let stride = 0x2000_0000_0000_0000u64;
        for i in 0..64u64 {
            c.access(i.wrapping_mul(stride).wrapping_add(i));
        }
        // The 8 most recent keys must all still hit.
        for i in (56..64u64).rev() {
            assert!(c.contains(i.wrapping_mul(stride).wrapping_add(i)), "lost key {i}");
        }
        assert_eq!(c.len(), 8);
    }
}
