//! Hierarchical timing wheel: the storage of every
//! [`EventQueue`](crate::EventQueue).
//!
//! Open-loop traffic keeps millions of Poisson arrival timers pending far
//! in the future, and a `BinaryHeap` pays a log-time sift on every one of
//! them. The wheel replaces the heap with hashed insertion: a timestamp is split
//! into its picosecond *granule* (`t >> G_BITS`) and the granule is hashed
//! into one of [`LEVELS`] levels of [`SLOTS`] slots each, Varghese-style. A
//! push is O(1); ordering work is deferred until a slot actually becomes the
//! wheel's current position, at which point it drains into the ready heap
//! (level 0) or re-hashes into lower levels (cascade).
//!
//! # Exact `(time, seq)` ordering
//!
//! Unlike kernel timer wheels, which only promise "not early", this wheel is
//! *exact*: `pop` yields entries in strict `(time, seq)` order, tie-broken by
//! insertion sequence, byte-identical to a `BinaryHeap` oracle. Determinism
//! is the simulator's core contract, so the wheel earns its O(1) pushes
//! without weakening it. The trick is the `ready` min-heap: every entry
//! whose granule has been reached lives there, keyed by `(at, seq)`, and the
//! structural invariants below guarantee its top is always the global
//! minimum. Keys are unique (the event queue's insertion sequence), so heap
//! order *is* total `(at, seq)` order — no tie ambiguity. A heap rather
//! than a sorted run matters for one hostile pattern: pushes that land at
//! or before the wheel's current position (common while an open-loop source
//! seeds arrivals across a wide window) merge in log time instead of
//! shifting half the run per insert.
//!
//! # Invariants
//!
//! 1. Every entry in `ready` has granule `<= base_g`; every entry in a slot
//!    has granule `> base_g`. Hence the global minimum is in `ready`.
//! 2. After every public operation, `ready` is non-empty whenever the
//!    wheel is non-empty — so `peek` is a borrow of `ready.peek()` and
//!    never needs `&mut self`.
//!
//! Invariant 1 holds because a slot at level `l` only receives granules that
//! first differ from `base_g` at level `l`, i.e. strictly above the base; and
//! when `replenish` advances `base_g` to the lowest occupied slot, every
//! granule equal to the new base necessarily lived in exactly that slot
//! (anything smaller would have occupied a lower slot and been chosen
//! instead), so draining it — into `ready` at level 0, cascading at
//! level > 0 — restores the invariant without a general redistribution pass.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the wheel granule in picoseconds: 2^12 ps ≈ 4.1 ns. Timers that
/// land in the same granule are only ordered when their slot is reached.
const G_BITS: u32 = 12;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level; the per-level occupancy bitmask is one `u64`.
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Levels cover `G_BITS + LEVELS * SLOT_BITS = 66` bits — the full `u64`
/// timestamp range, including the `SimTime::MAX` sentinel.
const LEVELS: usize = 9;

struct Entry<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

// `Ord` is reversed on the `(at, seq)` key so `BinaryHeap<Entry<_>>` is a
// min-heap; payloads never participate in comparisons. Seqs are unique, so
// key equality identifies an entry.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Exact-order hierarchical timing wheel keyed by `(SimTime, u64 seq)`.
///
/// Semantically a min-queue identical to `BinaryHeap<Reverse<(at, seq)>>`,
/// with O(1) amortized push for far-future timers and O(1) `peek`.
pub struct TimingWheel<T> {
    /// Min-heap of entries whose granule has been reached.
    ready: BinaryHeap<Entry<T>>,
    /// `LEVELS * SLOTS` buckets of unsorted future entries.
    slots: Vec<Vec<Entry<T>>>,
    /// Per-level slot-occupancy bitmask (bit `s` set ⇔ slot `s` non-empty).
    occ: [u64; LEVELS],
    /// Granule of the wheel's current position.
    base_g: u64,
    /// Entry count across all slots.
    in_slots: usize,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel positioned at time zero.
    pub fn new() -> Self {
        TimingWheel {
            ready: BinaryHeap::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            base_g: 0,
            in_slots: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.ready.len() + self.in_slots
    }

    /// Whether no entries remain. Invariant 2 makes `ready` alone decide.
    pub fn is_empty(&self) -> bool {
        self.ready.is_empty()
    }

    /// Key of the earliest entry. O(1): invariant 2 keeps it at the
    /// top of `ready`.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.ready.peek().map(|e| (e.at, e.seq))
    }

    /// Insert an entry. `seq` must be unique among pending entries (the
    /// event queue passes its global insertion sequence).
    pub fn push(&mut self, at: SimTime, seq: u64, payload: T) {
        self.insert(Entry { at, seq, payload });
        self.normalize();
    }

    /// Remove and return the earliest entry.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let e = self.ready.pop()?;
        self.normalize();
        Some((e.at, e.seq, e.payload))
    }

    /// Drop every entry and rewind the wheel to time zero, keeping each
    /// slot's capacity. A drained wheel keeps its advanced base, where
    /// pushes behind it all land in `ready`; a run that restarts at t = 0
    /// clears first.
    pub fn clear(&mut self) {
        self.ready.clear();
        for (level, occ) in self.occ.iter_mut().enumerate() {
            while *occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                self.slots[level * SLOTS + slot].clear();
                *occ &= *occ - 1;
            }
        }
        self.base_g = 0;
        self.in_slots = 0;
    }

    /// Route one entry to `ready` (granule reached) or a slot (future).
    fn insert(&mut self, e: Entry<T>) {
        let t_g = e.at.as_ps() >> G_BITS;
        if t_g <= self.base_g {
            // Granule already reached: log-time heap merge, regardless of
            // how far behind the base the entry lands.
            self.ready.push(e);
        } else {
            let diff = t_g ^ self.base_g;
            let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
            let slot = ((t_g >> (level as u32 * SLOT_BITS)) & SLOT_MASK) as usize;
            self.slots[level * SLOTS + slot].push(e);
            self.occ[level] |= 1 << slot;
            self.in_slots += 1;
        }
    }

    /// Restore invariant 2: replenish `ready` from the slots while it is
    /// empty and slots are occupied.
    fn normalize(&mut self) {
        while self.ready.is_empty() && self.in_slots > 0 {
            self.replenish();
        }
    }

    /// Advance `base_g` to the lowest occupied slot and drain it: a level-0
    /// slot holds exactly one granule and moves straight into `ready`; a
    /// higher slot cascades its entries into strictly lower levels (their
    /// granules now agree with the new base at and above that level).
    fn replenish(&mut self) {
        debug_assert!(self.ready.is_empty() && self.in_slots > 0);
        let level = (0..LEVELS).find(|&l| self.occ[l] != 0).expect("in_slots > 0");
        let slot = self.occ[level].trailing_zeros() as usize;
        let shift = level as u32 * SLOT_BITS;
        // Position the base on this slot: keep the bits above the level,
        // set the level's coordinate, zero everything below.
        let low_mask = (1u64 << (shift + SLOT_BITS)) - 1;
        self.base_g = (self.base_g & !low_mask) | ((slot as u64) << shift);
        self.occ[level] &= !(1u64 << slot);
        let mut drained = std::mem::take(&mut self.slots[level * SLOTS + slot]);
        self.in_slots -= drained.len();
        if level == 0 {
            // All entries here share granule `base_g`; the heap orders them.
            self.ready.extend(drained.drain(..));
        } else {
            // Cascade: every entry agrees with the new base at this level
            // and above, so `insert` sends it strictly downward (or into
            // `ready` when its granule equals the new base exactly).
            for e in drained.drain(..) {
                self.insert(e);
            }
        }
        // `drained` keeps its capacity for the slot's next life.
        self.slots[level * SLOTS + slot] = drained;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_key_order_across_levels() {
        let mut w = TimingWheel::new();
        // Spread entries across granules, levels, and a same-granule tie.
        let times =
            [0u64, 1, 4_095, 4_096, 4_097, 1 << 20, (1 << 20) + 5, 1 << 33, 1 << 45, u64::MAX];
        for (i, &t) in times.iter().enumerate() {
            w.push(SimTime::from_ps(t), i as u64, i);
        }
        let mut keys: Vec<(u64, u64)> =
            times.iter().enumerate().map(|(i, &t)| (t, i as u64)).collect();
        keys.sort_unstable();
        for &(t, s) in &keys {
            assert_eq!(w.peek_key(), Some((SimTime::from_ps(t), s)));
            let (at, seq, payload) = w.pop().unwrap();
            assert_eq!((at.as_ps(), seq, payload as u64), (t, s, s));
        }
        assert!(w.is_empty());
        assert_eq!(w.pop().map(|(_, s, _)| s), None);
    }

    #[test]
    fn same_granule_ties_pop_in_seq_order() {
        let mut w = TimingWheel::new();
        let t = SimTime::from_ps(5 << G_BITS); // one far granule
        for i in 0..50u64 {
            w.push(t, i, ());
        }
        for i in 0..50u64 {
            assert_eq!(w.pop().unwrap().1, i);
        }
    }

    /// A cleared wheel is a fresh one: it forgets pending entries and its
    /// advanced base, so a restart at t = 0 hashes into slots again
    /// instead of piling every entry behind the old base into `ready`.
    #[test]
    fn clear_rewinds_to_time_zero() {
        let mut w = TimingWheel::new();
        for i in 0..40u64 {
            w.push(SimTime::from_ps(i << 30), i, i);
        }
        for _ in 0..20 {
            w.pop();
        }
        assert!(w.base_g > 0);
        w.clear();
        assert!(w.is_empty() && w.peek_key().is_none());
        assert_eq!(w.len(), 0);
        assert_eq!((w.base_g, w.occ), (0, [0; LEVELS]));
        let mut fresh = TimingWheel::new();
        for i in 0..40u64 {
            w.push(SimTime::from_ps((40 - i) << 20), i, i);
            fresh.push(SimTime::from_ps((40 - i) << 20), i, i);
            assert_eq!((w.base_g, w.ready.len()), (fresh.base_g, fresh.ready.len()));
        }
        for i in (0..40u64).rev() {
            assert_eq!(w.pop().map(|(_, s, _)| s), Some(i));
        }
        assert!(w.is_empty());
    }

    /// The wheel must match a BinaryHeap oracle byte-for-byte under random
    /// interleavings of pushes and pops, including past-time pushes after
    /// the base has advanced.
    #[test]
    fn random_ops_match_heap_oracle() {
        let mut rng = SimRng::new(0xA11CE);
        for round in 0..40u64 {
            let mut w = TimingWheel::new();
            let mut oracle: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut horizon = 0u64;
            for _ in 0..600 {
                if rng.gen_bool(0.55) || oracle.is_empty() {
                    // Mix near (just past the horizon) and far pushes so
                    // entries land in ready, level 0, and higher levels.
                    let at = match rng.gen_range(3) {
                        0 => horizon + rng.gen_range(1 << 14),
                        1 => horizon + rng.gen_range(1 << 24),
                        _ => horizon + rng.gen_range(1 << (30 + round % 24)),
                    };
                    w.push(SimTime::from_ps(at), seq, seq);
                    oracle.push(Reverse((SimTime::from_ps(at), seq)));
                    seq += 1;
                } else {
                    let Reverse((at, s)) = oracle.pop().unwrap();
                    horizon = at.as_ps();
                    let (wat, ws, wp) = w.pop().unwrap();
                    assert_eq!((wat, ws, wp), (at, s, s));
                    assert_eq!(w.peek_key(), oracle.peek().map(|Reverse(k)| *k));
                }
                assert_eq!(w.len(), oracle.len());
            }
            while let Some(Reverse((at, s))) = oracle.pop() {
                assert_eq!(w.pop().map(|(a, q, _)| (a, q)), Some((at, s)));
            }
            assert!(w.is_empty());
        }
    }
}
