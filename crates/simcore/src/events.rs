//! A deterministic time-ordered event queue.
//!
//! Ties in timestamp are broken by insertion order (a monotonically
//! increasing sequence number), so two simulations that enqueue the same
//! events in the same order always dequeue them in the same order — a
//! prerequisite for reproducible runs.
//!
//! # Two-level structure
//!
//! Discrete-event simulations of closed-loop clients push almost every
//! event a short hop into the future; a single `BinaryHeap` pays a
//! log-time sift on every such push and pop. The queue therefore keeps a
//! sorted *near* batch (a `VecDeque` drained front-to-back, insertion by
//! backwards scan that in practice touches the tail) and a *far*
//! [`TimingWheel`] for everything beyond the batch horizon. The invariant
//! `max(near) <= min(far)` (comparing `(at, seq)` keys, so a far entry at
//! the same timestamp but smaller sequence number counts as *earlier*
//! and must not be shadowed by near) makes `pop` a `VecDeque::pop_front`
//! in the common case; when near drains we refill it with a batch popped
//! off the wheel — wheel pops come out in exact `(at, seq)` order, so the
//! refill preserves the determinism contract across the boundary.
//!
//! The far structure is a wheel rather than a `BinaryHeap` because
//! open-loop traffic keeps millions of arrival timers pending there, and a
//! heap pays a log-time sift on every one of them. The wheel pushes in
//! O(1) and is pinned byte-identical to a heap by the oracle tests below
//! and in `tests/wheel_oracle.rs`.

use crate::time::SimTime;
use crate::wheel::TimingWheel;
use std::collections::VecDeque;

/// A near-batch entry. The `(at, seq)` key order is maintained positionally
/// (pushes insert after all `entry.at <= at` since the new seq is largest;
/// refills append in exact wheel pop order), so the seq itself need not be
/// stored.
struct Entry<T> {
    at: SimTime,
    payload: T,
}

/// How many far-future events a refill moves into the near batch. Small
/// enough that a refill is cheap, large enough to amortize the heap pops.
const REFILL_BATCH: usize = 32;

/// Min-queue of future events keyed by `(SimTime, insertion sequence)`.
pub struct EventQueue<T> {
    /// Sorted by `(at, seq)`; popped from the front. Every key in `near`
    /// is `<=` every key in `far`.
    near: VecDeque<Entry<T>>,
    far: TimingWheel<T>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { near: VecDeque::new(), far: TimingWheel::new(), seq: 0 }
    }

    /// Schedule `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        // The new entry's seq is globally largest, so it may enter the
        // near batch only if its *time* beats every far entry: a far
        // entry at the same timestamp carries a smaller seq and must
        // dequeue first (this matters after a refill splits a run of
        // equal-time entries across the near/far boundary). Checking the
        // wheel's minimum is one comparison.
        let beats_far = match self.far.peek_key() {
            Some((top, _)) => at < top,
            None => true,
        };
        match self.near.back() {
            Some(back) if at <= back.at && beats_far => {
                // Lands inside the near batch. Insertion point: after
                // all entries with key <= (at, seq); since seq is the
                // largest so far, that is after all `entry.at <= at`.
                let idx = self.near.partition_point(|e| e.at <= at);
                self.near.insert(idx, Entry { at, payload });
            }
            Some(_) => {
                // Beyond the near horizon (or tied with a far entry):
                // the wheel keeps it ordered by (at, seq).
                self.far.push(at, seq, payload);
            }
            None if beats_far => self.near.push_back(Entry { at, payload }),
            None => {
                self.far.push(at, seq, payload);
            }
        }
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.near.is_empty() {
            self.refill();
        }
        self.near.pop_front().map(|e| (e.at, e.payload))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        match self.near.front() {
            Some(e) => Some(e.at),
            None => self.far.peek_key().map(|(at, _)| at),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near.len() + self.far.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.near.is_empty() && self.far.is_empty()
    }

    /// Drop every pending event and rewind to time zero, keeping the
    /// allocations, so one queue can serve run after run.
    pub fn clear(&mut self) {
        self.near.clear();
        self.far.clear();
        self.seq = 0;
    }

    /// Move a batch of the earliest far-future events into the (empty)
    /// near batch. Wheel pops come out in exact `(at, seq)` order, so
    /// equal-timestamp runs split across a batch boundary stay ordered.
    fn refill(&mut self) {
        debug_assert!(self.near.is_empty());
        for _ in 0..REFILL_BATCH {
            match self.far.pop() {
                Some((at, _seq, payload)) => self.near.push_back(Entry { at, payload }),
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), "c");
        q.push(SimTime::from_ns(10), "a");
        q.push(SimTime::from_ns(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(7), ());
        q.push(SimTime::from_ns(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(3)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 1u32);
        q.push(SimTime::from_ns(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(SimTime::from_ns(7), 2);
        // 7ns event now precedes the 10ns one even though pushed later.
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    /// Equal-timestamp events must come out in insertion order even when
    /// the run of ties straddles the near/far refill boundary.
    #[test]
    fn ties_survive_refill_boundaries() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(9);
        // Far more ties than one refill batch moves at once.
        let n = REFILL_BATCH * 4 + 7;
        for i in 0..n {
            q.push(t, i);
        }
        for i in 0..n {
            let (at, v) = q.pop().unwrap();
            assert_eq!((at, v), (t, i));
        }
        assert!(q.is_empty());
    }

    /// A push that lands at the same time as a pending far-future event
    /// must dequeue *after* it (the far event was inserted first).
    #[test]
    fn equal_time_push_defers_to_earlier_far_entry() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(1), 0u32);
        q.push(SimTime::from_ns(50), 1); // goes far once near holds 1ns
        assert_eq!(q.pop().unwrap().1, 0);
        // Near is now empty and 50ns sits in far with seq 1.
        q.push(SimTime::from_ns(50), 2); // equal time, later insertion
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    /// A push at the timestamp of an equal-time run that a refill split
    /// across the near/far boundary must still dequeue after the far
    /// remainder (which was inserted earlier).
    #[test]
    fn equal_time_push_after_refill_split_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(1), 0usize);
        let n = REFILL_BATCH + 5;
        for i in 0..n {
            q.push(SimTime::from_ns(50), 1 + i); // all go far
        }
        assert_eq!(q.pop().unwrap().1, 0);
        // Next pop refills: near now holds REFILL_BATCH of the 50ns run,
        // far still holds the last 5.
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_ns(50), 1 + n); // latest insertion: must be last
        for i in 2..=n {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert_eq!(q.pop().unwrap().1, 1 + n);
        assert!(q.is_empty());
    }

    /// A cleared queue forgets its pending events and insertion sequence:
    /// a second run from t = 0 pops exactly like a fresh queue.
    #[test]
    fn clear_starts_a_fresh_run() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(SimTime::from_ns(i * 37 % 101), i);
        }
        for _ in 0..60 {
            q.pop();
        }
        q.clear();
        assert!(q.is_empty() && q.peek_time().is_none());
        let mut fresh = EventQueue::new();
        for i in 0..100u64 {
            let at = SimTime::from_ns(i % 7);
            q.push(at, i);
            fresh.push(at, i);
        }
        while let Some(e) = fresh.pop() {
            assert_eq!(q.pop(), Some(e));
        }
        assert!(q.is_empty());
    }

    /// Oracle check: random interleavings of pushes and pops match a
    /// stable sort by (time, insertion sequence).
    #[test]
    fn random_interleavings_match_sort_oracle() {
        let mut rng = SimRng::new(0x5EED);
        for round in 0..50u64 {
            let mut q = EventQueue::new();
            let mut oracle: Vec<(SimTime, u64)> = Vec::new(); // sorted (at, seq)
            let mut popped = Vec::new();
            let mut expected = Vec::new();
            let mut seq = 0u64;
            for _ in 0..400 {
                if rng.gen_bool(0.6) || oracle.is_empty() {
                    let at = SimTime::from_ns(rng.gen_range(64) + round);
                    q.push(at, seq);
                    let idx = oracle.partition_point(|&k| k <= (at, seq));
                    oracle.insert(idx, (at, seq));
                    seq += 1;
                } else {
                    popped.push(q.pop().unwrap());
                    let (at, s) = oracle.remove(0);
                    expected.push((at, s));
                }
            }
            while let Some(e) = q.pop() {
                popped.push(e);
            }
            expected.append(&mut oracle);
            assert_eq!(popped, expected.iter().map(|&(at, s)| (at, s)).collect::<Vec<_>>());
        }
    }
}
