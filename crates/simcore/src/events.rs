//! A deterministic time-ordered event queue.
//!
//! Ties in timestamp are broken by insertion order (a monotonically
//! increasing sequence number), so two simulations that enqueue the same
//! events in the same order always dequeue them in the same order — a
//! prerequisite for reproducible runs.
//!
//! The queue is a `BinaryHeap` keyed by `(at, seq)`. Each open-loop
//! worker holds its own next arrival and a closed-loop driver queues at
//! most one wake-up per client, so the queue stays short: its peak over
//! every `repro` experiment is 448 events (`extra-qp-scale`), where a
//! log-time sift is a handful of compares.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// Min-queue of future events keyed by `(SimTime, insertion sequence)`.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
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
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedule `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: T) {
        self.heap.push(Entry { at, seq: self.seq, payload });
        self.seq += 1;
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every pending event and restart the insertion sequence,
    /// keeping the allocation, so a run that broke off at a deadline
    /// leaves nothing behind for the next run on the same queue.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
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

    /// A long run of equal-timestamp events comes out in insertion order.
    #[test]
    fn ties_survive_refill_boundaries() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(9);
        let n = 135;
        for i in 0..n {
            q.push(t, i);
        }
        for i in 0..n {
            let (at, v) = q.pop().unwrap();
            assert_eq!((at, v), (t, i));
        }
        assert!(q.is_empty());
    }

    /// A push that lands at the same time as a pending event must dequeue
    /// *after* it (the pending event was inserted first).
    #[test]
    fn equal_time_push_defers_to_earlier_far_entry() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(1), 0u32);
        q.push(SimTime::from_ns(50), 1);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(SimTime::from_ns(50), 2); // equal time, later insertion
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    /// A push at the timestamp of a partly drained equal-time run must
    /// still dequeue after the rest of the run (inserted earlier).
    #[test]
    fn equal_time_push_after_refill_split_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(1), 0usize);
        let n = 37;
        for i in 0..n {
            q.push(SimTime::from_ns(50), 1 + i);
        }
        assert_eq!(q.pop().unwrap().1, 0);
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
