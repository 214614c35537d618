//! Contended hardware resources as queueing servers.
//!
//! Every piece of hardware the simulator models — NIC processing units,
//! DMA engines, DRAM banks, PCIe and QPI links, the network wire — is one
//! of two primitives:
//!
//! * [`KServer`]: `k` identical units, each serving one request at a time.
//!   Requests take the unit that can start them earliest.
//! * [`BandwidthLink`]: a serialization resource where the service time is
//!   proportional to the transferred byte count, plus a fixed propagation
//!   latency paid after serialization completes.
//!
//! Both are backed by a [`Timeline`]: a busy-interval calendar that serves
//! requests in **arrival (ready-time) order**, not booking order. This
//! matters because the simulator computes a whole verb pipeline when the
//! verb is *posted*, booking downstream resources up to a round-trip into
//! the future; a later client whose packet arrives in one of the idle
//! gaps must be allowed to use it, or one client's future bookings would
//! head-of-line-block everyone else's present.
//!
//! The calendar is a bounded ring of at most `MAX_INTERVALS` (64) intervals.
//! A booking that would add an interval to a full ring first evicts the
//! oldest one into the floor, so a saturated calendar never reallocates.
//! The result is exactly that of inserting and then evicting: when the
//! new interval would itself be the oldest, it goes straight into the
//! floor and is never stored.
//!
//! A gap search starts at the first interval ending at or after the
//! request's start (a binary search): an interval ending strictly before
//! it can neither hold the request nor move its start, so skipping it is
//! exact. One ending exactly at the start is not skipped, because a
//! zero-length interval there still bounds a zero-length request's gap.

use crate::time::SimTime;
use std::collections::VecDeque;

/// How many discrete busy intervals a timeline tracks before the oldest
/// are collapsed into the "past" floor. Bookings from different sources
/// leave disjoint gaps between them, so a calendar in use fills all of
/// them; the ring is sized once and a full calendar evicts in O(1).
const MAX_INTERVALS: usize = 64;

/// A single service unit's busy calendar.
#[derive(Clone, Debug, Default)]
struct Timeline {
    /// Everything before this instant is unavailable (collapsed history).
    floor: SimTime,
    /// Sorted, disjoint busy intervals at or after `floor`; never more
    /// than [`MAX_INTERVALS`].
    busy: VecDeque<(SimTime, SimTime)>,
}

impl Timeline {
    /// Book `service` starting no earlier than `ready`, using the first
    /// idle gap that fits. Returns `(start, end)`.
    fn book(&mut self, ready: SimTime, service: SimTime) -> (SimTime, SimTime) {
        let start = ready.max(self.floor);
        // Tail fast path: a request ready at or after the last busy
        // interval can never fit an earlier gap, so it appends (merging
        // with a touching tail). Simulation time mostly moves forward, so
        // this is the overwhelmingly common case — O(1) instead of a scan.
        match self.busy.back_mut() {
            None => {
                self.busy.push_back((start, start + service));
                return (start, start + service);
            }
            Some(last) if start >= last.1 => {
                let end = start + service;
                if start == last.1 {
                    last.1 = end;
                } else {
                    if self.busy.len() == MAX_INTERVALS {
                        self.evict_oldest();
                    }
                    self.busy.push_back((start, end));
                }
                return (start, end);
            }
            _ => {}
        }
        let (idx, start) = self.first_fit(start, service);
        let end = start + service;
        // Insert, merging with touching neighbours to keep the list short.
        let merged_prev = idx > 0 && self.busy[idx - 1].1 == start;
        let merged_next = idx < self.busy.len() && self.busy[idx].0 == end;
        match (merged_prev, merged_next) {
            (true, true) => {
                self.busy[idx - 1].1 = self.busy[idx].1;
                self.busy.remove(idx);
            }
            (true, false) => self.busy[idx - 1].1 = end,
            (false, true) => self.busy[idx].0 = start,
            (false, false) if self.busy.len() < MAX_INTERVALS => {
                self.busy.insert(idx, (start, end))
            }
            // Full ring, and the new interval is the oldest: it would be
            // evicted as soon as stored.
            (false, false) if idx == 0 => self.floor = self.floor.max(end),
            (false, false) => {
                self.evict_oldest();
                self.busy.insert(idx - 1, (start, end));
            }
        }
        (start, end)
    }

    /// Collapse the oldest busy interval into the floor.
    fn evict_oldest(&mut self) {
        if let Some((_, e0)) = self.busy.pop_front() {
            self.floor = self.floor.max(e0);
        }
    }

    /// First-fit gap search from `start`: the index of the interval the
    /// request fits before (`len` if it goes after all of them) and the
    /// instant it starts.
    fn first_fit(&self, mut start: SimTime, service: SimTime) -> (usize, SimTime) {
        let first = self.busy.partition_point(|&(_, e)| e < start);
        for (i, &(s, e)) in self.busy.range(first..).enumerate() {
            if start + service <= s {
                return (first + i, start);
            }
            start = start.max(e);
        }
        (self.busy.len(), start)
    }

    /// Earliest instant at which the start of the calendar has a gap.
    fn earliest_free(&self) -> SimTime {
        match self.busy.front() {
            Some(&(s, e)) if s <= self.floor => e,
            _ => self.floor,
        }
    }

    /// When the unit could start a request ready at `ready` (no booking).
    fn probe(&self, ready: SimTime, service: SimTime) -> SimTime {
        let start = ready.max(self.floor);
        // Tail fast path mirroring `book`.
        match self.busy.back() {
            None => start,
            Some(&(_, e)) if start >= e => start,
            _ => self.first_fit(start, service).1,
        }
    }

    fn reset(&mut self) {
        self.floor = SimTime::ZERO;
        self.busy.clear();
    }
}

/// `k` identical service units (e.g. RNIC processing units, DRAM banks).
#[derive(Clone, Debug)]
pub struct KServer {
    units: Vec<Timeline>,
    busy: SimTime,
}

impl KServer {
    /// A server pool with `k ≥ 1` units, all idle at time zero.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "a KServer needs at least one unit");
        KServer { units: vec![Timeline::default(); k], busy: SimTime::ZERO }
    }

    /// Number of units.
    pub fn units(&self) -> usize {
        self.units.len()
    }

    /// Occupy the unit that can serve soonest for `service`, starting no
    /// earlier than `ready`. Returns `(start, end)` of the service
    /// interval.
    pub fn acquire(&mut self, ready: SimTime, service: SimTime) -> (SimTime, SimTime) {
        self.busy += service;
        if self.units.len() == 1 {
            return self.units[0].book(ready, service);
        }
        let idx = self
            .units
            .iter()
            .enumerate()
            .min_by_key(|(_, u)| u.probe(ready, service))
            .map(|(i, _)| i)
            .expect("KServer has at least one unit");
        self.units[idx].book(ready, service)
    }

    /// Total service time dispensed across all units (for utilization:
    /// divide by `units() × makespan`).
    pub fn busy(&self) -> SimTime {
        self.busy
    }

    /// Earliest instant at which any unit is (or becomes) idle.
    pub fn earliest_free(&self) -> SimTime {
        self.units.iter().map(Timeline::earliest_free).min().expect("non-empty")
    }

    /// Forget all queued work; all units become idle at time zero.
    pub fn reset(&mut self) {
        for u in &mut self.units {
            u.reset();
        }
        self.busy = SimTime::ZERO;
    }
}

/// A serialization link: bytes drain at a fixed rate, then arrive after a
/// fixed propagation latency. Models PCIe lanes, QPI, and network wires.
#[derive(Clone, Debug)]
pub struct BandwidthLink {
    line: Timeline,
    ps_per_byte: u64,
    latency: SimTime,
    busy: SimTime,
}

impl BandwidthLink {
    /// A link that serializes at `ps_per_byte` and then delays delivery by
    /// `latency` (propagation + fixed per-hop processing).
    pub fn new(ps_per_byte: u64, latency: SimTime) -> Self {
        BandwidthLink { line: Timeline::default(), ps_per_byte, latency, busy: SimTime::ZERO }
    }

    /// Serialization rate in ps/byte.
    pub fn ps_per_byte(&self) -> u64 {
        self.ps_per_byte
    }

    /// Fixed propagation latency.
    pub fn latency(&self) -> SimTime {
        self.latency
    }

    /// Push `bytes` through the link starting no earlier than `ready`.
    /// Returns `(start, arrival)`: when serialization began and when the
    /// last byte arrives at the far end.
    pub fn transfer(&mut self, ready: SimTime, bytes: u64) -> (SimTime, SimTime) {
        let ser = SimTime::from_ps(bytes * self.ps_per_byte);
        let (start, drained) = self.line.book(ready, ser);
        self.busy += ser;
        (start, drained + self.latency)
    }

    /// Total serialization time dispensed (utilization numerator).
    pub fn busy(&self) -> SimTime {
        self.busy
    }

    /// Pure serialization time for `bytes`, without queueing.
    pub fn serialization(&self, bytes: u64) -> SimTime {
        SimTime::from_ps(bytes * self.ps_per_byte)
    }

    /// Forget all queued work.
    pub fn reset(&mut self) {
        self.line.reset();
        self.busy = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::ps_per_byte_gbps;

    #[test]
    fn single_server_is_fifo_for_equal_ready_times() {
        let mut s = KServer::new(1);
        let svc = SimTime::from_ns(10);
        let (a0, a1) = s.acquire(SimTime::ZERO, svc);
        assert_eq!((a0, a1), (SimTime::ZERO, SimTime::from_ns(10)));
        // Second request ready at t=3 must wait until t=10.
        let (b0, b1) = s.acquire(SimTime::from_ns(3), svc);
        assert_eq!((b0, b1), (SimTime::from_ns(10), SimTime::from_ns(20)));
        // A request ready after the queue drained starts immediately.
        let (c0, _) = s.acquire(SimTime::from_ns(50), svc);
        assert_eq!(c0, SimTime::from_ns(50));
    }

    #[test]
    fn earlier_arrivals_fill_gaps_before_future_bookings() {
        let mut s = KServer::new(1);
        // A pipeline books far in the future...
        let (f0, _) = s.acquire(SimTime::from_us(10), SimTime::from_ns(100));
        assert_eq!(f0, SimTime::from_us(10));
        // ...but a request arriving now is served now, in the idle gap.
        let (n0, n1) = s.acquire(SimTime::ZERO, SimTime::from_ns(100));
        assert_eq!(n0, SimTime::ZERO);
        assert_eq!(n1, SimTime::from_ns(100));
    }

    #[test]
    fn gap_must_fit_the_whole_service() {
        let mut s = KServer::new(1);
        s.acquire(SimTime::ZERO, SimTime::from_ns(100)); // [0,100)
        s.acquire(SimTime::from_ns(150), SimTime::from_ns(100)); // [150,250)
                                                                 // 60ns job ready at 80: gap [100,150) fits only 50ns of it after
                                                                 // its ready time... it can start at 100, needs until 160 > 150, so
                                                                 // it must go after 250.
        let (start, _) = s.acquire(SimTime::from_ns(80), SimTime::from_ns(60));
        assert_eq!(start, SimTime::from_ns(250));
        // A 40ns job ready at 100 fits the gap exactly.
        let (start, end) = s.acquire(SimTime::from_ns(100), SimTime::from_ns(40));
        assert_eq!(start, SimTime::from_ns(100));
        assert_eq!(end, SimTime::from_ns(140));
    }

    #[test]
    fn k_units_serve_in_parallel() {
        let mut s = KServer::new(3);
        let svc = SimTime::from_ns(10);
        for _ in 0..3 {
            let (start, _) = s.acquire(SimTime::ZERO, svc);
            assert_eq!(start, SimTime::ZERO);
        }
        // Fourth request queues behind the earliest finisher.
        let (start, end) = s.acquire(SimTime::ZERO, svc);
        assert_eq!(start, SimTime::from_ns(10));
        assert_eq!(end, SimTime::from_ns(20));
        assert_eq!(s.earliest_free(), SimTime::from_ns(10));
    }

    #[test]
    fn throughput_of_k_server_is_k_over_service() {
        // 4 units at 100ns/op must sustain 40 MOPS: 4000 ops finish by 100us.
        let mut s = KServer::new(4);
        let svc = SimTime::from_ns(100);
        let mut last = SimTime::ZERO;
        for _ in 0..4000 {
            let (_, end) = s.acquire(SimTime::ZERO, svc);
            last = last.max(end);
        }
        assert_eq!(last, SimTime::from_us(100));
    }

    #[test]
    fn interval_cap_collapses_history_not_future() {
        let mut s = KServer::new(1);
        // Far-apart bookings [10i µs, 10i µs + 10 ns): the first 20 are
        // evicted, and the floor rises to the end of the 20th.
        for i in 0..(MAX_INTERVALS as u64 + 20) {
            s.acquire(SimTime::from_us(10 * i), SimTime::from_ns(10));
        }
        let floor = SimTime::from_us(190) + SimTime::from_ns(10);
        assert_eq!(s.earliest_free(), floor);
        let (start, end) = s.acquire(SimTime::ZERO, SimTime::from_ns(10));
        assert_eq!((start, end), (floor, floor + SimTime::from_ns(10)));
        // A request that fits a surviving gap still lands in it.
        let (start, end) = s.acquire(SimTime::from_us(505), SimTime::from_ns(10));
        assert_eq!(
            (start, end),
            (SimTime::from_us(505), SimTime::from_us(505) + SimTime::from_ns(10))
        );
    }

    #[test]
    fn bandwidth_link_serializes_and_delays() {
        // 40 Gbps, 200ns propagation.
        let mut l = BandwidthLink::new(ps_per_byte_gbps(40), SimTime::from_ns(200));
        let (start, arrival) = l.transfer(SimTime::ZERO, 4096);
        assert_eq!(start, SimTime::ZERO);
        // 4096 B * 200 ps = 819.2 ns serialization + 200 ns latency.
        assert_eq!(arrival, SimTime::from_ps(4096 * 200 + 200_000));
        // Next transfer queues behind the first's serialization, not its
        // propagation (cut-through of the sender side).
        let (s2, _) = l.transfer(SimTime::ZERO, 64);
        assert_eq!(s2, SimTime::from_ps(4096 * 200));
    }

    #[test]
    fn busy_accounting_accumulates_service_only() {
        let mut s = KServer::new(2);
        s.acquire(SimTime::ZERO, SimTime::from_ns(30));
        s.acquire(SimTime::from_us(5), SimTime::from_ns(70));
        assert_eq!(s.busy(), SimTime::from_ns(100));
        let mut l = BandwidthLink::new(100, SimTime::from_ns(5));
        l.transfer(SimTime::ZERO, 1000);
        assert_eq!(l.busy(), SimTime::from_ps(100_000));
    }

    #[test]
    fn reset_clears_backlog() {
        let mut s = KServer::new(2);
        s.acquire(SimTime::ZERO, SimTime::from_us(5));
        s.reset();
        assert_eq!(s.earliest_free(), SimTime::ZERO);
        assert_eq!(s.busy(), SimTime::ZERO);
        let mut l = BandwidthLink::new(100, SimTime::ZERO);
        l.transfer(SimTime::ZERO, 1_000_000);
        l.reset();
        assert_eq!(l.transfer(SimTime::ZERO, 1).0, SimTime::ZERO);
    }

    /// The calendar as it was before the ring: a `Vec` that pushes the
    /// new interval and then evicts with `remove(0)`. Kept as the
    /// reference the ring must match bit for bit.
    #[derive(Clone, Debug, Default)]
    struct VecTimeline {
        floor: SimTime,
        busy: Vec<(SimTime, SimTime)>,
    }

    impl VecTimeline {
        fn book(&mut self, ready: SimTime, service: SimTime) -> (SimTime, SimTime) {
            let mut start = ready.max(self.floor);
            match self.busy.last_mut() {
                None => {
                    self.busy.push((start, start + service));
                    return (start, start + service);
                }
                Some(last) if start >= last.1 => {
                    let end = start + service;
                    if start == last.1 {
                        last.1 = end;
                    } else {
                        self.busy.push((start, end));
                        if self.busy.len() > MAX_INTERVALS {
                            let (_, e0) = self.busy.remove(0);
                            self.floor = self.floor.max(e0);
                        }
                    }
                    return (start, end);
                }
                _ => {}
            }
            let mut idx = self.busy.len();
            for (i, &(s, e)) in self.busy.iter().enumerate() {
                if start + service <= s {
                    idx = i;
                    break;
                }
                start = start.max(e);
            }
            let end = start + service;
            let merged_prev = idx > 0 && self.busy[idx - 1].1 == start;
            let merged_next = idx < self.busy.len() && self.busy[idx].0 == end;
            match (merged_prev, merged_next) {
                (true, true) => {
                    self.busy[idx - 1].1 = self.busy[idx].1;
                    self.busy.remove(idx);
                }
                (true, false) => self.busy[idx - 1].1 = end,
                (false, true) => self.busy[idx].0 = start,
                (false, false) => self.busy.insert(idx, (start, end)),
            }
            if self.busy.len() > MAX_INTERVALS {
                let (_, e0) = self.busy.remove(0);
                self.floor = self.floor.max(e0);
            }
            (start, end)
        }

        fn earliest_free(&self) -> SimTime {
            match self.busy.first() {
                Some(&(s, e)) if s <= self.floor => e,
                _ => self.floor,
            }
        }

        fn probe(&self, ready: SimTime, service: SimTime) -> SimTime {
            let mut start = ready.max(self.floor);
            match self.busy.last() {
                None => return start,
                Some(&(_, e)) if start >= e => return start,
                _ => {}
            }
            for &(s, e) in &self.busy {
                if start + service <= s {
                    break;
                }
                start = start.max(e);
            }
            start
        }
    }

    /// `KServer` over the reference calendar (a `BandwidthLink` is one
    /// unit whose service is `bytes × ps_per_byte`).
    struct RefKServer {
        units: Vec<VecTimeline>,
        busy: SimTime,
    }

    impl RefKServer {
        fn acquire(&mut self, ready: SimTime, service: SimTime) -> (SimTime, SimTime) {
            self.busy += service;
            if self.units.len() == 1 {
                return self.units[0].book(ready, service);
            }
            let idx = self
                .units
                .iter()
                .enumerate()
                .min_by_key(|(_, u)| u.probe(ready, service))
                .map(|(i, _)| i)
                .unwrap();
            self.units[idx].book(ready, service)
        }

        fn earliest_free(&self) -> SimTime {
            self.units.iter().map(VecTimeline::earliest_free).min().unwrap()
        }
    }

    /// Ring-backed resource under test.
    enum Ring {
        Server(KServer),
        Link(BandwidthLink),
    }

    impl Ring {
        fn units_mut(&mut self) -> &mut [Timeline] {
            match self {
                Ring::Server(s) => &mut s.units,
                Ring::Link(l) => std::slice::from_mut(&mut l.line),
            }
        }

        fn units(&self) -> &[Timeline] {
            match self {
                Ring::Server(s) => &s.units,
                Ring::Link(l) => std::slice::from_ref(&l.line),
            }
        }

        /// Book `quanta × Q` of service; a link's result is mapped back
        /// from arrival to drain time.
        fn book(&mut self, ready: SimTime, quanta: u64) -> (SimTime, SimTime) {
            match self {
                Ring::Server(s) => s.acquire(ready, SimTime::from_ps(quanta * Q)),
                Ring::Link(l) => {
                    let (start, arrival) = l.transfer(ready, quanta);
                    (start, arrival - l.latency())
                }
            }
        }

        fn busy(&self) -> SimTime {
            match self {
                Ring::Server(s) => s.busy(),
                Ring::Link(l) => l.busy(),
            }
        }
    }

    /// Time quantum of the soup (ps); also the link's `ps_per_byte`, so
    /// every instant and gap is a whole number of quanta.
    const Q: u64 = 8;

    /// How often each booking shape appeared, to prove the soup reaches it.
    #[derive(Default, Debug)]
    struct Coverage {
        backwards: u64,
        zero_length: u64,
        merge_prev: u64,
        merge_next: u64,
        merge_both: u64,
        tail_evict: u64,
        head_drop: u64,
        gap_evict: u64,
    }

    /// A sorted, disjoint calendar starting at `base`, including touching
    /// neighbours and zero-length intervals that bookings never create
    /// (bookings merge touching intervals), so the gap search is checked
    /// on every valid layout, not only reachable ones.
    fn arbitrary_calendar(rng: &mut SimRng, base: u64) -> Vec<(SimTime, SimTime)> {
        let mut t = base + Q * rng.gen_range(3);
        let mut cal = Vec::new();
        for _ in 0..rng.gen_range(MAX_INTERVALS as u64 + 1) {
            let len = rng.gen_range(4);
            // No two zero-length intervals at one instant.
            let gap = rng.gen_range(3).max(u64::from(len == 0));
            cal.push((SimTime::from_ps(t), SimTime::from_ps(t + Q * len)));
            t += Q * (len + gap);
        }
        cal
    }

    fn assert_same(ring: &Ring, reference: &RefKServer, step: usize) {
        for (u, (a, b)) in ring.units().iter().zip(&reference.units).enumerate() {
            assert_eq!(a.floor, b.floor, "step {step} unit {u}: floor");
            assert!(
                a.busy.iter().eq(&b.busy),
                "step {step} unit {u}: {:?} vs {:?}",
                a.busy,
                b.busy
            );
            assert_eq!(a.earliest_free(), b.earliest_free(), "step {step} unit {u}: earliest_free");
        }
        assert_eq!(ring.busy(), reference.busy, "step {step}: busy");
        if let Ring::Server(s) = ring {
            assert_eq!(s.earliest_free(), reference.earliest_free(), "step {step}: earliest_free");
        }
    }

    /// Drive `ring` and the reference through `steps` seeded bookings,
    /// asserting identical results and state after every one.
    fn soup(mut ring: Ring, seed: u64, steps: usize) -> Coverage {
        let mut rng = SimRng::new(seed);
        let units = ring.units().len();
        let mut reference =
            RefKServer { units: vec![VecTimeline::default(); units], busy: SimTime::ZERO };
        let mut cov = Coverage::default();
        let (mut horizon, mut last_ready) = (0u64, 0u64);
        for step in 0..steps {
            // Episodes alternate between an empty calendar and arbitrary ones.
            if step % 4000 == 0 {
                let fresh = step % 8000 == 0;
                for u in 0..units {
                    let (floor, cal) = if fresh {
                        (SimTime::ZERO, Vec::new())
                    } else {
                        (SimTime::from_ps(horizon), arbitrary_calendar(&mut rng, horizon))
                    };
                    horizon = horizon.max(cal.last().map_or(0, |x| x.1.as_ps()));
                    ring.units_mut()[u] = Timeline { floor, busy: cal.iter().copied().collect() };
                    reference.units[u] = VecTimeline { floor, busy: cal };
                }
            }
            let cal = &reference.units[rng.gen_range(units as u64) as usize].busy;
            let (ready, quanta) = match rng.gen_range(10) {
                // Disjoint tail: builds past the cap.
                0..=2 => (horizon + Q * (1 + rng.gen_range(40)), rng.gen_range(20)),
                // Touching tail.
                3 => (cal.last().map_or(horizon, |x| x.1.as_ps()), rng.gen_range(20)),
                // Anywhere up to the horizon, floor and history included.
                4 => (Q * rng.gen_range(horizon / Q + 1), rng.gen_range(20)),
                // Aimed at one gap: fill it exactly, touch either side, or sit inside.
                5..=7 if cal.len() >= 2 => {
                    let i = 1 + rng.gen_range(cal.len() as u64 - 1) as usize;
                    let (g0, g1) = (cal[i - 1].1.as_ps(), cal[i].0.as_ps());
                    let room = (g1 - g0) / Q;
                    let q = rng.gen_range(room + 1);
                    match rng.gen_range(4) {
                        0 => (g0, room),
                        1 => (g0, q),
                        2 => (g1 - q * Q, q),
                        _ => (g0 + Q * rng.gen_range(room + 1), rng.gen_range(3)),
                    }
                }
                // Zero-length request at an interval boundary.
                8 if !cal.is_empty() => {
                    let (s, e) = cal[rng.gen_range(cal.len() as u64) as usize];
                    let at = if rng.gen_bool(0.5) { s } else { e };
                    (at.as_ps(), 0)
                }
                _ => (horizon.saturating_sub(Q * rng.gen_range(200)), rng.gen_range(4)),
            };
            let ready_t = SimTime::from_ps(ready);
            let service = SimTime::from_ps(quanta * Q);
            for (u, (a, b)) in ring.units().iter().zip(&reference.units).enumerate() {
                assert_eq!(
                    a.probe(ready_t, service),
                    b.probe(ready_t, service),
                    "step {step} unit {u}: probe"
                );
            }
            let before = reference.units.clone();
            let want = reference.acquire(ready_t, service);
            let got = ring.book(ready_t, quanta);
            assert_eq!(got, want, "step {step}: book({ready}, {quanta})");
            assert_same(&ring, &reference, step);

            horizon = horizon.max(want.1.as_ps());
            cov.backwards += u64::from(ready < last_ready);
            cov.zero_length += u64::from(quanta == 0);
            last_ready = ready;
            let (start, end) = want;
            let Some((old, new)) = before
                .iter()
                .zip(&reference.units)
                .find(|(o, n)| o.floor != n.floor || o.busy != n.busy)
            else {
                continue;
            };
            let tail = old.busy.last().is_none_or(|&(_, e)| start >= e);
            if new.busy.len() < old.busy.len() {
                cov.merge_both += 1;
            } else if new.floor > old.floor && old.busy.len() == MAX_INTERVALS {
                if tail {
                    cov.tail_evict += 1;
                } else if new.floor == end && old.busy == new.busy {
                    cov.head_drop += 1;
                } else {
                    cov.gap_evict += 1;
                }
            } else if !tail && quanta > 0 && new.busy.len() == old.busy.len() {
                cov.merge_prev += u64::from(new.busy.iter().any(|&(s, e)| e == end && s < start));
                cov.merge_next += u64::from(new.busy.iter().any(|&(s, e)| s == start && e > end));
            }
        }
        cov
    }

    #[test]
    fn ring_calendar_matches_vec_reference() {
        let rings = [
            Ring::Server(KServer::new(1)),
            Ring::Server(KServer::new(3)),
            Ring::Link(BandwidthLink::new(Q, SimTime::from_ps(100))),
        ];
        for (seed, ring) in (0x5eed..).zip(rings) {
            let cov = soup(ring, seed, 40_000);
            let counts = [
                cov.backwards,
                cov.zero_length,
                cov.merge_prev,
                cov.merge_next,
                cov.merge_both,
                cov.tail_evict,
                cov.head_drop,
                cov.gap_evict,
            ];
            assert!(
                counts.iter().all(|&n| n >= 100),
                "seed {seed:#x}: soup missed a shape: {cov:?}"
            );
        }
    }
}
