//! The client runtime: closed-loop actors advanced in global time order.
//!
//! Each simulated thread/executor/front-end is a [`Client`]. The engine
//! holds one pending wake-up per client in a time-ordered queue and always
//! steps the earliest one, so contended resources inside the [`Testbed`]
//! are acquired in correct global order (FCFS). A client's `step` usually
//! issues one operation (or one batch), learns its completion time from
//! the returned CQEs, and yields until then.
//!
//! ### Fidelity note on atomics
//!
//! A compare-and-swap's value check executes when the issuing client is
//! *stepped* (global issue order), a few hundred nanoseconds before its
//! modelled execution instant at the remote atomic unit. Because all
//! atomics to a location serialize through one unit and all clients are
//! symmetric closed loops, this reordering window is bounded by one
//! pipeline depth and does not change contention dynamics — it never
//! grants a lock to two owners, since value semantics are applied in one
//! total (issue) order.

use crate::testbed::Testbed;
use simcore::{EventQueue, SimTime};

/// What a client wants after one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Wake me again at this time (must not be in the past).
    Yield(SimTime),
    /// This client has finished its workload.
    Done,
}

/// A simulated thread of execution.
pub trait Client {
    /// Perform the next action at virtual time `now`; issue verbs against
    /// the testbed and report when to be stepped next.
    fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step;
}

/// Drive `clients` against `tb` until all finish or `deadline` passes.
/// Returns the last time any client was stepped.
pub fn run_clients(
    tb: &mut Testbed,
    clients: &mut [Box<dyn Client + '_>],
    deadline: SimTime,
) -> SimTime {
    let mut q = EventQueue::new();
    for i in 0..clients.len() {
        q.push(SimTime::ZERO, i);
    }
    let mut last = SimTime::ZERO;
    drive_steps(tb, &mut q, deadline, &mut last, &mut |tb, now, i| clients[i].step(now, tb));
    last
}

/// The engine's inner loop, shared by [`run_clients`] and the pinned
/// component runtime (`crate::shard`): pop the earliest wake-up, step
/// that client, and re-queue its next wake-up — until the queue drains or
/// the deadline passes. A deadline hit returns with the later events
/// still queued; callers drop or clear the queue.
pub(crate) fn drive_steps(
    tb: &mut Testbed,
    q: &mut EventQueue<usize>,
    deadline: SimTime,
    last: &mut SimTime,
    step: &mut dyn FnMut(&mut Testbed, SimTime, usize) -> Step,
) {
    while let Some((mut now, i)) = q.pop() {
        if now > deadline {
            return;
        }
        *last = (*last).max(now);
        while let Step::Yield(t) = step(tb, now, i) {
            assert!(t >= now, "client {i} yielded into the past");
            // Fast path: if no pending event fires at or before `t`, this
            // client is next anyway — re-step it inline instead of a
            // pop/re-push round trip through the queue. An *equal*-time
            // pending event was enqueued earlier and must fire first, so
            // only a strictly later (or absent) queue head lets us
            // continue.
            if q.peek_time().is_some_and(|pt| pt <= t) {
                q.push(t, i);
                break;
            }
            if t > deadline {
                return;
            }
            *last = (*last).max(t);
            now = t;
        }
    }
}

impl<T: Client + ?Sized> Client for &mut T {
    fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
        (**self).step(now, tb)
    }
}

/// A generic closed-loop client: keeps up to `window` operations in
/// flight, issuing the next one as soon as the oldest completes, until
/// `target` operations have been issued. The per-op closure receives the
/// testbed and the issue time and returns the operation's completion time.
///
/// This is the standard throughput-measurement shape: window 1 measures
/// latency-bound throughput, larger windows expose the pipeline's
/// bottleneck rate.
pub struct ClosedLoop<F> {
    op: F,
    window: usize,
    target: u64,
    issued: u64,
    outstanding: std::collections::VecDeque<SimTime>,
    completions: Vec<SimTime>,
}

impl<F: FnMut(&mut Testbed, SimTime, u64) -> SimTime> ClosedLoop<F> {
    /// A loop issuing `target` ops with `window` in flight.
    pub fn new(window: usize, target: u64, op: F) -> Self {
        assert!(window >= 1 && target >= 1);
        ClosedLoop {
            op,
            window,
            target,
            issued: 0,
            outstanding: std::collections::VecDeque::with_capacity(window),
            completions: Vec::with_capacity(target as usize),
        }
    }

    /// Completion times of every issued op (in issue order).
    pub fn completions(&self) -> &[SimTime] {
        &self.completions
    }
}

impl<F: FnMut(&mut Testbed, SimTime, u64) -> SimTime> Client for ClosedLoop<F> {
    fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
        let done = (self.op)(tb, now, self.issued);
        assert!(done >= now, "op completed before it was issued");
        self.issued += 1;
        self.completions.push(done);
        self.outstanding.push_back(done);
        if self.issued == self.target {
            return Step::Done;
        }
        if self.outstanding.len() < self.window {
            // Pipeline not full: issue the next op immediately.
            Step::Yield(now)
        } else {
            let oldest = self.outstanding.pop_front().expect("non-empty");
            Step::Yield(oldest.max(now))
        }
    }
}

/// A closed loop over *doorbell batches*: each step rings one doorbell
/// for a train of up to `batch` operations and tracks the single
/// coalesced completion the device reports for it (selective signaling —
/// only the train's last WQE generates a CQE). Up to `window` trains stay
/// in flight until `target` total operations have been issued; the final
/// train is ragged when `target` is not a multiple of `batch`.
///
/// The per-batch closure receives the testbed, the issue time, the index
/// of the train's first operation, and the train length, and returns the
/// train's (sole) completion time. Compared to driving [`ClosedLoop`]
/// with single ops, a `BatchLoop` pays the doorbell/MMIO and wake-up
/// costs once per train instead of once per op — the engine-side half of
/// the device's batched post pipeline.
pub struct BatchLoop<F> {
    op: F,
    batch: u64,
    window: usize,
    target: u64,
    issued: u64,
    outstanding: std::collections::VecDeque<SimTime>,
    batch_completions: Vec<SimTime>,
}

impl<F: FnMut(&mut Testbed, SimTime, u64, u64) -> SimTime> BatchLoop<F> {
    /// A loop issuing `target` ops in trains of `batch`, keeping up to
    /// `window` trains in flight.
    pub fn new(batch: u64, window: usize, target: u64, op: F) -> Self {
        assert!(batch >= 1 && window >= 1 && target >= 1);
        BatchLoop {
            op,
            batch,
            window,
            target,
            issued: 0,
            outstanding: std::collections::VecDeque::with_capacity(window),
            batch_completions: Vec::with_capacity((target / batch + 1) as usize),
        }
    }

    /// Completion time of every train, in issue order — one entry per
    /// doorbell, not per op.
    pub fn batch_completions(&self) -> &[SimTime] {
        &self.batch_completions
    }
}

impl<F: FnMut(&mut Testbed, SimTime, u64, u64) -> SimTime> Client for BatchLoop<F> {
    fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
        let len = self.batch.min(self.target - self.issued);
        let done = (self.op)(tb, now, self.issued, len);
        assert!(done >= now, "batch completed before it was issued");
        self.issued += len;
        self.batch_completions.push(done);
        self.outstanding.push_back(done);
        if self.issued == self.target {
            return Step::Done;
        }
        if self.outstanding.len() < self.window {
            Step::Yield(now)
        } else {
            let oldest = self.outstanding.pop_front().expect("non-empty");
            Step::Yield(oldest.max(now))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;

    struct Counter {
        ticks: u32,
        period: SimTime,
        log: Vec<SimTime>,
    }

    impl Client for Counter {
        fn step(&mut self, now: SimTime, _tb: &mut Testbed) -> Step {
            self.log.push(now);
            if self.ticks == 0 {
                return Step::Done;
            }
            self.ticks -= 1;
            Step::Yield(now + self.period)
        }
    }

    #[test]
    fn clients_interleave_in_time_order() {
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let mut clients: Vec<Box<dyn Client>> = vec![
            Box::new(Counter { ticks: 3, period: SimTime::from_ns(100), log: vec![] }),
            Box::new(Counter { ticks: 2, period: SimTime::from_ns(150), log: vec![] }),
        ];
        let last = run_clients(&mut tb, &mut clients, SimTime::MAX);
        assert_eq!(last, SimTime::from_ns(300));
    }

    #[test]
    fn closed_loop_window_one_is_latency_bound() {
        let lat = SimTime::from_us(1);
        let mut cl = ClosedLoop::new(1, 10, move |_tb: &mut Testbed, now: SimTime, _i| now + lat);
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        {
            let mut clients: Vec<Box<dyn Client + '_>> = vec![Box::new(&mut cl)];
            run_clients(&mut tb, &mut clients, SimTime::MAX);
        }
        // 10 ops, 1us each, strictly serialized: last completes at 10us.
        assert_eq!(cl.completions().len(), 10);
        assert_eq!(*cl.completions().last().unwrap(), SimTime::from_us(10));
    }

    #[test]
    fn closed_loop_window_overlaps_issues() {
        // Window 4 with a fixed 1us op: ops issue 4-at-a-time, so op 9
        // completes well before the serialized 10us.
        let lat = SimTime::from_us(1);
        let mut cl = ClosedLoop::new(4, 12, move |_tb: &mut Testbed, now: SimTime, _i| now + lat);
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        {
            let mut clients: Vec<Box<dyn Client + '_>> = vec![Box::new(&mut cl)];
            run_clients(&mut tb, &mut clients, SimTime::MAX);
        }
        // 12 ops in windows of 4: completes in 3us.
        assert_eq!(*cl.completions().last().unwrap(), SimTime::from_us(3));
    }

    #[test]
    fn same_time_yields_interleave_in_client_order() {
        // Two clients ticking the same period: at every timestamp, client
        // 0 (inserted first) must step before client 1 — the fast path in
        // run_clients must not let one client run ahead through a tie.
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        struct Tagged {
            id: usize,
            ticks: u32,
            log: std::rc::Rc<std::cell::RefCell<Vec<(SimTime, usize)>>>,
        }
        impl Client for Tagged {
            fn step(&mut self, now: SimTime, _tb: &mut Testbed) -> Step {
                self.log.borrow_mut().push((now, self.id));
                if self.ticks == 0 {
                    return Step::Done;
                }
                self.ticks -= 1;
                Step::Yield(now + SimTime::from_ns(50))
            }
        }
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let mut clients: Vec<Box<dyn Client>> = vec![
            Box::new(Tagged { id: 0, ticks: 4, log: log.clone() }),
            Box::new(Tagged { id: 1, ticks: 4, log: log.clone() }),
        ];
        run_clients(&mut tb, &mut clients, SimTime::MAX);
        let log = log.borrow();
        let expected: Vec<(SimTime, usize)> = (0..=4)
            .flat_map(|k| [(SimTime::from_ns(50 * k), 0), (SimTime::from_ns(50 * k), 1)])
            .collect();
        assert_eq!(*log, expected);
    }

    #[test]
    fn batch_loop_issues_full_trains_then_ragged_tail() {
        // 10 ops in trains of 4: lengths 4, 4, 2, one completion each.
        let lat = SimTime::from_us(1);
        let lens = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let lens_in = lens.clone();
        let mut bl = BatchLoop::new(4, 1, 10, move |_tb: &mut Testbed, now, first, len| {
            lens_in.borrow_mut().push((first, len));
            now + lat
        });
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        {
            let mut clients: Vec<Box<dyn Client + '_>> = vec![Box::new(&mut bl)];
            run_clients(&mut tb, &mut clients, SimTime::MAX);
        }
        assert_eq!(*lens.borrow(), vec![(0, 4), (4, 4), (8, 2)]);
        // One coalesced completion per doorbell, serialized at 1us each.
        assert_eq!(
            bl.batch_completions(),
            &[SimTime::from_us(1), SimTime::from_us(2), SimTime::from_us(3)]
        );
    }

    #[test]
    fn batch_loop_of_one_matches_closed_loop() {
        let lat = SimTime::from_ns(700);
        let mut cl = ClosedLoop::new(2, 9, move |_tb: &mut Testbed, now: SimTime, _i| now + lat);
        let mut bl = BatchLoop::new(1, 2, 9, move |_tb: &mut Testbed, now, _first, len| {
            assert_eq!(len, 1);
            now + lat
        });
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        {
            let mut clients: Vec<Box<dyn Client + '_>> = vec![Box::new(&mut cl)];
            run_clients(&mut tb, &mut clients, SimTime::MAX);
        }
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        {
            let mut clients: Vec<Box<dyn Client + '_>> = vec![Box::new(&mut bl)];
            run_clients(&mut tb, &mut clients, SimTime::MAX);
        }
        assert_eq!(cl.completions(), bl.batch_completions());
    }

    #[test]
    fn deadline_stops_infinite_clients() {
        struct Forever;
        impl Client for Forever {
            fn step(&mut self, now: SimTime, _tb: &mut Testbed) -> Step {
                Step::Yield(now + SimTime::from_ns(10))
            }
        }
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let mut clients: Vec<Box<dyn Client>> = vec![Box::new(Forever)];
        let last = run_clients(&mut tb, &mut clients, SimTime::from_us(1));
        assert!(last <= SimTime::from_us(1));
        assert!(last >= SimTime::from_ns(990));
    }
}
