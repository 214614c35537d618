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
//! modelled execution instant at the remote atomic unit. Value semantics
//! are applied in one total (issue) order, so a lock is never granted to
//! two owners. The order can still differ from the responder's: the
//! gap-filling calendars let a later-issued op execute first, and WRITEs
//! and READs never pass through the atomic unit. ROADMAP item 3 measures
//! these inversions (in `fig10`, 24,286 of 234,564 one-sided ops) and
//! plans to apply effects in responder order.
//!
//! ### The horizon
//!
//! The engine steps events in time order, so the time of the event being
//! stepped bounds every later post in the drive from below. It publishes
//! that time as the testbed's horizon, and the NICs a post touches may
//! forget calendar history that ends before it (see `drive_steps`).

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
///
/// Events are stepped in time order, so the time of the one being
/// stepped is the testbed's horizon: no later post in this drive may be
/// issued before it. A post that is (a client posting into its own past,
/// or a drive restarting below the time an earlier drive reached on the
/// same machines) fails the step's assert. The horizon returns to zero when the drive does, so
/// each component of the pinned runtime, which starts at time zero on
/// machines no other component touches, begins unbound.
pub(crate) fn drive_steps(
    tb: &mut Testbed,
    q: &mut EventQueue<usize>,
    deadline: SimTime,
    last: &mut SimTime,
    step: &mut dyn FnMut(&mut Testbed, SimTime, usize) -> Step,
) {
    'drive: while let Some((mut now, mut i)) = q.pop() {
        if now > deadline {
            break;
        }
        loop {
            *last = (*last).max(now);
            tb.set_horizon(now);
            let next = step(tb, now, i);
            assert!(tb.posts_below_horizon() == 0, "client {i} posted below the horizon {now}");
            let Step::Yield(t) = next else { break };
            assert!(t >= now, "client {i} yielded into the past");
            // Queue the wake-up and take the earliest event in one step:
            // if no pending event fires at or before `t`, this client is
            // next anyway and comes straight back without a round trip
            // through the heap.
            (now, i) = q.push_pop(t, i);
            if now > deadline {
                break 'drive;
            }
        }
    }
    tb.set_horizon(SimTime::ZERO);
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

    /// A client writing 8 bytes across a two-machine testbed, once at
    /// each of its step times, offset by `skew` into the past.
    struct Poster {
        conn: crate::ConnId,
        src: rnicsim::MrId,
        dst: rnicsim::MrId,
        skew: SimTime,
        steps: u32,
    }

    impl Client for Poster {
        fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
            let rkey = rnicsim::RKey(self.dst.0 as u64);
            let wr = rnicsim::WorkRequest::write(0, rnicsim::Sge::new(self.src, 0, 8), rkey, 0);
            let done = tb.post_one(now.saturating_sub(self.skew), self.conn, wr).at;
            self.steps -= 1;
            if self.steps == 0 {
                return Step::Done;
            }
            Step::Yield(done.max(now + SimTime::from_us(1)))
        }
    }

    fn poster_testbed(skew: SimTime) -> (Testbed, Poster) {
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let src = tb.register(0, 0, 4096);
        let dst = tb.register(1, 0, 4096);
        let conn = tb.connect(crate::Endpoint::affine(0, 0), crate::Endpoint::affine(1, 0));
        (tb, Poster { conn, src, dst, skew, steps: 4 })
    }

    #[test]
    fn posts_at_step_time_keep_the_horizon() {
        let (mut tb, mut poster) = poster_testbed(SimTime::ZERO);
        let mut clients: Vec<Box<dyn Client + '_>> = vec![Box::new(&mut poster)];
        run_clients(&mut tb, &mut clients, SimTime::MAX);
        assert_eq!(tb.posts_below_horizon(), 0);
    }

    #[test]
    #[should_panic(expected = "client 0 posted below the horizon")]
    fn a_post_into_the_clients_own_past_trips_the_engine() {
        let (mut tb, mut poster) = poster_testbed(SimTime::from_ns(500));
        let mut clients: Vec<Box<dyn Client + '_>> = vec![Box::new(&mut poster)];
        run_clients(&mut tb, &mut clients, SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "client 0 posted below the horizon")]
    fn a_drive_restarting_below_an_earlier_one_trips_the_engine() {
        let (mut tb, mut poster) = poster_testbed(SimTime::ZERO);
        let mut again = Poster { steps: 4, ..poster };
        let mut clients: Vec<Box<dyn Client + '_>> = vec![Box::new(&mut poster)];
        run_clients(&mut tb, &mut clients, SimTime::MAX);
        // The first drive raised both NICs' horizon to its last step
        // time; this one starts over at time zero on the same machines.
        let mut clients: Vec<Box<dyn Client + '_>> = vec![Box::new(&mut again)];
        run_clients(&mut tb, &mut clients, SimTime::MAX);
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
