//! Host-time accounting at layer boundaries.
//!
//! Two mechanisms, both driven from the benchmark's own calls into the
//! simulator's public API (nothing inside the simulator is instrumented):
//!
//! * [`Phase`] times one coarse section — a repeat, its set-up, run and
//!   teardown, one public app or txn call. Phases are always timed (the
//!   end-to-end metrics are their sums); when tracing is on each phase is
//!   also kept as a span with its parent and repeat id.
//! * Counters at the two hot boundaries, a client `step` (through
//!   [`Stepped`]) and `Testbed::post_one_ref`, hold a count and total
//!   nanoseconds. They are only fed while tracing, so the untraced run
//!   pays nothing for them.
//!
//! Everything is thread-local: the benchmark is single-threaded and runs
//! the simulator at one shard, so every step happens on this thread.

use cluster::{Client, Step, Testbed};
use simcore::SimTime;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id, in opening order from 1.
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Repeat the span belongs to (0 = warm-up).
    pub repeat: u32,
    /// What was timed.
    pub name: &'static str,
    /// Start, nanoseconds since tracing was first enabled.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// Totals of the hot-boundary counters since the last [`take_counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Client steps taken.
    pub steps: u64,
    /// Steps that made progress (issued an arrival or an op).
    pub useful_steps: u64,
    /// Host nanoseconds inside client steps.
    pub step_ns: u64,
    /// `post_one_ref` calls.
    pub posts: u64,
    /// Host nanoseconds inside `post_one_ref`.
    pub post_ns: u64,
}

struct State {
    origin: Option<Instant>,
    repeat: u32,
    next_id: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
    counters: Counters,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<State> = const {
        RefCell::new(State {
            origin: None,
            repeat: 0,
            next_id: 1,
            open: Vec::new(),
            spans: Vec::new(),
            counters: Counters {
                steps: 0,
                useful_steps: 0,
                step_ns: 0,
                posts: 0,
                post_ns: 0,
            },
        })
    };
}

/// Whether tracing is on for this thread.
#[inline]
pub fn on() -> bool {
    ON.with(Cell::get)
}

/// Turn tracing on or off; later spans carry repeat id `repeat`.
pub fn set(on: bool, repeat: u32) {
    ON.with(|c| c.set(on));
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.repeat = repeat;
        if on && s.origin.is_none() {
            s.origin = Some(Instant::now());
            // Spans are few per repeat; reserving keeps their storage out
            // of the traced repeats' allocation counts.
            s.spans.reserve(1 << 14);
        }
    });
}

/// A timed section; see the module docs.
#[must_use = "a phase measures nothing until it is stopped"]
pub struct Phase {
    name: &'static str,
    start: Instant,
    span: Option<(u32, u32)>,
}

impl Phase {
    /// Start timing `name`; opens a span when tracing.
    pub fn start(name: &'static str) -> Phase {
        let span = on().then(|| {
            STATE.with(|s| {
                let mut s = s.borrow_mut();
                let id = s.next_id;
                s.next_id += 1;
                let parent = s.open.last().copied().unwrap_or(0);
                s.open.push(id);
                (id, parent)
            })
        });
        Phase { name, start: Instant::now(), span }
    }

    /// Stop timing; returns the elapsed seconds and closes the span.
    pub fn stop(self) -> f64 {
        let end = Instant::now();
        if let Some((id, parent)) = self.span {
            STATE.with(|s| {
                let mut s = s.borrow_mut();
                let popped = s.open.pop();
                debug_assert_eq!(popped, Some(id), "phases must stop in reverse start order");
                let origin = s.origin.expect("tracing was enabled");
                let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
                let span = Span {
                    id,
                    parent,
                    repeat: s.repeat,
                    name: self.name,
                    start_ns: ns(self.start),
                    end_ns: ns(end),
                };
                s.spans.push(span);
            });
        }
        (end - self.start).as_secs_f64()
    }
}

/// Record one `post_one_ref` call that began at `start`.
#[inline]
pub fn post_done(start: Instant) {
    let ns = start.elapsed().as_nanos() as u64;
    STATE.with(|s| {
        let c = &mut s.borrow_mut().counters;
        c.posts += 1;
        c.post_ns += ns;
    });
}

/// Return and zero the hot-boundary counters.
pub fn take_counters() -> Counters {
    STATE.with(|s| std::mem::take(&mut s.borrow_mut().counters))
}

/// Every span closed so far, in closing order.
pub fn spans() -> Vec<Span> {
    STATE.with(|s| s.borrow().spans.clone())
}

/// A client whose steps are counted and timed: the boundary between the
/// engine (`simcore`/`cluster` event loop) and the driver it steps.
/// `progress` reads a monotone work count from the client, so steps that
/// only woke up to wait (linger timers, for instance) are told apart from
/// steps that issued work.
pub struct Stepped<'a, C> {
    inner: &'a mut C,
    progress: fn(&C) -> u64,
}

impl<'a, C> Stepped<'a, C> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut C, progress: fn(&C) -> u64) -> Self {
        Stepped { inner, progress }
    }
}

impl<C: Client> Client for Stepped<'_, C> {
    fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
        let before = (self.progress)(self.inner);
        let t = Instant::now();
        let step = self.inner.step(now, tb);
        let ns = t.elapsed().as_nanos() as u64;
        let useful = (self.progress)(self.inner) > before;
        STATE.with(|s| {
            let c = &mut s.borrow_mut().counters;
            c.steps += 1;
            c.useful_steps += u64::from(useful);
            c.step_ns += ns;
        });
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_repeat_id() {
        set(true, 7);
        let outer = Phase::start("outer");
        let inner = Phase::start("inner");
        let t_inner = inner.stop();
        let t_outer = outer.stop();
        set(false, 0);
        let untraced = Phase::start("untraced");
        untraced.stop();
        assert!(t_outer >= t_inner);
        let spans = spans();
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner span");
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer span");
        assert_eq!(inner.parent, outer.id);
        assert_eq!((inner.repeat, outer.repeat), (7, 7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(spans.iter().all(|s| s.name != "untraced"));
    }
}
