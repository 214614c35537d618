//! Proof that the transactional dataplane runs off the heap: a counting
//! global allocator wraps the system allocator, and once a testbed is
//! warm (staging and table pages materialized, scratch buffers grown) a
//! whole transaction, from `TxnMachine::new` to `Done`, performs zero
//! allocation calls. An open-loop run's allocations must not grow with
//! its request count either: schedules are drawn at admission, not
//! stored.
//!
//! The counters are per thread: the test harness runs tests on
//! concurrent threads, and a process-global counter would charge one
//! test with another's allocations.

use cluster::{ClusterConfig, Testbed};
use simcore::{SimRng, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use traffic::{run_txn_traffic, TxnTrafficConfig};
use txn::{
    build_pod, Advance, Concurrency, PodSetup, RetryPolicy, TxnMachine, TxnRequest, TxnWrite,
    WriteOp,
};

struct CountingAlloc;

thread_local! {
    /// `(allocation calls, bytes requested)` on this thread. `realloc`
    /// counts as one call requesting its whole new size.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes as u64));
    });
}

/// `(calls, bytes)` allocated on this thread while running `f`.
fn allocs_during<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let after = ALLOCS.with(Cell::get);
    ((after.0 - before.0, after.1 - before.1), out)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `req` through slot 0 from `now` to `Done`; returns the finish time.
fn run(
    tb: &mut Testbed,
    pod: &PodSetup,
    concurrency: Concurrency,
    req: TxnRequest,
    now: SimTime,
) -> SimTime {
    let mut m = TxnMachine::new(
        pod.table,
        pod.conns[0],
        pod.staging,
        0,
        2,
        concurrency,
        RetryPolicy::default(),
        SimTime::from_ns(200),
        req,
        SimRng::new(now.as_ps()),
    );
    let mut now = now;
    loop {
        match m.advance(tb, now) {
            Advance::Continue(at) => now = at,
            Advance::Done(at) => {
                assert_eq!(m.stats.commits, 1);
                return at;
            }
        }
    }
}

#[test]
fn warmed_transactions_do_not_allocate() {
    let mut tb = Testbed::new(ClusterConfig { machines: 2, ..Default::default() });
    let pod = build_pod(&mut tb, 0, 1, 1, 2, 64, 32);
    let requests = [
        ("rmw", TxnRequest::rmw(7, 1)),
        ("read-only", TxnRequest::read_only(&[3])),
        ("put", TxnRequest::new(&[], &[TxnWrite { rec: 9, op: WriteOp::Put(0xfeed) }])),
        ("two-read", TxnRequest::read_only(&[3, 11])),
    ];
    let modes = [Concurrency::Optimistic, Concurrency::Locked];
    // Warm up: materialize the staging and table pages, grow the
    // testbed's scratch buffers, and fill the resource calendars.
    let mut now = SimTime::ZERO;
    for _ in 0..100 {
        for concurrency in modes {
            for (_, req) in requests {
                now = run(&mut tb, &pod, concurrency, req, now);
            }
        }
    }
    for concurrency in modes {
        for (name, req) in requests {
            let ((calls, bytes), at) = allocs_during(|| run(&mut tb, &pod, concurrency, req, now));
            now = at;
            assert_eq!(
                calls,
                0,
                "{} {name} transaction allocated {calls} times ({bytes} bytes)",
                concurrency.name()
            );
        }
    }
}

/// Allocation calls a run may make beyond a ten-times-shorter one: the
/// latency histograms store only their observed bucket span, so a longer
/// run that sees a new extreme grows a few of them, and a deeper backlog
/// may grow a tenant's pending queue.
const GROWTH_SLACK: u64 = 64;

#[test]
fn traffic_allocations_do_not_grow_with_request_count() {
    let calls = |ops_per_tenant| {
        let cfg = TxnTrafficConfig { ops_per_tenant, ..Default::default() };
        let ((calls, _), report) = allocs_during(|| run_txn_traffic(&cfg));
        assert_eq!(report.stats.commits, ops_per_tenant * 8, "every txn commits");
        calls
    };
    let (short, long) = (calls(200), calls(2000));
    assert!(
        long <= short + GROWTH_SLACK,
        "2000 ops/tenant allocated {long} times vs {short} at 200 (slack {GROWTH_SLACK})"
    );
}
