//! Proof that the steady-state verb hot path does not touch the heap,
//! and that fleet construction costs what it touches: a counting global
//! allocator wraps the system allocator, and after a warm-up phase
//! (scratch buffers grown, MTT warmed, k-server intervals merged) a burst
//! of posts must perform exactly zero allocations.
//!
//! The counters are per thread: the test harness runs tests on
//! concurrent threads, and a process-global counter would charge one
//! test with another's allocations.

use cluster::{ClusterConfig, Endpoint, MemoryPool, Testbed};
use rnicsim::{RKey, Sge, VerbKind, WorkRequest, WrId, INLINE_SGES};
use simcore::{LatencyHistogram, SimRng, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

#[test]
fn steady_state_posts_do_not_allocate() {
    let mut tb = Testbed::new(ClusterConfig::two_machines());
    let src = tb.register(0, 1, 1 << 16);
    let dst = tb.register(1, 1, 1 << 16);
    let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
    let rkey = RKey(dst.0 as u64);

    // One template per verb kind, each with a full inline SGL (4 entries
    // for write/read — the guaranteed-inline maximum).
    let sges: Vec<Sge> = (0..INLINE_SGES as u64).map(|i| Sge::new(src, i * 128, 64)).collect();
    let mut templates = vec![
        WorkRequest {
            wr_id: WrId(0),
            kind: VerbKind::Write,
            sgl: sges.as_slice().into(),
            remote: Some((rkey, 0)),
            signaled: true,
        },
        WorkRequest {
            wr_id: WrId(0),
            kind: VerbKind::Read,
            sgl: sges.as_slice().into(),
            remote: Some((rkey, 0)),
            signaled: true,
        },
        WorkRequest {
            wr_id: WrId(0),
            kind: VerbKind::FetchAdd { delta: 1 },
            sgl: Sge::new(src, 0, 8).into(),
            remote: Some((rkey, 4096)),
            signaled: true,
        },
    ];
    for wr in &templates {
        assert!(!wr.sgl.spilled(), "templates must stay inline");
    }

    // Warm up: grow the testbed's scratch buffers, fault in MTT entries,
    // and let the k-server interval lists reach steady state.
    let mut t = SimTime::ZERO;
    let mut id = 0u64;
    for _ in 0..200 {
        for wr in &mut templates {
            wr.wr_id = WrId(id);
            id += 1;
            t = tb.post_one_ref(t, conn, wr).at;
        }
    }

    let ((calls, bytes), ()) = allocs_during(|| {
        for _ in 0..100 {
            for wr in &mut templates {
                wr.wr_id = WrId(id);
                id += 1;
                t = tb.post_one_ref(t, conn, wr).at;
            }
        }
    });
    assert_eq!(calls, 0, "verb hot path allocated {calls} times ({bytes} bytes)");
}

/// Steady-state *reads* of the sparse pool are allocation-free too: the
/// zero-page fast path, `read_into` into grown scratch, `read_view`,
/// `copy_within`, and `load_u64` must all stay off the heap once buffers
/// have reached capacity — whether the span is materialized, elided, or
/// straddles a chunk seam.
#[test]
fn steady_state_pool_reads_do_not_allocate() {
    let mut pool = MemoryPool::new();
    let a = pool.register(0, 4 * cluster::CHUNK_BYTES);
    let b = pool.register(0, 4 * cluster::CHUNK_BYTES);
    let seam = cluster::CHUNK_BYTES - 16;
    // Materialize one chunk of `a`, leave the rest (and all of `b`'s
    // far chunks) as holes; park a nonzero pattern across a seam.
    pool.write(a, 0, b"warm nonzero bytes");
    pool.write(a, seam, &[0x5A; 48]);

    // Warm-up: grow the scratch and destination vectors to capacity.
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    pool.read_into(a, seam, 48, &mut out);
    assert!(pool.read_view(a, seam, 48, &mut scratch).is_some());
    pool.copy_within(a, seam, b, seam, 48);

    let ((calls, bytes), ()) = allocs_during(|| {
        for i in 0..200u64 {
            // Zero page: untouched chunk served straight from the static page.
            assert_eq!(pool.try_slice(a, 2 * cluster::CHUNK_BYTES, 64).unwrap(), &[0u8; 64]);
            // Materialized in-chunk span.
            assert!(pool.try_slice(a, 0, 18).is_some());
            // Seam-straddling span assembled into reused scratch.
            assert_eq!(pool.read_view(a, seam, 48, &mut scratch).unwrap(), &[0x5A; 48]);
            // Bulk read into a reused destination, alternating hole/resident.
            out.clear();
            pool.read_into(a, (i % 3) * cluster::CHUNK_BYTES, 48, &mut out);
            // Pool-to-pool copy over already-materialized destination chunks.
            pool.copy_within(a, seam, b, seam, 48);
            // Word load from a hole and from resident bytes.
            assert_eq!(pool.load_u64(a, 3 * cluster::CHUNK_BYTES), 0);
            let _ = pool.load_u64(a, 0);
        }
    });
    assert_eq!(calls, 0, "pool read path allocated {calls} times ({bytes} bytes)");
}

/// A latency histogram records into a span it already covers, and merges
/// a covered span, without touching the heap: per-stage metrics on the
/// verb hot path rely on this.
#[test]
fn covered_histogram_records_do_not_allocate() {
    let (lo, hi) = (SimTime::from_ns(500).as_ps(), SimTime::from_us(40).as_ps());
    let mut h = LatencyHistogram::new();
    h.record_ps(lo);
    h.record_ps(hi);
    let mut folded = h.clone();
    let mut rng = SimRng::new(0x21);
    let ((calls, bytes), ()) = allocs_during(|| {
        for _ in 0..10_000 {
            h.record_ps(lo + rng.gen_range(hi - lo + 1));
        }
        folded.merge(&h);
    });
    assert_eq!(calls, 0, "covered histogram records allocated {calls} times ({bytes} bytes)");
    assert_eq!(folded.count(), 10_004);
}

/// Registration and fleet construction cost what they touch, not what
/// they could address: a 1 TiB backed registration allocates no slot
/// table, and a machine's NIC caches start with the same small index
/// whatever their capacity.
#[test]
fn registration_and_testbed_cost_is_independent_of_size() {
    let mut pool = MemoryPool::new();
    let ((_, bytes), mr) = allocs_during(|| pool.register(0, 1 << 40));
    assert!(bytes < 1024, "registering 1 TiB allocated {bytes} bytes");
    assert_eq!(pool.resident_bytes(), 0);
    assert_eq!(pool.load_u64(mr, (1 << 40) - 8), 0, "the far end reads as zeros");

    let testbed_bytes = |mtt_cache_entries: usize| {
        let mut cfg = ClusterConfig { machines: 64, ..Default::default() };
        cfg.rnic.mtt_cache_entries = mtt_cache_entries;
        let ((_, bytes), _) = allocs_during(|| Testbed::new(cfg));
        bytes
    };
    assert_eq!(
        testbed_bytes(1024),
        testbed_bytes(65536),
        "MTT cache capacity must not pre-pay index memory"
    );
}
