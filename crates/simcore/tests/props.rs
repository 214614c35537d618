//! Property-style tests for the engine primitives. Randomized inputs come
//! from the simulator's own deterministic [`SimRng`] (fixed seeds, so runs
//! are reproducible and need no external property-testing framework).

use simcore::{
    mops, ps_per_byte_gbps, BandwidthLink, EventQueue, KServer, SimRng, SimTime, Summary,
};

const CASES: u64 = 64;

/// Time arithmetic: addition is commutative/associative, scale by 1 is
/// identity, and saturating_sub never underflows.
#[test]
fn time_arithmetic() {
    let mut rng = SimRng::new(0x7101);
    for _ in 0..CASES {
        let (a, b, c) = (rng.gen_range(1 << 40), rng.gen_range(1 << 40), rng.gen_range(1 << 40));
        let (ta, tb, tc) = (SimTime::from_ps(a), SimTime::from_ps(b), SimTime::from_ps(c));
        assert_eq!(ta + tb, tb + ta);
        assert_eq!((ta + tb) + tc, ta + (tb + tc));
        assert_eq!(ta.scale(1, 1), ta);
        assert_eq!(tb.saturating_sub(ta), SimTime::from_ps(b.saturating_sub(a)));
        assert_eq!(ta.max(tb).as_ps(), a.max(b));
        assert_eq!(ta.min(tb).as_ps(), a.min(b));
    }
}

/// Unit conversions round-trip within a picosecond.
#[test]
fn time_conversions() {
    let mut rng = SimRng::new(0x7102);
    for _ in 0..CASES {
        let ns = rng.gen_range(1 << 30);
        let t = SimTime::from_ns(ns);
        assert!((t.as_ns() - ns as f64).abs() < 1e-6);
        assert_eq!(SimTime::from_ns_f64(t.as_ns()), t);
    }
}

/// mops() and rate helpers are mutually consistent.
#[test]
fn rate_helpers() {
    let mut rng = SimRng::new(0x7103);
    for _ in 0..CASES {
        let ops = 1 + rng.gen_range(1_000_000 - 1);
        let span_ns = 1 + rng.gen_range((1 << 30) - 1);
        let span = SimTime::from_ns(span_ns);
        let m = mops(ops, span);
        assert!(m > 0.0);
        // ops/span in Mops = ops / span_us.
        assert!((m - ops as f64 / (span_ns as f64 / 1000.0)).abs() < 1e-6 * m.max(1.0));
    }
}

/// Link constants: higher gbps, fewer ps per byte; always divides 8000.
#[test]
fn link_constants() {
    for gbps in 1..400 {
        assert_eq!(ps_per_byte_gbps(gbps), 8_000 / gbps);
    }
}

/// The event queue is a stable priority queue: output is sorted by time,
/// and equal-time events keep insertion order.
#[test]
fn event_queue_is_stable() {
    let mut rng = SimRng::new(0x7104);
    for _ in 0..CASES {
        let n = 1 + rng.gen_range(199) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ns(t), i);
        }
        let mut out = Vec::new();
        while let Some((t, i)) = q.pop() {
            out.push((t, i));
        }
        assert_eq!(out.len(), times.len());
        for w in out.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }
}

/// A KServer conserves work: total busy time equals the sum of service
/// times, regardless of arrival pattern.
#[test]
fn kserver_conserves_work() {
    let mut rng = SimRng::new(0x7105);
    for _ in 0..CASES {
        let k = 1 + rng.gen_range(4) as usize;
        let n = 1 + rng.gen_range(99);
        let mut s = KServer::new(k);
        let mut expect = 0u64;
        for _ in 0..n {
            let (ready, svc) = (rng.gen_range(100_000), 1 + rng.gen_range(1_999));
            s.acquire(SimTime::ZERO, SimTime::from_ps(ready), SimTime::from_ps(svc));
            expect += svc;
        }
        assert_eq!(s.busy().as_ps(), expect);
    }
}

/// A saturated single-unit server finishes exactly sum(service) after the
/// first start.
#[test]
fn kserver_saturated_makespan() {
    let mut rng = SimRng::new(0x7106);
    for _ in 0..CASES {
        let svcs: Vec<u64> = (0..1 + rng.gen_range(99)).map(|_| 1 + rng.gen_range(999)).collect();
        let mut s = KServer::new(1);
        let mut last = SimTime::ZERO;
        for &svc in &svcs {
            let (_, end) = s.acquire(SimTime::ZERO, SimTime::ZERO, SimTime::from_ps(svc));
            last = last.max(end);
        }
        assert_eq!(last.as_ps(), svcs.iter().sum::<u64>());
    }
}

/// Bandwidth links serialize bytes exactly.
#[test]
fn link_serializes_exactly() {
    let mut rng = SimRng::new(0x7107);
    for _ in 0..CASES {
        let sizes: Vec<u64> =
            (0..1 + rng.gen_range(59)).map(|_| 1 + rng.gen_range(9_999)).collect();
        let mut l = BandwidthLink::new(200, SimTime::from_ns(100));
        let mut last = SimTime::ZERO;
        for &b in &sizes {
            let (_, arr) = l.transfer(SimTime::ZERO, SimTime::ZERO, b);
            last = last.max(arr);
        }
        let total: u64 = sizes.iter().sum();
        assert_eq!(last.as_ps(), total * 200 + 100_000);
    }
}

/// Summary quantiles are order statistics: min ≤ p50 ≤ p99 ≤ max and all
/// are sample members. (Uses the fallible constructor — the empty case is
/// `None`, not a panic.)
#[test]
fn summary_quantiles() {
    assert!(Summary::try_from_samples(Vec::new()).is_none());
    let mut rng = SimRng::new(0x7108);
    for _ in 0..CASES {
        let mut xs: Vec<u64> =
            (0..1 + rng.gen_range(199)).map(|_| rng.gen_range(1 << 30)).collect();
        let samples: Vec<SimTime> = xs.iter().map(|&x| SimTime::from_ps(x)).collect();
        let s = Summary::try_from_samples(samples.clone()).expect("non-empty");
        xs.sort_unstable();
        assert_eq!(s.min().as_ps(), xs[0]);
        assert_eq!(s.max().as_ps(), *xs.last().unwrap());
        assert!(s.min() <= s.p50() && s.p50() <= s.p99() && s.p99() <= s.max());
        assert!(samples.contains(&s.p50()));
    }
}

/// gen_range always stays in bounds, even for awkward moduli.
#[test]
fn rng_range_bounds() {
    let mut meta = SimRng::new(0x7109);
    for _ in 0..CASES {
        let seed = meta.next_u64();
        let bound = 1 + meta.gen_range((1 << 50) - 1);
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            assert!(rng.gen_range(bound) < bound);
        }
    }
}

/// Split streams never collide even for adjacent ids.
#[test]
fn rng_split_streams_differ() {
    let mut meta = SimRng::new(0x710A);
    for _ in 0..CASES {
        let root = SimRng::new(meta.next_u64());
        let id = meta.gen_range(1 << 40);
        let mut a = root.split(id);
        let mut b = root.split(id + 1);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }
}
