//! Standalone benches for the simulation engine's hot paths: these bound
//! how fast the reproduction harness itself runs (wall-clock per simulated
//! operation), independent of virtual-time results.

use bench::harness::bench;
use simcore::{EventQueue, KServer, LruSet, SimRng, SimTime};

fn bench_event_queue() {
    for &n in &[1_000u64, 100_000] {
        bench(&format!("event_queue/push_pop_{n}"), n, || {
            let mut q = EventQueue::new();
            let mut rng = SimRng::new(1);
            for i in 0..n {
                q.push(SimTime::from_ps(rng.next_u64() % 1_000_000), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                assert!(t >= last);
                last = t;
            }
            last
        });
    }
    // Steady-state churn at the queue's peak occupancies across the
    // experiments (448 wake-ups in `extra-qp-scale`, 56 in `fig12`): pop
    // the earliest client and re-arm it a random 0.1–2 us ahead.
    for &occ in &[448u64, 56] {
        bench(&format!("event_queue/churn_{occ}"), 1_000_000, || {
            let mut q = EventQueue::new();
            let mut rng = SimRng::new(7);
            for i in 0..occ {
                q.push(SimTime::from_ps(rng.next_u64() % 2_000_000), i);
            }
            let mut last = SimTime::ZERO;
            for _ in 0..1_000_000u64 {
                let (t, i) = q.pop().expect("non-empty");
                assert!(t >= last);
                last = t;
                q.push(t + SimTime::from_ps(100_000 + rng.next_u64() % 1_900_000), i);
            }
            assert_eq!(q.len() as u64, occ);
            last
        });
    }
    // The near-future pattern run_clients produces: pop one event, push
    // its successor a short hop ahead.
    bench("event_queue/hot_loop_ticks", 1_000_000, || {
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.push(SimTime::from_ns(i), i);
        }
        let mut n = 0u64;
        while n < 1_000_000 {
            let (t, i) = q.pop().expect("non-empty");
            q.push(t + SimTime::from_ns(100), i);
            n += 1;
        }
        q.len()
    });
}

fn bench_kserver() {
    // Saturated: back-to-back bookings merge into one interval.
    bench("kserver/acquire_saturated", 100_000, || {
        let mut s = KServer::new(4);
        let mut end = SimTime::ZERO;
        for _ in 0..100_000u64 {
            end = s.acquire(SimTime::ZERO, SimTime::ZERO, SimTime::from_ns(100)).1;
        }
        end
    });
    // Sparse: bookings land in scattered gaps (worst case for the
    // interval list).
    bench("kserver/acquire_sparse", 100_000, || {
        let mut s = KServer::new(1);
        let mut rng = SimRng::new(2);
        let mut end = SimTime::ZERO;
        for _ in 0..100_000u64 {
            let ready = SimTime::from_ns(rng.next_u64() % 1_000_000);
            end = s.acquire(SimTime::ZERO, ready, SimTime::from_ns(30)).1;
        }
        end
    });
}

fn bench_lru() {
    bench("lru/access_zipf_like", 1_000_000, || {
        let mut lru = LruSet::new(1024);
        let mut rng = SimRng::new(3);
        let mut hits = 0u64;
        for _ in 0..1_000_000u64 {
            // 80/20-ish mix: hot 512 keys + cold tail.
            let k = if rng.gen_bool(0.8) { rng.gen_range(512) } else { rng.gen_range(1 << 20) };
            if lru.access(k) {
                hits += 1;
            }
        }
        hits
    });
}

fn bench_rng() {
    bench("rng/xoshiro_next", 1_000_000, || {
        let mut rng = SimRng::new(4);
        let mut acc = 0u64;
        for _ in 0..1_000_000 {
            acc = acc.wrapping_add(rng.next_u64());
        }
        acc
    });
}

fn bench_models() {
    let z = workloads::Zipf::paper(1 << 20);
    bench("models/zipf_scrambled_draw", 1_000_000, || {
        let mut rng = SimRng::new(5);
        let mut acc = 0u64;
        for _ in 0..1_000_000 {
            acc = acc.wrapping_add(z.scrambled_key(&mut rng));
        }
        acc
    });
    bench("models/dram_access", 1_000_000, || {
        let mut d = memmodel::DramModel::paper_default();
        let mut rng = SimRng::new(6);
        let mut total = SimTime::ZERO;
        for _ in 0..1_000_000 {
            total += d.access(rng.gen_range(1 << 24) * 64);
        }
        total
    });
}

fn main() {
    bench_event_queue();
    bench_kserver();
    bench_lru();
    bench_rng();
    bench_models();
}
