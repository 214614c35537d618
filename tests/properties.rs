//! Property-style tests over the core invariants: simulated memory behaves
//! like memory, the timeline allocator never double-books, atomics
//! conserve, the LRU matches a reference model, and workload encodings
//! round-trip. Random programs come from the deterministic `SimRng` (fixed
//! seeds; no external property-testing framework).

use rdma_memsem::net::{ClusterConfig, Endpoint, Testbed};
use rdma_memsem::nic::{CqeStatus, RKey, Sge, VerbKind, WorkRequest, WrId};
use rdma_memsem::sim::{KServer, LruSet, SimRng, SimTime};
use std::collections::HashMap;

/// A random program of writes and reads against one remote region must
/// agree with a plain `Vec<u8>` model.
#[derive(Debug, Clone)]
enum Op {
    Write { off: u16, data: Vec<u8> },
    Read { off: u16, len: u8 },
    Faa { off_slot: u8, delta: u32 },
}

fn random_op(rng: &mut SimRng) -> Op {
    match rng.gen_range(3) {
        0 => {
            let off = rng.gen_range(3000) as u16;
            let data: Vec<u8> = (0..1 + rng.gen_range(63)).map(|_| rng.next_u64() as u8).collect();
            Op::Write { off, data }
        }
        1 => Op::Read { off: rng.gen_range(3000) as u16, len: 1 + rng.gen_range(63) as u8 },
        _ => Op::Faa { off_slot: rng.gen_range(16) as u8, delta: rng.next_u64() as u32 },
    }
}

#[test]
fn remote_memory_matches_a_byte_model() {
    let mut rng = SimRng::new(0xE101);
    for _ in 0..24 {
        let ops: Vec<Op> = (0..1 + rng.gen_range(59)).map(|_| random_op(&mut rng)).collect();
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let src = tb.register(0, 1, 8192);
        let dst = tb.register(1, 1, 8192);
        let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        let rkey = RKey(dst.0 as u64);
        let mut model = vec![0u8; 8192];
        let mut t = SimTime::ZERO;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Write { off, data } => {
                    let off = *off as u64;
                    tb.machine_mut(0).mem.write(src, 0, data);
                    let wr = WorkRequest::write(
                        i as u64,
                        Sge::new(src, 0, data.len() as u64),
                        rkey,
                        off,
                    );
                    let c = tb.post_one(t, conn, wr);
                    assert_eq!(c.status, CqeStatus::Success);
                    t = c.at;
                    model[off as usize..off as usize + data.len()].copy_from_slice(data);
                }
                Op::Read { off, len } => {
                    let off = *off as u64;
                    let len = *len as u64;
                    let wr = WorkRequest::read(i as u64, Sge::new(src, 4096, len), rkey, off);
                    let c = tb.post_one(t, conn, wr);
                    assert_eq!(c.status, CqeStatus::Success);
                    t = c.at;
                    let got = tb.machine(0).mem.read(src, 4096, len);
                    assert_eq!(&got[..], &model[off as usize..(off + len) as usize]);
                }
                Op::Faa { off_slot, delta } => {
                    // Aligned 8-byte counters in the 4096.. area of dst.
                    let off = 4096 + *off_slot as u64 * 8;
                    let wr = WorkRequest {
                        wr_id: WrId(i as u64),
                        kind: VerbKind::FetchAdd { delta: *delta as u64 },
                        sgl: Sge::new(src, 0, 8).into(),
                        remote: Some((rkey, off)),
                        signaled: true,
                    };
                    let c = tb.post_one(t, conn, wr);
                    assert_eq!(c.status, CqeStatus::Success);
                    t = c.at;
                    let old = u64::from_le_bytes(
                        model[off as usize..off as usize + 8].try_into().unwrap(),
                    );
                    assert_eq!(c.old_value, old);
                    model[off as usize..off as usize + 8]
                        .copy_from_slice(&old.wrapping_add(*delta as u64).to_le_bytes());
                }
            }
        }
        // Final memory image agrees everywhere.
        assert_eq!(tb.machine(1).mem.read(dst, 0, 8192), model);
    }
}

/// The gap-filling KServer never overlaps two bookings on one unit and
/// never serves before the request is ready.
#[test]
fn kserver_bookings_never_overlap() {
    let mut rng = SimRng::new(0xE102);
    for _ in 0..32 {
        let units = 1 + rng.gen_range(3) as usize;
        let reqs: Vec<(u64, u64)> = (0..1 + rng.gen_range(119))
            .map(|_| (rng.gen_range(100_000), 1 + rng.gen_range(4_999)))
            .collect();
        let mut s = KServer::new(units);
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for &(ready, service) in &reqs {
            let (start, end) =
                s.acquire(SimTime::ZERO, SimTime::from_ps(ready), SimTime::from_ps(service));
            assert!(start.as_ps() >= ready, "served before ready");
            assert_eq!(end.as_ps() - start.as_ps(), service);
            intervals.push((start.as_ps(), end.as_ps()));
        }
        // Across all units, at any instant at most `units` bookings overlap.
        let mut events: Vec<(u64, i64)> = Vec::new();
        for &(s0, e0) in &intervals {
            events.push((s0, 1));
            events.push((e0, -1));
        }
        events.sort();
        let mut depth = 0i64;
        for (_, d) in events {
            depth += d;
            assert!(depth <= units as i64, "more overlap than units");
        }
    }
}

/// The LRU set agrees with a brute-force reference model.
#[test]
fn lru_matches_reference() {
    let mut rng = SimRng::new(0xE103);
    for _ in 0..48 {
        let cap = 1 + rng.gen_range(11) as usize;
        let keys: Vec<u64> = (0..1 + rng.gen_range(299)).map(|_| rng.gen_range(40)).collect();
        let mut lru = LruSet::new(cap);
        let mut model: Vec<u64> = Vec::new(); // front = MRU
        for &k in &keys {
            let hit = lru.access(k);
            let model_hit = model.contains(&k);
            assert_eq!(hit, model_hit, "divergence on key {k}");
            model.retain(|&x| x != k);
            model.insert(0, k);
            model.truncate(cap);
        }
    }
}

/// Log records survive encode/decode across arbitrary bodies, and a packed
/// log scans back exactly.
#[test]
fn log_records_round_trip() {
    use rdma_memsem::gen::{scan_log, Record};
    let mut rng = SimRng::new(0xE104);
    for _ in 0..32 {
        let bodies: Vec<Vec<u8>> = (0..1 + rng.gen_range(19))
            .map(|_| (0..rng.gen_range(100)).map(|_| rng.next_u64() as u8).collect())
            .collect();
        let mut log = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            let r = Record { engine: 1, seq: i as u32, body: body.clone() };
            log.extend_from_slice(&r.encode());
        }
        log.extend_from_slice(&[0u8; 64]);
        let back: Vec<Record> = scan_log(&log).collect();
        assert_eq!(back.len(), bodies.len());
        for (i, r) in back.iter().enumerate() {
            assert_eq!(&r.body, &bodies[i]);
        }
    }
}

/// Shuffle entries round-trip and route identically after re-encode.
#[test]
fn shuffle_entries_round_trip() {
    use rdma_memsem::gen::Entry;
    let mut rng = SimRng::new(0xE105);
    for _ in 0..64 {
        let key = rng.next_u64();
        let value: Vec<u8> = (0..rng.gen_range(128)).map(|_| rng.next_u64() as u8).collect();
        let consumers = 1 + rng.gen_range(63) as usize;
        let e = Entry { key, value };
        let decoded = Entry::decode(&e.encode(), e.value.len());
        assert_eq!(&decoded, &e);
        assert_eq!(decoded.destination(consumers), e.destination(consumers));
        assert!(e.destination(consumers) < consumers);
    }
}

/// Zipf draws stay in range and rank popularity is monotone in the
/// aggregate (rank r is drawn at least as often as rank r+8, over a large
/// sample).
#[test]
fn zipf_is_monotone_in_rank() {
    use rdma_memsem::gen::Zipf;
    let mut meta = SimRng::new(0xE106);
    for _ in 0..8 {
        let z = Zipf::paper(256);
        let mut rng = SimRng::new(meta.next_u64());
        let mut counts = HashMap::new();
        for _ in 0..20_000 {
            let r = z.rank(&mut rng);
            assert!(r < 256);
            *counts.entry(r).or_insert(0u64) += 1;
        }
        let get = |r: u64| counts.get(&r).copied().unwrap_or(0);
        for r in [0u64, 8, 16, 32, 64] {
            assert!(get(r) + 50 >= get(r + 8), "rank {} vs {}", r, r + 8);
        }
    }
}
