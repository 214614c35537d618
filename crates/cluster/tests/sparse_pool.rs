//! Differential proof that the sparse lazy-page pool is byte-identical
//! to a dense reference model, plus a shard-migration test pinning that
//! `split_shards`/`absorb_shards` move sparse regions wholesale without
//! materializing untouched pages.

use cluster::{ClosedLoop, ClusterConfig, Endpoint, MemoryPool, Pinned, Testbed, CHUNK_BYTES};
use rnicsim::{MrId, RKey, Sge, WorkRequest};
use simcore::{SimRng, SimTime};

/// The dense reference: exactly the pre-sparse `MemoryPool` semantics —
/// a backed region is one eager zeroed `Vec<u8>`, an unbacked region is
/// `None`, ids are never reused.
#[derive(Default)]
struct DenseModel {
    regions: Vec<Option<(u64, Option<Vec<u8>>)>>,
}

impl DenseModel {
    fn register(&mut self, len: u64, backed: bool) -> MrId {
        let id = MrId(self.regions.len() as u32);
        self.regions.push(Some((len, backed.then(|| vec![0u8; len as usize]))));
        id
    }

    fn deregister(&mut self, mr: MrId) {
        self.regions[mr.0 as usize] = None;
    }

    fn write(&mut self, mr: MrId, off: u64, bytes: &[u8]) {
        if let Some((_, Some(data))) = &mut self.regions[mr.0 as usize] {
            data[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        }
    }

    fn read(&self, mr: MrId, off: u64, len: u64) -> Vec<u8> {
        match &self.regions[mr.0 as usize] {
            Some((_, Some(data))) => data[off as usize..(off + len) as usize].to_vec(),
            Some((_, None)) => vec![0; len as usize],
            None => panic!("read of deregistered MR"),
        }
    }

    fn copy_within(&mut self, src: MrId, src_off: u64, dst: MrId, dst_off: u64, len: u64) {
        let bytes = self.read(src, src_off, len);
        self.write(dst, dst_off, &bytes);
    }

    fn len_of(&self, mr: MrId) -> Option<u64> {
        self.regions[mr.0 as usize].as_ref().map(|(len, _)| *len)
    }

    fn is_backed(&self, mr: MrId) -> bool {
        matches!(&self.regions[mr.0 as usize], Some((_, Some(_))))
    }
}

/// An offset biased toward chunk seams: half the time land within ±16
/// bytes of a seam so spans regularly straddle chunks.
fn biased_offset(rng: &mut SimRng, len: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    if rng.gen_range(2) == 0 && len > CHUNK_BYTES {
        let seam = (1 + rng.gen_range(len / CHUNK_BYTES)) * CHUNK_BYTES;
        seam.saturating_sub(rng.gen_range(16)).min(len - 1)
    } else {
        rng.gen_range(len)
    }
}

#[test]
fn sparse_pool_matches_dense_reference_model() {
    let mut rng = SimRng::new(0x5EED_5EED);
    let mut pool = MemoryPool::new();
    let mut model = DenseModel::default();
    let mut live: Vec<MrId> = Vec::new();

    for step in 0..4000u32 {
        match rng.gen_range(100) {
            // Register (mostly backed; lens span zero to several chunks).
            0..=9 => {
                let len = match rng.gen_range(4) {
                    0 => rng.gen_range(64),
                    1 => rng.gen_range(CHUNK_BYTES),
                    _ => rng.gen_range(4 * CHUNK_BYTES) + 1,
                };
                let backed = rng.gen_range(4) != 0;
                let id =
                    if backed { pool.register(0, len) } else { pool.register_unbacked(0, len) };
                assert_eq!(id, model.register(len, backed), "id allocation must match");
                live.push(id);
            }
            // Deregister a random live region.
            10..=12 if !live.is_empty() => {
                let mr = live.swap_remove(rng.gen_range(live.len() as u64) as usize);
                assert!(pool.deregister(mr));
                model.deregister(mr);
            }
            // Write random bytes (sometimes all zeros — the elision path
            // must stay byte-invisible).
            13..=45 if !live.is_empty() => {
                let mr = live[rng.gen_range(live.len() as u64) as usize];
                let len = model.len_of(mr).expect("live");
                if len == 0 {
                    continue;
                }
                let off = biased_offset(&mut rng, len);
                let n = (rng.gen_range(200) + 1).min(len - off);
                let bytes: Vec<u8> = match rng.gen_range(3) {
                    0 => vec![0; n as usize],
                    _ => (0..n).map(|_| rng.gen_range(256) as u8).collect(),
                };
                pool.write(mr, off, &bytes);
                model.write(mr, off, &bytes);
            }
            // Read and compare, via every read path.
            46..=75 if !live.is_empty() => {
                let mr = live[rng.gen_range(live.len() as u64) as usize];
                let len = model.len_of(mr).expect("live");
                if len == 0 {
                    continue;
                }
                let off = biased_offset(&mut rng, len);
                let n = (rng.gen_range(300) + 1).min(len - off);
                let expect = model.read(mr, off, n);
                assert_eq!(pool.read(mr, off, n), expect, "read diverged at step {step}");
                let mut out = vec![0xAA];
                pool.read_into(mr, off, n, &mut out);
                assert_eq!(&out[1..], expect, "read_into diverged at step {step}");
                if let Some(s) = pool.try_slice(mr, off, n) {
                    assert_eq!(s, expect, "try_slice diverged at step {step}");
                } else {
                    // None is only legal for unbacked regions or
                    // seam-straddling spans.
                    let crosses = (off / CHUNK_BYTES) != ((off + n - 1) / CHUNK_BYTES);
                    assert!(
                        !model.is_backed(mr) || crosses,
                        "try_slice refused an in-chunk backed span at step {step}"
                    );
                }
                let mut scratch = Vec::new();
                match pool.read_view(mr, off, n, &mut scratch) {
                    Some(s) => assert_eq!(s, expect, "read_view diverged at step {step}"),
                    None => assert!(!model.is_backed(mr)),
                }
            }
            // Bulk copy between two distinct regions.
            76..=90 if live.len() >= 2 => {
                let a = live[rng.gen_range(live.len() as u64) as usize];
                let b = live[rng.gen_range(live.len() as u64) as usize];
                if a == b {
                    continue;
                }
                let (la, lb) = (model.len_of(a).unwrap(), model.len_of(b).unwrap());
                if la == 0 || lb == 0 {
                    continue;
                }
                let src_off = biased_offset(&mut rng, la);
                let dst_off = biased_offset(&mut rng, lb);
                let n = (rng.gen_range(3 * CHUNK_BYTES) + 1).min(la - src_off).min(lb - dst_off);
                pool.copy_within(a, src_off, b, dst_off, n);
                model.copy_within(a, src_off, b, dst_off, n);
            }
            // u64 load/store on backed regions.
            _ if !live.is_empty() => {
                let mr = live[rng.gen_range(live.len() as u64) as usize];
                let len = model.len_of(mr).expect("live");
                if len < 8 || !model.is_backed(mr) {
                    continue;
                }
                let off = biased_offset(&mut rng, len - 7);
                let expect = u64::from_le_bytes(model.read(mr, off, 8).try_into().unwrap());
                assert_eq!(pool.load_u64(mr, off), expect, "load_u64 diverged at step {step}");
                let v = rng.gen_range(u64::MAX);
                pool.store_u64(mr, off, v);
                model.write(mr, off, &v.to_le_bytes());
            }
            _ => {}
        }
    }

    // Full final sweep: every live region byte-for-byte.
    for &mr in &live {
        let len = model.len_of(mr).expect("live");
        assert_eq!(pool.read(mr, 0, len), model.read(mr, 0, len), "final image diverged");
    }
    // The sparse pool must actually have stayed sparse: the model holds
    // every byte densely, the pool only what was written.
    assert!(
        pool.resident_bytes() <= pool.dense_bytes(),
        "resident accounting exceeded dense equivalent"
    );
}

/// Assert every read path agrees with the model on `[off, off + n)`.
fn assert_reads_match(pool: &MemoryPool, model: &DenseModel, mr: MrId, off: u64, n: u64) {
    let expect = model.read(mr, off, n);
    assert_eq!(pool.read(mr, off, n), expect, "read at {off}+{n}");
    let mut out = Vec::new();
    pool.read_into(mr, off, n, &mut out);
    assert_eq!(out, expect, "read_into at {off}+{n}");
    let mut scratch = Vec::new();
    assert_eq!(pool.read_view(mr, off, n, &mut scratch).unwrap(), expect, "read_view at {off}");
    if let Some(s) = pool.try_slice(mr, off, n) {
        assert_eq!(s, expect, "try_slice at {off}+{n}");
    }
    if n >= 8 {
        let word = u64::from_le_bytes(expect[..8].try_into().unwrap());
        assert_eq!(pool.load_u64(mr, off), word, "load_u64 at {off}");
    }
}

/// The slot table grows only when a chunk materializes, so the edges of
/// that growth get their own differential pass: reads, word loads, zero
/// writes and zero copies past the table's current end; a high chunk
/// materialized before the low ones; and the short last chunk of a region
/// whose length is not a multiple of [`CHUNK_BYTES`].
#[test]
fn slot_table_growth_edges_match_dense_reference_model() {
    let mut pool = MemoryPool::new();
    let mut model = DenseModel::default();
    let tail = CHUNK_BYTES * 5 / 8;
    let len = 5 * CHUNK_BYTES + tail; // chunk 5 is short
    let a = pool.register(0, len);
    let b = pool.register(0, len);
    assert_eq!((model.register(len, true), model.register(len, true)), (a, b));
    let seam = |c: u64| c * CHUNK_BYTES;

    // Empty table: every read past its end is zeros, and so is every
    // seam-straddling load; zero writes and zero copies stay elided.
    for off in [0, seam(2) - 4, seam(3) + 17, seam(5) - 3, len - 8] {
        assert_reads_match(&pool, &model, a, off, 8);
    }
    pool.write(a, seam(4) + 8, &[0; 64]);
    pool.write(a, seam(3) - 16, &[0; CHUNK_BYTES as usize]);
    pool.copy_within(b, seam(2), a, seam(4) - 100, 300);
    assert_eq!(pool.resident_bytes(), 0, "zero effects past the end must not materialize");

    // A high chunk first: the table jumps past the low, still-empty slots.
    let high = b"high chunk before low ones";
    pool.write(a, seam(3) + 40, high);
    model.write(a, seam(3) + 40, high);
    assert_eq!(pool.resident_bytes(), CHUNK_BYTES);
    for off in [seam(1) + 5, seam(3) + 36, seam(4) - 4, seam(4) + 9, len - 8] {
        assert_reads_match(&pool, &model, a, off, 8);
    }
    assert_reads_match(&pool, &model, a, seam(3), 2 * CHUNK_BYTES);
    // Past the grown end (chunks 4 and 5) zero effects are still elided.
    pool.write(a, seam(4) + 8, &[0; 64]);
    pool.write(a, seam(5), &vec![0; tail as usize]);
    pool.copy_within(b, 0, a, seam(4) + 1, CHUNK_BYTES + 1);
    assert_eq!(pool.resident_bytes(), CHUNK_BYTES);

    // Then a low chunk, which fills in below the existing end.
    pool.write(a, 3, b"low");
    model.write(a, 3, b"low");
    assert_eq!(pool.resident_bytes(), 2 * CHUNK_BYTES);

    // The short last chunk materializes at its own length, including via
    // a write straddling the seam into it and via `try_slice_mut`.
    let straddle: Vec<u8> = (1..=32).collect();
    pool.write(a, seam(5) - 16, &straddle);
    model.write(a, seam(5) - 16, &straddle);
    assert_eq!(pool.resident_bytes(), 3 * CHUNK_BYTES + tail);
    pool.write(a, len - 5, b"tail!");
    model.write(a, len - 5, b"tail!");
    pool.try_slice_mut(b, len - 4, 4).unwrap().copy_from_slice(b"last");
    model.write(b, len - 4, b"last");
    assert_eq!(pool.resident_bytes(), 3 * CHUNK_BYTES + 2 * tail);
    for off in [seam(5) - 20, len - 8, seam(2) + 100] {
        assert_reads_match(&pool, &model, a, off, 8);
        assert_reads_match(&pool, &model, b, off, 8);
    }

    // A real copy out of the grown table into b's empty low chunks: its
    // first 10 bytes are zeros and stay elided in b's chunk 0, the rest
    // carries `high` and materializes b's chunk 1.
    pool.copy_within(a, seam(3) + 30, b, seam(1) - 10, 40);
    model.copy_within(a, seam(3) + 30, b, seam(1) - 10, 40);
    for mr in [a, b] {
        assert_eq!(pool.read(mr, 0, len), model.read(mr, 0, len), "final image of {mr:?}");
    }
    assert_eq!(pool.resident_bytes(), 4 * CHUNK_BYTES + 2 * tail);
}

/// Sharding must move sparse regions wholesale: registering huge backed
/// regions on every machine and driving real traffic through a 2-shard
/// split/absorb cycle materializes only the chunks the verbs touched —
/// untouched pages survive the migration as holes, byte- and
/// residency-identical to a serial run.
#[test]
fn shard_migration_preserves_sparse_holes() {
    let run = |shards: usize| -> (Vec<u64>, Vec<u64>, Vec<Vec<u8>>) {
        let pairs = 2usize;
        let mut tb = Testbed::new(ClusterConfig { machines: 2 * pairs, ..Default::default() });
        let mut setups = Vec::new();
        for p in 0..pairs {
            let (a, b) = (2 * p, 2 * p + 1);
            // 1 GiB registered per side — dense backing would need 4 GiB
            // for this testbed; sparse backing materializes only the
            // handful of chunks the writes below land in.
            let src = tb.register(a, 1, 1 << 30);
            let dst = tb.register(b, 1, 1 << 30);
            tb.machine_mut(a).mem.write(src, 0, b"nonzero payload seed");
            let conn = tb.connect(Endpoint::affine(a, 1), Endpoint::affine(b, 1));
            setups.push((src, dst, conn));
        }
        let mut loops: Vec<_> = setups
            .iter()
            .map(|&(src, dst, conn)| {
                ClosedLoop::new(2, 40, move |tb: &mut Testbed, now: SimTime, i: u64| {
                    // Writes hop across the region in 3 far-apart spots,
                    // re-reading the seeded source bytes.
                    let dst_off = (i % 3) * (200 << 20);
                    let wr =
                        WorkRequest::write(i, Sge::new(src, 0, 20), RKey(dst.0 as u64), dst_off);
                    tb.post_one(now, conn, wr).at
                })
            })
            .collect();
        {
            let mut pinned: Vec<Pinned<'_>> =
                loops.iter_mut().enumerate().map(|(p, cl)| Pinned::new(2 * p, cl)).collect();
            cluster::run_clients_sharded(&mut tb, &mut pinned, shards, SimTime::MAX);
        }
        let resident: Vec<u64> =
            (0..2 * pairs).map(|m| tb.machine(m).mem.resident_bytes()).collect();
        let digests: Vec<u64> = setups
            .iter()
            .enumerate()
            .flat_map(|(p, &(src, dst, _))| {
                [
                    tb.machine(2 * p).mem.resident_digest(src),
                    tb.machine(2 * p + 1).mem.resident_digest(dst),
                ]
            })
            .collect();
        let images: Vec<Vec<u8>> = setups
            .iter()
            .enumerate()
            .map(|(p, &(_, dst, _))| tb.machine(2 * p + 1).mem.read(dst, 0, 64))
            .collect();
        (resident, digests, images)
    };

    let serial = run(1);
    let sharded = run(2);
    assert_eq!(serial, sharded, "split/absorb changed bytes or materialization");
    // Each machine holds 1 GiB registered but only the touched chunks:
    // one source chunk on even machines, three destination chunks on odd.
    for (m, &res) in serial.0.iter().enumerate() {
        let expect = if m % 2 == 0 { CHUNK_BYTES } else { 3 * CHUNK_BYTES };
        assert_eq!(res, expect, "machine {m} materialized unexpected pages");
    }
}

/// The digest frame of [`MemoryPool::resident_digest`]: 64 KiB, fixed
/// independently of the pool's page size ([`CHUNK_BYTES`]).
const FRAME: u64 = 64 * 1024;

/// Test-only reference for `resident_digest`: per region, the set of
/// 64 KiB frames that ever received a nonzero byte. The digest folds, in
/// ascending order, each such frame's index and then its bytes as read
/// back through `read()` (holes included, the last frame short).
#[derive(Default)]
struct FrameReference {
    touched: Vec<std::collections::BTreeSet<u64>>,
}

impl FrameReference {
    fn register(&mut self) {
        self.touched.push(Default::default());
    }

    /// Record a write of `bytes` at `off`: every frame whose share of the
    /// span is nonzero becomes (and stays) part of the digest.
    fn write(&mut self, mr: MrId, off: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            if b != 0 {
                self.touched[mr.0 as usize].insert((off + i as u64) / FRAME);
            }
        }
    }

    fn digest(&self, pool: &MemoryPool, mr: MrId) -> u64 {
        let len = pool.region(mr).expect("live").len;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        };
        for &f in &self.touched[mr.0 as usize] {
            fold(&f.to_le_bytes());
            fold(&pool.read(mr, f * FRAME, FRAME.min(len - f * FRAME)));
        }
        h
    }
}

/// An offset for a `n`-byte span of a `len`-byte region, biased so that
/// about half the spans start just before a page or 64 KiB seam and
/// straddle it.
fn seam_offset(rng: &mut SimRng, len: u64, n: u64) -> u64 {
    let room = len - n + 1;
    if rng.gen_bool(0.5) {
        let grain = if rng.gen_bool(0.5) { CHUNK_BYTES } else { FRAME };
        let seam = grain * (1 + rng.gen_range((len / grain).max(1)));
        let off = seam.saturating_sub(1 + rng.gen_range(n.min(64)));
        if off < room {
            return off;
        }
    }
    rng.gen_range(room)
}

/// `resident_digest` is defined over 64 KiB frames, so it does not depend
/// on the page size: after a seeded soup of zero and nonzero writes,
/// `copy_within` and `store_u64` (spans straddling page
/// and 64 KiB seams, one region not a multiple of 64 KiB), every region's
/// digest equals the frame reference's.
#[test]
fn resident_digest_matches_frame_reference() {
    let mut rng = SimRng::new(0xF4A3_E5E5);
    let mut pool = MemoryPool::new();
    let mut frames = FrameReference::default();
    let lens = [3 * FRAME + 5000, 4 * FRAME, FRAME / 2 + 123];
    let regions: Vec<MrId> = lens
        .iter()
        .map(|&len| {
            frames.register();
            pool.register(0, len)
        })
        .collect();
    let pick = |rng: &mut SimRng| rng.gen_range(regions.len() as u64) as usize;

    for step in 0..3000u32 {
        let i = pick(&mut rng);
        let (mr, len) = (regions[i], lens[i]);
        let n =
            if rng.gen_bool(0.1) { 1 + rng.gen_range(2 * FRAME) } else { 1 + rng.gen_range(300) };
        let n = n.min(len);
        let off = seam_offset(&mut rng, len, n);
        match rng.gen_range(10) {
            0..=3 => {
                let bytes: Vec<u8> = if rng.gen_bool(0.3) {
                    vec![0; n as usize]
                } else {
                    (0..n).map(|_| rng.gen_range(4) as u8).collect()
                };
                pool.write(mr, off, &bytes);
                frames.write(mr, off, &bytes);
            }
            4 | 5 => pool.write(mr, off, &vec![0; n as usize]),
            6 | 7 => {
                let j = (i + 1 + rng.gen_range(regions.len() as u64 - 1) as usize) % regions.len();
                let (dst, dst_len) = (regions[j], lens[j]);
                let n = n.min(dst_len);
                let src_off = seam_offset(&mut rng, len, n);
                let dst_off = seam_offset(&mut rng, dst_len, n);
                let bytes = pool.read(mr, src_off, n);
                pool.copy_within(mr, src_off, dst, dst_off, n);
                frames.write(dst, dst_off, &bytes);
            }
            _ => {
                let off = seam_offset(&mut rng, len, 8);
                let v = if rng.gen_bool(0.2) { 0 } else { rng.gen_range(u64::MAX) };
                pool.store_u64(mr, off, v);
                frames.write(mr, off, &v.to_le_bytes());
            }
        }
        if step % 250 == 0 {
            for &mr in &regions {
                assert_eq!(pool.resident_digest(mr), frames.digest(&pool, mr), "step {step}");
            }
        }
    }
    for &mr in &regions {
        assert_eq!(pool.resident_digest(mr), frames.digest(&pool, mr), "final {mr:?}");
    }
}

/// One fixed sequence's digest, recorded with 64 KiB pages: a page-size
/// change must reproduce it exactly (fig6-xxl and simbench pin digests of
/// the same kind). It covers a frame with holes, a write straddling a
/// 64 KiB seam, a zero write and a zero copy (both elided), a real copy,
/// a word store across a 4 KiB seam, and the short last frame.
#[test]
fn resident_digest_of_a_fixed_sequence_is_pinned() {
    let mut pool = MemoryPool::new();
    let a = pool.register(0, 3 * FRAME + 5000);
    let b = pool.register(0, 2 * FRAME);
    pool.write(a, 100, b"head of frame zero");
    pool.write(a, 9 * 4096 + 7, b"same frame, a later page");
    pool.write(a, FRAME - 6, b"straddles a frame seam");
    pool.write(a, 2 * FRAME + 10, &[0; 512]);
    pool.write(a, 2 * FRAME, &[0; 4096]);
    pool.copy_within(b, 0, a, 2 * FRAME + 40, 4096);
    pool.copy_within(a, 90, b, FRAME + 4096 - 20, 64);
    pool.store_u64(b, 4096 - 3, 0x0123_4567_89AB_CDEF);
    pool.write(a, 3 * FRAME + 4990, b"tail bytes");
    let digests = [pool.resident_digest(a), pool.resident_digest(b)];
    assert_eq!(digests, [0x4e65_15b8_be5b_8359, 0xaaee_5c36_7b5b_a69c]);
}
