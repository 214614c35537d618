//! Open-loop drivers for the four case-study apps.
//!
//! Each app gets a **basic** and an **optimized** driver. The optimized
//! variants apply the paper's guidelines — NUMA-affine consolidation for
//! the hashtable, 16-entry staged-push batching for the shuffle, 8-deep
//! doorbell batching for join probes, and reservation batching for the
//! log — so a load sweep exposes how far each guideline moves the knee.
//!
//! # Topology
//!
//! A traffic cluster is `pods` independent pods of two machines: clients
//! on machine `2p`, the served memory on machine `2p+1`. Connections never
//! leave a pod, so each pod is one connected component,
//! `cluster::run_clients_sharded` deals whole pods to shards, and
//! `--shards N` runs stay byte-identical to serial ones.
//!
//! # Batching and the linger deadline
//!
//! A batching driver holds arrivals until the batch fills. Under open-loop
//! arrivals the wait is unbounded at low load, so each batching driver
//! also exposes a *linger deadline* — the oldest buffered arrival plus a
//! small bound — and the [`OpenLoopWorker`] wakes at that deadline to
//! flush short batches. Tail latency of the optimized variants is
//! therefore `linger + flush` at low load and batch-amortized at high
//! load, which is the real trade batching makes.

use crate::engine::{AppKind, Driver, TrafficConfig};
use cluster::{ClusterConfig, ConnId, Endpoint, Testbed};
use rnicsim::{CqeStatus, MrId, QpNum, RKey, Sge, VerbKind, WorkRequest, WrId};
use simcore::{SimRng, SimTime};
use std::sync::Arc;
use workloads::{fnv64, ZipfAlias, HEADER_BYTES};

/// Hashtable: key-space size (slots are [`apps::hashtable::SLOT_BYTES`]).
pub const HT_KEYS: u64 = 1 << 14;
/// Hashtable: value bytes per slot entry.
pub const HT_VALUE_LEN: u64 = 64;
/// Hashtable: fraction of ops that are inserts (rest are searches).
pub const HT_WRITE_FRACTION: f64 = 0.5;
/// Hashtable: the hottest `1/HT_HOT_INV` of ranks take the buffered path.
pub const HT_HOT_INV: u64 = 32;
/// Hashtable: buffered writes per block before a flush (the paper's θ).
pub const HT_THETA: u32 = 16;

/// Shuffle: bytes per shuffle entry.
pub const SHUFFLE_ENTRY: u64 = 32;
/// Shuffle: entries per staged-push flush (the paper's SP16).
pub const SHUFFLE_SP: usize = 16;
/// Shuffle: linger bound on a partially-filled staged batch.
pub const SHUFFLE_LINGER: SimTime = SimTime::from_us(2);

/// Join: tuples in the probed relation.
pub const JOIN_TUPLES: u64 = 1 << 16;
/// Join: bytes per tuple.
pub const JOIN_TUPLE_BYTES: u64 = 16;
/// Join: probes per doorbell batch.
pub const JOIN_DOORBELL: usize = 8;
/// Join: linger bound on a partially-filled doorbell batch.
pub const JOIN_LINGER: SimTime = SimTime::from_us(1);

/// Dlog: encoded record size (16-byte header + 112-byte body).
pub const DLOG_RECORD: u64 = (HEADER_BYTES as u64) + 112;
/// Dlog: records per reservation batch.
pub const DLOG_BATCH: usize = 16;
/// Dlog: linger bound on a partially-filled commit batch.
pub const DLOG_LINGER: SimTime = SimTime::from_us(3);

fn rkey(mr: MrId) -> RKey {
    RKey(mr.0 as u64)
}

/// One driver per app kind; static dispatch keeps the hot loop monomorphic.
pub enum AppDriver {
    /// Hashtable front-end (consolidation + NUMA affinity when optimized).
    Hashtable(HtDriver),
    /// Shuffle entry pusher (SP16 staging when optimized).
    Shuffle(ShuffleDriver),
    /// Join prober (doorbell batching when optimized).
    Join(JoinDriver),
    /// Log appender (reservation batching when optimized).
    Dlog(DlogDriver),
}

impl Driver for AppDriver {
    fn issue(&mut self, now: SimTime, tb: &mut Testbed, out: &mut Vec<(SimTime, SimTime)>) {
        match self {
            AppDriver::Hashtable(d) => d.issue(now, tb, out),
            AppDriver::Shuffle(d) => d.issue(now, tb, out),
            AppDriver::Join(d) => d.issue(now, tb, out),
            AppDriver::Dlog(d) => d.issue(now, tb, out),
        }
    }

    fn drain(&mut self, now: SimTime, tb: &mut Testbed, out: &mut Vec<(SimTime, SimTime)>) {
        match self {
            AppDriver::Hashtable(_) => {}
            AppDriver::Shuffle(d) => d.flush(now, tb, out),
            AppDriver::Join(d) => d.flush(now, tb, out),
            AppDriver::Dlog(d) => d.flush(now, tb, out),
        }
    }

    fn deadline(&self) -> Option<SimTime> {
        match self {
            AppDriver::Hashtable(_) => None,
            AppDriver::Shuffle(d) => d.pending.first().map(|&a| a + SHUFFLE_LINGER),
            AppDriver::Join(d) => d.pending.first().map(|&(a, _)| a + JOIN_LINGER),
            AppDriver::Dlog(d) => d.pending.first().map(|&a| a + DLOG_LINGER),
        }
    }
}

// ---------------------------------------------------------------------------
// Hashtable

/// Open-loop front-end over the two-socket remote hashtable.
///
/// Basic: every op goes cold over the front-end's own-socket connection —
/// ops on the other socket's half of the table cross NUMA on the server.
/// Optimized: per-socket connections with per-socket staging and shadow
/// buffers (cross-socket hand-off costs one IPC hop, and the peer socket's
/// buffers keep the local DMA QPI-free), hot reads served from the local
/// shadow, hot writes absorbed and flushed per 2 KiB block every
/// [`HT_THETA`] writes.
pub struct HtDriver {
    optimized: bool,
    socket: usize,
    conns: [ConnId; 2],
    staging: [MrId; 2],
    shadow: [MrId; 2],
    table: [MrId; 2],
    hot: [MrId; 2],
    zipf: Arc<ZipfAlias>,
    rng: SimRng,
    block_counts: Vec<u32>,
}

impl HtDriver {
    /// Pick the connection for an op bound for `target_socket`, returning
    /// `(conn, lane, hop)` — `lane` is the socket whose QP and local
    /// buffers carry the op (basic always uses the worker's own lane).
    fn route(&self, target_socket: usize) -> (ConnId, usize, SimTime) {
        if !self.optimized {
            (self.conns[self.socket], self.socket, SimTime::ZERO)
        } else if target_socket == self.socket {
            (self.conns[target_socket], target_socket, SimTime::ZERO)
        } else {
            (self.conns[target_socket], target_socket, apps::hashtable::IPC_HOP)
        }
    }

    fn issue(&mut self, now: SimTime, tb: &mut Testbed, out: &mut Vec<(SimTime, SimTime)>) {
        use apps::hashtable::{BLOCK_ENTRIES, RING_BLOCKS, SLOT_BYTES};
        let rank = self.zipf.rank(&mut self.rng);
        let key = fnv64(rank) % HT_KEYS;
        let write = self.rng.gen_f64() < HT_WRITE_FRACTION;
        let hot = self.optimized && rank < HT_KEYS / HT_HOT_INV;
        let socket = (key & 1) as usize;
        let slot = (key >> 1) * SLOT_BYTES;
        let done = if !write {
            if hot {
                // Search answered from the local shadow of the hot block.
                now + tb.cfg.host.l1_touch * 2
            } else {
                let (conn, lane, hop) = self.route(socket);
                let wr = WorkRequest::read(
                    key,
                    Sge::new(self.staging[lane], 1024, 16 + HT_VALUE_LEN),
                    rkey(self.table[socket]),
                    slot,
                );
                let cqe = tb.post_one(now + hop, conn, wr);
                debug_assert_eq!(cqe.status, CqeStatus::Success);
                cqe.at + hop
            }
        } else if hot {
            // Absorb into the shadow; every θ-th write to a block flushes
            // the whole 2 KiB block to the server-side burst-buffer area.
            let hsocket = (rank & 1) as usize;
            let slot_in_area = rank >> 1;
            let block = (slot_in_area / BLOCK_ENTRIES) % RING_BLOCKS;
            let absorb =
                tb.cfg.host.memcpy_cost((16 + HT_VALUE_LEN) as usize) + tb.cfg.host.l1_touch;
            let count = &mut self.block_counts[hsocket * RING_BLOCKS as usize + block as usize];
            *count += 1;
            if *count < HT_THETA {
                now + absorb
            } else {
                *count = 0;
                let (conn, lane, hop) = self.route(hsocket);
                let wr = WorkRequest::write(
                    block,
                    Sge::new(
                        self.shadow[lane],
                        block * BLOCK_ENTRIES * SLOT_BYTES,
                        BLOCK_ENTRIES * SLOT_BYTES,
                    ),
                    rkey(self.hot[hsocket]),
                    block * BLOCK_ENTRIES * SLOT_BYTES,
                );
                let cqe = tb.post_one(now + absorb + hop + tb.cfg.host.l1_touch, conn, wr);
                debug_assert_eq!(cqe.status, CqeStatus::Success);
                cqe.at + hop
            }
        } else {
            let (conn, lane, hop) = self.route(socket);
            let build = tb.cfg.host.memcpy_cost((16 + HT_VALUE_LEN) as usize);
            let wr = WorkRequest::write(
                key,
                Sge::new(self.staging[lane], 16, 16 + HT_VALUE_LEN),
                rkey(self.table[socket]),
                slot,
            );
            let cqe = tb.post_one(now + hop + build, conn, wr);
            debug_assert_eq!(cqe.status, CqeStatus::Success);
            cqe.at + hop
        };
        out.push((now, done));
    }
}

// ---------------------------------------------------------------------------
// Shuffle

/// Open-loop shuffle pusher: each arrival is one 32-byte entry bound for
/// the pod's remote slab. Basic writes entries one by one; optimized
/// stages [`SHUFFLE_SP`] entries locally and flushes them as a single
/// contiguous write (samples resolve at the flush completion).
pub struct ShuffleDriver {
    optimized: bool,
    conn: ConnId,
    staging: MrId,
    slab: RKey,
    /// This worker's disjoint byte range inside the pod slab.
    base: u64,
    cursor: u64,
    pending: Vec<SimTime>,
}

impl ShuffleDriver {
    fn issue(&mut self, now: SimTime, tb: &mut Testbed, out: &mut Vec<(SimTime, SimTime)>) {
        let build = tb.cfg.host.memcpy_cost(SHUFFLE_ENTRY as usize);
        if !self.optimized {
            let offset = self.base + self.cursor * SHUFFLE_ENTRY;
            self.cursor += 1;
            let wr = WorkRequest::write(
                self.cursor,
                Sge::new(self.staging, 0, SHUFFLE_ENTRY),
                self.slab,
                offset,
            );
            let cqe = tb.post_one(now + build, self.conn, wr);
            debug_assert_eq!(cqe.status, CqeStatus::Success);
            out.push((now, cqe.at));
            return;
        }
        let absorb = build + tb.cfg.host.l1_touch;
        self.cursor += 1;
        self.pending.push(now);
        if self.pending.len() >= SHUFFLE_SP {
            self.flush(now + absorb, tb, out);
        }
    }

    fn flush(&mut self, t: SimTime, tb: &mut Testbed, out: &mut Vec<(SimTime, SimTime)>) {
        let n = self.pending.len() as u64;
        if n == 0 {
            return;
        }
        let offset = self.base + (self.cursor - n) * SHUFFLE_ENTRY;
        let wr = WorkRequest::write(
            self.cursor,
            Sge::new(self.staging, 0, n * SHUFFLE_ENTRY),
            self.slab,
            offset,
        );
        let cqe = tb.post_one(t, self.conn, wr);
        debug_assert_eq!(cqe.status, CqeStatus::Success);
        for arrival in self.pending.drain(..) {
            out.push((arrival, cqe.at));
        }
    }
}

// ---------------------------------------------------------------------------
// Join

/// Open-loop join prober: each arrival reads one 16-byte tuple at a
/// Zipf-drawn index. Basic posts one read per probe; optimized coalesces
/// [`JOIN_DOORBELL`] probes into one doorbell batch.
pub struct JoinDriver {
    optimized: bool,
    conn: ConnId,
    staging: MrId,
    tuples: RKey,
    zipf: Arc<ZipfAlias>,
    rng: SimRng,
    pending: Vec<(SimTime, u64)>,
    /// The doorbell batch, reused by every flush.
    wrs: Vec<WorkRequest>,
}

impl JoinDriver {
    fn issue(&mut self, now: SimTime, tb: &mut Testbed, out: &mut Vec<(SimTime, SimTime)>) {
        let key = self.zipf.scrambled_key(&mut self.rng);
        if !self.optimized {
            let wr = WorkRequest::read(
                key,
                Sge::new(self.staging, 0, JOIN_TUPLE_BYTES),
                self.tuples,
                key * JOIN_TUPLE_BYTES,
            );
            let cqe = tb.post_one(now, self.conn, wr);
            debug_assert_eq!(cqe.status, CqeStatus::Success);
            out.push((now, cqe.at + apps::join::PROBE_COST));
            return;
        }
        self.pending.push((now, key));
        if self.pending.len() >= JOIN_DOORBELL {
            self.flush(now, tb, out);
        }
    }

    fn flush(&mut self, t: SimTime, tb: &mut Testbed, out: &mut Vec<(SimTime, SimTime)>) {
        if self.pending.is_empty() {
            return;
        }
        self.wrs.clear();
        self.wrs.extend(self.pending.iter().enumerate().map(|(i, &(_, key))| {
            WorkRequest::read(
                i as u64,
                Sge::new(self.staging, i as u64 * JOIN_TUPLE_BYTES, JOIN_TUPLE_BYTES),
                self.tuples,
                key * JOIN_TUPLE_BYTES,
            )
        }));
        let cqes = tb.post_scratch(t, self.conn, &self.wrs);
        debug_assert_eq!(cqes.len(), self.pending.len());
        for ((arrival, _), cqe) in self.pending.drain(..).zip(cqes) {
            out.push((arrival, cqe.at + apps::join::PROBE_COST));
        }
    }
}

// ---------------------------------------------------------------------------
// Dlog

/// Open-loop log appender: each arrival commits one 128-byte record via
/// reserve (remote FAA on the pod's shared counter) + write. Basic
/// reserves per record; optimized reserves [`DLOG_BATCH`] records with one
/// FAA and appends them with one write.
pub struct DlogDriver {
    optimized: bool,
    conn: ConnId,
    staging: MrId,
    log: RKey,
    counter: RKey,
    pending: Vec<SimTime>,
}

impl DlogDriver {
    fn commit(&mut self, t: SimTime, tb: &mut Testbed, records: u64) -> SimTime {
        let bytes = records * DLOG_RECORD;
        let faa = tb.post_one(
            t,
            self.conn,
            WorkRequest {
                wr_id: WrId(records),
                kind: VerbKind::FetchAdd { delta: bytes },
                sgl: Sge::new(self.staging, 0, 8).into(),
                remote: Some((self.counter, 0)),
                signaled: true,
            },
        );
        debug_assert_eq!(faa.status, CqeStatus::Success);
        let wr =
            WorkRequest::write(records, Sge::new(self.staging, 16, bytes), self.log, faa.old_value);
        let cqe = tb.post_one(faa.at, self.conn, wr);
        debug_assert_eq!(cqe.status, CqeStatus::Success);
        cqe.at
    }

    fn issue(&mut self, now: SimTime, tb: &mut Testbed, out: &mut Vec<(SimTime, SimTime)>) {
        let t = now + apps::dlog::RECORD_CPU + tb.cfg.host.memcpy_cost(DLOG_RECORD as usize);
        if !self.optimized {
            let done = self.commit(t, tb, 1);
            out.push((now, done));
            return;
        }
        self.pending.push(now);
        if self.pending.len() >= DLOG_BATCH {
            self.flush(t, tb, out);
        }
    }

    fn flush(&mut self, t: SimTime, tb: &mut Testbed, out: &mut Vec<(SimTime, SimTime)>) {
        let n = self.pending.len() as u64;
        if n == 0 {
            return;
        }
        let done = self.commit(t, tb, n);
        for arrival in self.pending.drain(..) {
            out.push((arrival, done));
        }
    }
}

// ---------------------------------------------------------------------------
// Topology

use crate::engine::OpenLoopWorker;

/// Build the pod cluster and one open-loop worker per (pod, lane).
///
/// Returns the testbed plus `(client machine, worker)` pairs in global
/// worker-index order — the order stats are folded in. The apps that draw
/// keys (hashtable, join) build one alias table here and every worker
/// reads it through an `Arc`: draws never write it, so sharing changes no
/// draw and sharded runs stay byte-identical.
pub fn build(cfg: &TrafficConfig) -> (Testbed, Vec<(usize, OpenLoopWorker)>) {
    use apps::hashtable::{BLOCK_ENTRIES, RING_BLOCKS, SLOT_BYTES};
    let machines = cfg.pods * 2;
    let mut tb = Testbed::new(ClusterConfig { machines, ..Default::default() });
    let root = SimRng::new(cfg.seed);
    let rate = cfg.rate_per_worker();
    let process = if cfg.bursty {
        ArrivalProcessChoice::Bursty(rate)
    } else {
        ArrivalProcessChoice::Poisson(rate)
    };
    let ring_bytes = RING_BLOCKS * BLOCK_ENTRIES * SLOT_BYTES;
    let zipf = match cfg.app {
        AppKind::Hashtable => Some(Arc::new(ZipfAlias::paper(HT_KEYS))),
        AppKind::Join => Some(Arc::new(ZipfAlias::paper(JOIN_TUPLES))),
        AppKind::Shuffle | AppKind::Dlog => None,
    };
    let shared_zipf = || Arc::clone(zipf.as_ref().expect("key-drawing apps build a table"));
    let mut workers = Vec::with_capacity(cfg.workers());
    for pod in 0..cfg.pods {
        let client = pod * 2;
        let server = pod * 2 + 1;
        // Per-pod served memory.
        let table = [
            tb.register(server, 0, (HT_KEYS / 2 + 1) * SLOT_BYTES),
            tb.register(server, 1, (HT_KEYS / 2 + 1) * SLOT_BYTES),
        ];
        let slab_bytes = cfg.workers_per_pod as u64 * cfg.ops_per_worker * SHUFFLE_ENTRY + 4096;
        let slab = tb.register(server, 0, slab_bytes);
        let tuples = tb.register(server, 0, JOIN_TUPLES * JOIN_TUPLE_BYTES + 4096);
        let log_bytes = cfg.workers_per_pod as u64 * cfg.ops_per_worker * DLOG_RECORD + 4096;
        let log = tb.register(server, 0, log_bytes);
        let counter = tb.register(server, 0, 64);
        for lane in 0..cfg.workers_per_pod {
            let widx = pod * cfg.workers_per_pod + lane;
            let socket = lane % 2;
            let client_ep = |port: usize| Endpoint { machine: client, port, core_socket: socket };
            let driver = match cfg.app {
                AppKind::Hashtable => {
                    // Per-socket staging and shadow: ops routed to the
                    // peer socket's QP use buffers on that socket, so no
                    // local DMA crosses QPI.
                    let staging = [tb.register(client, 0, 4096), tb.register(client, 1, 4096)];
                    let shadow =
                        [tb.register(client, 0, ring_bytes), tb.register(client, 1, ring_bytes)];
                    let hot =
                        [tb.register(server, 0, ring_bytes), tb.register(server, 1, ring_bytes)];
                    let conns = [
                        tb.connect(client_ep(0), Endpoint::affine(server, 0)),
                        tb.connect(client_ep(1), Endpoint::affine(server, 1)),
                    ];
                    AppDriver::Hashtable(HtDriver {
                        optimized: cfg.optimized,
                        socket,
                        conns,
                        staging,
                        shadow,
                        table,
                        hot,
                        zipf: shared_zipf(),
                        rng: root.split(2000 + widx as u64),
                        block_counts: vec![0; 2 * RING_BLOCKS as usize],
                    })
                }
                AppKind::Shuffle => {
                    let staging = tb.register(client, socket, 4096);
                    let conn = tb.connect(client_ep(socket), Endpoint::affine(server, 0));
                    AppDriver::Shuffle(ShuffleDriver {
                        optimized: cfg.optimized,
                        conn,
                        staging,
                        slab: rkey(slab),
                        base: lane as u64 * cfg.ops_per_worker * SHUFFLE_ENTRY,
                        cursor: 0,
                        pending: Vec::new(),
                    })
                }
                AppKind::Join => {
                    let staging = tb.register(client, socket, 4096);
                    let conn = tb.connect(client_ep(socket), Endpoint::affine(server, 0));
                    AppDriver::Join(JoinDriver {
                        optimized: cfg.optimized,
                        conn,
                        staging,
                        tuples: rkey(tuples),
                        zipf: shared_zipf(),
                        rng: root.split(2000 + widx as u64),
                        pending: Vec::new(),
                        wrs: Vec::new(),
                    })
                }
                AppKind::Dlog => {
                    let staging =
                        tb.register(client, socket, DLOG_BATCH as u64 * DLOG_RECORD + 4096);
                    let conn = tb.connect(client_ep(socket), Endpoint::affine(server, 0));
                    AppDriver::Dlog(DlogDriver {
                        optimized: cfg.optimized,
                        conn,
                        staging,
                        log: rkey(log),
                        counter: rkey(counter),
                        pending: Vec::new(),
                    })
                }
            };
            let worker =
                OpenLoopWorker::new(driver, process.resolve(), root.split(1000 + widx as u64), cfg);
            workers.push((client, worker));
        }
    }
    (tb, workers)
}

/// Internal: defer the Poisson/MMPP choice so each worker gets the same
/// process parameters without cloning through the config.
enum ArrivalProcessChoice {
    Poisson(f64),
    Bursty(f64),
}

impl ArrivalProcessChoice {
    fn resolve(&self) -> crate::arrivals::ArrivalProcess {
        match *self {
            ArrivalProcessChoice::Poisson(rate) => {
                crate::arrivals::ArrivalProcess::Poisson { rate_mops: rate }
            }
            ArrivalProcessChoice::Bursty(rate) => crate::arrivals::ArrivalProcess::bursty(rate),
        }
    }
}

// ---------------------------------------------------------------------------
// Verb programs

/// The analyzable form of one worker's verb sequence against its pod —
/// what `bench --lint` feeds through `verbcheck` for each traffic
/// experiment. Mirrors the driver geometry: same regions, same sockets,
/// same request shapes.
pub fn verb_program(app: AppKind, optimized: bool) -> verbcheck::VerbProgram {
    use apps::hashtable::{BLOCK_ENTRIES, RING_BLOCKS, SLOT_BYTES};
    let mut p = verbcheck::VerbProgram::new();
    match app {
        AppKind::Hashtable => {
            let ring_bytes = RING_BLOCKS * BLOCK_ENTRIES * SLOT_BYTES;
            let (table0, table1, hot0, hot1) = (MrId(0), MrId(1), MrId(2), MrId(3));
            p.mr(1, table0, 0, (HT_KEYS / 2 + 1) * SLOT_BYTES);
            p.mr(1, table1, 1, (HT_KEYS / 2 + 1) * SLOT_BYTES);
            p.mr(1, hot0, 0, ring_bytes);
            p.mr(1, hot1, 1, ring_bytes);
            let (staging0, staging1, shadow0) = (MrId(0), MrId(1), MrId(2));
            p.mr(0, staging0, 0, 4096);
            p.mr(0, staging1, 1, 4096);
            p.mr(0, shadow0, 0, ring_bytes);
            let (qp0, qp1) = (QpNum(0), QpNum(1));
            p.qp(qp0, 0, 1, 0, 0);
            p.qp(qp1, 0, 1, 1, 1);
            // Cold search on the even-socket half (key 4 → slot 2).
            p.post(
                qp0,
                WorkRequest::read(
                    4,
                    Sge::new(staging0, 1024, 16 + HT_VALUE_LEN),
                    rkey(table0),
                    2 * SLOT_BYTES,
                ),
            );
            p.poll(qp0, 1);
            // Cold insert on the odd-socket half (key 7 → slot 3). Basic
            // routes through the own-socket QP with its own-socket staging
            // (server crosses NUMA); optimized routes through the affine
            // QP with the peer socket's staging buffer.
            let (qp_cold, staging_cold) = if optimized { (qp1, staging1) } else { (qp0, staging0) };
            p.post(
                qp_cold,
                WorkRequest::write(
                    7,
                    Sge::new(staging_cold, 16, 16 + HT_VALUE_LEN),
                    rkey(table1),
                    3 * SLOT_BYTES,
                ),
            );
            p.poll(qp_cold, 1);
            if optimized {
                // Block flush of the hot burst-buffer area (block 0).
                p.post(
                    qp0,
                    WorkRequest::write(
                        0,
                        Sge::new(shadow0, 0, BLOCK_ENTRIES * SLOT_BYTES),
                        rkey(hot0),
                        0,
                    ),
                );
                p.poll(qp0, 1);
            }
        }
        AppKind::Shuffle => {
            let slab = MrId(0);
            p.mr(1, slab, 0, 4 * SHUFFLE_SP as u64 * SHUFFLE_ENTRY + 4096);
            let staging = MrId(0);
            p.mr(0, staging, 0, 4096);
            let qp = QpNum(0);
            p.qp(qp, 0, 1, 0, 0);
            if optimized {
                // Two staged-push flushes of SP contiguous entries.
                for b in 0..2u64 {
                    let bytes = SHUFFLE_SP as u64 * SHUFFLE_ENTRY;
                    p.post(
                        qp,
                        WorkRequest::write(b, Sge::new(staging, 0, bytes), rkey(slab), b * bytes),
                    );
                    p.poll(qp, 1);
                }
            } else {
                // Entry-at-a-time writes.
                for e in 0..3u64 {
                    p.post(
                        qp,
                        WorkRequest::write(
                            e,
                            Sge::new(staging, 0, SHUFFLE_ENTRY),
                            rkey(slab),
                            e * SHUFFLE_ENTRY,
                        ),
                    );
                    p.poll(qp, 1);
                }
            }
        }
        AppKind::Join => {
            let tuples = MrId(0);
            p.mr(1, tuples, 0, JOIN_TUPLES * JOIN_TUPLE_BYTES + 4096);
            let staging = MrId(0);
            p.mr(0, staging, 0, 4096);
            let qp = QpNum(0);
            p.qp(qp, 0, 1, 0, 0);
            if optimized {
                // One doorbell batch of JOIN_DOORBELL probes, one poll train.
                for i in 0..JOIN_DOORBELL as u64 {
                    let key = fnv64(i) % JOIN_TUPLES;
                    p.post(
                        qp,
                        WorkRequest::read(
                            i,
                            Sge::new(staging, i * JOIN_TUPLE_BYTES, JOIN_TUPLE_BYTES),
                            rkey(tuples),
                            key * JOIN_TUPLE_BYTES,
                        ),
                    );
                }
                p.poll(qp, JOIN_DOORBELL);
            } else {
                for i in 0..3u64 {
                    let key = fnv64(i) % JOIN_TUPLES;
                    p.post(
                        qp,
                        WorkRequest::read(
                            i,
                            Sge::new(staging, 0, JOIN_TUPLE_BYTES),
                            rkey(tuples),
                            key * JOIN_TUPLE_BYTES,
                        ),
                    );
                    p.poll(qp, 1);
                }
            }
        }
        AppKind::Dlog => {
            let batch = if optimized { DLOG_BATCH as u64 } else { 1 };
            let (log, counter) = (MrId(0), MrId(1));
            p.mr(1, log, 0, 3 * batch * DLOG_RECORD + 4096);
            p.mr(1, counter, 0, 64);
            let staging = MrId(0);
            p.mr(0, staging, 0, DLOG_BATCH as u64 * DLOG_RECORD + 4096);
            let qp = QpNum(0);
            p.qp(qp, 0, 1, 0, 0);
            let bytes = batch * DLOG_RECORD;
            let mut reserved = 0u64;
            for b in 0..3u64 {
                p.post(
                    qp,
                    WorkRequest {
                        wr_id: WrId(b),
                        kind: VerbKind::FetchAdd { delta: bytes },
                        sgl: Sge::new(staging, 0, 8).into(),
                        remote: Some((rkey(counter), 0)),
                        signaled: true,
                    },
                );
                p.poll(qp, 1);
                p.post(
                    qp,
                    WorkRequest::write(100 + b, Sge::new(staging, 16, bytes), rkey(log), reserved),
                );
                p.poll(qp, 1);
                reserved += bytes;
            }
        }
    }
    p
}
