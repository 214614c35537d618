//! Application 4: the distributed transaction log (§IV-E, Fig 19).
//!
//! Transaction engines append records to a **global log** on a remote
//! machine with a fully one-sided protocol: at commit time an engine
//! reserves consecutive log space with one remote fetch-and-add (the
//! remote sequencer, `next_n(bytes)`), then writes its records into the
//! reserved range with one RDMA Write. No log-server CPU is involved and
//! reservations can never overlap, so the log is an append-only, totally
//! ordered, gap-free record sequence — which the verifier checks by
//! scanning and CRC-validating every record.
//!
//! Optimizations (Fig 19's legend):
//!
//! * **Batching** — reserve space for λ records at once: the FAA and the
//!   write round trip amortize over the batch (9.1× at λ=32 in the paper).
//! * **NUMA awareness** — records are staged in a buffer on the socket
//!   that owns the NIC port; without it the engine marshals records out
//!   of data tables on the alternate socket at QPI-crossing cost.

use cluster::{run_clients, Client, ClusterConfig, ConnId, Endpoint, MemoryPool, Step, Testbed};
use remem::RemoteSequencer;
use rnicsim::{CqeStatus, MrId, RKey, Sge, WorkRequest};
use simcore::{Meter, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::{scan_log, Record};

/// Per-record engine CPU cost: building the commit record, bookkeeping,
/// transaction-local ordering.
pub const RECORD_CPU: SimTime = SimTime::from_ns(200);

/// Distributed-log experiment configuration.
#[derive(Clone, Debug)]
pub struct DlogConfig {
    /// Transaction engines (paper: 4 / 7 / 14 over 7 machines).
    pub engines: usize,
    /// Records reserved+written per commit batch (paper sweeps 1–32).
    pub batch: usize,
    /// Record body bytes (total record = 16-byte header + body).
    pub body_len: usize,
    /// Records each engine appends.
    pub records_per_engine: u64,
    /// Stage records on the NIC-affine socket (true) or marshal them from
    /// alternate-socket data tables (false).
    pub numa: bool,
    /// Cluster size; the last machine hosts the global log.
    pub machines: usize,
    /// Run seed. Appends draw no randomness, so it does not change the run.
    pub seed: u64,
}

impl Default for DlogConfig {
    fn default() -> Self {
        DlogConfig {
            engines: 7,
            batch: 16,
            body_len: 112,
            records_per_engine: 2000,
            numa: true,
            machines: 8,
            seed: 42,
        }
    }
}

impl DlogConfig {
    /// Encoded record size.
    pub fn record_bytes(&self) -> u64 {
        (workloads::HEADER_BYTES + self.body_len) as u64
    }
}

/// Measured outcome of one distributed-log run.
#[derive(Clone, Debug)]
pub struct DlogReport {
    /// Aggregate append throughput in M records/s.
    pub mops: f64,
    /// Virtual makespan.
    pub makespan: SimTime,
    /// Records appended.
    pub records: u64,
    /// Whether the log scanned back as complete, ordered, and uncorrupted.
    pub verified: bool,
}

struct Engine {
    id: u32,
    machine: usize,
    conn: ConnId,
    batch: usize,
    body_len: usize,
    record_bytes: u64,
    total: u64,
    produced: u64,
    staging: MrId,
    scratch: MrId,
    log_rkey: RKey,
    seq: RemoteSequencer,
    numa: bool,
    meter: Rc<RefCell<Meter>>,
}

impl Client for Engine {
    fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
        if self.produced == self.total {
            return Step::Done;
        }
        let n = (self.batch as u64).min(self.total - self.produced);
        // Build and marshal n records into the staging buffer. Without
        // NUMA awareness the record images stream out of data tables on
        // the alternate socket, at the QPI-crossing copy rate.
        let copy_rate =
            tb.cfg.host.stream_ps_per_byte(!self.numa).max(tb.cfg.host.memcpy_ps_per_byte);
        let mut t = now;
        let mut bytes = Vec::with_capacity((n * self.record_bytes) as usize);
        for i in 0..n {
            let rec = Record::synthetic(self.id, (self.produced + i) as u32, self.body_len);
            bytes.extend_from_slice(&rec.encode());
            t += RECORD_CPU + SimTime::from_ps(self.record_bytes * copy_rate);
        }
        tb.machine_mut(self.machine).mem.write(self.staging, 0, &bytes);

        // Reserve log space with one remote FAA...
        let ticket =
            self.seq.next_n(tb, self.conn, t, Sge::new(self.scratch, 0, 8), bytes.len() as u64);
        // ...and append with one RDMA Write into the reserved range.
        let wr = WorkRequest::write(
            self.produced,
            Sge::new(self.staging, 0, bytes.len() as u64),
            self.log_rkey,
            ticket.value,
        );
        let cqe = tb.post_one(ticket.at, self.conn, wr);
        debug_assert_eq!(cqe.status, CqeStatus::Success);
        self.produced += n;
        self.meter.borrow_mut().record_n(cqe.at, n);
        Step::Yield(cqe.at)
    }
}

/// The analyzable form of one engine's verb sequence: engine 0's layout
/// from [`run_dlog`] plus a few commit batches — each a reservation FAA
/// on the log counter followed by one contiguous record write into the
/// reserved range. The reservation arithmetic is the real one, so the
/// checker sees the aligned 8-byte counter and in-bounds appends the
/// protocol guarantees.
pub fn verb_program(cfg: &DlogConfig) -> verbcheck::VerbProgram {
    use rnicsim::{QpNum, VerbKind, WrId};
    let log_machine = cfg.machines - 1;
    let total_records = cfg.records_per_engine * cfg.engines as u64;
    let log_bytes = total_records * cfg.record_bytes() + 4096;
    let mut p = verbcheck::VerbProgram::new();
    let log = MrId(0);
    let counter = MrId(1);
    p.mr(log_machine, log, 0, log_bytes);
    p.mr(log_machine, counter, 0, 64);
    // Engine 0: machine 0, socket 0, staging + scratch.
    let staging = MrId(0);
    let scratch = MrId(1);
    p.mr(0, staging, 0, (cfg.batch as u64 + 1) * cfg.record_bytes() + 4096);
    p.mr(0, scratch, 0, 64);
    let conn = QpNum(0);
    p.qp(conn, 0, log_machine, 0, 0);

    // Three commit batches; reservations advance like the shared counter
    // would if this engine were alone on the log.
    let batch_bytes = cfg.batch.max(1) as u64 * cfg.record_bytes();
    let mut reserved = 0u64;
    for b in 0..3u64 {
        p.post(
            conn,
            WorkRequest {
                wr_id: WrId(b),
                kind: VerbKind::FetchAdd { delta: batch_bytes },
                sgl: Sge::new(scratch, 0, 8).into(),
                remote: Some((RKey(counter.0 as u64), 0)),
                signaled: true,
            },
        );
        p.poll(conn, 1);
        p.post(
            conn,
            WorkRequest::write(
                100 + b,
                Sge::new(staging, 0, batch_bytes),
                RKey(log.0 as u64),
                reserved,
            ),
        );
        p.poll(conn, 1);
        reserved += batch_bytes;
    }
    p
}

/// Run the distributed log experiment and verify the resulting log.
pub fn run_dlog(cfg: &DlogConfig) -> DlogReport {
    append(cfg).0
}

/// Run the engines to completion and verify the log; also returns the
/// testbed and the log's region so a caller can replay it.
fn append(cfg: &DlogConfig) -> (DlogReport, Testbed, MrId) {
    assert!(cfg.machines >= 2);
    let log_machine = cfg.machines - 1;
    let mut tb = Testbed::new(ClusterConfig { machines: cfg.machines, ..Default::default() });

    let total_records = cfg.records_per_engine * cfg.engines as u64;
    let log_bytes = total_records * cfg.record_bytes() + 4096;
    let log = tb.register(log_machine, 0, log_bytes);
    let counter = tb.register(log_machine, 0, 64);

    let meter = Rc::new(RefCell::new(Meter::new(SimTime::from_us(20))));
    let mut clients: Vec<Box<dyn Client>> = Vec::new();
    for e in 0..cfg.engines {
        let machine = e % (cfg.machines - 1);
        let socket = (e / (cfg.machines - 1)) % 2;
        let staging =
            tb.register(machine, socket, (cfg.batch as u64 + 1) * cfg.record_bytes() + 4096);
        let scratch = tb.register(machine, socket, 64);
        // The log lives on socket 0 of the log machine: engines connect to
        // port 0 there. NUMA-aware engines drive their own socket's port;
        // oblivious ones run their core on the opposite socket.
        let client_ep = if cfg.numa {
            Endpoint::affine(machine, socket)
        } else {
            Endpoint { machine, port: socket, core_socket: 1 - socket }
        };
        let conn = tb.connect(client_ep, Endpoint::affine(log_machine, 0));
        clients.push(Box::new(Engine {
            id: e as u32,
            machine,
            conn,
            batch: cfg.batch.max(1),
            body_len: cfg.body_len,
            record_bytes: cfg.record_bytes(),
            total: cfg.records_per_engine,
            produced: 0,
            staging,
            scratch,
            log_rkey: RKey(log.0 as u64),
            seq: RemoteSequencer { rkey: RKey(counter.0 as u64), offset: 0 },
            numa: cfg.numa,
            meter: Rc::clone(&meter),
        }));
    }

    let makespan = run_clients(&mut tb, &mut clients, SimTime::MAX);
    drop(clients);

    let verified = verify_log(&tb.machine(log_machine).mem, log, counter, cfg);
    let mops = meter.borrow().mops();
    (DlogReport { mops, makespan, records: total_records, verified }, tb, log)
}

/// Bytes of log the verifier reads at a time.
const SCAN_WINDOW: u64 = 64 * 1024;

/// Verify the log: the counter equals the bytes appended; the log scans
/// back as exactly `records_per_engine` valid records per engine; every
/// engine's sequence numbers are dense. The scan reads the log through
/// one reused window of whole records (every record is `record_bytes`
/// long), so it never holds a copy of the log.
fn verify_log(mem: &MemoryPool, log: MrId, counter: MrId, cfg: &DlogConfig) -> bool {
    let expected_bytes = cfg.records_per_engine * cfg.engines as u64 * cfg.record_bytes();
    let window = cfg.record_bytes() * (SCAN_WINDOW / cfg.record_bytes()).max(1);
    let mut buf = Vec::with_capacity(window.min(expected_bytes) as usize);
    // An engine appends its batches one after another, so its records
    // scan back in sequence order: record `seq` is its `seq`-th.
    let mut per_engine = vec![0u64; cfg.engines];
    let mut dense = true;
    let mut off = 0;
    while off < expected_bytes {
        let n = window.min(expected_bytes - off);
        buf.clear();
        mem.read_into(log, off, n, &mut buf);
        let mut used = 0;
        for r in scan_log(&buf) {
            let seen = &mut per_engine[r.engine as usize];
            dense &= u64::from(r.seq) == *seen;
            *seen += 1;
            used += r.encoded_len();
        }
        off += n;
        // A slot that does not decode ends the log.
        if used < n {
            break;
        }
    }
    // Full per-engine counts also make the total `total_records`.
    mem.load_u64(counter, 0) == expected_bytes
        && dense
        && per_engine.iter().all(|&c| c == cfg.records_per_engine)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(engines: usize, batch: usize, numa: bool) -> DlogReport {
        run_dlog(&DlogConfig {
            engines,
            batch,
            numa,
            records_per_engine: 600,
            ..Default::default()
        })
    }

    /// One flipped byte anywhere in the log (a header in the first scan
    /// window, a body in a later one, the last record's last byte) fails
    /// the verifier, and flipping it back passes it again.
    #[test]
    fn one_flipped_record_byte_fails_verification() {
        let cfg = DlogConfig { engines: 3, records_per_engine: 600, ..Default::default() };
        let (report, mut tb, log) = append(&cfg);
        assert!(report.verified);
        // The counter is registered right after the log.
        let counter = MrId(log.0 + 1);
        let end = report.records * cfg.record_bytes();
        assert!(end > 2 * SCAN_WINDOW);
        let mem = &mut tb.machine_mut(cfg.machines - 1).mem;
        for off in [5, SCAN_WINDOW + 100, end - 1] {
            let byte = mem.read(log, off, 1)[0];
            mem.write(log, off, &[byte ^ 0x10]);
            assert!(!verify_log(mem, log, counter, &cfg), "flip at {off} passed");
            mem.write(log, off, &[byte]);
            assert!(verify_log(mem, log, counter, &cfg), "restored log at {off} failed");
        }
    }

    #[test]
    fn log_scans_back_complete_and_ordered() {
        let r = quick(7, 16, true);
        assert!(r.verified, "log verification failed");
        assert_eq!(r.records, 4200);
    }

    #[test]
    fn batch_one_also_verifies() {
        assert!(quick(4, 1, true).verified);
    }

    #[test]
    fn batching_multiplies_throughput() {
        let b1 = quick(7, 1, true);
        let b32 = quick(7, 32, true);
        let ratio = b32.mops / b1.mops;
        // Paper: 9.1x at batch 32 over no batching (7 engines).
        assert!(ratio > 5.0, "ratio {ratio}");
        assert!(b32.verified && b1.verified);
    }

    #[test]
    fn numa_awareness_improves_throughput() {
        let with = quick(14, 16, true);
        let without = quick(14, 16, false);
        assert!(
            with.mops > without.mops * 1.05,
            "numa {} vs oblivious {}",
            with.mops,
            without.mops
        );
    }

    #[test]
    fn more_engines_more_throughput() {
        let four = quick(4, 16, true);
        let fourteen = quick(14, 16, true);
        assert!(fourteen.mops > four.mops * 1.8, "4: {} 14: {}", four.mops, fourteen.mops);
    }

    #[test]
    fn reservations_never_overlap() {
        // Implicit in verification, but check the strongest invariant
        // directly: scanned records exactly tile the reserved space.
        let cfg =
            DlogConfig { engines: 5, batch: 3, records_per_engine: 100, ..Default::default() };
        let r = run_dlog(&cfg);
        assert!(r.verified);
    }
}

/// Recovery model (§IV-A scenario III): replaying the global log after a
/// failure. The scan streams the log region at DRAM bandwidth and decodes
/// each record; returns the recovered records and the virtual time the
/// replay took.
pub fn recovery_scan(
    tb: &Testbed,
    log_machine: usize,
    log: rnicsim::MrId,
    log_bytes: u64,
) -> (Vec<Record>, SimTime) {
    /// CPU cost of validating + applying one record during replay.
    const REPLAY_COST: SimTime = SimTime::from_ns(120);
    let raw = tb.machine(log_machine).mem.read(log, 0, log_bytes);
    let records: Vec<Record> = scan_log(&raw).collect();
    let stream = SimTime::from_ps(log_bytes * tb.cfg.host.stream_ps_per_byte(false));
    let t = stream + REPLAY_COST * records.len() as u64;
    (records, t)
}

/// Run a log workload, then crash-and-recover: returns the append report
/// (set up and verified exactly as [`run_dlog`]'s) plus the time the
/// replay took.
pub fn run_dlog_with_recovery(cfg: &DlogConfig) -> (DlogReport, SimTime) {
    let (report, tb, log) = append(cfg);
    let (_, recovery) =
        recovery_scan(&tb, cfg.machines - 1, log, report.records * cfg.record_bytes());
    (report, recovery)
}

#[cfg(test)]
mod recovery_tests {
    use super::*;

    #[test]
    fn recovery_replays_the_whole_log() {
        let cfg =
            DlogConfig { engines: 5, batch: 1, records_per_engine: 400, ..Default::default() };
        let (report, recovery) = run_dlog_with_recovery(&cfg);
        assert!(report.verified);
        assert!(recovery > SimTime::ZERO);
        // Replaying from remote memory is much faster than the original
        // unbatched append (the paper's scenario III: replication to
        // remote memory keeps recovery short).
        assert!(
            recovery * 3 < report.makespan,
            "recovery {recovery} vs append {}",
            report.makespan
        );
    }

    #[test]
    fn recovery_appends_exactly_like_run_dlog() {
        // At `numa: false` engines run on oblivious endpoints; the
        // recovery run must append over the same set-up.
        let cfg = DlogConfig {
            engines: 6,
            batch: 4,
            records_per_engine: 200,
            numa: false,
            ..Default::default()
        };
        let (report, _) = run_dlog_with_recovery(&cfg);
        let plain = run_dlog(&cfg);
        assert_eq!(report.mops, plain.mops);
        assert_eq!(report.makespan, plain.makespan);
        assert!(report.verified && plain.verified);
    }

    #[test]
    fn recovery_scales_linearly_with_log_size() {
        let small = run_dlog_with_recovery(&DlogConfig {
            engines: 4,
            batch: 8,
            records_per_engine: 200,
            ..Default::default()
        })
        .1;
        let large = run_dlog_with_recovery(&DlogConfig {
            engines: 4,
            batch: 8,
            records_per_engine: 800,
            ..Default::default()
        })
        .1;
        let ratio = large.as_ns() / small.as_ns();
        assert!((3.5..=4.5).contains(&ratio), "ratio {ratio}");
    }
}
