//! Fig 10: local vs remote vs RPC atomic primitives (spinlock, sequencer).
//!
//! The local curves come from the calibrated contention model in
//! `memmodel`; the remote and RPC curves are simulated event-by-event:
//! every client is a state machine whose CAS attempts, backoff sleeps,
//! releases, and RPC round trips interleave in global virtual time, so
//! lock contention (and the atomic unit's 2.35 MOPS ceiling) emerge from
//! the simulation rather than a formula.

use crate::report::{Experiment, Output};
use cluster::{run_clients, Client, ClusterConfig, ConnId, Endpoint, Step, Testbed, Transport};
use memmodel::{local_sequencer_mops, local_spinlock_mops, HostMemConfig};
use remem::{Backoff, RpcLock, RpcSequencer};
use rnicsim::{CqeStatus, MrId, RKey, Sge, VerbKind, WorkRequest, WrId};
use simcore::{Series, SimRng, SimTime};

enum LockPhase {
    Acquire,
    Release,
}

/// One contender on the remote spinlock: a CAS per step (so other clients'
/// acquisitions and releases interleave with it in time), release in the
/// following step.
struct RemoteLockClient {
    conn: ConnId,
    scratch: MrId,
    lock: RKey,
    backoff: Option<Backoff>,
    phase: LockPhase,
    attempts: u32,
    cycles_left: u64,
    cycles_done: u64,
    last: SimTime,
    rng: SimRng,
}

impl Client for RemoteLockClient {
    fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
        match self.phase {
            LockPhase::Acquire => {
                let wr = WorkRequest {
                    wr_id: WrId(self.attempts as u64),
                    kind: VerbKind::CompareSwap { expected: 0, desired: 1 },
                    sgl: Sge::new(self.scratch, 0, 8).into(),
                    remote: Some((self.lock, 0)),
                    signaled: true,
                };
                let cqe = tb.post_one(now, self.conn, wr);
                debug_assert_eq!(cqe.status, CqeStatus::Success);
                if cqe.old_value == 0 {
                    self.phase = LockPhase::Release;
                    self.attempts = 0;
                    Step::Yield(cqe.at)
                } else {
                    self.attempts += 1;
                    let retry = match &self.backoff {
                        Some(b) => cqe.at + b.delay(self.attempts - 1, &mut self.rng),
                        None => cqe.at,
                    };
                    Step::Yield(retry)
                }
            }
            LockPhase::Release => {
                // One-sided write of zero releases the lock.
                let wr = WorkRequest {
                    wr_id: WrId(u64::MAX),
                    kind: VerbKind::Write,
                    sgl: Sge::new(self.scratch, 8, 8).into(),
                    remote: Some((self.lock, 0)),
                    signaled: true,
                };
                let cqe = tb.post_one(now, self.conn, wr);
                debug_assert_eq!(cqe.status, CqeStatus::Success);
                self.cycles_done += 1;
                self.last = cqe.at;
                self.phase = LockPhase::Acquire;
                self.cycles_left -= 1;
                if self.cycles_left == 0 {
                    Step::Done
                } else {
                    Step::Yield(cqe.at)
                }
            }
        }
    }
}

/// Aggregate lock/unlock-cycle throughput (MOPS) for `threads` remote
/// contenders (default or no backoff).
pub fn remote_spinlock_mops(threads: usize, backoff: bool, cycles_per_thread: u64) -> f64 {
    remote_spinlock_mops_with(
        threads,
        if backoff { Some(Backoff::default()) } else { None },
        cycles_per_thread,
    )
}

/// Like [`remote_spinlock_mops`] with an explicit backoff policy (used by
/// the backoff ablation).
pub fn remote_spinlock_mops_with(
    threads: usize,
    backoff: Option<Backoff>,
    cycles_per_thread: u64,
) -> f64 {
    let mut tb = Testbed::new(ClusterConfig::default());
    let lock_mr = tb.register(7, 1, 64);
    let mut clients: Vec<Box<dyn Client>> = Vec::new();
    let root = SimRng::new(11);
    for th in 0..threads {
        let machine = th % 7;
        let scratch = tb.register(machine, 1, 64);
        // Zero scratch at offset 8 is the release image (region starts zeroed).
        let conn = tb.connect(Endpoint::affine(machine, 1), Endpoint::affine(7, 1));
        clients.push(Box::new(RemoteLockClient {
            conn,
            scratch,
            lock: RKey(lock_mr.0 as u64),
            backoff,
            phase: LockPhase::Acquire,
            attempts: 0,
            cycles_left: cycles_per_thread,
            cycles_done: 0,
            last: SimTime::ZERO,
            rng: root.split(th as u64),
        }));
    }
    let makespan = run_clients(&mut tb, &mut clients, SimTime::MAX);
    simcore::mops(threads as u64 * cycles_per_thread, makespan)
}

struct RpcLockClient {
    conn: ConnId,
    lock: RpcLock,
    holding: bool,
    cycles_left: u64,
}

impl Client for RpcLockClient {
    fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
        if self.holding {
            let t = self.lock.unlock(tb, self.conn, now);
            self.holding = false;
            self.cycles_left -= 1;
            return if self.cycles_left == 0 { Step::Done } else { Step::Yield(t) };
        }
        let (ok, reply) = self.lock.try_lock(tb, self.conn, now);
        self.holding = ok;
        Step::Yield(reply)
    }
}

/// Aggregate RPC lock-cycle throughput (MOPS) over a given transport.
pub fn rpc_spinlock_mops(threads: usize, cycles_per_thread: u64, transport: Transport) -> f64 {
    let mut tb = Testbed::new(ClusterConfig::default());
    let lock = RpcLock::new();
    let mut clients: Vec<Box<dyn Client>> = Vec::new();
    for th in 0..threads {
        let machine = th % 7;
        let conn = tb.connect_with(Endpoint::affine(machine, 1), Endpoint::affine(7, 1), transport);
        clients.push(Box::new(RpcLockClient {
            conn,
            lock: lock.clone(),
            holding: false,
            cycles_left: cycles_per_thread,
        }));
    }
    let makespan = run_clients(&mut tb, &mut clients, SimTime::MAX);
    simcore::mops(threads as u64 * cycles_per_thread, makespan)
}

/// Aggregate remote-FAA sequencer throughput (MOPS).
pub fn remote_sequencer_mops(threads: usize, tickets_per_thread: u64) -> f64 {
    let mut tb = Testbed::new(ClusterConfig::default());
    let counter = tb.register(7, 1, 64);
    let mut loops = Vec::new();
    for th in 0..threads {
        let machine = th % 7;
        let scratch = tb.register(machine, 1, 64);
        let conn = tb.connect(Endpoint::affine(machine, 1), Endpoint::affine(7, 1));
        let rkey = RKey(counter.0 as u64);
        loops.push(cluster::ClosedLoop::new(
            1,
            tickets_per_thread,
            move |tb: &mut Testbed, now, i| {
                let wr = WorkRequest {
                    wr_id: WrId(i),
                    kind: VerbKind::FetchAdd { delta: 1 },
                    sgl: Sge::new(scratch, 0, 8).into(),
                    remote: Some((rkey, 0)),
                    signaled: true,
                };
                tb.post_one(now, conn, wr).at
            },
        ));
    }
    let mut clients: Vec<Box<dyn Client + '_>> =
        loops.iter_mut().map(|c| Box::new(c) as _).collect();
    let makespan = run_clients(&mut tb, &mut clients, SimTime::MAX);
    drop(clients);
    // Sanity: dense tickets.
    let total = threads as u64 * tickets_per_thread;
    assert_eq!(tb.machine(7).mem.load_u64(counter, 0), total, "lost tickets");
    simcore::mops(total, makespan)
}

/// Aggregate RPC sequencer throughput (MOPS) over a given transport.
pub fn rpc_sequencer_mops(threads: usize, tickets_per_thread: u64, transport: Transport) -> f64 {
    let mut tb = Testbed::new(ClusterConfig::default());
    let seq = RpcSequencer::new();
    let mut loops = Vec::new();
    for th in 0..threads {
        let machine = th % 7;
        let conn = tb.connect_with(Endpoint::affine(machine, 1), Endpoint::affine(7, 1), transport);
        let seq = seq.clone();
        loops.push(cluster::ClosedLoop::new(
            1,
            tickets_per_thread,
            move |tb: &mut Testbed, now, _| seq.next(tb, conn, now).at,
        ));
    }
    let mut clients: Vec<Box<dyn Client + '_>> =
        loops.iter_mut().map(|c| Box::new(c) as _).collect();
    let makespan = run_clients(&mut tb, &mut clients, SimTime::MAX);
    drop(clients);
    simcore::mops(threads as u64 * tickets_per_thread, makespan)
}

/// Fig 10: both panels.
pub fn fig10() -> Vec<Experiment> {
    let mut v = fig10a();
    v.extend(fig10b());
    v
}

/// Fig 10(a): spinlock throughput, local vs remote vs RPC (± backoff).
pub fn fig10a() -> Vec<Experiment> {
    let host = HostMemConfig::default();
    let mut local = Series::new("Local");
    let mut local_bo = Series::new("Local (backoff)");
    let mut remote = Series::new("Remote");
    let mut remote_bo = Series::new("Remote (backoff)");
    let mut rpc = Series::new("RPC-based");
    let mut rpc_ud = Series::new("RPC-based (UD)");
    for threads in 1..=14usize {
        let x = threads as f64;
        local.push(x, local_spinlock_mops(&host, threads, false));
        local_bo.push(x, local_spinlock_mops(&host, threads, true));
        remote.push(x, remote_spinlock_mops(threads, false, 150));
        remote_bo.push(x, remote_spinlock_mops(threads, true, 150));
        rpc.push(x, rpc_spinlock_mops(threads, 150, Transport::Rc));
        rpc_ud.push(x, rpc_spinlock_mops(threads, 150, Transport::Ud));
    }
    let r14 = remote.y_at(14.0).expect("14");
    let p14 = rpc.y_at(14.0).expect("14");
    let rb14 = remote_bo.y_at(14.0).expect("14");
    let l14 = local.y_at(14.0).expect("14");
    vec![Experiment {
        id: "fig10a",
        title: "Spinlock: local vs remote vs RPC (log-scale y in the paper)".into(),
        output: Output::Series {
            x: "threads".into(),
            y: "MOPS".into(),
            series: vec![local, local_bo, remote, remote_bo, rpc, rpc_ud],
        },
        notes: vec![
            format!("remote/RPC at 14 threads: {:.2}x (paper: 1.54–2.80x)", r14 / p14),
            format!(
                "backoff-remote vs plain local at 14 threads: {:.2}x (paper: 2.32x)",
                rb14 / l14
            ),
        ],
    }]
}

/// Fig 10(b): sequencer throughput, local vs remote vs RPC.
pub fn fig10b() -> Vec<Experiment> {
    let host = HostMemConfig::default();
    let mut local = Series::new("Local Sequencer");
    let mut remote = Series::new("Remote Sequencer");
    let mut rpc = Series::new("RPC Sequencer");
    let mut rpc_ud = Series::new("RPC Sequencer (UD)");
    for threads in 1..=16usize {
        let x = threads as f64;
        local.push(x, local_sequencer_mops(&host, threads));
        remote.push(x, remote_sequencer_mops(threads, 200));
        rpc.push(x, rpc_sequencer_mops(threads, 200, Transport::Rc));
        rpc_ud.push(x, rpc_sequencer_mops(threads, 200, Transport::Ud));
    }
    let r = remote.y_at(12.0).expect("12");
    let p = rpc.y_at(12.0).expect("12");
    vec![Experiment {
        id: "fig10b",
        title: "Sequencer: local vs remote vs RPC".into(),
        output: Output::Series {
            x: "threads".into(),
            y: "MOPS".into(),
            series: vec![local, remote, rpc, rpc_ud],
        },
        notes: vec![format!(
            "remote/RPC at 12 threads: {:.2}x (paper: 1.87–2.25x; remote stable ~2.6 MOPS past 5 threads)",
            r / p
        )],
    }]
}
