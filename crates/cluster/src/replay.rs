//! Replay a verbcheck [`VerbProgram`] through the simulated testbed.
//!
//! This is the bridge between the static and dynamic race layers: the
//! same program text the analyzer reasons about symbolically is executed
//! against the full device model in checked mode, with the runtime race
//! oracle watching every one-sided DMA span. The cross-validation suite
//! (`bench/tests/crossval.rs`) replays every lint program through both
//! layers and asserts the static analysis is a sound over-approximation
//! of what the oracle actually observed.
//!
//! Checked mode only arms that oracle. A malformed post (out of MR
//! bounds, a misaligned atomic) completes with an error CQE, as on real
//! hardware, and counts in [`ReplayOutcome::failures`]; it never panics,
//! so the fix engine's equivalence check can compare any two programs.
//!
//! Replay is deterministic end to end — machine construction, memory
//! seeding, connection order, and the post/poll clock are all derived
//! from the program text — so two replays of equivalent programs can be
//! compared by memory digest (the fix engine's equivalence check).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::ClusterConfig;
use crate::oracle::Race;
use crate::testbed::{ConnId, Endpoint, Testbed};
use rnicsim::{Completion, CqeStatus, MrId};
use simcore::SimTime;
use verbcheck::program::{Event, VerbProgram};

/// Regions larger than this are registered unbacked (timed-only): their
/// data effects are discarded, which keeps replay of benchmark-scale
/// programs (64 MB stride targets) from allocating real gigabytes.
/// Atomic targets are always backed — the device faults CAS/FAA on
/// unbacked memory.
const BACKED_LIMIT: u64 = 8 << 20;

/// What a replay observed.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Races the runtime oracle recorded, with connection ids mapped
    /// back to the program's QP numbers, canonically sorted.
    pub races: Vec<Race>,
    /// FNV-1a digest of every backed region's bytes, per machine in
    /// ascending machine order (regions in ascending id order within).
    pub digests: Vec<u64>,
    /// Completions with a non-`Success` status.
    pub failures: usize,
    /// Total completions generated (signaled WRs only).
    pub completions: usize,
}

/// Execute `prog` on a freshly built testbed in checked mode and report
/// what the dynamic layer saw.
///
/// The replay clock mirrors the static analyzer's happens-before rules:
/// posts do *not* advance time (ops on different QPs with no poll
/// between them are concurrent), while a poll advances the clock to the
/// latest polled CQE (the completion is the cross-QP ordering edge).
pub fn replay_program(prog: &VerbProgram) -> ReplayOutcome {
    let machines = machine_count(prog);
    let mut cfg = ClusterConfig { machines, ..ClusterConfig::default() };
    // The replay device accepts SGLs as long as the program needs: a
    // W201 program would be rejected outright by real hardware, but its
    // *data effect* is well-defined (the SGEs gather in order), and
    // accepting it is what lets the fix engine compare an oversized
    // original against its split-SGL repair byte for byte.
    for ev in prog.events() {
        if let Event::Post { wr, .. } = ev {
            cfg.rnic.max_sge = cfg.rnic.max_sge.max(wr.sgl.len());
        }
    }
    let mut tb = Testbed::new(cfg);

    // Atomic targets must be backed regardless of size.
    let mut atomic_targets: BTreeSet<(usize, u32)> = BTreeSet::new();
    for ev in prog.events() {
        if let Event::Post { qp, wr } = ev {
            if wr.kind.is_atomic() {
                if let (Some(decl), Some((rkey, _))) = (prog.find_qp(*qp), wr.remote) {
                    atomic_targets.insert((decl.remote_machine, rkey.0 as u32));
                }
            }
        }
    }

    // Register the program's MRs so testbed ids equal program ids:
    // MemoryPool assigns ids sequentially, so walk each machine's id
    // space in order and plug undeclared gaps with unbacked stubs.
    for m in 0..machines {
        let mut decls: Vec<_> = prog.mrs().iter().filter(|d| d.machine == m).collect();
        decls.sort_by_key(|d| d.mr.0);
        let mut next = 0u32;
        for d in decls {
            while next < d.mr.0 {
                tb.register_unbacked(m, 0, 8);
                next += 1;
            }
            let backed = d.len <= BACKED_LIMIT || atomic_targets.contains(&(m, d.mr.0));
            let id = if backed {
                tb.register(m, d.socket, d.len)
            } else {
                tb.register_unbacked(m, d.socket, d.len)
            };
            assert_eq!(id, d.mr, "replay id mapping drifted");
            if backed {
                seed_region(&mut tb, m, d.mr, d.len);
            }
            next = d.mr.0 + 1;
        }
    }

    // Connect QPs in ascending program order; `ConnId`s are assigned
    // sequentially, so `qps[i]` maps to connection `i`.
    let mut qps: Vec<_> = prog.qps().to_vec();
    qps.sort_by_key(|d| d.qp.0);
    let mut conn_of: BTreeMap<u32, ConnId> = BTreeMap::new();
    for d in &qps {
        let conn = tb.connect(
            Endpoint::affine(d.local_machine, d.local_port_socket),
            Endpoint::affine(d.remote_machine, d.remote_port_socket),
        );
        conn_of.insert(d.qp.0, conn);
    }

    tb.set_checked(true);

    let mut t = SimTime::ZERO;
    let mut fifos: BTreeMap<u32, VecDeque<Completion>> = BTreeMap::new();
    let mut cqes: Vec<Completion> = Vec::new();
    let mut failures = 0usize;
    let mut completions = 0usize;
    for ev in prog.events() {
        match ev {
            Event::Post { qp, wr } => {
                let conn = conn_of[&qp.0];
                cqes.clear();
                tb.post_into(t, conn, std::slice::from_ref(wr), &mut cqes);
                for c in &cqes {
                    completions += 1;
                    if c.status != CqeStatus::Success {
                        failures += 1;
                    }
                    fifos.entry(qp.0).or_default().push_back(*c);
                }
            }
            Event::Poll { qp, count } => {
                let fifo = fifos.entry(qp.0).or_default();
                for _ in 0..*count {
                    match fifo.pop_front() {
                        Some(c) => t = t.max(c.at),
                        None => break,
                    }
                }
            }
        }
    }

    // Map oracle connection ids back to program QP numbers.
    let mut races = tb.take_races();
    for r in &mut races {
        r.first.0 = qps[r.first.0 as usize].qp.0;
        r.second.0 = qps[r.second.0 as usize].qp.0;
    }
    races.sort();

    let digests = (0..machines)
        .map(|m| {
            let mem = &tb.machine(m).mem;
            let mut h = 0xcbf29ce484222325u64;
            for (mr, region) in mem.iter() {
                if region.is_backed() {
                    for b in mem.read(mr, 0, region.len) {
                        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
                    }
                }
            }
            h
        })
        .collect();

    ReplayOutcome { races, digests, failures, completions }
}

/// Number of machines the program spans (at least two — the testbed's
/// connections are inherently two-machine).
fn machine_count(prog: &VerbProgram) -> usize {
    let mut max = 1usize;
    for d in prog.mrs() {
        max = max.max(d.machine);
    }
    for d in prog.qps() {
        max = max.max(d.local_machine).max(d.remote_machine);
    }
    max + 1
}

/// Deterministically seed a backed region from a splitmix64 stream keyed
/// by `(machine, mr)`, so equivalent programs replay to equal digests.
fn seed_region(tb: &mut Testbed, machine: usize, mr: MrId, len: u64) {
    let mut state = (machine as u64) << 32 ^ u64::from(mr.0) ^ 0x9e3779b97f4a7c15;
    let mut bytes = Vec::with_capacity(len as usize);
    while (bytes.len() as u64) < len {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        bytes.extend_from_slice(&z.to_le_bytes());
    }
    bytes.truncate(len as usize);
    tb.machine_mut(machine).mem.write(mr, 0, &bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnicsim::{QpNum, RKey, Sge, VerbKind, WorkRequest};

    fn two_qp_skeleton() -> VerbProgram {
        let mut p = VerbProgram::new();
        p.mr(0, MrId(0), 1, 4096);
        p.mr(1, MrId(1), 1, 4096);
        p.qp(QpNum(0), 0, 1, 1, 1);
        p.qp(QpNum(1), 0, 1, 1, 1);
        p
    }

    #[test]
    fn same_window_overlapping_writes_race_dynamically() {
        let mut p = two_qp_skeleton();
        p.post(QpNum(0), WorkRequest::write(1, Sge::new(MrId(0), 0, 64), RKey(1), 0));
        p.post(QpNum(1), WorkRequest::write(2, Sge::new(MrId(0), 128, 64), RKey(1), 48));
        p.poll(QpNum(0), 1);
        p.poll(QpNum(1), 1);
        let out = replay_program(&p);
        assert_eq!(out.failures, 0);
        assert_eq!(out.completions, 2);
        assert_eq!(out.races.len(), 1, "{:?}", out.races);
        assert_eq!(out.races[0].overlap, (48, 64));
        assert!(out.races[0].write_write);
        // Oracle conn ids were mapped back to program QP numbers.
        assert_eq!(out.races[0].first.0, 0);
        assert_eq!(out.races[0].second.0, 1);
    }

    #[test]
    fn polling_the_earlier_write_prevents_the_dynamic_race() {
        let mut p = two_qp_skeleton();
        p.post(QpNum(0), WorkRequest::write(1, Sge::new(MrId(0), 0, 64), RKey(1), 0));
        p.poll(QpNum(0), 1);
        p.post(QpNum(1), WorkRequest::write(2, Sge::new(MrId(0), 128, 64), RKey(1), 48));
        p.poll(QpNum(1), 1);
        let out = replay_program(&p);
        assert_eq!(out.failures, 0);
        assert!(out.races.is_empty(), "{:?}", out.races);
    }

    #[test]
    fn replay_is_deterministic() {
        let mut p = two_qp_skeleton();
        p.post(QpNum(0), WorkRequest::write(1, Sge::new(MrId(0), 0, 64), RKey(1), 0));
        p.poll(QpNum(0), 1);
        p.post(QpNum(1), WorkRequest::read(2, Sge::new(MrId(0), 128, 64), RKey(1), 0));
        p.poll(QpNum(1), 1);
        let a = replay_program(&p);
        let b = replay_program(&p);
        assert_eq!(a.digests, b.digests);
        assert_eq!(a.races, b.races);
        assert_eq!(a.completions, b.completions);
    }

    #[test]
    fn oversized_regions_replay_unbacked_without_failures() {
        let mut p = VerbProgram::new();
        p.mr(0, MrId(0), 1, 4096);
        p.mr(1, MrId(1), 1, 64 << 20);
        p.qp(QpNum(0), 0, 1, 1, 1);
        p.post(QpNum(0), WorkRequest::write(1, Sge::new(MrId(0), 0, 64), RKey(1), 32 << 20));
        p.poll(QpNum(0), 1);
        let out = replay_program(&p);
        assert_eq!(out.failures, 0);
        assert_eq!(out.completions, 1);
    }

    #[test]
    fn atomic_targets_are_backed_and_take_effect() {
        let mut p = two_qp_skeleton();
        p.post(
            QpNum(0),
            WorkRequest {
                wr_id: rnicsim::WrId(1),
                kind: VerbKind::FetchAdd { delta: 3 },
                sgl: Sge::new(MrId(0), 0, 8).into(),
                remote: Some((RKey(1), 8)),
                signaled: true,
            },
        );
        p.poll(QpNum(0), 1);
        let out = replay_program(&p);
        assert_eq!(out.failures, 0, "atomic on a backed region must succeed");
    }

    #[test]
    fn out_of_bounds_posts_fail_without_panicking() {
        let mut p = two_qp_skeleton();
        p.post(QpNum(0), WorkRequest::write(1, Sge::new(MrId(0), 0, 64), RKey(1), 4096 - 10));
        p.poll(QpNum(0), 1);
        let out = replay_program(&p);
        assert_eq!(out.completions, 1);
        assert!(out.failures > 0);
    }
}
