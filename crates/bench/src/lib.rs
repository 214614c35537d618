//! # bench — the reproduction harness
//!
//! Regenerates every data table and figure of *Thinking More about RDMA
//! Memory Semantics* (CLUSTER 2021) from the simulated testbed. The
//! `repro` binary drives the modules here; standalone timing binaries
//! (in `benches/`, built on [`harness`]) cover simulator hot paths.
//!
//! Each experiment group is one row of [`EXPERIMENTS`], and runs under
//! the options of one [`RunCtx`]. Experiments are independent
//! deterministic simulations, so the runner fans them out across cores
//! with [`par_map`]; results are merged back in submission order and are
//! byte-identical to a serial run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod ablate;
pub mod appfigs;
pub mod atomics;
pub mod harness;
pub mod lint;
pub mod micro;
pub mod openloop;
pub mod report;
pub mod txnbench;

pub use appfigs::Scale;
pub use report::{Experiment, Output};

use txn::Concurrency;
use verbcheck::VerbProgram;

/// The run options every experiment receives. The runner resolves its
/// command line into one value; each determinism-gate leg is another.
/// None of these options changes a result, only how the work is spread.
#[derive(Clone, Copy, Debug)]
pub struct RunCtx {
    /// Worker threads [`par_map`] may use (at least 1).
    pub jobs: usize,
    /// Shards a pinned-client run deals its connected components to (at
    /// least 1; 1 runs every component on the calling thread).
    pub shards: usize,
    /// Laptop-sized or paper-sized inputs.
    pub scale: Scale,
}

impl RunCtx {
    /// One worker, one shard, laptop-sized inputs.
    pub const SERIAL: RunCtx = RunCtx { jobs: 1, shards: 1, scale: Scale { paper: false } };
}

/// Order-preserving parallel map over independent experiment points
/// (scoped threads; every simulation run is self-contained and `Send`).
///
/// A pool of at most `ctx.jobs` workers pulls items off a shared cursor,
/// so `items` may be much longer than the core count. Results come back
/// in input order regardless of scheduling, and each worker's
/// simulated-op count ([`simcore::opcount`]) is folded into the calling
/// thread's counter, so op accounting stays exact under nesting
/// (experiment-level fan-out over point-level fan-out).
pub fn par_map<T: Send, R: Send>(ctx: &RunCtx, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = ctx.jobs.min(n).max(1);
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut child_ops = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let f = &f;
            let slots = &slots;
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                let ops_before = simcore::opcount::current();
                let mut out = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i].lock().expect("poisoned").take().expect("taken once");
                    out.push((i, f(item)));
                }
                (out, simcore::opcount::current() - ops_before)
            }));
        }
        for h in handles {
            let (pairs, ops) = h.join().expect("worker panicked");
            child_ops += ops;
            for (i, r) in pairs {
                results[i] = Some(r);
            }
        }
    });
    simcore::opcount::add(child_ops);
    results.into_iter().map(|r| r.expect("worker finished")).collect()
}

/// Membership of an experiment in a named set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tag {
    /// The §III microbenchmark set (`repro micro`, the bench wall-clock
    /// acceptance target).
    Micro,
    /// The `repro --check-determinism` set.
    Gate,
}

/// Verb programs of one experiment, labelled relative to its id.
pub type Programs = Vec<(String, VerbProgram)>;

/// One experiment group the harness can regenerate.
pub struct ExpSpec {
    /// The id `repro` takes on its command line.
    pub id: &'static str,
    /// Run the group.
    pub run: fn(&RunCtx) -> Vec<Experiment>,
    /// The verb programs `repro --lint` analyzes; `None` for an
    /// experiment that posts no verbs.
    pub programs: Option<fn() -> Programs>,
    /// The sets this experiment belongs to.
    pub tags: &'static [Tag],
}

impl ExpSpec {
    /// Whether this experiment carries `tag`.
    pub fn has(&self, tag: Tag) -> bool {
        self.tags.contains(&tag)
    }
}

/// One registry row.
const fn exp(
    id: &'static str,
    run: fn(&RunCtx) -> Vec<Experiment>,
    programs: Option<fn() -> Programs>,
    tags: &'static [Tag],
) -> ExpSpec {
    ExpSpec { id, run, programs, tags }
}

use traffic::AppKind as App;
use Tag::{Gate, Micro};

/// Every experiment the harness can regenerate, in paper order: id, run,
/// lint programs, tags. This table is the one list of experiment ids.
pub static EXPERIMENTS: &[ExpSpec] = &[
    exp("fig1", |_| micro::fig1(), Some(lint::fig1), &[Micro]),
    exp("fig3", |_| micro::fig3(), Some(|| lint::strategies(16, 32)), &[Micro]),
    exp("fig4", |_| micro::fig4(), Some(|| lint::strategies(32, 32)), &[Micro]),
    exp("fig5", |_| micro::fig5(), Some(lint::fig5), &[Micro]),
    exp("table1", |_| micro::table1(), Some(|| lint::strategies(32, 32)), &[Micro, Gate]),
    exp("fig6", micro::fig6, Some(lint::fig6), &[Micro]),
    exp("fig8", micro::fig8, Some(lint::fig8), &[Micro, Gate]),
    // Local inter-socket memory only: no verbs.
    exp("table2", |_| micro::table2(), None, &[Micro, Gate]),
    exp("table3", |_| micro::table3(), Some(lint::table3), &[Micro]),
    exp("fig10", |_| atomics::fig10(), Some(lint::atomics), &[]),
    exp("fig12", |_| appfigs::fig12(), Some(lint::hashtable), &[]),
    exp("fig13", |_| appfigs::fig13(), Some(lint::hashtable), &[]),
    exp("fig15", |_| appfigs::fig15(), Some(lint::shuffle), &[]),
    exp("fig16", appfigs::fig16, Some(lint::join), &[]),
    exp("fig17", appfigs::fig17, Some(lint::join), &[]),
    exp("fig18", |_| appfigs::fig18(), Some(lint::join), &[]),
    exp("fig19", |_| appfigs::fig19(), Some(lint::dlog), &[]),
    exp("extra-mr-scale", |_| micro::extra_mr_scale(), Some(lint::mr_scale), &[]),
    exp("extra-qp-scale", |_| micro::extra_qp_scale(), Some(lint::qp_scale), &[]),
    exp("extra-recovery", |_| appfigs::extra_recovery(), Some(lint::recovery), &[]),
    exp("extra-reg-cost", |_| micro::extra_reg_cost(), Some(lint::reg_cost), &[]),
    exp("extra-ycsb", |_| appfigs::extra_ycsb(), Some(lint::ycsb), &[]),
    // The fleet sweeps replicate fig6's posting pattern across many
    // machine pairs; per-pair programs are identical, so they lint it
    // once. fig6-xxl's notes carry the sparse pool's memory digest, so
    // the gate pins memory placement too.
    exp("fig6-xl", micro::fig6_xl, Some(lint::fig6), &[]),
    exp("fig6-xxl", micro::fig6_xxl, Some(lint::fig6), &[Gate]),
    exp("ablate-occupancy", |_| ablate::ablate_occupancy(), Some(lint::rand_write), &[]),
    exp("ablate-mtt", |_| ablate::ablate_mtt_capacity(), Some(lint::rand_write), &[]),
    exp("ablate-backoff", |_| ablate::ablate_backoff(), Some(lint::atomics), &[]),
    exp("ablate-inline", |_| ablate::ablate_inline(), Some(lint::inline), &[]),
    exp(
        "traffic-hashtable",
        |c| openloop::experiment(App::Hashtable, c),
        Some(|| lint::traffic(App::Hashtable)),
        &[],
    ),
    exp(
        "traffic-shuffle",
        |c| openloop::experiment(App::Shuffle, c),
        Some(|| lint::traffic(App::Shuffle)),
        &[],
    ),
    exp(
        "traffic-join",
        |c| openloop::experiment(App::Join, c),
        Some(|| lint::traffic(App::Join)),
        &[],
    ),
    exp(
        "traffic-dlog",
        |c| openloop::experiment(App::Dlog, c),
        Some(|| lint::traffic(App::Dlog)),
        &[],
    ),
    // Burstiness changes when verbs are posted, never which, so the
    // burst knees and the windowed series lint the app drivers' shapes.
    exp("traffic-burst", txnbench::burst_experiment, Some(lint::traffic_all), &[]),
    exp("traffic-series", txnbench::series_experiment, Some(|| lint::traffic(App::Hashtable)), &[]),
    // The service scheduler, abort accounting and tenant telemetry ride
    // inside the gate. txn-contention runs one pod, so txn-fairness's two
    // pods are what the sharded leg deals.
    exp(
        "txn-contention",
        txnbench::contention_experiment,
        Some(|| lint::txn(&[Concurrency::Optimistic, Concurrency::Locked])),
        &[Gate],
    ),
    exp(
        "txn-fairness",
        txnbench::fairness_experiment,
        Some(|| lint::txn(&[Concurrency::Optimistic])),
        &[Gate],
    ),
];

/// The registered experiment called `id`.
pub fn lookup(id: &str) -> Option<&'static ExpSpec> {
    EXPERIMENTS.iter().find(|s| s.id == id)
}

/// Every registered id, in registry order (for messages).
pub fn ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|s| s.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_resolve() {
        for spec in EXPERIMENTS {
            let count = EXPERIMENTS.iter().filter(|s| s.id == spec.id).count();
            assert_eq!(count, 1, "id {:?} registered {count} times", spec.id);
        }
        assert!(lookup("fig99").is_none());
        // Run the cheapest experiment end to end.
        let exps = (lookup("table2").expect("table2").run)(&RunCtx::SERIAL);
        assert!(!exps.is_empty());
        for e in exps {
            assert!(!e.render().is_empty());
        }
    }

    #[test]
    fn par_map_preserves_order_and_ops() {
        let before = simcore::opcount::current();
        let ctx = RunCtx { jobs: 4, ..RunCtx::SERIAL };
        let out = par_map(&ctx, (0..100u64).collect(), |i| {
            simcore::opcount::add(i);
            i * 2
        });
        assert_eq!(out, (0..100u64).map(|i| i * 2).collect::<Vec<_>>());
        // All worker-side op counts landed on the calling thread.
        assert_eq!(simcore::opcount::current() - before, (0..100u64).sum::<u64>());
    }

    #[test]
    fn par_map_serial_override_matches() {
        let serial = par_map(&RunCtx::SERIAL, (0..20u64).collect(), |i| i + 1);
        let parallel =
            par_map(&RunCtx { jobs: 3, ..RunCtx::SERIAL }, (0..20u64).collect(), |i| i + 1);
        assert_eq!(serial, parallel);
    }
}
