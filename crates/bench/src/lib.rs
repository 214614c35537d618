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
    /// The §III microbenchmark set (`repro micro`).
    Micro,
    /// The `repro --check-determinism` set.
    Gate,
}

/// Verb programs of one experiment, labelled relative to its id.
pub type Programs = Vec<(String, VerbProgram)>;

/// One experiment group the harness can regenerate.
#[derive(Clone, Copy)]
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
    /// The simulated operations a laptop-scale run performs, pinned
    /// exactly: simulated work is deterministic, so any drift is a
    /// behaviour change. `None` for an unpinned experiment.
    pub sim_ops: Option<u64>,
}

impl ExpSpec {
    /// Whether this experiment carries `tag`.
    pub fn has(&self, tag: Tag) -> bool {
        self.tags.contains(&tag)
    }

    /// This row with its laptop-scale `sim_ops` pinned to `sim_ops`.
    const fn pinned(self, sim_ops: u64) -> ExpSpec {
        ExpSpec { sim_ops: Some(sim_ops), ..self }
    }
}

/// One registry row, unpinned.
const fn exp(
    id: &'static str,
    run: fn(&RunCtx) -> Vec<Experiment>,
    programs: Option<fn() -> Programs>,
    tags: &'static [Tag],
) -> ExpSpec {
    ExpSpec { id, run, programs, tags, sim_ops: None }
}

use traffic::AppKind as App;
use Tag::{Gate, Micro};

/// Every experiment the harness can regenerate, in paper order: id, run,
/// lint programs, tags, and, on the rows [`check_sim_ops`] holds to an
/// exact count, a `sim_ops` pin. This table is the one list of
/// experiment ids.
pub static EXPERIMENTS: &[ExpSpec] = &[
    exp("fig1", |_| micro::fig1(), Some(lint::fig1), &[Micro]).pinned(78052),
    exp("fig3", |_| micro::fig3(), Some(|| lint::strategies(16, 32)), &[Micro]).pinned(115200),
    exp("fig4", |_| micro::fig4(), Some(|| lint::strategies(32, 32)), &[Micro]).pinned(30000),
    exp("fig5", |_| micro::fig5(), Some(lint::fig5), &[Micro]).pinned(64800),
    exp("table1", |_| micro::table1(), Some(|| lint::strategies(32, 32)), &[Micro, Gate])
        .pinned(11700),
    exp("fig6", micro::fig6, Some(lint::fig6), &[Micro]).pinned(470400),
    exp("fig8", micro::fig8, Some(lint::fig8), &[Micro, Gate]).pinned(217445),
    // Local inter-socket memory only: no verbs.
    exp("table2", |_| micro::table2(), None, &[Micro, Gate]).pinned(10240),
    exp("table3", |_| micro::table3(), Some(lint::table3), &[Micro]).pinned(10836),
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
    exp("fig6-xxl", micro::fig6_xxl, Some(lint::fig6), &[Gate]).pinned(172032),
    exp("ablate-occupancy", |_| ablate::ablate_occupancy(), Some(lint::rand_write), &[]),
    exp("ablate-mtt", |_| ablate::ablate_mtt_capacity(), Some(lint::rand_write), &[]),
    exp("ablate-backoff", |_| ablate::ablate_backoff(), Some(lint::atomics), &[]),
    exp("ablate-inline", |_| ablate::ablate_inline(), Some(lint::inline), &[]),
    exp(
        "traffic-hashtable",
        |c| openloop::experiment(App::Hashtable, c),
        Some(|| lint::traffic(App::Hashtable)),
        &[],
    )
    .pinned(50888),
    exp(
        "traffic-shuffle",
        |c| openloop::experiment(App::Shuffle, c),
        Some(|| lint::traffic(App::Shuffle)),
        &[],
    )
    .pinned(59513),
    exp(
        "traffic-join",
        |c| openloop::experiment(App::Join, c),
        Some(|| lint::traffic(App::Join)),
        &[],
    )
    .pinned(61904),
    exp(
        "traffic-dlog",
        |c| openloop::experiment(App::Dlog, c),
        Some(|| lint::traffic(App::Dlog)),
        &[],
    )
    .pinned(89366),
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

/// A pinned experiment's `sim_ops`: what its row pins and what a fresh
/// run counted.
#[derive(Debug)]
pub struct SimOpsRow {
    /// The experiment id.
    pub id: &'static str,
    /// The registry's pin.
    pub pinned: u64,
    /// The fresh run's count.
    pub fresh: u64,
}

impl SimOpsRow {
    /// Whether the fresh count differs from the pin.
    pub fn drifted(&self) -> bool {
        self.fresh != self.pinned
    }
}

/// Rerun every row of `specs` that pins `sim_ops`, on `ctx.jobs` workers,
/// and count each run's simulated operations ([`simcore::opcount`]).
/// Rows come back in the order given. The pins are laptop-scale, so
/// `ctx.scale` must be too.
pub fn check_sim_ops(specs: &[ExpSpec], ctx: &RunCtx) -> Vec<SimOpsRow> {
    assert!(!ctx.scale.paper, "sim_ops pins are laptop-scale");
    let pinned: Vec<(&ExpSpec, u64)> = specs.iter().filter_map(|s| Some((s, s.sim_ops?))).collect();
    par_map(ctx, pinned, |(spec, pinned)| {
        let before = simcore::opcount::current();
        (spec.run)(ctx);
        SimOpsRow { id: spec.id, pinned, fresh: simcore::opcount::current() - before }
    })
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

    /// The pin check passes on the registry's own pins and names exactly
    /// the row whose pin is off by one.
    #[test]
    fn sim_ops_check_reports_exactly_the_drifted_row() {
        let cheap: Vec<ExpSpec> = ["table1", "table3", "fig4"]
            .iter()
            .map(|id| *lookup(id).expect("registered"))
            .collect();
        let rows = check_sim_ops(&cheap, &RunCtx::SERIAL);
        assert_eq!(rows.iter().map(|r| r.id).collect::<Vec<_>>(), ["table1", "table3", "fig4"]);
        assert!(rows.iter().all(|r| !r.drifted()), "registry pins drifted: {rows:?}");

        let mut off = cheap;
        off[1].sim_ops = off[1].sim_ops.map(|n| n + 1);
        let rows = check_sim_ops(&off, &RunCtx::SERIAL);
        let drifted: Vec<_> = rows.iter().filter(|r| r.drifted()).map(|r| r.id).collect();
        assert_eq!(drifted, ["table3"]);
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
