//! apps-closed: the paper's §IV case-study apps at the size the full
//! reproduction runs them — two distributed joins (the bulk of what a user
//! of the reproduction waits for), the hashtable's basic and consolidated
//! variants (by far the costliest per simulated op), a verified shuffle and
//! a verified distributed log. Each public `run_*` call builds its own
//! cluster inside, so this workload bypasses any change to separately
//! called cluster set-up.

use crate::check::Fnv;
use crate::trace::Phase;
use crate::workload::{probe, Ctx, Sample};
use apps::{
    run_dlog, run_hashtable, run_join, run_shuffle, DlogConfig, HtConfig, HtVariant, JoinConfig,
    ShuffleConfig, ShuffleVariant,
};
use cluster::{ClusterConfig, Testbed};
use simcore::opcount;

const NAME: &str = "apps-closed";

enum Call {
    Join(JoinConfig),
    Hashtable(HtConfig),
    Shuffle(ShuffleConfig),
    Dlog(DlogConfig),
}

impl Call {
    fn machines(&self) -> usize {
        match self {
            Call::Join(c) => c.machines,
            Call::Hashtable(c) => c.machines,
            Call::Shuffle(c) => c.machines,
            Call::Dlog(c) => c.machines,
        }
    }

    /// The layers the call's host seconds and simulated ops count toward.
    fn layers(&self) -> (&'static str, &'static str) {
        match self {
            Call::Join(_) => ("apps.join_s", "apps.join_ops"),
            Call::Hashtable(_) => ("apps.hashtable_s", "apps.hashtable_ops"),
            Call::Shuffle(_) => ("apps.shuffle_s", "apps.shuffle_ops"),
            Call::Dlog(_) => ("apps.dlog_s", "apps.dlog_ops"),
        }
    }
}

fn calls(seed: u64, quick: bool) -> [(&'static str, Call); 6] {
    let tuples = if quick { 1 << 12 } else { 1 << 20 };
    let join = |executors, batch| {
        Call::Join(JoinConfig {
            executors,
            batch,
            tuples,
            verify: false,
            seed,
            ..Default::default()
        })
    };
    let ht_ops = if quick { 100 } else { 1200 };
    let ht = |variant| {
        Call::Hashtable(HtConfig {
            front_ends: 6,
            ops_per_fe: ht_ops,
            variant,
            seed,
            ..Default::default()
        })
    };
    let entries = if quick { 200 } else { ShuffleConfig::default().entries_per_executor };
    let records = if quick { 100 } else { DlogConfig::default().records_per_engine };
    [
        ("join-t4-l1", join(4, 1)),
        ("join-t16-l16", join(16, 16)),
        ("hashtable-basic", ht(HtVariant::Basic)),
        ("hashtable-reorder16", ht(HtVariant::Reorder { theta: 16 })),
        (
            "shuffle-sp16",
            Call::Shuffle(ShuffleConfig {
                executors: 16,
                entries_per_executor: entries,
                variant: ShuffleVariant::Sp(16),
                seed,
                ..Default::default()
            }),
        ),
        (
            "dlog",
            Call::Dlog(DlogConfig { records_per_engine: records, seed, ..Default::default() }),
        ),
    ]
}

/// One repeat: every call once, in order.
pub fn repeat(ctx: &mut Ctx) -> Sample {
    let calls = calls(ctx.seed, ctx.quick);
    let mut s = Sample::default();

    // Set-up happens inside each call, so it cannot be timed apart from
    // the run; probe the one set-up step every call makes first instead,
    // `Testbed::new` at the call's cluster size.
    for (_, call) in &calls {
        let machines = call.machines();
        let (setup, teardown) =
            probe(|| Testbed::new(ClusterConfig { machines, ..Default::default() }));
        s.setup_s += setup;
        s.teardown_s += teardown;
    }
    s.add("cluster.testbed_new_s", s.setup_s);
    s.add("cluster.teardown_s", s.teardown_s);

    let mut results = Vec::with_capacity(calls.len());
    let run = Phase::start("run");
    for (config, call) in &calls {
        let ops_before = opcount::current();
        let p = Phase::start(config);
        let (digest, ok, what) = match call {
            Call::Join(cfg) => {
                let r = run_join(cfg);
                let what = format!("{} matches of {} tuples", r.matches, cfg.tuples);
                let d = [r.time.as_ps(), r.partition_time.as_ps(), r.matches, r.cpu_busy.as_ps()];
                (fold(&d), r.matches == cfg.tuples, what)
            }
            Call::Hashtable(cfg) => {
                let r = run_hashtable(cfg);
                let want = cfg.front_ends as u64 * cfg.ops_per_fe;
                let d = [r.mops.to_bits(), r.makespan.as_ps(), r.ops, r.flushes];
                (fold(&d), r.ops == want, format!("{} of {want} inserts", r.ops))
            }
            Call::Shuffle(cfg) => {
                let r = run_shuffle(cfg);
                let d = [r.mops.to_bits(), r.makespan.as_ps(), r.entries, u64::from(r.verified)];
                (fold(&d), r.verified, "shuffle verified".to_string())
            }
            Call::Dlog(cfg) => {
                let r = run_dlog(cfg);
                let d = [r.mops.to_bits(), r.makespan.as_ps(), r.records, u64::from(r.verified)];
                (fold(&d), r.verified, "log verified".to_string())
            }
        };
        let (secs, ops) = call.layers();
        s.add(secs, p.stop());
        let sim_ops = opcount::current() - ops_before;
        s.add(ops, sim_ops as f64);
        s.sim_ops += sim_ops;
        results.push((*config, digest, ok, what));
    }
    s.run_s = run.stop();
    for (config, digest, ok, what) in results {
        ctx.check.holds(&format!("{NAME} {config}: {what}"), ok);
        ctx.check.digest(NAME, config, digest);
    }
    s
}

fn fold(words: &[u64]) -> u64 {
    let mut d = Fnv::default();
    for &w in words {
        d.eat(w);
    }
    d.value()
}
