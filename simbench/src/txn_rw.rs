//! txn-rw: the transactional dataplane under open-loop load — every
//! request profile in optimistic and locked mode, with deficit-round-robin
//! QP-pool scheduling. Writes sit beside reads in one layer here: CAS lock
//! words, version-validated reads, and commit writes that materialize
//! real pages, plus the host cost of aborted attempts and their retries.
//! (fleet-sparse reaches the same memory layer only through elided zero
//! writes, so a memory change that helps one and hurts the other shows.)

use crate::trace::Phase;
use crate::workload::{probe, Ctx, Sample};
use cluster::{ClusterConfig, Testbed};
use simcore::opcount;
use traffic::{run_txn_traffic, TxnTrafficConfig};
use txn::{build_pod, Concurrency, Scheduler, TxnProfile};

const NAME: &str = "txn-rw";

const CONFIGS: [(&str, TxnProfile, Concurrency); 8] = [
    ("hashtable-optimistic", TxnProfile::Hashtable, Concurrency::Optimistic),
    ("hashtable-locked", TxnProfile::Hashtable, Concurrency::Locked),
    ("shuffle-optimistic", TxnProfile::Shuffle, Concurrency::Optimistic),
    ("shuffle-locked", TxnProfile::Shuffle, Concurrency::Locked),
    ("join-optimistic", TxnProfile::Join, Concurrency::Optimistic),
    ("join-locked", TxnProfile::Join, Concurrency::Locked),
    ("dlog-optimistic", TxnProfile::Dlog, Concurrency::Optimistic),
    ("dlog-locked", TxnProfile::Dlog, Concurrency::Locked),
];

/// One repeat: every profile and mode once.
pub fn repeat(ctx: &mut Ctx) -> Sample {
    let configs: Vec<(&str, TxnTrafficConfig)> = CONFIGS
        .iter()
        .map(|&(config, profile, concurrency)| {
            let cfg = TxnTrafficConfig {
                profile,
                concurrency,
                scheduler: Scheduler::Drr { quantum: 8 },
                offered_mops: 0.1,
                ops_per_tenant: if ctx.quick { 300 } else { 12_000 },
                pods: 2,
                tenants: 4,
                qps: 4,
                seed: ctx.seed,
                shards: 1,
                ..Default::default()
            };
            (config, cfg)
        })
        .collect();
    let mut s = Sample::default();

    // `run_txn_traffic` builds its pods inside, so set-up cannot be timed
    // apart from the run; probe the same public set-up calls instead:
    // `Testbed::new`, then `txn::build_pod` per pod.
    for (_, cfg) in &configs {
        let (setup, teardown) = probe(|| {
            let mut tb =
                Testbed::new(ClusterConfig { machines: cfg.pods * 2, ..Default::default() });
            for pod in 0..cfg.pods {
                let cap_reads = cfg.profile.cap_reads();
                build_pod(
                    &mut tb,
                    pod * 2,
                    pod * 2 + 1,
                    cfg.qps,
                    cap_reads,
                    cfg.records,
                    cfg.table_value_len(),
                );
            }
            tb
        });
        s.setup_s += setup;
        s.teardown_s += teardown;
    }
    s.add("txn.build_pod_s", s.setup_s);
    s.add("cluster.teardown_s", s.teardown_s);

    let mut reports = Vec::with_capacity(configs.len());
    let run = Phase::start("run");
    for (config, cfg) in &configs {
        let ops_before = opcount::current();
        let p = Phase::start(config);
        let r = run_txn_traffic(cfg);
        let layer = match cfg.concurrency {
            Concurrency::Optimistic => "txn.optimistic_s",
            Concurrency::Locked => "txn.locked_s",
        };
        s.add(layer, p.stop());
        s.sim_ops += opcount::current() - ops_before;
        reports.push(r);
    }
    s.run_s = run.stop();

    for ((config, cfg), r) in configs.iter().zip(&reports) {
        let want = (cfg.pods * cfg.tenants) as u64 * cfg.ops_per_tenant;
        let st = &r.stats;
        let what =
            format!("{NAME} {config}: {} commits, {} failures of {want}", st.commits, st.failures);
        ctx.check.holds(&what, st.commits == want && st.failures == 0);
        ctx.check.digest(NAME, config, r.digest());
        s.add("txn.commits", st.commits as f64);
        s.add("txn.aborts", st.aborts as f64);
        s.add("txn.cas_retries", st.cas_retries as f64);
    }
    let (commits, aborts) = (s.layer("txn.commits"), s.layer("txn.aborts"));
    s.add("txn.commit_ratio", commits / (commits + aborts));
    s
}
