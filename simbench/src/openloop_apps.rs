//! openloop-apps: the open-loop traffic engine driving each case-study
//! app, basic and optimized, with Poisson arrivals. Event-dense on a small
//! memory footprint: it stresses the event loop and the app drivers,
//! bypasses the sparse pool and fleet-scale registration, and its
//! optimized (batching) drivers also wake on linger timers without
//! issuing, which `traffic.arrivals_per_step` counts.

use crate::check::Fnv;
use crate::trace::{self, Phase, Stepped};
use crate::workload::{Ctx, Sample};
use cluster::{run_clients_sharded, Pinned};
use simcore::{opcount, LatencyHistogram, SimTime};
use traffic::engine::OpenLoopWorker;
use traffic::{AppKind, TrafficConfig};

const NAME: &str = "openloop-apps";

const CONFIGS: [(&str, AppKind, bool); 8] = [
    ("hashtable-basic", AppKind::Hashtable, false),
    ("hashtable-optimized", AppKind::Hashtable, true),
    ("shuffle-basic", AppKind::Shuffle, false),
    ("shuffle-optimized", AppKind::Shuffle, true),
    ("join-basic", AppKind::Join, false),
    ("join-optimized", AppKind::Join, true),
    ("dlog-basic", AppKind::Dlog, false),
    ("dlog-optimized", AppKind::Dlog, true),
];

/// One repeat: every app and variant once, each on its own pod cluster.
pub fn repeat(ctx: &mut Ctx) -> Sample {
    let mut s = Sample::default();
    for (config, app, optimized) in CONFIGS {
        let cfg = TrafficConfig {
            app,
            optimized,
            offered_mops: 1.0,
            ops_per_worker: if ctx.quick { 500 } else { 50_000 },
            pods: 2,
            workers_per_pod: 2,
            seed: ctx.seed,
            shards: 1,
            ..Default::default()
        };
        one(ctx, config, &cfg, &mut s);
    }
    if trace::on() {
        let steps = s.layer("simcore.client_steps");
        s.add("traffic.arrivals_per_step", s.layer("simcore.useful_steps") / steps);
    }
    s
}

/// `traffic::run_traffic`, split at its set-up/run boundary: build the
/// pods, run the workers, fold their histograms in worker order.
fn one(ctx: &mut Ctx, config: &'static str, cfg: &TrafficConfig, s: &mut Sample) {
    let span = Phase::start(config);
    let setup = Phase::start("traffic.build");
    let (mut tb, mut workers) = traffic::apps::build(cfg);
    let t = setup.stop();
    s.setup_s += t;
    s.add("traffic.build_s", t);

    let traced = trace::on();
    let ops_before = opcount::current();
    let run = Phase::start("run");
    {
        let mut pins: Vec<Pinned<'_>> = workers
            .iter_mut()
            .map(|(m, w)| {
                if traced {
                    Pinned::new(*m, Stepped::new(w, |w: &OpenLoopWorker| w.stats.issued))
                } else {
                    Pinned::new(*m, w)
                }
            })
            .collect();
        run_clients_sharded(&mut tb, &mut pins, 1, SimTime::MAX);
    }
    let run_s = run.stop();
    s.run_s += run_s;
    s.sim_ops += opcount::current() - ops_before;
    if traced {
        s.add_counters(trace::take_counters(), run_s, "traffic.step_s");
    }

    let mut hist = LatencyHistogram::new();
    let mut issued = 0;
    for (_, w) in &workers {
        hist.merge(&w.stats.hist);
        issued += w.stats.issued;
    }
    let want = cfg.ops_per_worker * cfg.workers() as u64;
    ctx.check
        .holds(&format!("{NAME} {config}: {issued} of {want} arrivals issued"), issued == want);
    ctx.check.holds(&format!("{NAME} {config}: latency samples recorded"), hist.count() > 0);
    let mut digest = Fnv::default();
    digest.eat(hist.digest());
    digest.eat(hist.count());
    if ctx.warmup {
        // The split run must be the library's run: same histogram digest.
        let reference = traffic::run_traffic(cfg).digest();
        ctx.check.holds(
            &format!("{NAME} {config}: digest equals run_traffic's"),
            hist.digest() == reference,
        );
    }
    ctx.check.digest(NAME, config, digest.value());
    s.add_nic_caches(&tb);

    let teardown = Phase::start("teardown");
    drop(workers);
    drop(tb);
    let t = teardown.stop();
    s.teardown_s += t;
    s.add("cluster.teardown_s", t);
    span.stop();
}
