//! What a workload is to the runner: a function that performs one repeat
//! and reports its phase times, simulated-op count and layer values.

use crate::check::Checker;
use crate::stats::median;
use crate::trace::Phase;
use std::collections::BTreeMap;

/// Inputs of one repeat.
pub struct Ctx<'a> {
    /// Workload seed; every simulated input derives from it.
    pub seed: u64,
    /// Tiny sizes, for tests.
    pub quick: bool,
    /// The discarded warm-up repeat, which also runs the slower
    /// cross-checks against the simulator's own `run_*` entry points.
    pub warmup: bool,
    /// Where output checks are counted.
    pub check: &'a mut Checker,
}

/// What one repeat measured. Wall time is `setup_s + run_s + teardown_s`;
/// the benchmark's own output checks run between run and teardown and are
/// timed by none of them.
#[derive(Debug, Default)]
pub struct Sample {
    /// Building the simulated cluster(s).
    pub setup_s: f64,
    /// The simulation proper.
    pub run_s: f64,
    /// Dropping what set-up built.
    pub teardown_s: f64,
    /// Simulated operations counted by `simcore::opcount` during `run_s`.
    pub sim_ops: u64,
    /// Per-layer values, keyed by the names in `metrics::PER_LAYER`.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Sample {
    /// Add `v` to layer `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.layers.entry(name).or_insert(0.0) += v;
    }

    /// Layer `name`, 0 when the repeat did not set it.
    pub fn layer(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0.0)
    }

    /// Fold the hot-boundary counters of one traced engine run that took
    /// `run_s`: client steps and their time (billed to `step_layer`), the
    /// engine's self time, and `post_one_ref` calls and time.
    pub fn add_counters(
        &mut self,
        c: crate::trace::Counters,
        run_s: f64,
        step_layer: &'static str,
    ) {
        let step_s = c.step_ns as f64 * 1e-9;
        let post_s = c.post_ns as f64 * 1e-9;
        self.add("simcore.client_steps", c.steps as f64);
        self.add("simcore.useful_steps", c.useful_steps as f64);
        self.add("simcore.engine_self_s", run_s - step_s);
        self.add(step_layer, step_s - post_s);
        self.add("cluster.post_calls", c.posts as f64);
        self.add("cluster.post_s", post_s);
    }

    /// Fold the NIC cache counters of every machine of `tb`.
    pub fn add_nic_caches(&mut self, tb: &cluster::Testbed) {
        for m in 0..tb.machine_count() {
            let rnic = &tb.machine(m).rnic;
            let (mtt_hits, mtt_misses) = rnic.mtt.stats();
            let (qpc_hits, qpc_misses) = rnic.qpc.stats();
            self.add("rnicsim.mtt_hits", mtt_hits as f64);
            self.add("rnicsim.mtt_misses", mtt_misses as f64);
            self.add("rnicsim.qpc_hits", qpc_hits as f64);
            self.add("rnicsim.qpc_misses", qpc_misses as f64);
        }
    }
}

/// Set-up probes per call; see [`probe`].
const PROBES: usize = 9;

/// Time a set-up step the simulator performs inside a public call, by
/// running the same public set-up calls on their own: `build` and then the
/// drop of what it built, each the median of several runs so that a
/// sub-millisecond step reads steadily. Returns (set-up, teardown) seconds.
pub fn probe<T>(mut build: impl FnMut() -> T) -> (f64, f64) {
    let (mut setup, mut teardown) = ([0.0; PROBES], [0.0; PROBES]);
    for i in 0..PROBES {
        let p = Phase::start("probe.setup");
        let built = build();
        setup[i] = p.stop();
        let p = Phase::start("probe.teardown");
        drop(built);
        teardown[i] = p.stop();
    }
    (median(&setup), median(&teardown))
}

/// One benchmark workload.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Run one repeat.
    pub repeat: fn(&mut Ctx) -> Sample,
}

/// Every workload, in the order a full invocation runs them. README.md
/// and `BENCHMARK.json` record why each was chosen.
pub const WORKLOADS: [Workload; 4] = [
    Workload { name: "fleet-sparse", repeat: crate::fleet_sparse::repeat },
    Workload { name: "apps-closed", repeat: crate::apps_closed::repeat },
    Workload { name: "openloop-apps", repeat: crate::openloop_apps::repeat },
    Workload { name: "txn-rw", repeat: crate::txn_rw::repeat },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
