//! The metric catalogue. `BENCHMARK.json` at the repository root lists
//! the same names, units, directions and bounds; a test keeps them equal.

/// An end-to-end metric: name, unit, whether higher is better, and the
/// share of the baseline median by which it may worsen before a change
/// counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// End-to-end metrics, all host-side and all medians over the measured
/// repeats of the untraced run.
///
/// The host-time bounds are wide because a shared host can slow a whole
/// 20-second run by 10–15%, and for minutes at a time (README.md,
/// "Noise"). Quiet-host quartile spreads across seeds of up to 9% leave
/// no narrower bound that holds. Heap figures do not depend on the host,
/// so their bound is tight.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "run_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "wall_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "sim_ops_per_s", unit: "1/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "peak_heap_mib", unit: "MiB", higher_is_better: false, bound: 0.05 },
];

/// A per-layer metric: name, unit, whether higher is better.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: false }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: true }
}

/// Host self times that together tile a repeat's wall time: the key a
/// workload records seconds under, and the per-layer metric that reports
/// them as a share of the traced repeat's wall time. Shares rather than
/// seconds, so that a layer a workload never reaches reads 0 as a ratio,
/// not as a time; `trace.wall_s` turns a share back into seconds.
pub const SELF_TIMES: [(&str, &str); 16] = [
    ("cluster.testbed_new_s", "cluster.testbed_new_share"),
    ("cluster.register_s", "cluster.register_share"),
    ("cluster.connect_s", "cluster.connect_share"),
    ("cluster.teardown_s", "cluster.teardown_share"),
    ("cluster.post_s", "cluster.post_share"),
    ("cluster.driver_s", "cluster.driver_share"),
    ("simcore.engine_self_s", "simcore.engine_self_share"),
    ("traffic.build_s", "traffic.build_share"),
    ("traffic.step_s", "traffic.step_share"),
    ("apps.join_s", "apps.join_share"),
    ("apps.hashtable_s", "apps.hashtable_share"),
    ("apps.shuffle_s", "apps.shuffle_share"),
    ("apps.dlog_s", "apps.dlog_share"),
    ("txn.build_pod_s", "txn.build_pod_share"),
    ("txn.optimistic_s", "txn.optimistic_share"),
    ("txn.locked_s", "txn.locked_share"),
];

/// Per-layer metrics, medians over the traced repeats (`proc.*` over the
/// untraced ones). A layer a workload does not reach reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    lower("cluster.testbed_new_share", "ratio"),
    lower("cluster.register_share", "ratio"),
    lower("cluster.connect_share", "ratio"),
    lower("cluster.teardown_share", "ratio"),
    lower("cluster.post_share", "ratio"),
    lower("cluster.driver_share", "ratio"),
    lower("simcore.engine_self_share", "ratio"),
    lower("traffic.build_share", "ratio"),
    lower("traffic.step_share", "ratio"),
    lower("apps.join_share", "ratio"),
    lower("apps.hashtable_share", "ratio"),
    lower("apps.shuffle_share", "ratio"),
    lower("apps.dlog_share", "ratio"),
    lower("txn.build_pod_share", "ratio"),
    lower("txn.optimistic_share", "ratio"),
    lower("txn.locked_share", "ratio"),
    lower("cluster.post_calls", "count"),
    lower("cluster.resident_mib", "MiB"),
    lower("cluster.sparse_ratio", "ratio"),
    higher("rnicsim.mtt_hits", "count"),
    lower("rnicsim.mtt_misses", "count"),
    higher("rnicsim.qpc_hits", "count"),
    lower("rnicsim.qpc_misses", "count"),
    lower("simcore.sim_ops", "count"),
    lower("simcore.client_steps", "count"),
    higher("traffic.arrivals_per_step", "ratio"),
    lower("apps.join_ops", "count"),
    lower("apps.hashtable_ops", "count"),
    lower("apps.shuffle_ops", "count"),
    lower("apps.dlog_ops", "count"),
    higher("txn.commits", "count"),
    lower("txn.aborts", "count"),
    higher("txn.commit_ratio", "ratio"),
    lower("txn.cas_retries", "count"),
    lower("proc.heap_allocs", "count"),
    lower("proc.allocs_per_sim_op", "ratio"),
    lower("proc.runq_wait_share", "ratio"),
    lower("proc.noisy_repeats", "count"),
    lower("trace.wall_s", "s"),
    higher("trace.layer_coverage", "ratio"),
    lower("trace.overhead", "ratio"),
];
