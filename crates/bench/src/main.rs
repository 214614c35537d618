//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                 # every experiment (laptop scale)
//! repro fig12 fig19         # specific ones
//! repro all --paper-scale   # full paper input sizes (slow)
//! repro all --out results/  # also write .dat + .gp files per experiment
//! repro all --jobs 4        # cap the worker threads (default: all cores)
//! repro all --serial        # one worker (same output, more wall-clock)
//! repro all --shards 4      # in-simulation shards (default: auto; 1 = serial engine)
//! repro all --bench-json BENCH_engine.json   # machine-readable timings
//! repro --check-determinism # prove serial/parallel/sharded runs agree
//! repro --bench-compare BENCH_engine.json   # diff a fresh run vs baseline
//! repro --lint all          # static verb analysis instead of running
//!
//! repro --traffic all --load knee --apps-json BENCH_apps.json
//!                           # open-loop capacity knees (p99 <= SLO) per app
//! repro --traffic shuffle --load 0.25:4:6    # fixed offered-load sweep
//! repro --traffic hashtable --load 0.1:0.3:2 --check-determinism
//!                           # 3-way byte-identity of the traffic engine
//!
//! repro --txn all --load knee --apps-json BENCH_txn.json
//!                           # txn-service capacity knees per profile x mode
//! repro --txn hashtable --mode locked --load 0.05:0.2:4   # fixed sweep
//! repro --txn all --load 0.05 --check-determinism
//!                           # 3-way byte-identity of the txn service
//! ```
//!
//! Experiments are independent deterministic simulations, so the runner
//! fans them out across cores; results are printed in the order the ids
//! were given and are byte-identical to a serial run.
//!
//! With `--out`, every series experiment also gets a gnuplot script:
//! `cd results && gnuplot *.gp` renders the figures to SVG.

use bench::{par_map, run_experiment, set_parallelism, Experiment, Scale, ALL_IDS, MICRO_IDS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Live heap bytes right now, maintained by [`PeakAlloc`].
static HEAP_CURRENT: AtomicU64 = AtomicU64::new(0);
/// Process-wide high-water mark of live heap bytes. Monotone: fleet-scale
/// experiments (fig6-xxl's 2048-machine sparse pool) must keep this far
/// below the dense-equivalent registration, and `bench-engine-v3` records
/// it per experiment so regressions in memory footprint show up in
/// `--bench-compare` like wall-clock regressions do.
static HEAP_PEAK: AtomicU64 = AtomicU64::new(0);

/// Accounting wrapper around the system allocator: tracks net live bytes
/// and their high-water mark. The two relaxed atomics cost nanoseconds
/// per allocation — noise against the simulations being measured.
struct PeakAlloc;

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let now =
            HEAP_CURRENT.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        HEAP_PEAK.fetch_max(now, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HEAP_CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            let grow = (new_size - layout.size()) as u64;
            let now = HEAP_CURRENT.fetch_add(grow, Ordering::Relaxed) + grow;
            HEAP_PEAK.fetch_max(now, Ordering::Relaxed);
        } else {
            HEAP_CURRENT.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// One experiment group's outcome: what to print/save plus how much work
/// the simulation did (for the machine-readable timing report).
struct GroupRun {
    id: String,
    experiments: Vec<Experiment>,
    wall_ms: f64,
    sim_ops: u64,
    /// Process heap high-water mark (bytes) observed by the end of this
    /// group. The mark is monotone over the process, so under parallel
    /// execution concurrent groups share it; recorded per experiment it
    /// bounds each experiment's footprint from above.
    peak_alloc_bytes: u64,
}

fn run_group(id: String, scale: Scale) -> GroupRun {
    let ops_before = simcore::opcount::current();
    let start = Instant::now();
    let experiments = run_experiment(&id, scale);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let sim_ops = simcore::opcount::current() - ops_before;
    let peak_alloc_bytes = HEAP_PEAK.load(Ordering::Relaxed);
    GroupRun { id, experiments, wall_ms, sim_ops, peak_alloc_bytes }
}

/// Render every experiment of a run list to one string (the unit of the
/// byte-identity guarantee).
fn render_all(runs: &[GroupRun]) -> String {
    let mut out = String::new();
    for r in runs {
        for e in &r.experiments {
            out.push_str(&e.render());
            out.push('\n');
        }
    }
    out
}

/// Hand-rolled JSON (the container is offline; no serde): per-experiment
/// wall-clock and simulated-operation throughput plus the total. Schema
/// v3 adds `peak_alloc_bytes` — the process heap high-water mark by the
/// end of each experiment (and overall), so memory-footprint regressions
/// are tracked alongside wall-clock ones. `parse_baseline`'s field
/// scanner ignores unknown keys, so v1/v2 baselines stay comparable.
fn bench_json(runs: &[GroupRun], total_wall_ms: f64, jobs: usize, shards: usize) -> String {
    let mut s = String::from("{\n  \"schema\": \"bench-engine-v3\",\n");
    s.push_str(&format!("  \"jobs\": {jobs},\n"));
    s.push_str(&format!("  \"shards\": {shards},\n"));
    s.push_str("  \"experiments\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let per_sec = if r.wall_ms > 0.0 { r.sim_ops as f64 / (r.wall_ms / 1e3) } else { 0.0 };
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"wall_ms\": {:.3}, \"sim_ops\": {}, \"sim_ops_per_sec\": {:.0}, \"peak_alloc_bytes\": {}, \"shards\": {}}}{}\n",
            r.id,
            r.wall_ms,
            r.sim_ops,
            per_sec,
            r.peak_alloc_bytes,
            shards,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    let total_ops: u64 = runs.iter().map(|r| r.sim_ops).sum();
    let total_per_sec =
        if total_wall_ms > 0.0 { total_ops as f64 / (total_wall_ms / 1e3) } else { 0.0 };
    s.push_str("  ],\n");
    s.push_str(&format!("  \"total_wall_ms\": {total_wall_ms:.3},\n"));
    s.push_str(&format!("  \"total_sim_ops\": {total_ops},\n"));
    s.push_str(&format!("  \"total_sim_ops_per_sec\": {total_per_sec:.0},\n"));
    s.push_str(&format!("  \"total_peak_alloc_bytes\": {}\n", HEAP_PEAK.load(Ordering::Relaxed)));
    s.push_str("}\n");
    s
}

/// Print the first diverging line pair and exit non-zero.
fn determinism_failed(kind: &str, a: &str, b: &str) -> ! {
    eprintln!("determinism check FAILED: {kind} output differs");
    for (ls, lp) in a.lines().zip(b.lines()) {
        if ls != lp {
            eprintln!("  expected: {ls}");
            eprintln!("  got     : {lp}");
        }
    }
    std::process::exit(1);
}

/// Run a small experiment set three ways — serially, in parallel across
/// experiments, and with the in-simulation sharded engine — and require
/// byte-identical rendered output from all three. Exits non-zero on
/// divergence. Leaves the worker count and shard default pinned; the
/// caller restores what the command line asked for.
fn check_determinism(scale: Scale) {
    // txn-contention rides along so the transactional service (service
    // scheduler, abort accounting, tenant telemetry) is inside the same
    // 3-way byte-identity gate as the core engine. fig6-xxl's notes carry
    // the fleet memory digest (placement + content of every materialized
    // sparse page), so the gate pins the memory subsystem too: an elision
    // or materialization decision that differs between the serial,
    // parallel, or sharded runs diverges the rendered output.
    let ids = ["table1", "table2", "fig8", "fig6-xxl", "txn-contention"];
    set_parallelism(Some(1));
    cluster::set_shards_default(Some(1));
    let serial: Vec<GroupRun> = ids.iter().map(|id| run_group(id.to_string(), scale)).collect();
    set_parallelism(None);
    let parallel =
        par_map(ids.iter().map(|id| id.to_string()).collect(), |id| run_group(id, scale));
    let (a, b) = (render_all(&serial), render_all(&parallel));
    if a != b {
        determinism_failed("serial vs parallel", &a, &b);
    }
    // Third leg: the threaded component fan-out. fig8 runs six machine
    // pairs on two shards; each shard's thread must reproduce the serial
    // results exactly.
    set_parallelism(Some(1));
    cluster::set_shards_default(Some(2));
    let sharded: Vec<GroupRun> = ids.iter().map(|id| run_group(id.to_string(), scale)).collect();
    let c = render_all(&sharded);
    if a != c {
        determinism_failed("serial vs sharded (--shards 2)", &a, &c);
    }
    println!(
        "determinism check passed: serial, parallel, and sharded (--shards 2) output identical \
         ({} bytes)",
        a.len()
    );
}

/// Parsed `--load` spec: locate the knee, or sweep explicit loads.
enum LoadSpec {
    /// Walk offered load to the p99-SLO knee per app variant.
    Knee,
    /// Fixed offered loads (MOPS), in order.
    Loads(Vec<f64>),
}

/// Parse `--load`: `knee`, a single MOPS value, or `a:b:n` (n loads
/// linearly spaced from a to b inclusive).
fn parse_load(spec: &str) -> Option<LoadSpec> {
    if spec == "knee" {
        return Some(LoadSpec::Knee);
    }
    if let Ok(v) = spec.parse::<f64>() {
        return (v > 0.0).then(|| LoadSpec::Loads(vec![v]));
    }
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 3 {
        return None;
    }
    let a = parts[0].parse::<f64>().ok()?;
    let b = parts[1].parse::<f64>().ok()?;
    let n = parts[2].parse::<usize>().ok()?;
    if a <= 0.0 || b < a || n == 0 {
        return None;
    }
    let loads = if n == 1 {
        vec![a]
    } else {
        (0..n).map(|i| a + (b - a) * i as f64 / (n - 1) as f64).collect()
    };
    Some(LoadSpec::Loads(loads))
}

/// Parse `--traffic`: one app name or `all`.
fn parse_traffic_apps(spec: &str) -> Option<Vec<traffic::AppKind>> {
    if spec == "all" {
        return Some(traffic::AppKind::all().to_vec());
    }
    traffic::AppKind::parse(spec).map(|a| vec![a])
}

/// Parse `--txn`: one profile name or `all`.
fn parse_txn_profiles(spec: &str) -> Option<Vec<txn::TxnProfile>> {
    if spec == "all" {
        return Some(txn::TxnProfile::all().to_vec());
    }
    txn::TxnProfile::parse(spec).map(|p| vec![p])
}

/// Parse `--mode`: one concurrency-control mode or `both`.
fn parse_modes(spec: &str) -> Option<Vec<txn::Concurrency>> {
    match spec {
        "both" => Some(vec![txn::Concurrency::Optimistic, txn::Concurrency::Locked]),
        "optimistic" => Some(vec![txn::Concurrency::Optimistic]),
        "locked" => Some(vec![txn::Concurrency::Locked]),
        _ => None,
    }
}

/// The traffic engine's own three-way byte-identity gate: the rendered
/// sweep table (quantiles *and* histogram digests) must be identical
/// serially, in parallel across points, and on the sharded engine
/// (`shards = 2`). Exits non-zero on divergence.
fn check_traffic_determinism(apps: &[traffic::AppKind], loads: &[f64], scale: Scale) {
    use bench::openloop::sweep_table;
    set_parallelism(Some(1));
    let serial = sweep_table(apps, loads, scale, 1);
    set_parallelism(None);
    let parallel = sweep_table(apps, loads, scale, 1);
    if serial != parallel {
        determinism_failed("traffic serial vs parallel", &serial, &parallel);
    }
    set_parallelism(Some(1));
    let sharded = sweep_table(apps, loads, scale, 2);
    if serial != sharded {
        determinism_failed("traffic serial vs sharded (shards=2)", &serial, &sharded);
    }
    println!(
        "traffic determinism check passed: serial, parallel, and sharded (shards=2) sweep \
         tables identical ({} bytes)",
        serial.len()
    );
}

/// The txn service's own three-way byte-identity gate: the rendered txn
/// sweep table (quantiles, abort accounting, *and* digests) must be
/// identical serially, in parallel across points, and on the sharded
/// engine (`shards = 2`). Exits non-zero on divergence.
fn check_txn_determinism(
    profiles: &[txn::TxnProfile],
    modes: &[txn::Concurrency],
    loads: &[f64],
    scale: Scale,
) {
    use bench::txnbench::txn_sweep_table;
    set_parallelism(Some(1));
    let serial = txn_sweep_table(profiles, modes, loads, scale, 1);
    set_parallelism(None);
    let parallel = txn_sweep_table(profiles, modes, loads, scale, 1);
    if serial != parallel {
        determinism_failed("txn serial vs parallel", &serial, &parallel);
    }
    set_parallelism(Some(1));
    let sharded = txn_sweep_table(profiles, modes, loads, scale, 2);
    if serial != sharded {
        determinism_failed("txn serial vs sharded (shards=2)", &serial, &sharded);
    }
    println!(
        "txn determinism check passed: serial, parallel, and sharded (shards=2) sweep tables \
         identical ({} bytes)",
        serial.len()
    );
}

/// `repro --txn`: txn-service knee tables (optionally written in the
/// bench-apps schema) or fixed offered-load sweeps.
fn run_txn_mode(
    profiles: &[txn::TxnProfile],
    modes: &[txn::Concurrency],
    load: &LoadSpec,
    slo_us: Option<f64>,
    apps_json_path: Option<&PathBuf>,
    scale: Scale,
) {
    match load {
        LoadSpec::Loads(loads) => {
            if apps_json_path.is_some() {
                eprintln!("--apps-json records knee points; use it with --load knee");
                std::process::exit(2);
            }
            print!("{}", bench::txnbench::txn_sweep_table(profiles, modes, loads, scale, 1));
        }
        LoadSpec::Knee => {
            let rows = bench::txnbench::txn_knee_rows(profiles, modes, scale, slo_us);
            print!("{}", bench::openloop::knee_table(&rows));
            if let Some(path) = apps_json_path {
                std::fs::write(path, bench::openloop::apps_json(&rows, scale))
                    .expect("write apps json");
                eprintln!("[wrote {}]", path.display());
            }
        }
    }
}

/// `repro --traffic`: knee tables (optionally written as
/// `BENCH_apps.json`) or fixed offered-load sweeps.
fn run_traffic_mode(
    apps: &[traffic::AppKind],
    load: &LoadSpec,
    slo_us: Option<f64>,
    apps_json_path: Option<&PathBuf>,
    scale: Scale,
) {
    match load {
        LoadSpec::Loads(loads) => {
            if apps_json_path.is_some() {
                eprintln!("--apps-json records knee points; use it with --load knee");
                std::process::exit(2);
            }
            print!("{}", bench::openloop::sweep_table(apps, loads, scale, 1));
        }
        LoadSpec::Knee => {
            let rows = bench::openloop::knee_rows(apps, scale, slo_us);
            print!("{}", bench::openloop::knee_table(&rows));
            if let Some(path) = apps_json_path {
                std::fs::write(path, bench::openloop::apps_json(&rows, scale))
                    .expect("write apps json");
                eprintln!("[wrote {}]", path.display());
            }
        }
    }
}

/// One experiment row parsed back out of a committed bench JSON.
struct BaselineRow {
    id: String,
    wall_ms: f64,
    sim_ops: u64,
    /// `None` for v1/v2 baselines recorded before the field existed.
    peak_alloc_bytes: Option<u64>,
}

/// Parse the hand-rolled bench-engine JSON (the inverse of
/// [`bench_json`]; still no serde in the offline container). Only the
/// per-experiment rows are needed; the field scanner skips keys it does
/// not know and tolerates keys that are absent, so every schema version
/// (v1 through v3) parses.
fn parse_baseline(text: &str) -> Vec<BaselineRow> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[start..];
        let rest = rest.strip_prefix('"').unwrap_or(rest);
        let end = rest.find([',', '"', '}']).unwrap_or(rest.len());
        Some(&rest[..end])
    }
    text.lines()
        .filter(|l| l.trim_start().starts_with("{\"id\""))
        .filter_map(|l| {
            Some(BaselineRow {
                id: field(l, "id")?.to_string(),
                wall_ms: field(l, "wall_ms")?.parse().ok()?,
                sim_ops: field(l, "sim_ops")?.parse().ok()?,
                peak_alloc_bytes: field(l, "peak_alloc_bytes").and_then(|v| v.parse().ok()),
            })
        })
        .collect()
}

/// Re-run every experiment recorded in `baseline` and diff: `sim_ops`
/// must match **exactly** (simulated work is deterministic; any drift is
/// a behaviour change), wall-clock and peak-heap regressions beyond 25 %
/// are flagged as warnings (timing is hardware-dependent and the peak is
/// a process-wide high-water mark, so they don't fail the run). Peaks
/// are only compared when the baseline recorded them (bench-engine-v3+).
fn bench_compare(path: &PathBuf, scale: Scale) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {}: {e}", path.display());
        std::process::exit(2);
    });
    let baseline = parse_baseline(&text);
    if baseline.is_empty() {
        eprintln!("no experiment rows found in {}", path.display());
        std::process::exit(2);
    }
    let runs = par_map(baseline.iter().map(|r| r.id.clone()).collect(), |id| run_group(id, scale));
    let mut drift = 0usize;
    let mut slower = 0usize;
    for (base, fresh) in baseline.iter().zip(&runs) {
        if base.sim_ops != fresh.sim_ops {
            eprintln!(
                "DRIFT {}: sim_ops {} (baseline) != {} (fresh)",
                base.id, base.sim_ops, fresh.sim_ops
            );
            drift += 1;
        }
        if base.wall_ms > 0.0 && fresh.wall_ms > base.wall_ms * 1.25 {
            eprintln!(
                "warning {}: wall {:.1}ms is {:.0}% over baseline {:.1}ms",
                base.id,
                fresh.wall_ms,
                (fresh.wall_ms / base.wall_ms - 1.0) * 100.0,
                base.wall_ms
            );
            slower += 1;
        }
        if let Some(base_peak) = base.peak_alloc_bytes {
            if base_peak > 0 && fresh.peak_alloc_bytes as f64 > base_peak as f64 * 1.25 {
                eprintln!(
                    "warning {}: peak heap {:.1} MiB is {:.0}% over baseline {:.1} MiB",
                    base.id,
                    fresh.peak_alloc_bytes as f64 / (1u64 << 20) as f64,
                    (fresh.peak_alloc_bytes as f64 / base_peak as f64 - 1.0) * 100.0,
                    base_peak as f64 / (1u64 << 20) as f64
                );
                slower += 1;
            }
        }
        println!(
            "{:10} sim_ops {:>12} {} wall {:>8.1}ms (baseline {:.1}ms)",
            base.id,
            fresh.sim_ops,
            if base.sim_ops == fresh.sim_ops { "==" } else { "!=" },
            fresh.wall_ms,
            base.wall_ms
        );
    }
    if drift > 0 {
        eprintln!("bench-compare FAILED: {drift} experiment(s) drifted in sim_ops");
        std::process::exit(1);
    }
    println!(
        "bench-compare passed: {} experiment(s) match baseline sim_ops exactly{}",
        baseline.len(),
        if slower > 0 {
            format!(", {slower} wall-time/peak-heap warning(s)")
        } else {
            String::new()
        }
    );
}

/// `repro --lint`: static verb analysis of the experiments' posting
/// patterns. Prints every finding and fails only on error severity (the
/// W2xx guideline lints are demonstrations, not regressions) — except
/// under `--fix`, where any W2xx *surviving* the auto-fix engine fails
/// too (the fixpoint gate). `--caps` switches the device geometry: a
/// built-in profile name, a `key = value` file, or `sweep` to lint every
/// profile in turn.
fn run_lint(ids: &[String], do_fix: bool, caps_spec: Option<&str>) {
    if do_fix && caps_spec.is_some() {
        eprintln!("--fix works against the calibrated default geometry; drop --caps");
        std::process::exit(2);
    }
    if do_fix {
        let report = bench::lint::fix_ids(ids);
        print!("{}", report.rendered);
        println!(
            "fix: {} program(s), {} fixed ({} fix(es) applied), {} equivalence-checked, \
             {} W2xx remaining, {} error(s)",
            report.programs,
            report.fixed,
            report.fixes_applied,
            report.equivalence_checked,
            report.remaining_w2xx,
            report.errors
        );
        if report.errors > 0 || report.remaining_w2xx > 0 {
            eprintln!("lint --fix FAILED: the fix engine did not reach a clean fixpoint");
            std::process::exit(1);
        }
        return;
    }
    let geometries: Vec<(String, rnicsim::DeviceCaps)> = match caps_spec {
        None => vec![("default".into(), rnicsim::DeviceCaps::default())],
        Some("sweep") => {
            rnicsim::PROFILES.iter().map(|(n, c)| (format!("profile {n}"), *c)).collect()
        }
        Some(spec) => {
            let caps = match rnicsim::DeviceCaps::profile(spec) {
                Some(c) => c,
                None => {
                    let text = std::fs::read_to_string(spec).unwrap_or_else(|e| {
                        eprintln!(
                            "--caps {spec:?} is neither a profile ({:?}) nor a readable file: {e}",
                            rnicsim::PROFILES.iter().map(|(n, _)| *n).collect::<Vec<_>>()
                        );
                        std::process::exit(2);
                    });
                    bench::lint::parse_caps_file(&text).unwrap_or_else(|e| {
                        eprintln!("--caps {spec}: {e}");
                        std::process::exit(2);
                    })
                }
            };
            vec![(spec.to_string(), caps)]
        }
    };
    let mut failed = false;
    for (label, caps) in &geometries {
        let report = bench::lint::lint_ids_with_caps(ids, caps);
        print!("{}", report.rendered);
        println!(
            "lint [{label}]: {} program(s), {} warning(s), {} error(s)",
            report.programs, report.warnings, report.errors
        );
        failed |= report.errors > 0;
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale { paper: false };
    let mut out_dir: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut do_check = false;
    let mut do_lint = false;
    let mut do_fix = false;
    let mut caps_spec: Option<String> = None;
    let mut compare_path: Option<PathBuf> = None;
    // `None` = default worker count, `Some(n)` = `--serial` / `--jobs n`.
    let mut jobs_req: Option<usize> = None;
    // `Some(None)` = explicit auto, `Some(Some(n))` = fixed shard count.
    let mut shards_req: Option<Option<usize>> = None;
    let mut traffic_apps: Option<Vec<traffic::AppKind>> = None;
    let mut txn_profiles: Option<Vec<txn::TxnProfile>> = None;
    let mut txn_modes: Vec<txn::Concurrency> =
        vec![txn::Concurrency::Optimistic, txn::Concurrency::Locked];
    let mut load_spec: Option<LoadSpec> = None;
    let mut slo_us: Option<f64> = None;
    let mut apps_json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--traffic" => {
                let spec = args.next().unwrap_or_default();
                traffic_apps = Some(parse_traffic_apps(&spec).unwrap_or_else(|| {
                    eprintln!(
                        "--traffic needs an app name ({:?}) or 'all'",
                        traffic::AppKind::all().map(|a| a.name())
                    );
                    std::process::exit(2);
                }));
            }
            "--txn" => {
                let spec = args.next().unwrap_or_default();
                txn_profiles = Some(parse_txn_profiles(&spec).unwrap_or_else(|| {
                    eprintln!(
                        "--txn needs a profile name ({:?}) or 'all'",
                        txn::TxnProfile::all().map(|p| p.name())
                    );
                    std::process::exit(2);
                }));
            }
            "--mode" => {
                let spec = args.next().unwrap_or_default();
                txn_modes = parse_modes(&spec).unwrap_or_else(|| {
                    eprintln!("--mode needs 'optimistic', 'locked', or 'both' (got {spec:?})");
                    std::process::exit(2);
                });
            }
            "--load" => {
                let spec = args.next().unwrap_or_default();
                load_spec = Some(parse_load(&spec).unwrap_or_else(|| {
                    eprintln!("--load needs 'knee', a MOPS value, or a:b:n (got {spec:?})");
                    std::process::exit(2);
                }));
            }
            "--slo" => {
                slo_us = Some(
                    args.next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|&v| v > 0.0)
                        .unwrap_or_else(|| {
                            eprintln!("--slo needs a positive p99 bound in microseconds");
                            std::process::exit(2);
                        }),
                );
            }
            "--apps-json" => {
                apps_json_path = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--apps-json needs a file path");
                    std::process::exit(2);
                })));
            }
            "--paper-scale" => scale.paper = true,
            "--serial" => jobs_req = Some(1),
            "--shards" => {
                let v = args.next().unwrap_or_else(|| {
                    eprintln!("--shards needs a positive integer or 'auto'");
                    std::process::exit(2);
                });
                shards_req = Some(if v == "auto" {
                    None
                } else {
                    match v.parse::<usize>() {
                        Ok(n) if n > 0 => Some(n),
                        _ => {
                            eprintln!("--shards needs a positive integer or 'auto'");
                            std::process::exit(2);
                        }
                    }
                });
            }
            "--jobs" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--jobs needs a positive integer");
                        std::process::exit(2);
                    });
                jobs_req = Some(n);
            }
            "--check-determinism" => do_check = true,
            "--lint" => do_lint = true,
            "--fix" => do_fix = true,
            "--caps" => {
                caps_spec = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--caps needs a profile name, a caps file path, or 'sweep'");
                    std::process::exit(2);
                }));
            }
            "--bench-compare" => {
                compare_path = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--bench-compare needs a baseline json path");
                    std::process::exit(2);
                })));
            }
            "--bench-json" => {
                json_path = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--bench-json needs a file path");
                    std::process::exit(2);
                })));
            }
            "--out" => {
                out_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                })));
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            "micro" => ids.extend(MICRO_IDS.iter().map(|s| s.to_string())),
            "--help" | "-h" => {
                println!(
                    "usage: repro [all | micro | <id>...] [--paper-scale] [--out DIR] \
                     [--serial | --jobs N] [--shards N|auto] [--bench-json PATH] \
                     [--bench-compare PATH] [--check-determinism] \
                     [--lint [--fix] [--caps PROFILE|FILE|sweep]] \
                     [--traffic APP|all [--load knee|MOPS|a:b:n] [--slo US] [--apps-json PATH]] \
                     [--txn PROFILE|all [--mode optimistic|locked|both] [--load ...]]"
                );
                println!("ids: {ALL_IDS:?}");
                println!(
                    "traffic apps: {:?}; --load knee (default) finds each variant's max load \
                     with p99 <= SLO, a:b:n sweeps a fixed grid",
                    traffic::AppKind::all().map(|a| a.name())
                );
                println!(
                    "txn profiles: {:?}; --txn drives the transactional service (optimistic \
                     reads / lock-based writes over the multi-tenant QP pool)",
                    txn::TxnProfile::all().map(|p| p.name())
                );
                println!(
                    "caps profiles: {:?} (or a `key = value` file; 'sweep' lints every profile)",
                    rnicsim::PROFILES.iter().map(|(n, _)| *n).collect::<Vec<_>>()
                );
                println!("--fix applies each W2xx finding's machine fix and re-lints to fixpoint");
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    set_parallelism(jobs_req);
    if let Some(req) = shards_req {
        cluster::set_shards_default(req);
    }
    if traffic_apps.is_none()
        && txn_profiles.is_none()
        && (load_spec.is_some() || slo_us.is_some() || apps_json_path.is_some())
    {
        eprintln!("--load/--slo/--apps-json only apply together with --traffic or --txn");
        std::process::exit(2);
    }
    if traffic_apps.is_some() && txn_profiles.is_some() {
        eprintln!("--traffic and --txn are separate modes; pick one");
        std::process::exit(2);
    }
    if let Some(apps) = &traffic_apps {
        if do_lint || do_fix || compare_path.is_some() || !ids.is_empty() {
            eprintln!("--traffic runs the open-loop engine; drop --lint/--fix/--bench-compare/ids");
            std::process::exit(2);
        }
        let load = load_spec.unwrap_or(LoadSpec::Knee);
        if do_check {
            // A knee search probes load adaptively, so byte-identity is
            // checked on a fixed grid: the one given, or a small default.
            let loads = match &load {
                LoadSpec::Loads(l) => l.clone(),
                LoadSpec::Knee => vec![0.25, 1.0],
            };
            check_traffic_determinism(apps, &loads, scale);
            return;
        }
        run_traffic_mode(apps, &load, slo_us, apps_json_path.as_ref(), scale);
        return;
    }
    if let Some(profiles) = &txn_profiles {
        if do_lint || do_fix || compare_path.is_some() || !ids.is_empty() {
            eprintln!(
                "--txn runs the transactional service; drop --lint/--fix/--bench-compare/ids"
            );
            std::process::exit(2);
        }
        let load = load_spec.unwrap_or(LoadSpec::Knee);
        if do_check {
            let loads = match &load {
                LoadSpec::Loads(l) => l.clone(),
                LoadSpec::Knee => vec![0.05],
            };
            check_txn_determinism(profiles, &txn_modes, &loads, scale);
            return;
        }
        run_txn_mode(profiles, &txn_modes, &load, slo_us, apps_json_path.as_ref(), scale);
        return;
    }
    if do_check {
        check_determinism(scale);
        // The check pins the worker count and the shard default per leg;
        // restore what the command line asked for before running anything
        // else.
        set_parallelism(jobs_req);
        cluster::set_shards_default(shards_req.flatten());
        if ids.is_empty() && compare_path.is_none() {
            return;
        }
    }
    if let Some(path) = &compare_path {
        bench_compare(path, scale);
        if ids.is_empty() {
            return;
        }
    }
    if ids.is_empty() {
        eprintln!("nothing to do; try `repro all` (ids: {ALL_IDS:?})");
        std::process::exit(2);
    }
    if do_lint {
        run_lint(&ids, do_fix, caps_spec.as_deref());
        return;
    }
    if do_fix || caps_spec.is_some() {
        eprintln!("--fix and --caps only apply together with --lint");
        std::process::exit(2);
    }
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    let total_start = Instant::now();
    let jobs = bench::parallelism(ids.len());
    let runs = par_map(ids, |id| run_group(id, scale));
    let total_wall_ms = total_start.elapsed().as_secs_f64() * 1e3;

    for r in &runs {
        for e in &r.experiments {
            println!("{}", e.render());
            if let Some(dir) = &out_dir {
                let path = dir.join(format!("{}.dat", e.id));
                std::fs::write(&path, e.data_file()).expect("write data file");
                if let Some(gp) = e.gnuplot() {
                    std::fs::write(dir.join(format!("{}.gp", e.id)), gp)
                        .expect("write gnuplot script");
                }
            }
        }
        eprintln!("[{} done in {:.1}ms]", r.id, r.wall_ms);
    }
    eprintln!("[total {:.1}ms over {jobs} worker(s)]", total_wall_ms);
    if let Some(path) = &json_path {
        std::fs::write(path, bench_json(&runs, total_wall_ms, jobs, cluster::shards_default()))
            .expect("write bench json");
        eprintln!("[wrote {}]", path.display());
    }
}
