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
//! repro --check-determinism # prove serial/parallel/sharded runs agree
//! repro --check-sim-ops     # rerun the registry's sim_ops pins, exit 1 on drift
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

use bench::{lookup, par_map, ExpSpec, Experiment, RunCtx, Scale, Tag, EXPERIMENTS};
use std::path::PathBuf;

/// Run `specs` on `ctx.jobs` workers; each group's experiments come back
/// in the order given.
fn run_groups(specs: &[&ExpSpec], ctx: &RunCtx) -> Vec<Vec<Experiment>> {
    par_map(ctx, specs.to_vec(), |spec| (spec.run)(ctx))
}

/// Render every experiment of a run list to one string (the unit of the
/// byte-identity guarantee).
fn render_all(groups: &[Vec<Experiment>]) -> String {
    let mut out = String::new();
    for e in groups.iter().flatten() {
        out.push_str(&e.render());
        out.push('\n');
    }
    out
}

/// Exit 2 with `msg` on stderr: the command line cannot run as given.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The registered experiment `id`, or exit 2 listing the known ids.
fn spec(id: &str) -> &'static ExpSpec {
    lookup(id).unwrap_or_else(|| {
        usage_error(format!("unknown experiment id {id:?}; known: {:?}", bench::ids()))
    })
}

/// The machine's available parallelism.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Render a run's output under three run contexts — one worker on one
/// shard, several workers (at least two, so the leg is threaded even on
/// a one-core host), and one worker on two shards — and require the
/// same bytes from all three. Prints the first diverging lines and exits
/// 1 on a mismatch.
fn check_determinism(what: &str, scale: Scale, render: impl Fn(&RunCtx) -> String) {
    let serial = RunCtx { scale, ..RunCtx::SERIAL };
    let parallel = RunCtx { jobs: cores().max(2), ..serial };
    let legs = [("parallel", parallel), ("sharded (--shards 2)", RunCtx { shards: 2, ..serial })];
    let reference = render(&serial);
    for (leg, ctx) in &legs {
        let got = render(ctx);
        if got != reference {
            eprintln!("determinism check FAILED: {what} output differs, serial vs {leg}");
            for (ls, lp) in reference.lines().zip(got.lines()) {
                if ls != lp {
                    eprintln!("  expected: {ls}");
                    eprintln!("  got     : {lp}");
                }
            }
            std::process::exit(1);
        }
    }
    println!(
        "{what} determinism check passed: serial, parallel ({} jobs), and sharded (--shards 2) \
         output identical ({} bytes)",
        parallel.jobs,
        reference.len()
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

/// What a sweep mode drives: the open-loop app engine (`--traffic`) or
/// the transactional service (`--txn`, per profile × mode).
enum Sweep {
    Traffic(Vec<traffic::AppKind>),
    Txn(Vec<txn::TxnProfile>, Vec<txn::Concurrency>),
}

impl Sweep {
    fn name(&self) -> &'static str {
        match self {
            Sweep::Traffic(_) => "traffic",
            Sweep::Txn(..) => "txn",
        }
    }

    /// The sweep table over fixed offered loads: quantiles and digests,
    /// so it is also the unit of the mode's determinism gate.
    fn table(&self, loads: &[f64], ctx: &RunCtx) -> String {
        match self {
            Sweep::Traffic(apps) => bench::openloop::sweep_table(apps, loads, ctx),
            Sweep::Txn(profiles, modes) => {
                bench::txnbench::txn_sweep_table(profiles, modes, loads, ctx)
            }
        }
    }

    fn knee_rows(&self, ctx: &RunCtx, slo_us: Option<f64>) -> Vec<bench::openloop::KneeRow> {
        match self {
            Sweep::Traffic(apps) => bench::openloop::knee_rows(apps, ctx, slo_us),
            Sweep::Txn(profiles, modes) => {
                bench::txnbench::txn_knee_rows(profiles, modes, ctx, slo_us)
            }
        }
    }

    /// The default grid of the mode's determinism gate.
    fn check_loads(&self) -> Vec<f64> {
        match self {
            Sweep::Traffic(_) => vec![0.25, 1.0],
            Sweep::Txn(..) => vec![0.05],
        }
    }
}

/// `repro --traffic` / `repro --txn`: knee tables (optionally written in
/// the `bench-apps` schema), fixed offered-load sweeps, or the mode's
/// three-way determinism gate.
fn run_sweep(
    sweep: &Sweep,
    load: LoadSpec,
    slo_us: Option<f64>,
    apps_json_path: Option<&PathBuf>,
    check: bool,
    ctx: &RunCtx,
) {
    if check {
        // A knee search probes load adaptively, so byte-identity is
        // checked on a fixed grid: the one given, or a small default.
        let loads = match load {
            LoadSpec::Loads(loads) => loads,
            LoadSpec::Knee => sweep.check_loads(),
        };
        check_determinism(sweep.name(), ctx.scale, |c| sweep.table(&loads, c));
        return;
    }
    match load {
        LoadSpec::Loads(loads) => {
            if apps_json_path.is_some() {
                usage_error("--apps-json records knee points; use it with --load knee");
            }
            print!("{}", sweep.table(&loads, ctx));
        }
        LoadSpec::Knee => {
            let rows = sweep.knee_rows(ctx, slo_us);
            print!("{}", bench::openloop::knee_table(&rows));
            if let Some(path) = apps_json_path {
                std::fs::write(path, bench::openloop::apps_json(&rows, ctx.scale))
                    .expect("write apps json");
                eprintln!("[wrote {}]", path.display());
            }
        }
    }
}

/// `repro --check-sim-ops`: rerun every registry row that pins `sim_ops`
/// and print its fresh and pinned counts. The counts must match exactly
/// (simulated work is deterministic; any drift is a behaviour change), so
/// any drift exits 1.
fn run_sim_ops_check(ctx: &RunCtx) {
    let rows = bench::check_sim_ops(EXPERIMENTS, ctx);
    for r in &rows {
        let eq = if r.drifted() { "!=" } else { "==" };
        println!("{:18} sim_ops {:>12} {eq} {:>12} (pinned)", r.id, r.fresh, r.pinned);
    }
    let drift = rows.iter().filter(|r| r.drifted()).count();
    if drift > 0 {
        eprintln!("sim_ops check FAILED: {drift} experiment(s) drifted from their pins");
        std::process::exit(1);
    }
    println!("sim_ops check passed: {} experiment(s) match their pins exactly", rows.len());
}

/// `repro --lint`: static verb analysis of the experiments' posting
/// patterns. Prints every finding and fails only on error severity (the
/// W2xx guideline lints are demonstrations, not regressions) — except
/// under `--fix`, where any W2xx *surviving* the auto-fix engine fails
/// too (the fixpoint gate). `--caps` switches the device geometry: a
/// built-in profile name, a `key = value` file, or `sweep` to lint every
/// profile in turn.
fn run_lint(specs: &[&ExpSpec], do_fix: bool, caps_spec: Option<&str>) {
    if do_fix && caps_spec.is_some() {
        usage_error("--fix works against the calibrated default geometry; drop --caps");
    }
    if do_fix {
        let report = bench::lint::fix(specs);
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
                        usage_error(format!(
                            "--caps {spec:?} is neither a profile ({:?}) nor a readable file: {e}",
                            rnicsim::PROFILES.iter().map(|(n, _)| *n).collect::<Vec<_>>()
                        ))
                    });
                    bench::lint::parse_caps_file(&text)
                        .unwrap_or_else(|e| usage_error(format!("--caps {spec}: {e}")))
                }
            };
            vec![(spec.to_string(), caps)]
        }
    };
    let mut failed = false;
    for (label, caps) in &geometries {
        let report = bench::lint::lint(specs, caps);
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

/// The value after `flag`, parsed by `parse`; exits 2 saying what `flag`
/// needs when the value is missing or does not parse.
fn flag_value<T>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    needs: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    let v = args.next();
    v.as_deref().and_then(parse).unwrap_or_else(|| match v {
        Some(v) => usage_error(format!("{flag} needs {needs} (got {v:?})")),
        None => usage_error(format!("{flag} needs {needs}")),
    })
}

/// A positive integer.
fn positive(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n > 0)
}

fn main() {
    let mut specs: Vec<&'static ExpSpec> = Vec::new();
    let mut scale = Scale { paper: false };
    let mut out_dir: Option<PathBuf> = None;
    let mut do_check = false;
    let mut check_sim_ops = false;
    let mut do_lint = false;
    let mut do_fix = false;
    let mut caps_spec: Option<String> = None;
    // `None` = auto: every core for jobs, cores capped at 8 for shards.
    let mut jobs: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut traffic_apps: Option<Vec<traffic::AppKind>> = None;
    let mut txn_profiles: Option<Vec<txn::TxnProfile>> = None;
    let mut txn_modes: Vec<txn::Concurrency> =
        vec![txn::Concurrency::Optimistic, txn::Concurrency::Locked];
    let mut load_spec: Option<LoadSpec> = None;
    let mut slo_us: Option<f64> = None;
    let mut apps_json_path: Option<PathBuf> = None;
    let path = |v: &str| Some(PathBuf::from(v));
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let args = &mut args;
        match a.as_str() {
            "--traffic" => {
                let needs = format!(
                    "an app name ({:?}) or 'all'",
                    traffic::AppKind::all().map(|a| a.name())
                );
                traffic_apps = Some(flag_value(args, &a, &needs, parse_traffic_apps));
            }
            "--txn" => {
                let needs = format!(
                    "a profile name ({:?}) or 'all'",
                    txn::TxnProfile::all().map(|p| p.name())
                );
                txn_profiles = Some(flag_value(args, &a, &needs, parse_txn_profiles));
            }
            "--mode" => {
                txn_modes = flag_value(args, &a, "'optimistic', 'locked', or 'both'", parse_modes)
            }
            "--load" => {
                let needs = "'knee', a MOPS value, or a:b:n";
                load_spec = Some(flag_value(args, &a, needs, parse_load));
            }
            "--slo" => {
                let needs = "a positive p99 bound in microseconds";
                let parse = |v: &str| v.parse::<f64>().ok().filter(|&v| v > 0.0);
                slo_us = Some(flag_value(args, &a, needs, parse));
            }
            "--apps-json" => apps_json_path = Some(flag_value(args, &a, "a file path", path)),
            "--paper-scale" => scale.paper = true,
            "--serial" => jobs = Some(1),
            "--shards" => {
                let parse = |v: &str| if v == "auto" { Some(None) } else { positive(v).map(Some) };
                shards = flag_value(args, &a, "a positive integer or 'auto'", parse);
            }
            "--jobs" => jobs = Some(flag_value(args, &a, "a positive integer", positive)),
            "--check-determinism" => do_check = true,
            "--check-sim-ops" => check_sim_ops = true,
            "--lint" => do_lint = true,
            "--fix" => do_fix = true,
            "--caps" => {
                let needs = "a profile name, a caps file path, or 'sweep'";
                caps_spec = Some(flag_value(args, &a, needs, |v| Some(v.to_string())));
            }
            "--out" => out_dir = Some(flag_value(args, &a, "a directory", path)),
            "all" => specs.extend(EXPERIMENTS),
            "micro" => specs.extend(EXPERIMENTS.iter().filter(|s| s.has(Tag::Micro))),
            "--help" | "-h" => {
                println!(
                    "usage: repro [all | micro | <id>...] [--paper-scale] [--out DIR] \
                     [--serial | --jobs N] [--shards N|auto] [--check-determinism] \
                     [--check-sim-ops] \
                     [--lint [--fix] [--caps PROFILE|FILE|sweep]] \
                     [--traffic APP|all [--load knee|MOPS|a:b:n] [--slo US] [--apps-json PATH]] \
                     [--txn PROFILE|all [--mode optimistic|locked|both] [--load ...]]"
                );
                println!("ids: {:?}", bench::ids());
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
            other if other.starts_with('-') => {
                usage_error(format!("unknown option {other:?}; see --help"))
            }
            id => specs.push(spec(id)),
        }
    }
    let ctx = RunCtx {
        jobs: jobs.unwrap_or_else(cores),
        // Shards beyond a run's component count idle, so auto stays modest.
        shards: shards.unwrap_or_else(|| cores().min(8)),
        scale,
    };
    if check_sim_ops && scale.paper {
        usage_error("--check-sim-ops: the sim_ops pins are laptop-scale; drop --paper-scale");
    }
    let sweep = match (traffic_apps, txn_profiles) {
        (Some(_), Some(_)) => usage_error("--traffic and --txn are separate modes; pick one"),
        (Some(apps), None) => Some(Sweep::Traffic(apps)),
        (None, Some(profiles)) => Some(Sweep::Txn(profiles, txn_modes)),
        (None, None) => None,
    };
    if let Some(sweep) = &sweep {
        if do_lint || do_fix || check_sim_ops || !specs.is_empty() {
            usage_error(format!(
                "--{} runs a load sweep; drop --lint/--fix/--check-sim-ops/ids",
                sweep.name()
            ));
        }
        let load = load_spec.unwrap_or(LoadSpec::Knee);
        run_sweep(sweep, load, slo_us, apps_json_path.as_ref(), do_check, &ctx);
        return;
    }
    if load_spec.is_some() || slo_us.is_some() || apps_json_path.is_some() {
        usage_error("--load/--slo/--apps-json only apply together with --traffic or --txn");
    }
    if do_check {
        let gate: Vec<&ExpSpec> = EXPERIMENTS.iter().filter(|s| s.has(Tag::Gate)).collect();
        check_determinism("experiment", scale, |c| render_all(&run_groups(&gate, c)));
        if specs.is_empty() && !check_sim_ops {
            return;
        }
    }
    if check_sim_ops {
        run_sim_ops_check(&ctx);
        if specs.is_empty() {
            return;
        }
    }
    if specs.is_empty() {
        usage_error(format!("nothing to do; try `repro all` (ids: {:?})", bench::ids()));
    }
    if do_lint {
        run_lint(&specs, do_fix, caps_spec.as_deref());
        return;
    }
    if do_fix || caps_spec.is_some() {
        usage_error("--fix and --caps only apply together with --lint");
    }
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    for e in run_groups(&specs, &ctx).iter().flatten() {
        println!("{}", e.render());
        if let Some(dir) = &out_dir {
            let path = dir.join(format!("{}.dat", e.id));
            std::fs::write(&path, e.data_file()).expect("write data file");
            if let Some(gp) = e.gnuplot() {
                std::fs::write(dir.join(format!("{}.gp", e.id)), gp).expect("write gnuplot script");
            }
        }
    }
}
