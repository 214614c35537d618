//! simbench — the simulator's benchmark.
//!
//! Runs fixed workloads serially, in one process on one thread, against
//! the public APIs of `cluster`, `rnicsim`, `simcore`, `apps`, `traffic`
//! and `txn`. For each workload it prints the end-to-end host metrics
//! (median and quartiles over repeats), checks every simulated output
//! against pinned digests, and — traced — splits host time across the
//! layers. See README.md for the metric and workload definitions.

mod alloc;
mod apps_closed;
mod check;
mod compare;
mod fleet_sparse;
mod json;
mod metrics;
mod openloop_apps;
mod report;
mod runner;
mod stats;
mod trace;
mod txn_rw;
mod workload;

use runner::Plan;
use workload::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: simbench [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1]
                [--trace-out PATH] [--json PATH] [--quick]
       simbench --compare A.json B.json

  --workload   fleet-sparse, apps-closed, openloop-apps, txn-rw, or all (default)
  --seed       workload seed (default 42; 42 is checked against expected.txt)
  --seconds    measure each workload for at least this long (default 20)
  --trace 1    also run traced repeats and report per-layer metrics
  --trace-out  with --trace 1, write the spans there when the run ends
  --json       write the full report (medians, quartiles, per-layer) there
  --quick      tiny sizes, for smoke tests
  --compare    compare two --json reports, baseline first
";

/// Default `--seconds`; `BENCHMARK.json` runs with the same value.
const DEFAULT_SECONDS: u64 = 20;

/// Every invocation measures at least this many untraced repeats, however
/// short `--seconds` is: quartiles need three.
const MIN_REPEATS: usize = 3;

struct Run {
    workloads: Vec<&'static Workload>,
    plan: Plan,
    trace_out: Option<String>,
    json_out: Option<String>,
}

enum Command {
    Run(Run),
    Compare(String, String),
    Help,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workloads: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let mut plan = Plan {
        seed: check::PINNED_SEED,
        seconds: DEFAULT_SECONDS as f64,
        min_repeats: MIN_REPEATS,
        trace: false,
        quick: false,
    };
    let (mut trace_out, mut json_out) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads =
                    match name.as_str() {
                        "all" => WORKLOADS.iter().collect(),
                        _ => vec![workload::find(name)
                            .ok_or_else(|| format!("unknown workload {name}"))?],
                    };
            }
            "--seed" => plan.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&s) {
                    return Err("--seconds must be 1 to 3600".into());
                }
                plan.seconds = s as f64;
            }
            "--trace" => {
                plan.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace-out" => trace_out = Some(value()?.clone()),
            "--json" => json_out = Some(value()?.clone()),
            "--quick" => plan.quick = true,
            "--compare" => {
                let a = value()?.clone();
                let b = it.next().ok_or("--compare needs two reports")?.clone();
                return Ok(Command::Compare(a, b));
            }
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if trace_out.is_some() && !plan.trace {
        return Err("--trace-out needs --trace 1".into());
    }
    Ok(Command::Run(Run { workloads, plan, trace_out, json_out }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            2
        }
        Ok(Command::Help) => {
            print!("{USAGE}");
            0
        }
        Ok(Command::Compare(a, b)) => compare(&a, &b),
        Ok(Command::Run(run)) => bench(&run),
    };
    std::process::exit(code);
}

fn compare(a: &str, b: &str) -> i32 {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    match read(a).and_then(|a| compare::run(&a, &read(b)?)) {
        Ok(table) => {
            print!("{table}");
            0
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            1
        }
    }
}

fn bench(run: &Run) -> i32 {
    let mut outcomes = Vec::new();
    for w in &run.workloads {
        let outcome = runner::measure(w, &run.plan);
        print!("{}", report::human(&outcome, &run.plan));
        outcomes.push(outcome);
    }
    let writes = [
        (run.json_out.as_deref(), report::full(&outcomes, &run.plan)),
        (run.trace_out.as_deref(), report::spans(&trace::spans())),
    ];
    for (path, text) in writes {
        if let Some(path) = path {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("simbench: cannot write {path}: {e}");
                return 1;
            }
        }
    }
    println!("{}", report::result_line(&outcomes, run.plan.trace));
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(trace: bool) -> Plan {
        Plan { seed: 7, seconds: 0.0, min_repeats: 2, trace, quick: true }
    }

    /// Every workload at tiny size: no failed check, and the digests of
    /// both measured repeats (and the warm-up) agree.
    fn smoke(name: &str) {
        let w = workload::find(name).expect("known workload");
        let o = runner::measure(w, &quick(false));
        assert_eq!(o.failed, 0, "{name}: {} of {} checks failed", o.failed, o.attempted);
        assert!(o.attempted > 0 && !o.pins.is_empty(), "{name} checked nothing");
        assert_eq!(o.untraced.len(), 2);
        for (m, s) in o.end_to_end() {
            assert!(s.median.is_finite() && s.median > 0.0, "{name} {} = {}", m.name, s.median);
        }
    }

    #[test]
    fn fleet_sparse_smoke() {
        smoke("fleet-sparse");
    }

    #[test]
    fn apps_closed_smoke() {
        smoke("apps-closed");
    }

    #[test]
    fn openloop_apps_smoke() {
        smoke("openloop-apps");
    }

    #[test]
    fn txn_rw_smoke() {
        smoke("txn-rw");
    }

    #[test]
    fn traced_run_reports_every_layer_and_tiles_wall_time() {
        let w = workload::find("fleet-sparse").expect("known workload");
        let o = runner::measure(w, &quick(true));
        assert_eq!(o.failed, 0);
        assert_eq!(o.traced.len(), 2);
        let layers = o.per_layer();
        assert_eq!(layers.len(), metrics::PER_LAYER.len());
        let get = |n: &str| layers.iter().find(|(m, _)| m.name == n).expect("layer").1;
        assert!(get("cluster.post_calls") > 0.0 && get("simcore.client_steps") > 0.0);
        let coverage = get("trace.layer_coverage");
        assert!((0.95..=1.05).contains(&coverage), "layer self times cover {coverage} of wall");
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let w = workload::find("txn-rw").expect("known workload");
        let plan = quick(false);
        let o = runner::measure(w, &plan);
        let line = report::result_line(std::slice::from_ref(&o), false);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).expect("result line is JSON");
        let keys: Vec<&str> = v.obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(true)));
        let metrics = v.get("metrics").and_then(json::Value::obj).expect("metrics object");
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        for (_, m) in metrics {
            let inner: Vec<&str> =
                m.obj().expect("metric object").iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(inner, ["value", "unit"]);
        }
        let full =
            json::parse(&report::full(std::slice::from_ref(&o), &plan)).expect("report is JSON");
        let table = compare::run(&report::full(&[o], &plan), &report::full(&[], &plan));
        assert!(full.get("workloads").and_then(json::Value::arr).is_some_and(|w| w.len() == 1));
        assert!(table.expect("compares").contains("not in B"));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(json::Value::arr)
                .expect("list")
                .iter()
                .map(|m| m.get("name").and_then(json::Value::str).expect("name").to_string())
                .collect()
        };
        let want = |it: &mut dyn Iterator<Item = &'static str>| -> Vec<String> {
            it.map(str::to_string).collect()
        };
        assert_eq!(names("workloads"), want(&mut WORKLOADS.iter().map(|w| w.name)));
        assert_eq!(names("end_to_end"), want(&mut metrics::END_TO_END.iter().map(|m| m.name)));
        assert_eq!(names("per_layer"), want(&mut metrics::PER_LAYER.iter().map(|m| m.name)));
        let e2e = doc.get("end_to_end").and_then(json::Value::arr).expect("end_to_end");
        for (entry, m) in e2e.iter().zip(&metrics::END_TO_END) {
            assert_eq!(entry.get("unit").and_then(json::Value::str), Some(m.unit));
            assert_eq!(entry.get("bound").and_then(json::Value::num), Some(m.bound));
            let better = if m.higher_is_better { "higher" } else { "lower" };
            assert_eq!(entry.get("better").and_then(json::Value::str), Some(better));
        }
        let layers = doc.get("per_layer").and_then(json::Value::arr).expect("per_layer");
        for (entry, m) in layers.iter().zip(metrics::PER_LAYER) {
            assert_eq!(entry.get("unit").and_then(json::Value::str), Some(m.unit), "{}", m.name);
            let better = if m.higher_is_better { "higher" } else { "lower" };
            assert_eq!(entry.get("better").and_then(json::Value::str), Some(better), "{}", m.name);
        }
        assert_eq!(doc.get("run_seconds").and_then(json::Value::num), Some(DEFAULT_SECONDS as f64));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("--trace-out t.json")).is_err());
        let Ok(Command::Run(run)) =
            parse_args(&args("--workload txn-rw --seed 9 --seconds 12 --trace 1 --quick"))
        else {
            panic!("valid arguments rejected");
        };
        assert_eq!(run.workloads.len(), 1);
        assert_eq!(
            (run.plan.seed, run.plan.seconds, run.plan.trace, run.plan.quick),
            (9, 12.0, true, true)
        );
        assert!(matches!(parse_args(&args("--compare a b")), Ok(Command::Compare(..))));
    }
}
