//! `--compare A.json B.json`: two full reports side by side, with a
//! verdict per workload and end-to-end metric.
//!
//! A difference counts only when the medians differ by more than the
//! metric's bound *and* by more than A's interquartile range. When A's
//! spread is itself wider than the bound, the pair is `unresolved`: the
//! runs cannot tell a change of that size from noise.

use crate::json::{self, Value};
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::Summary;
use std::fmt::Write as _;

/// The outcome of comparing one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    Unresolved,
}

/// Judge B against baseline A for metric `m`.
pub fn verdict(m: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let diff = b.median - a.median;
    let base = a.median.abs();
    if diff.abs() > m.bound * base && diff.abs() > a.iqr() {
        if (diff > 0.0) == m.higher_is_better {
            Verdict::Better
        } else {
            Verdict::Worse
        }
    } else if a.iqr() > m.bound * base {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// Render the comparison table of two report texts, baseline first.
pub fn run(a_text: &str, b_text: &str) -> Result<String, String> {
    let a = json::parse(a_text).map_err(|e| format!("A: {e}"))?;
    let b = json::parse(b_text).map_err(|e| format!("B: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<14} {:>24} {:>24} {:>8}  verdict",
        "workload", "metric", "A median (iqr)", "B median (iqr)", "change"
    );
    for wa in workloads(&a)? {
        let name = wa.get("name").and_then(Value::str).ok_or("workload without a name")?;
        let Some(wb) =
            workloads(&b)?.iter().find(|w| w.get("name").and_then(Value::str) == Some(name))
        else {
            let _ = writeln!(out, "{name:<14} (not in B)");
            continue;
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (summary(wa, m.name), summary(wb, m.name)) else {
                let _ = writeln!(out, "{name:<14} {:<14} (missing)", m.name);
                continue;
            };
            let _ = writeln!(
                out,
                "{name:<14} {:<14} {:>24} {:>24} {:>+7.2}%  {:?}",
                m.name,
                format!("{:.6} ({:.6})", sa.median, sa.iqr()),
                format!("{:.6} ({:.6})", sb.median, sb.iqr()),
                100.0 * (sb.median - sa.median) / sa.median.abs(),
                verdict(m, &sa, &sb)
            );
        }
    }
    Ok(out)
}

fn workloads(report: &Value) -> Result<&[Value], String> {
    report.get("workloads").and_then(Value::arr).ok_or_else(|| "not a simbench report".to_string())
}

fn summary(workload: &Value, metric: &str) -> Option<Summary> {
    let m = workload.get("end_to_end")?.get(metric)?;
    let field = |k: &str| m.get(k).and_then(Value::num);
    Some(Summary {
        n: field("n")? as usize,
        median: field("median")?,
        q1: field("q1")?,
        q3: field("q3")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, iqr: f64) -> Summary {
        Summary { n: 9, median, q1: median - iqr / 2.0, q3: median + iqr / 2.0 }
    }

    #[test]
    fn verdicts_need_both_the_bound_and_the_spread() {
        let run_s = &END_TO_END[1];
        let ops = &END_TO_END[3];
        assert_eq!((run_s.name, ops.name), ("run_s", "sim_ops_per_s"));
        assert_eq!((run_s.bound, ops.bound), (0.25, 0.25));
        // 40% slower, tight spread: worse. 40% more ops/s: better.
        assert_eq!(verdict(run_s, &s(1.0, 0.02), &s(1.4, 0.02)), Verdict::Worse);
        assert_eq!(verdict(run_s, &s(1.0, 0.02), &s(0.6, 0.02)), Verdict::Better);
        assert_eq!(verdict(ops, &s(100.0, 2.0), &s(140.0, 2.0)), Verdict::Better);
        // Within the bound: same.
        assert_eq!(verdict(run_s, &s(1.0, 0.02), &s(1.2, 0.02)), Verdict::Same);
        // Beyond the bound but inside A's spread: not a difference, and
        // the spread is wider than the bound, so unresolved.
        assert_eq!(verdict(run_s, &s(1.0, 0.5), &s(1.4, 0.02)), Verdict::Unresolved);
        assert_eq!(verdict(run_s, &s(1.0, 0.5), &s(1.01, 0.02)), Verdict::Unresolved);
    }

    #[test]
    fn compares_reports_in_the_runner_format() {
        let report = |median: f64| {
            format!(
                "{{\"workloads\": [{{\"name\": \"w\", \"end_to_end\": {{\"run_s\": \
                 {{\"unit\": \"s\", \"n\": 9, \"median\": {median}, \"q1\": {}, \"q3\": {}}}}}}}]}}",
                median - 0.01,
                median + 0.01
            )
        };
        let out = run(&report(1.0), &report(1.5)).expect("compares");
        let row = out.lines().find(|l| l.contains("run_s")).expect("run_s row");
        assert!(row.ends_with("Worse"), "{row}");
        assert!(out.lines().any(|l| l.contains("wall_s") && l.contains("missing")));
        assert!(run("{}", &report(1.0)).is_err());
    }
}
