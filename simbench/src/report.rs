//! Rendering: the human-readable table, the one-line JSON result, the
//! full JSON report `--compare` reads back, and the span dump.

use crate::json;
use crate::runner::{Outcome, Plan, NOISY_WAIT_SHARE};
use crate::trace::Span;
use std::fmt::Write as _;

/// The per-workload table: every end-to-end metric by name with its unit,
/// sample count, median and quartiles; per-layer values when traced; and
/// the digests checked.
pub fn human(o: &Outcome, plan: &Plan) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {}\n   seed {}, {} measured repeats (+1 warm-up){}, {} checks, {} failed",
        o.workload.name,
        plan.seed,
        o.untraced.len(),
        if plan.trace { format!(" + {} traced", o.traced.len()) } else { String::new() },
        o.attempted,
        o.failed,
    );
    let _ = writeln!(
        out,
        "  {:<16} {:<6} {:>3} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "n", "median", "q1", "q3", "iqr/med"
    );
    for (m, s) in o.end_to_end() {
        let _ = writeln!(
            out,
            "  {:<16} {:<6} {:>3} {:>14.6} {:>14.6} {:>14.6} {:>7.2}%",
            m.name,
            m.unit,
            s.n,
            s.median,
            s.q1,
            s.q3,
            100.0 * s.iqr() / s.median.abs()
        );
    }
    if plan.trace {
        let _ = writeln!(out, "  per-layer (medians of traced repeats):");
        for (m, v) in o.per_layer() {
            let _ = writeln!(out, "    {:<28} {:<6} {:>18.6}", m.name, m.unit, v);
        }
    }
    let noisy = o.noisy_repeats();
    if noisy > 0 {
        let _ = writeln!(
            out,
            "  note: {noisy} of {} repeats waited on the run queue for over {:.0}% of their wall time",
            o.untraced.len(),
            100.0 * NOISY_WAIT_SHARE
        );
    }
    for pin in &o.pins {
        let _ = writeln!(out, "  {pin}");
    }
    out
}

/// The one-line result: `correct`, `attempted`, `failed`, and the
/// end-to-end metrics (or, traced, the per-layer ones) with their units.
/// With several workloads the metric names are prefixed `<workload>/`.
pub fn result_line(outcomes: &[Outcome], traced: bool) -> String {
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let mut metrics = Vec::new();
    for o in outcomes {
        let prefix =
            if outcomes.len() > 1 { format!("{}/", o.workload.name) } else { String::new() };
        let values: Vec<(&str, &str, f64)> = if traced {
            o.per_layer().into_iter().map(|(m, v)| (m.name, m.unit, v)).collect()
        } else {
            o.end_to_end().into_iter().map(|(m, s)| (m.name, m.unit, s.median)).collect()
        };
        for (name, unit, v) in values {
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&format!("{prefix}{name}")),
                json::num(v),
                json::string(unit)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// The full report: every workload's end-to-end summaries (and per-layer
/// values when traced), for `--compare` and for the record.
pub fn full(outcomes: &[Outcome], plan: &Plan) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"schema\": \"simbench-v1\", \"seed\": {}, \"seconds\": {}, \"quick\": {}, \"workloads\": [",
        plan.seed,
        json::num(plan.seconds),
        plan.quick
    );
    for (i, o) in outcomes.iter().enumerate() {
        let e2e: Vec<String> = o
            .end_to_end()
            .into_iter()
            .map(|(m, s)| {
                format!(
                    "{}: {{\"unit\": {}, \"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}}}",
                    json::string(m.name),
                    json::string(m.unit),
                    s.n,
                    json::num(s.median),
                    json::num(s.q1),
                    json::num(s.q3)
                )
            })
            .collect();
        let layers: Vec<String> = if plan.trace {
            o.per_layer()
                .into_iter()
                .map(|(m, v)| {
                    format!(
                        "{}: {{\"unit\": {}, \"better\": \"{}\", \"value\": {}}}",
                        json::string(m.name),
                        json::string(m.unit),
                        if m.higher_is_better { "higher" } else { "lower" },
                        json::num(v)
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        let _ = writeln!(
            out,
            "  {{\"name\": {}, \"attempted\": {}, \"failed\": {}, \"repeats\": {}, \"traced_repeats\": {},\n   \"end_to_end\": {{{}}},\n   \"per_layer\": {{{}}}}}{}",
            json::string(o.workload.name),
            o.attempted,
            o.failed,
            o.untraced.len(),
            o.traced.len(),
            e2e.join(", "),
            layers.join(", "),
            if i + 1 < outcomes.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

/// Spans as a JSON array, one per line.
pub fn spans(spans: &[Span]) -> String {
    let lines: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\": {}, \"parent\": {}, \"repeat\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.repeat,
                json::string(s.name),
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}
