//! Open-loop traffic experiments: offered-load sweeps over the four
//! case-study apps (`traffic-*` experiment ids) and the knee tables
//! behind `repro --traffic` / `BENCH_apps.json`.
//!
//! Each experiment drives one app through [`traffic`]'s open-loop engine
//! at a fixed grid of offered loads, basic and optimized variants side
//! by side, and plots p99 latency plus achieved throughput against
//! offered load. The per-point histogram digests ride along as notes, so
//! the harness's byte-identity guarantee (`--check-determinism`,
//! satellite of the rendered-output comparison) covers the full latency
//! distributions, not just the plotted quantiles.

use crate::{par_map, Experiment, Output, RunCtx, Scale};
use simcore::Series;
use traffic::{find_knee, run_point, AppKind, Knee, SweepPoint, TrafficConfig};

/// Base configuration for the committed experiment grids: the crate
/// default topology (2 pods × 2 workers), more ops at paper scale, on
/// the run's shards.
pub fn base_cfg(app: AppKind, ctx: &RunCtx) -> TrafficConfig {
    TrafficConfig {
        app,
        ops_per_worker: if ctx.scale.paper { 4800 } else { 1200 },
        shards: ctx.shards,
        ..TrafficConfig::default()
    }
}

/// Offered-load grid (MOPS) per app: spans from lightly loaded, past the
/// basic variant's knee, into the optimized variant's saturation region,
/// so both curves show the low-load plateau and the tail blow-up (knees
/// from `BENCH_apps.json`: hashtable 14.7→39.4, shuffle 18.3→232,
/// join ≈12.8 for both, dlog 4.9→79).
pub fn load_grid(app: AppKind) -> &'static [f64] {
    match app {
        AppKind::Hashtable => &[2.0, 8.0, 16.0, 32.0, 48.0, 64.0],
        AppKind::Shuffle => &[2.0, 8.0, 32.0, 64.0, 128.0, 256.0],
        AppKind::Join => &[1.0, 2.0, 4.0, 8.0, 12.0, 16.0],
        AppKind::Dlog => &[1.0, 2.0, 4.0, 16.0, 48.0, 96.0],
    }
}

/// Run one app's load grid over both variants; points fan out across
/// cores via [`par_map`] (independent deterministic simulations).
fn grid_points(app: AppKind, ctx: &RunCtx) -> (Vec<SweepPoint>, Vec<SweepPoint>) {
    let grid = load_grid(app);
    let mut items: Vec<(bool, f64)> = Vec::new();
    for optimized in [false, true] {
        items.extend(grid.iter().map(|&l| (optimized, l)));
    }
    let mut pts = par_map(ctx, items, |(optimized, load)| {
        let cfg = TrafficConfig { optimized, ..base_cfg(app, ctx) };
        run_point(&cfg, load)
    });
    let opt = pts.split_off(grid.len());
    (pts, opt)
}

/// One `traffic-*` experiment: p99 and achieved-throughput curves vs
/// offered load for both variants of one app.
pub fn experiment(app: AppKind, ctx: &RunCtx) -> Vec<Experiment> {
    let id = match app {
        AppKind::Hashtable => "traffic-hashtable",
        AppKind::Shuffle => "traffic-shuffle",
        AppKind::Join => "traffic-join",
        AppKind::Dlog => "traffic-dlog",
    };
    let (basic, opt) = grid_points(app, ctx);
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for (label, pts) in [("basic", &basic), ("optimized", &opt)] {
        let mut p99 = Series::new(format!("{label} p99(us)"));
        let mut ach = Series::new(format!("{label} achieved(MOPS)"));
        for p in pts.iter() {
            p99.push(p.offered_mops, p.p99_us);
            ach.push(p.offered_mops, p.achieved_mops);
        }
        series.push(p99);
        series.push(ach);
        let digests: Vec<String> =
            pts.iter().map(|p| format!("{}:{:016x}", p.offered_mops, p.digest)).collect();
        notes.push(format!("{label} histogram digests: {}", digests.join(" ")));
    }
    notes.push(format!(
        "open-loop Poisson arrivals, {} ops/worker over {} workers; p99 SLO for the knee \
         table is {} us (see BENCH_apps.json)",
        base_cfg(app, ctx).ops_per_worker,
        base_cfg(app, ctx).workers(),
        app.default_slo().as_us()
    ));
    vec![Experiment {
        id,
        title: format!(
            "open-loop load sweep — {} (tail latency and goodput vs offered load)",
            app.name()
        ),
        output: Output::Series {
            x: "offered(MOPS)".into(),
            y: "p99(us) / achieved(MOPS)".into(),
            series,
        },
        notes,
    }]
}

/// One row of the knee table: app, variant, and its capacity knee.
///
/// Rows are string-keyed so the table covers both the raw case-study
/// apps (`variant` is `basic`/`optimized`) and the transactional service
/// (`app` is `txn-<profile>`, `variant` names the concurrency mode).
pub struct KneeRow {
    /// App (or `txn-<profile>`) behind the row.
    pub app: String,
    /// Variant label: `basic`/`optimized`, or a concurrency mode.
    pub variant: String,
    /// The knee located by [`find_knee`].
    pub knee: Knee,
}

/// Locate the knee of every (app, variant) pair in `apps` under each
/// app's SLO (or `slo_us` for all, when given). Pairs fan out across
/// cores; rows come back in (app, variant) order.
pub fn knee_rows(apps: &[AppKind], ctx: &RunCtx, slo_us: Option<f64>) -> Vec<KneeRow> {
    let mut items: Vec<(AppKind, bool)> = Vec::new();
    for &app in apps {
        items.push((app, false));
        items.push((app, true));
    }
    par_map(ctx, items, |(app, optimized)| {
        let slo = match slo_us {
            Some(us) => simcore::SimTime::from_ns_f64(us * 1e3),
            None => app.default_slo(),
        };
        let cfg = TrafficConfig { optimized, ..base_cfg(app, ctx) };
        KneeRow {
            app: app.name().into(),
            variant: if optimized { "optimized" } else { "basic" }.into(),
            knee: find_knee(&cfg, slo),
        }
    })
}

/// Render knee rows as an aligned text table.
pub fn knee_table(rows: &[KneeRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<10} {:>8} {:>12} {:>12} {:>14} {:>7}",
        "app", "variant", "slo(us)", "knee(MOPS)", "p99@knee", "achieved(MOPS)", "probes"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:<10} {:>8.1} {:>12.4} {:>12.3} {:>14.4} {:>7}",
            r.app,
            r.variant,
            r.knee.slo.as_us(),
            r.knee.knee_mops,
            r.knee.p99_us_at_knee,
            r.knee.achieved_mops,
            r.knee.probes
        );
    }
    out
}

/// Hand-rolled `bench-apps-v1` JSON: the per-app capacity knees the
/// acceptance gate commits as `BENCH_apps.json` (no serde; the container
/// is offline).
pub fn apps_json(rows: &[KneeRow], scale: Scale) -> String {
    let mut s = String::from("{\n  \"schema\": \"bench-apps-v1\",\n");
    s.push_str(&format!("  \"paper_scale\": {},\n", scale.paper));
    s.push_str("  \"knees\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"app\": \"{}\", \"variant\": \"{}\", \"slo_us\": {:.3}, \
             \"knee_mops\": {:.4}, \"p99_us_at_knee\": {:.3}, \"achieved_mops\": {:.4}, \
             \"probes\": {}}}{}\n",
            r.app,
            r.variant,
            r.knee.slo.as_us(),
            r.knee.knee_mops,
            r.knee.p99_us_at_knee,
            r.knee.achieved_mops,
            r.knee.probes,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Render a load sweep over `apps` × variants × `loads` as an aligned
/// table — the unit of the traffic-mode determinism comparison (digests
/// included, so byte identity covers the full histograms).
pub fn sweep_table(apps: &[AppKind], loads: &[f64], ctx: &RunCtx) -> String {
    use std::fmt::Write as _;
    let mut items: Vec<(AppKind, bool, f64)> = Vec::new();
    for &app in apps {
        for optimized in [false, true] {
            items.extend(loads.iter().map(|&l| (app, optimized, l)));
        }
    }
    let pts = par_map(ctx, items.clone(), |(app, optimized, load)| {
        let cfg = TrafficConfig { optimized, ..base_cfg(app, ctx) };
        run_point(&cfg, load)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8}  digest",
        "app", "variant", "offered", "achieved", "ops", "mean_us", "p50_us", "p99_us", "p999_us",
    );
    for ((app, optimized, _), p) in items.iter().zip(&pts) {
        let _ = writeln!(
            out,
            "{:<10} {:<9} {:>9.4} {:>9.4} {:>8} {:>8.3} {:>8.3} {:>8.3} {:>8.3}  {:016x}",
            app.name(),
            if *optimized { "optimized" } else { "basic" },
            p.offered_mops,
            p.achieved_mops,
            p.ops,
            p.mean_us,
            p.p50_us,
            p.p99_us,
            p.p999_us,
            p.digest
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knee_json_and_table_round_trip_shape() {
        // Synthetic rows — shape only; real knees are exercised by the
        // traffic crate's tests and the committed BENCH_apps.json.
        let rows = vec![KneeRow {
            app: "shuffle".into(),
            variant: "optimized".into(),
            knee: traffic::Knee {
                knee_mops: 1.5,
                p99_us_at_knee: 9.25,
                achieved_mops: 1.47,
                probes: 14,
                slo: simcore::SimTime::from_us(15),
            },
        }];
        let json = apps_json(&rows, Scale { paper: false });
        assert!(json.contains("\"schema\": \"bench-apps-v1\""));
        assert!(json.contains("\"app\": \"shuffle\""));
        assert!(json.contains("\"variant\": \"optimized\""));
        assert!(json.contains("\"knee_mops\": 1.5000"));
        let table = knee_table(&rows);
        assert!(table.contains("shuffle"));
        assert!(table.contains("optimized"));
    }
}
