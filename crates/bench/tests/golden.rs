//! Golden-file and determinism regression tests for the experiment
//! runner: rendered output must match the committed goldens byte for
//! byte, and a parallel run must be indistinguishable from a serial one.

use bench::{lookup, par_map, RunCtx};

/// Exactly what `repro <id>` prints to stdout for one experiment group.
fn rendered(id: &str, ctx: &RunCtx) -> String {
    let spec = lookup(id).expect("registered id");
    (spec.run)(ctx).iter().map(|e| format!("{}\n", e.render())).collect()
}

#[test]
fn table1_matches_golden() {
    assert_eq!(rendered("table1", &RunCtx::SERIAL), include_str!("golden/table1.txt"));
}

#[test]
fn table2_matches_golden() {
    assert_eq!(rendered("table2", &RunCtx::SERIAL), include_str!("golden/table2.txt"));
}

/// The one traffic run that asks for a latency series renders it
/// unchanged.
#[test]
fn traffic_series_matches_golden() {
    assert_eq!(
        rendered("traffic-series", &RunCtx::SERIAL),
        include_str!("golden/traffic_series.txt")
    );
}

/// The runner's fan-out must never change results: the same experiment
/// list rendered under a serial and a parallel worker pool is
/// byte-identical, and output order follows submission order.
#[test]
fn serial_and_parallel_runs_are_byte_identical() {
    let ids = || vec!["table2".to_string(), "table1".to_string()];
    let serial: String =
        par_map(&RunCtx::SERIAL, ids(), |id| rendered(&id, &RunCtx::SERIAL)).concat();
    let four = RunCtx { jobs: 4, ..RunCtx::SERIAL };
    let parallel: String = par_map(&four, ids(), |id| rendered(&id, &four)).concat();
    assert_eq!(serial, parallel);
    // Output order is submission order, not completion order.
    let first = rendered("table2", &RunCtx::SERIAL);
    assert!(serial.starts_with(&first));
}
