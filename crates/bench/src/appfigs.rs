//! §IV application figures: hashtable (12–13), shuffle (15), join (16–18),
//! distributed log (19).

use crate::report::{Experiment, Output};
use crate::RunCtx;
use apps::{
    run_dlog, run_hashtable, run_join, run_shuffle, single_machine_time, DlogConfig, HtConfig,
    HtVariant, JoinConfig, ShuffleConfig, ShuffleVariant,
};
use remem::Strategy;
use simcore::Series;

/// Scale knobs: the harness defaults to laptop-friendly sizes and labels
/// them; `paper_scale` runs the paper's full input sizes.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Run the paper's full data sizes (slow).
    pub paper: bool,
}

impl Scale {
    fn join_tuples(&self) -> u64 {
        if self.paper {
            1 << 24
        } else {
            1 << 20
        }
    }
}

/// Fig 12: hashtable optimization breakdown vs front-end count.
pub fn fig12() -> Vec<Experiment> {
    let variants: [(&str, HtVariant); 4] = [
        ("Basic HashTable", HtVariant::Basic),
        ("+Numa-OPT", HtVariant::Numa),
        ("+Reorder-OPT (theta=4)", HtVariant::Reorder { theta: 4 }),
        ("+Reorder-OPT (theta=16)", HtVariant::Reorder { theta: 16 }),
    ];
    let fes = [1usize, 2, 4, 6, 8, 10, 12, 14];
    let mut series = Vec::new();
    for (label, variant) in variants {
        let mut s = Series::new(label);
        for &fe in &fes {
            let r = run_hashtable(&HtConfig {
                front_ends: fe,
                ops_per_fe: 1200,
                variant,
                ..Default::default()
            });
            s.push(fe as f64, r.mops);
        }
        series.push(s);
    }
    let basic_peak = series[0].y_max();
    let numa_peak = series[1].y_max();
    let t16_peak = series[3].y_max();
    vec![Experiment {
        id: "fig12",
        title: "Disaggregated hashtable optimizations (Zipf 0.99, 100% writes, 64 B values)".into(),
        output: Output::Series { x: "front-ends".into(), y: "MOPS".into(), series },
        notes: vec![
            format!(
                "NUMA over basic: +{:.0}% (paper: +14.1%)",
                100.0 * (numa_peak / basic_peak - 1.0)
            ),
            format!(
                "Reorder theta=16 over basic: {:.2}x (paper: 1.85–2.70x)",
                t16_peak / basic_peak
            ),
        ],
    }]
}

/// Fig 13: consolidation sensitivity — hot-key proportion and batch size.
pub fn fig13() -> Vec<Experiment> {
    let mut a = Series::new("Consolidation-OPT");
    // The paper's x axis is "Hot Key Proportion (%)": 1/4 % .. 1/32 % of
    // the key space is promoted to the hot area.
    for (xi, inv) in [(0.0, 400u64), (1.0, 800), (2.0, 1600), (3.0, 3200)] {
        let r = run_hashtable(&HtConfig {
            front_ends: 6,
            ops_per_fe: 1200,
            variant: HtVariant::Reorder { theta: 16 },
            hot_fraction_inv: inv,
            ..Default::default()
        });
        a.push(xi, r.mops);
    }
    let mut b = Series::new("Consolidation-OPT");
    for &theta in &[1usize, 2, 4, 8, 16] {
        let r = run_hashtable(&HtConfig {
            front_ends: 6,
            ops_per_fe: 1200,
            variant: HtVariant::Reorder { theta },
            ..Default::default()
        });
        b.push(theta as f64, r.mops);
    }
    let drop = a.points[0].1 - a.points[3].1;
    vec![
        Experiment {
            id: "fig13a",
            title: "Hashtable: throughput vs hot-key proportion (x: 1/4%,1/8%,1/16%,1/32%)".into(),
            output: Output::Series { x: "hot-idx".into(), y: "MOPS".into(), series: vec![a] },
            notes: vec![format!(
                "paper: only ~6 MOPS drop from 1/4 to 1/32; measured drop {drop:.1} MOPS"
            )],
        },
        Experiment {
            id: "fig13b",
            title: "Hashtable: throughput vs consolidation batch size".into(),
            output: Output::Series { x: "batch".into(), y: "MOPS".into(), series: vec![b] },
            notes: vec!["paper: sub-linear growth with batch size".into()],
        },
    ]
}

/// Fig 15: shuffle throughput vs executor count for each strategy.
pub fn fig15() -> Vec<Experiment> {
    let variants = [
        ShuffleVariant::Basic,
        ShuffleVariant::Sgl(4),
        ShuffleVariant::Sgl(16),
        ShuffleVariant::Sp(4),
        ShuffleVariant::Sp(16),
    ];
    let execs = [2usize, 4, 6, 8, 10, 12, 14, 16];
    let mut series = Vec::new();
    for v in variants {
        let mut s = Series::new(v.label());
        for &e in &execs {
            let r = run_shuffle(&ShuffleConfig {
                executors: e,
                entries_per_executor: 4000,
                variant: v,
                ..Default::default()
            });
            assert!(r.verified, "shuffle verification failed");
            s.push(e as f64, r.mops);
        }
        series.push(s);
    }
    let basic16 = series[0].y_at(16.0).expect("basic@16");
    let sgl16 = series[2].y_at(16.0).expect("sgl16@16");
    let sp16 = series[4].y_at(16.0).expect("sp16@16");
    vec![Experiment {
        id: "fig15",
        title: "Distributed shuffle throughput".into(),
        output: Output::Series { x: "executors".into(), y: "M entries/s".into(), series },
        notes: vec![format!(
            "at 16 executors: SGL16 {:.1}x, SP16 {:.1}x over basic (paper: 4.8x / 5.8x)",
            sgl16 / basic16,
            sp16 / basic16
        )],
    }]
}

/// Fig 16: join execution time vs batch size and executor count.
pub fn fig16(ctx: &RunCtx) -> Vec<Experiment> {
    let tuples = ctx.scale.join_tuples();
    let batches = [1usize, 2, 4, 8, 16, 32];
    // (a) time vs batch for theta = 4/16, with and without NUMA affinity.
    // Points are independent simulations — fan them out across cores.
    let configs_a = [
        ("theta=4", 4usize, false),
        ("theta=16", 16, false),
        ("(NUMA Affinity) theta=4", 4, true),
        ("(NUMA Affinity) theta=16", 16, true),
    ];
    let points_a: Vec<(usize, usize)> = configs_a
        .iter()
        .enumerate()
        .flat_map(|(ci, _)| batches.iter().enumerate().map(move |(bi, _)| (ci, bi)))
        .collect();
    let times_a = crate::par_map(ctx, points_a.clone(), |(ci, bi)| {
        let (_, theta, numa) = configs_a[ci];
        run_join(&JoinConfig {
            executors: theta,
            batch: batches[bi],
            tuples,
            numa,
            verify: false,
            ..Default::default()
        })
        .time
    });
    let mut series_a: Vec<Series> =
        configs_a.iter().map(|(label, _, _)| Series::new(*label)).collect();
    for ((ci, bi), t) in points_a.into_iter().zip(times_a) {
        series_a[ci].push(batches[bi] as f64, t.as_secs());
    }
    // (b) 1/time vs executors, with the ideal linear line.
    let threads = [2usize, 4, 6, 8, 10, 12, 14, 16];
    let configs_b = [("w/o batch", 1usize), ("lambda = 4", 4), ("lambda = 16", 16)];
    let points_b: Vec<(usize, usize)> = configs_b
        .iter()
        .enumerate()
        .flat_map(|(ci, _)| threads.iter().enumerate().map(move |(ti, _)| (ci, ti)))
        .collect();
    let times_b = crate::par_map(ctx, points_b.clone(), |(ci, ti)| {
        run_join(&JoinConfig {
            executors: threads[ti],
            batch: configs_b[ci].1,
            tuples,
            verify: false,
            ..Default::default()
        })
        .time
    });
    let mut series_b: Vec<Series> =
        configs_b.iter().map(|(label, _)| Series::new(*label)).collect();
    for ((ci, ti), t) in points_b.into_iter().zip(times_b) {
        series_b[ci].push(threads[ti] as f64, 1.0 / t.as_secs());
    }
    let base = series_b[2].y_at(2.0).expect("lambda16 @ 2");
    let mut ideal = Series::new("ideal");
    for &th in &threads {
        ideal.push(th as f64, base * th as f64 / 2.0);
    }
    let actual16 = series_b[2].y_at(16.0).expect("16");
    let ideal16 = ideal.y_at(16.0).expect("16");
    series_b.insert(0, ideal);
    let batching_gain = {
        let t1 = series_a[2].y_at(1.0).expect("b1");
        let t16 = series_a[2].y_at(16.0).expect("b16");
        100.0 * (1.0 - t16 / t1)
    };
    vec![
        Experiment {
            id: "fig16a",
            title: format!("Join execution time vs batch size ({tuples} tuples/relation)"),
            output: Output::Series { x: "batch".into(), y: "time(s)".into(), series: series_a },
            notes: vec![format!(
                "batching reduces theta=4 time by {batching_gain:.0}% (paper: up to 37% vs non-batching)"
            )],
        },
        Experiment {
            id: "fig16b",
            title: "Join scalability: 1/time vs executors".into(),
            output: Output::Series {
                x: "executors".into(),
                y: "1/time (1/s)".into(),
                series: series_b,
            },
            notes: vec![format!(
                "lambda=16 at 16 executors is {:.0}% below ideal (paper: 22%)",
                100.0 * (1.0 - actual16 / ideal16)
            )],
        },
    ]
}

/// Fig 17: join time breakdown across data scales.
pub fn fig17(ctx: &RunCtx) -> Vec<Experiment> {
    let scales: Vec<u64> = if ctx.scale.paper {
        vec![1 << 24, 1 << 25, 1 << 26]
    } else {
        vec![1 << 20, 1 << 21, 1 << 22]
    };
    let mut series = Vec::new();
    let mut single = Series::new("Single Machine");
    for &n in &scales {
        single.push((n as f64).log2(), single_machine_time(n).as_secs());
    }
    series.push(single);
    let configs = [
        ("theta=4, lambda=1 w/o NUMA", 4usize, 1usize, false),
        ("theta=4, lambda=1", 4, 1, true),
        ("theta=4, lambda=16", 4, 16, true),
        ("theta=16, lambda=16", 16, 16, true),
    ];
    let points: Vec<(usize, usize)> = configs
        .iter()
        .enumerate()
        .flat_map(|(ci, _)| scales.iter().enumerate().map(move |(si, _)| (ci, si)))
        .collect();
    let scales_ref = &scales;
    let times = crate::par_map(ctx, points.clone(), |(ci, si)| {
        let (_, theta, lambda, numa) = configs[ci];
        run_join(&JoinConfig {
            executors: theta,
            batch: lambda,
            tuples: scales_ref[si],
            numa,
            verify: false,
            ..Default::default()
        })
        .time
    });
    let mut dist: Vec<Series> = configs.iter().map(|(l, ..)| Series::new(*l)).collect();
    for ((ci, si), t) in points.into_iter().zip(times) {
        dist[ci].push((scales[si] as f64).log2(), t.as_secs());
    }
    series.extend(dist);
    let best = series[4].points[0].1;
    let single0 = series[0].points[0].1;
    let naive = series[1].points[0].1;
    vec![Experiment {
        id: "fig17",
        title: "Join performance breakdown across data scales (x: log2 tuples)".into(),
        output: Output::Series { x: "log2(tuples)".into(), y: "time(s)".into(), series },
        notes: vec![format!(
            "all-opts vs single-machine: {:.1}x; vs naive distributed: {:.1}x (paper: 5.3x / 10.3x)",
            single0 / best,
            naive / best
        )],
    }]
}

/// Fig 18: partition-phase CPU cost, SP vs SGL, across entry sizes.
pub fn fig18() -> Vec<Experiment> {
    let sizes = [64u64, 256, 1024, 4096];
    let mut series = Vec::new();
    for (label, strategy) in [("SP", Strategy::Sp), ("SGL", Strategy::Sgl)] {
        let mut s = Series::new(label);
        for &bytes in &sizes {
            let r = run_join(&JoinConfig {
                executors: 7,
                batch: 16,
                tuples: 1 << 14,
                tuple_bytes: bytes,
                strategy,
                verify: false,
                ..Default::default()
            });
            // Busy nanoseconds per entry → cycles at the testbed's 2 GHz.
            let entries = 2 * (1u64 << 14);
            let cycles = r.cpu_busy.as_ns() * 2.0 / entries as f64;
            s.push(bytes as f64, cycles);
        }
        series.push(s);
    }
    let sp4k = series[0].y_at(4096.0).expect("sp");
    let sgl4k = series[1].y_at(4096.0).expect("sgl");
    vec![Experiment {
        id: "fig18",
        title: "CPU cycles per shuffled entry, SP vs SGL (7 executors)".into(),
        output: Output::Series { x: "entry(B)".into(), y: "cycles/entry".into(), series },
        notes: vec![format!(
            "SGL cuts CPU cost by {:.0}% at 4 KB entries (paper: 67.2%)",
            100.0 * (1.0 - sgl4k / sp4k)
        )],
    }]
}

/// Fig 19: distributed log throughput vs batch size.
pub fn fig19() -> Vec<Experiment> {
    let batches = [1usize, 2, 4, 8, 16, 32];
    let mut series = Vec::new();
    for numa in [false, true] {
        for engines in [4usize, 7, 14] {
            let suffix = if numa { "" } else { " (*)" };
            let mut s = Series::new(format!("{engines} TX engines{suffix}"));
            for &b in &batches {
                let r = run_dlog(&DlogConfig {
                    engines,
                    batch: b,
                    records_per_engine: 2000,
                    numa,
                    ..Default::default()
                });
                assert!(r.verified, "log verification failed");
                s.push(b as f64, r.mops);
            }
            series.push(s);
        }
    }
    let b1 = series[4].y_at(1.0).expect("7 numa b1");
    let b32 = series[4].y_at(32.0).expect("7 numa b32");
    let n14 = series[5].y_at(16.0).expect("14 numa");
    let o14 = series[2].y_at(16.0).expect("14 oblivious");
    vec![Experiment {
        id: "fig19",
        title: "Distributed log throughput vs batch size (*: w/o NUMA awareness)".into(),
        output: Output::Series { x: "batch".into(), y: "M records/s".into(), series },
        notes: vec![
            format!("7 engines, batch 32 vs 1: {:.1}x (paper: 9.1x)", b32 / b1),
            format!(
                "NUMA at 14 engines (batch 16): +{:.0}% (paper: +14%)",
                100.0 * (n14 / o14 - 1.0)
            ),
        ],
    }]
}

/// Extension (§IV-A scenario III): recovery-by-replay time of the
/// distributed log across log sizes, next to the time the original
/// (unbatched) append took.
pub fn extra_recovery() -> Vec<Experiment> {
    use apps::run_dlog_with_recovery;
    let mut replay = Series::new("recovery replay");
    let mut append = Series::new("original append (batch 1)");
    for (xi, records) in [(0.0, 500u64), (1.0, 1000), (2.0, 2000), (3.0, 4000)] {
        let (report, recovery) = run_dlog_with_recovery(&DlogConfig {
            engines: 7,
            batch: 1,
            records_per_engine: records,
            ..Default::default()
        });
        assert!(report.verified);
        replay.push(xi, recovery.as_us());
        append.push(xi, report.makespan.as_us());
    }
    let speedup = append.points[3].1 / replay.points[3].1;
    vec![Experiment {
        id: "extra-recovery",
        title: "Scenario III extension: log recovery replay vs original append \
                (x: 3.5k,7k,14k,28k records)"
            .into(),
        output: Output::Series {
            x: "size-idx".into(),
            y: "time(us)".into(),
            series: vec![replay, append],
        },
        notes: vec![format!(
            "replaying from remote memory is {speedup:.1}x faster than re-running the \
             transactions — the paper's scenario III replication argument"
        )],
    }]
}

/// Extension: the disaggregated hashtable under the standard YCSB mixes
/// (the paper's workload citation [10]), showing that the consolidation +
/// hot-shadow design also serves read-heavy traffic (scenario I: remote
/// memory behind a front-end cache).
pub fn extra_ycsb() -> Vec<Experiment> {
    let mixes = [("A (50% upd)", 0.5), ("B (5% upd)", 0.05), ("C (reads)", 0.0)];
    let mut numa = Series::new("+Numa-OPT");
    let mut reorder = Series::new("+Reorder-OPT (theta=16)");
    for (xi, (_, frac)) in mixes.iter().enumerate() {
        for (series, variant) in
            [(&mut numa, HtVariant::Numa), (&mut reorder, HtVariant::Reorder { theta: 16 })]
        {
            let r = run_hashtable(&HtConfig {
                front_ends: 6,
                ops_per_fe: 1200,
                write_fraction: *frac,
                variant,
                ..Default::default()
            });
            series.push(xi as f64, r.mops);
        }
    }
    let gain_c = reorder.y_at(2.0).expect("C") / numa.y_at(2.0).expect("C");
    vec![Experiment {
        id: "extra-ycsb",
        title: "Extension: hashtable throughput under YCSB A/B/C (x: 0=A, 1=B, 2=C)".into(),
        output: Output::Series {
            x: "mix-idx".into(),
            y: "MOPS".into(),
            series: vec![numa, reorder],
        },
        notes: vec![format!(
            "hot-shadow reads make the consolidated design {gain_c:.1}x the NUMA-only one even \
             on the read-only mix (scenario I: remote memory as a cached tier)"
        )],
    }]
}
