//! §III microbenchmarks: packet throttling, vector IO, seq/rand asymmetry,
//! IO consolidation, NUMA placement (Figs 1, 3–6, 8; Tables I–III).

use crate::report::{Experiment, Output};
use crate::RunCtx;
use cluster::{
    run_clients, run_clients_sharded, Client, ClosedLoop, ClusterConfig, ConnId, Endpoint, Pinned,
    Step, Testbed,
};
use memmodel::{vectored_mops, HostMemConfig, MemOp};
use remem::{batched_write, ConsolidationBuffer, RemoteDst, Strategy};
use rnicsim::{MrId, RKey, Sge, VerbKind, WorkRequest, WrId};
use simcore::{Meter, Series, SimRng, SimTime};
use std::fmt::Write as _;

const PAYLOADS_FIG1: [u64; 13] = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];

fn pair(region_bytes: u64, backed: bool) -> (Testbed, MrId, MrId, ConnId) {
    let mut tb = Testbed::new(ClusterConfig::two_machines());
    let (src, dst) = if backed {
        (tb.register(0, 1, region_bytes), tb.register(1, 1, region_bytes))
    } else {
        (tb.register_unbacked(0, 1, region_bytes), tb.register_unbacked(1, 1, region_bytes))
    };
    let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
    (tb, src, dst, conn)
}

fn verb_wr(kind: &VerbKind, src: MrId, dst: MrId, payload: u64, id: u64) -> WorkRequest {
    WorkRequest {
        wr_id: WrId(id),
        kind: kind.clone(),
        sgl: Sge::new(src, 0, payload).into(),
        remote: Some((RKey(dst.0 as u64), 0)),
        signaled: true,
    }
}

/// Warm latency of one verb at `payload` bytes.
fn verb_latency(kind: &VerbKind, payload: u64) -> SimTime {
    let (mut tb, src, dst, conn) = pair(1 << 20, false);
    let warm = tb.post_one(SimTime::ZERO, conn, verb_wr(kind, src, dst, payload, 0));
    let c = tb.post_one(warm.at, conn, verb_wr(kind, src, dst, payload, 1));
    c.at - warm.at
}

/// Windowed single-client throughput of one verb (MOPS).
fn verb_mops(kind: &VerbKind, payload: u64, window: usize, ops: u64) -> f64 {
    let (mut tb, src, dst, conn) = pair(1 << 20, false);
    // One template WR for the whole loop; only the id changes per op.
    let mut wr = verb_wr(kind, src, dst, payload, 0);
    let mut cl = ClosedLoop::new(window, ops, move |tb: &mut Testbed, now, i| {
        wr.wr_id = WrId(i);
        tb.post_one_ref(now, conn, &wr).at
    });
    {
        let mut clients: Vec<Box<dyn Client + '_>> = vec![Box::new(&mut cl)];
        run_clients(&mut tb, &mut clients, SimTime::MAX);
    }
    let comps = cl.completions();
    let skip = ops as usize / 10; // warmup
    let span = *comps.last().expect("ops > 0") - comps[skip];
    simcore::mops(ops - skip as u64 - 1, span)
}

/// Fig 1: packet throttling — latency and throughput of small Writes and
/// Reads across payload sizes.
pub fn fig1() -> Vec<Experiment> {
    let mut lat_w = Series::new("Write");
    let mut lat_r = Series::new("Read");
    let mut tput_w = Series::new("Write");
    let mut tput_r = Series::new("Read");
    for &p in &PAYLOADS_FIG1 {
        lat_w.push(p as f64, verb_latency(&VerbKind::Write, p).as_us());
        lat_r.push(p as f64, verb_latency(&VerbKind::Read, p).as_us());
        tput_w.push(p as f64, verb_mops(&VerbKind::Write, p, 16, 3000));
        tput_r.push(p as f64, verb_mops(&VerbKind::Read, p, 16, 3000));
    }
    let lat_note = format!(
        "paper anchors: write 1.16us / read 2.00us small; measured {:.2}/{:.2}us",
        lat_w.points[0].1, lat_r.points[0].1
    );
    let tput_note = format!(
        "paper anchors: plateaus 4.7/4.2 MOPS; measured {:.2}/{:.2}",
        tput_w.points[0].1, tput_r.points[0].1
    );
    vec![
        Experiment {
            id: "fig1-latency",
            title: "Packet throttling: access latency vs payload".into(),
            output: Output::Series {
                x: "size(B)".into(),
                y: "latency(us)".into(),
                series: vec![lat_w, lat_r],
            },
            notes: vec![lat_note],
        },
        Experiment {
            id: "fig1-throughput",
            title: "Packet throttling: throughput vs payload".into(),
            output: Output::Series {
                x: "size(B)".into(),
                y: "MOPS".into(),
                series: vec![tput_w, tput_r],
            },
            notes: vec![tput_note],
        },
    ]
}

/// One closed-loop client running `batched_write` cycles; returns
/// buffer-ops MOPS.
fn strategy_mops(strategy: Strategy, batch: usize, payload: u64, cycles: u64) -> f64 {
    let mut tb = Testbed::new(ClusterConfig::two_machines());
    let src = tb.register_unbacked(0, 1, 1 << 22);
    let staging = tb.register(0, 1, 1 << 16);
    let dst = tb.register_unbacked(1, 1, 1 << 22);
    let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
    let bufs: Vec<Sge> = (0..batch).map(|i| Sge::new(src, i as u64 * 4096, payload)).collect();
    let rdst = RemoteDst::Contiguous(RKey(dst.0 as u64), 0);
    let mut t = SimTime::ZERO;
    let mut first_done = SimTime::ZERO;
    for i in 0..cycles {
        let out = batched_write(&mut tb, t, conn, strategy, &bufs, Some(staging), &rdst);
        if i == cycles / 10 {
            first_done = out.done;
        }
        t = out.done;
    }
    let measured = cycles - cycles / 10 - 1;
    simcore::mops(measured * batch as u64, t - first_done)
}

/// Fig 3: the three batch strategies (and local vector IO) across payload
/// sizes, batch 4 and 16.
pub fn fig3() -> Vec<Experiment> {
    let payloads: [u64; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];
    let host = HostMemConfig::default();
    let mut series = Vec::new();
    for &batch in &[4usize, 16] {
        for strategy in Strategy::ALL {
            let mut s = Series::new(format!("{}-size-{batch}", strategy.label()));
            for &p in &payloads {
                s.push(p as f64, strategy_mops(strategy, batch, p, 400));
            }
            series.push(s);
        }
    }
    let mut local = Series::new("Local-size-4");
    for &p in &payloads {
        local.push(p as f64, vectored_mops(&host, MemOp::Write, 4, p as usize));
    }
    series.insert(3, local);
    vec![Experiment {
        id: "fig3",
        title: "Batch strategies vs payload size (1:1 connection)".into(),
        output: Output::Series { x: "size(B)".into(), y: "MOPS".into(), series },
        notes: vec![
            "paper: curves flat below ~128B; SGL/SP decline as payload grows; Doorbell flat".into(),
        ],
    }]
}

/// Fig 4: throughput vs batch size at 32 B payloads, plus the local
/// readv/writev baselines.
pub fn fig4() -> Vec<Experiment> {
    let batches = [1usize, 2, 4, 8, 16, 32];
    let host = HostMemConfig::default();
    let mut series = Vec::new();
    for strategy in Strategy::ALL {
        let mut s = Series::new(strategy.label());
        for &b in &batches {
            s.push(b as f64, strategy_mops(strategy, b, 32, 400));
        }
        series.push(s);
    }
    for (label, op) in [("Local-W", MemOp::Write), ("Local-R", MemOp::Read)] {
        let mut s = Series::new(label);
        for &b in &batches {
            s.push(b as f64, vectored_mops(&host, op, b, 32));
        }
        series.push(s);
    }
    let sp32 = series[0].y_at(32.0).expect("SP at 32");
    let lw32 = series[3].y_at(32.0).expect("Local-W at 32");
    let lr32 = series[4].y_at(32.0).expect("Local-R at 32");
    vec![Experiment {
        id: "fig4",
        title: "Batch strategies vs batch size (32 B payload)".into(),
        output: Output::Series { x: "batch".into(), y: "MOPS".into(), series },
        notes: vec![format!(
            "paper: SP@32 reaches ~44%/117% of local write/read; measured {:.0}%/{:.0}%",
            100.0 * sp32 / lw32,
            100.0 * sp32 / lr32
        )],
    }]
}

/// Fig 5: per-thread throughput of each strategy as threads share one
/// machine's NIC (batch 4, 32 B payloads).
pub fn fig5() -> Vec<Experiment> {
    let mut series = Vec::new();
    for strategy in Strategy::ALL {
        let mut s = Series::new(format!("{} (batch size=4)", strategy.label()));
        for threads in 1..=8usize {
            let mut tb = Testbed::new(ClusterConfig::two_machines());
            let dst = tb.register_unbacked(1, 1, 1 << 22);
            let cycles_per = 300u64;
            let mut loops = Vec::new();
            for th in 0..threads {
                let src = tb.register_unbacked(0, 1, 1 << 20);
                let staging = tb.register(0, 1, 1 << 14);
                let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
                let bufs: Vec<Sge> = (0..4).map(|i| Sge::new(src, i as u64 * 4096, 32)).collect();
                let rdst = RemoteDst::Contiguous(RKey(dst.0 as u64), th as u64 * (1 << 16));
                loops.push(ClosedLoop::new(1, cycles_per, move |tb: &mut Testbed, now, _| {
                    batched_write(tb, now, conn, strategy, &bufs, Some(staging), &rdst).done
                }));
            }
            let mut clients: Vec<Box<dyn Client + '_>> =
                loops.iter_mut().map(|c| Box::new(c) as _).collect();
            let makespan = run_clients(&mut tb, &mut clients, SimTime::MAX);
            drop(clients);
            let total_ops = threads as u64 * cycles_per * 4;
            let per_thread = simcore::mops(total_ops, makespan) / threads as f64;
            s.push(threads as f64, per_thread);
        }
        series.push(s);
    }
    let drop_pct = |s: &Series| {
        let t1 = s.y_at(1.0).expect("1 thread");
        let t8 = s.y_at(8.0).expect("8 threads");
        100.0 * (1.0 - t8 / t1)
    };
    let note = format!(
        "paper: 1→8 threads Doorbell drops ~60%, SGL ~25%; measured SP {:.0}%, Doorbell {:.0}%, SGL {:.0}%",
        drop_pct(&series[0]),
        drop_pct(&series[1]),
        drop_pct(&series[2])
    );
    vec![Experiment {
        id: "fig5",
        title: "Per-thread throughput vs thread count (batch 4, 32 B)".into(),
        output: Output::Series { x: "threads".into(), y: "MOPS/thread".into(), series },
        notes: vec![note],
    }]
}

/// Table I: the qualitative strategy comparison, with the measured numbers
/// that back each verdict.
pub fn table1() -> Vec<Experiment> {
    let sp1 = strategy_mops(Strategy::Sp, 1, 32, 300);
    let sp32 = strategy_mops(Strategy::Sp, 32, 32, 300);
    let db1 = strategy_mops(Strategy::Doorbell, 1, 32, 300);
    let db32 = strategy_mops(Strategy::Doorbell, 32, 32, 300);
    let sgl1 = strategy_mops(Strategy::Sgl, 1, 32, 300);
    let sgl32 = strategy_mops(Strategy::Sgl, 32, 32, 300);
    let sgl_big = strategy_mops(Strategy::Sgl, 16, 1024, 300);
    let sp_big = strategy_mops(Strategy::Sp, 16, 1024, 300);
    let mut t = String::new();
    let _ = writeln!(
        t,
        "{:<10} {:<16} {:<28} {:<30}",
        "Type", "Programmability", "Performance", "Scalability"
    );
    let _ = writeln!(
        t,
        "{:<10} {:<16} {:<28} {:<30}",
        "Doorbell",
        "Good",
        format!("Low ({db1:.1}→{db32:.1} MOPS)"),
        "Poor (exec-unit bound)"
    );
    let _ = writeln!(
        t,
        "{:<10} {:<16} {:<28} {:<30}",
        "SP",
        "Poor",
        format!("High ({sp1:.1}→{sp32:.1} MOPS)"),
        "Good"
    );
    let _ = writeln!(
        t,
        "{:<10} {:<16} {:<28} {:<30}",
        "SGL",
        "Moderate",
        format!("High ({sgl1:.1}→{sgl32:.1} MOPS)"),
        format!("Small range ({:.0}% of SP at 1KB)", 100.0 * sgl_big / sp_big)
    );
    vec![Experiment {
        id: "table1",
        title: "Comparison between three vector IO mechanisms".into(),
        output: Output::Table(t),
        notes: vec![],
    }]
}

/// One access-pattern measurement for Fig 6: a closed-loop client on a
/// private machine pair.
#[derive(Clone)]
struct PatternCell {
    kind: VerbKind,
    local_seq: bool,
    remote_seq: bool,
    payload: u64,
    region: u64,
    ops: u64,
}

/// Run every cell concurrently: each cell gets its own machine *pair*
/// inside one merged testbed, so the sharded engine spreads the pairs
/// across cores. Machines share no state (per-machine NICs, memory
/// pools, and id counters), so each cell's completion stream is
/// byte-identical to running it alone on a two-machine testbed — the
/// parallelism changes wall-clock only.
fn pattern_cells_run(cells: &[PatternCell], shards: usize) -> Vec<Vec<SimTime>> {
    let mut tb = Testbed::new(ClusterConfig { machines: 2 * cells.len(), ..Default::default() });
    let mut setups = Vec::new();
    for (ci, cell) in cells.iter().enumerate() {
        let (a, b) = (2 * ci, 2 * ci + 1);
        let src = tb.register_unbacked(a, 1, cell.region);
        let dst = tb.register_unbacked(b, 1, cell.region);
        let conn = tb.connect(Endpoint::affine(a, 1), Endpoint::affine(b, 1));
        setups.push((src, dst, conn));
    }
    let mut loops: Vec<_> = cells
        .iter()
        .zip(&setups)
        .map(|(cell, &(src, dst, conn))| {
            let mut rng = SimRng::new(7);
            let payload = cell.payload;
            let slots = (cell.region / payload.max(1)).max(1);
            let (local_seq, remote_seq) = (cell.local_seq, cell.remote_seq);
            // Template WR mutated in place: id and the two offsets change
            // per op.
            let mut wr = WorkRequest {
                wr_id: WrId(0),
                kind: cell.kind.clone(),
                sgl: Sge::new(src, 0, payload).into(),
                remote: Some((RKey(dst.0 as u64), 0)),
                signaled: true,
            };
            ClosedLoop::new(8, cell.ops, move |tb: &mut Testbed, now, i| {
                let l_off =
                    if local_seq { (i % slots) * payload } else { rng.gen_range(slots) * payload };
                let r_off =
                    if remote_seq { (i % slots) * payload } else { rng.gen_range(slots) * payload };
                wr.wr_id = WrId(i);
                wr.sgl = Sge::new(src, l_off, payload).into();
                wr.remote = Some((RKey(dst.0 as u64), r_off));
                tb.post_one_ref(now, conn, &wr).at
            })
        })
        .collect();
    {
        let mut pinned: Vec<Pinned<'_>> =
            loops.iter_mut().enumerate().map(|(ci, cl)| Pinned::new(2 * ci, cl)).collect();
        run_clients_sharded(&mut tb, &mut pinned, shards, SimTime::MAX);
    }
    loops.iter().map(|cl| cl.completions().to_vec()).collect()
}

/// The Fig 6 throughput figure for one cell's completion stream: skip
/// the first half as warmup, measure the steady-state tail.
fn cell_mops(comps: &[SimTime], ops: u64) -> f64 {
    let skip = ops as usize / 2;
    simcore::mops(ops - skip as u64 - 1, *comps.last().expect("ops") - comps[skip])
}

/// Fig 6(a,b,d): remote sequential vs random access (2 GB region), plus
/// the registered-region-size sweep; (c) comes from the memmodel probe.
pub fn fig6(ctx: &RunCtx) -> Vec<Experiment> {
    let region = 2u64 << 30;
    let payloads: [u64; 14] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];
    let combos = [
        ("rand-rand", false, false),
        ("rand-seq", false, true),
        ("seq-rand", true, false),
        ("seq-seq", true, true),
    ];
    let mut out = Vec::new();
    for (id, kind, title) in
        [("fig6a", VerbKind::Read, "RDMA Read"), ("fig6b", VerbKind::Write, "RDMA Write")]
    {
        // One cell per (combo, payload): all 56 run concurrently, sharded.
        let mut cells = Vec::new();
        for &(_, lseq, rseq) in &combos {
            for &p in &payloads {
                cells.push(PatternCell {
                    kind: kind.clone(),
                    local_seq: lseq,
                    remote_seq: rseq,
                    payload: p,
                    region,
                    ops: 1200,
                });
            }
        }
        let comps = pattern_cells_run(&cells, ctx.shards);
        let mut series = Vec::new();
        for (ci, (label, _, _)) in combos.iter().enumerate() {
            let prefix = if matches!(kind, VerbKind::Read) { "read" } else { "write" };
            let mut s = Series::new(format!("{prefix}-{label}"));
            for (pi, &p) in payloads.iter().enumerate() {
                s.push(p as f64, cell_mops(&comps[ci * payloads.len() + pi], 1200));
            }
            series.push(s);
        }
        let ss = series[3].y_at(32.0).expect("seq-seq");
        let rr = series[0].y_at(32.0).expect("rand-rand");
        out.push(Experiment {
            id,
            title: format!("{title}: seq vs rand (2 GB registered region)"),
            output: Output::Series { x: "size(B)".into(), y: "MOPS".into(), series },
            notes: vec![format!(
                "seq-seq/rand-rand at 32B: {:.2}x (paper: >2x for writes)",
                ss / rr
            )],
        });
    }
    // (c) local DRAM, straight from the host model.
    out.push(Experiment {
        id: "fig6c",
        title: "DRAM read/write, seq vs rand (local memory)".into(),
        output: Output::Series {
            x: "size(B)".into(),
            y: "MOPS".into(),
            series: memmodel::fig6c_series(&HostMemConfig::default()),
        },
        notes: vec!["paper: seq write ≈ 2.92x rand write".into()],
    });
    // (d) registered-region size sweep at 32 B.
    let sizes: [(&str, u64); 7] = [
        ("4K", 4 << 10),
        ("4M", 4 << 20),
        ("16M", 16 << 20),
        ("64M", 64 << 20),
        ("256M", 256 << 20),
        ("1G", 1 << 30),
        ("4G", 4 << 30),
    ];
    // Long runs: the 4 MB point needs a full LRU warmup before the
    // steady state (random coverage of 1024 pages takes ~7k draws).
    let cells: Vec<PatternCell> = combos
        .iter()
        .flat_map(|&(_, lseq, rseq)| {
            sizes.iter().map(move |&(_, bytes)| PatternCell {
                kind: VerbKind::Write,
                local_seq: lseq,
                remote_seq: rseq,
                payload: 32,
                region: bytes,
                ops: 12_000,
            })
        })
        .collect();
    let comps = pattern_cells_run(&cells, ctx.shards);
    let mut series = Vec::new();
    for (ci, (label, _, _)) in combos.iter().enumerate() {
        let mut s = Series::new(*label);
        for (i, _) in sizes.iter().enumerate() {
            s.push(i as f64, cell_mops(&comps[ci * sizes.len() + i], 12_000));
        }
        series.push(s);
    }
    let flat4m = series[0].y_at(1.0).expect("rand at 4M") / series[3].y_at(1.0).expect("seq at 4M");
    out.push(Experiment {
        id: "fig6d",
        title:
            "Write 32 B: seq vs rand across registered-region sizes (x: 4K,4M,16M,64M,256M,1G,4G)"
                .into(),
        output: Output::Series { x: "size-idx".into(), y: "MOPS".into(), series },
        notes: vec![format!(
            "paper: <4MB regions show <1% seq/rand difference; measured rand/seq at 4M = {:.3}",
            flat4m
        )],
    });
    out
}

/// One consolidation cell of Fig 8 as a [`Client`]: each step performs
/// one 32 B absorbed write (possibly triggering a block flush), polls
/// leases every 64 ops, and yields at its own advancing clock — exactly
/// the manual loop the serial version ran, one iteration per step.
struct ThetaClient {
    buf: ConsolidationBuffer,
    zipf: workloads::Zipf,
    rng: SimRng,
    /// Outstanding block-flush completions; the send queue tolerates a
    /// bounded number before the client stalls on the oldest.
    inflight: std::collections::VecDeque<SimTime>,
    ops: u64,
    i: u64,
    t: SimTime,
    first: SimTime,
}

impl ThetaClient {
    fn absorb_flush(&mut self, done: SimTime) {
        self.inflight.push_back(done);
        if self.inflight.len() > 8 {
            let oldest = self.inflight.pop_front().expect("non-empty");
            self.t = self.t.max(oldest);
        }
    }
}

impl Client for ThetaClient {
    fn step(&mut self, _now: SimTime, tb: &mut Testbed) -> Step {
        if self.i == self.ops {
            self.buf.flush_all(tb, self.t);
            return Step::Done;
        }
        let block = self.zipf.scrambled_key(&mut self.rng);
        let off = block * 1024 + self.rng.gen_range(32) * 32;
        self.t += self.buf.absorb_cost(tb, 32) + SimTime::from_ns(25);
        if let Some(done) = self.buf.write(tb, self.t, off, &[self.i as u8; 32]) {
            self.t += SimTime::from_ns(100); // flush WR post (MMIO)
            self.absorb_flush(done);
        }
        if self.i.is_multiple_of(64) {
            for done in self.buf.poll_leases(tb, self.t) {
                self.absorb_flush(done);
            }
        }
        if self.i == self.ops / 2 {
            self.first = self.t;
        }
        self.i += 1;
        Step::Yield(self.t)
    }
}

/// Fig 8: IO consolidation of 32 B random writes over 1 KB blocks.
///
/// The workload is the paper's consolidation scenario: a skewed (Zipf
/// 0.99) stream of small writes over a region much larger than the MTT
/// cache covers, so the native path thrashes translations while the
/// consolidated path merges θ writes per hot block into one block write.
pub fn fig8(ctx: &RunCtx) -> Vec<Experiment> {
    let region = 64u64 << 20; // 64k blocks of 1 KB, 16x the MTT coverage
    let blocks = region / 1024;
    let zipf = workloads::Zipf::paper(blocks);
    let ops = 60_000u64;
    let thetas = [(1.0, 1usize), (2.0, 2), (3.0, 4), (4.0, 8), (5.0, 16)];

    // One merged testbed: native on machines 0/1, each θ cell on its own
    // pair — six independent components the sharded engine runs
    // concurrently, each byte-identical to a standalone run.
    let mut tb =
        Testbed::new(ClusterConfig { machines: 2 * (1 + thetas.len()), ..Default::default() });
    let src = tb.register(0, 1, 4096);
    let dst = tb.register_unbacked(1, 1, region);
    let native_conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
    let mut rng = SimRng::new(3);
    let z = zipf.clone();
    let mut native_cl = ClosedLoop::new(16, ops, move |tb: &mut Testbed, now, i| {
        let block = z.scrambled_key(&mut rng);
        let off = block * 1024 + rng.gen_range(32) * 32;
        tb.post_one(
            now,
            native_conn,
            WorkRequest::write(i, Sge::new(src, 0, 32), RKey(dst.0 as u64), off),
        )
        .at
    });
    let mut theta_cls: Vec<ThetaClient> = thetas
        .iter()
        .enumerate()
        .map(|(j, &(_, theta))| {
            let (a, b) = (2 * (j + 1), 2 * (j + 1) + 1);
            let shadow = tb.register_unbacked(a, 1, region);
            let dst = tb.register_unbacked(b, 1, region);
            let conn = tb.connect(Endpoint::affine(a, 1), Endpoint::affine(b, 1));
            ThetaClient {
                buf: ConsolidationBuffer::new(
                    conn,
                    shadow,
                    RKey(dst.0 as u64),
                    1024,
                    theta,
                    SimTime::from_ms(20),
                ),
                zipf: zipf.clone(),
                rng: SimRng::new(4),
                inflight: std::collections::VecDeque::new(),
                ops,
                i: 0,
                t: SimTime::ZERO,
                first: SimTime::ZERO,
            }
        })
        .collect();
    {
        let mut pinned: Vec<Pinned<'_>> = vec![Pinned::new(0, &mut native_cl)];
        pinned.extend(theta_cls.iter_mut().enumerate().map(|(j, c)| Pinned::new(2 * (j + 1), c)));
        run_clients_sharded(&mut tb, &mut pinned, ctx.shards, SimTime::MAX);
    }
    let comps = native_cl.completions();
    let native =
        simcore::mops(ops / 2 - 1, *comps.last().expect("ops") - comps[(ops / 2) as usize]);
    let mut s = Series::new("IO consolidation");
    s.push(0.0, native); // x=0 rendered as "Native"
    for (&(xi, _), c) in thetas.iter().zip(&theta_cls) {
        s.push(xi, simcore::mops(ops / 2, c.t - c.first));
    }
    let ratio = s.y_at(5.0).expect("theta 16") / native;
    vec![Experiment {
        id: "fig8",
        title: "IO consolidation throughput vs θ (x: Native,1,2,4,8,16; 32 B skewed writes, 1 KB blocks)"
            .into(),
        output: Output::Series { x: "theta-idx".into(), y: "MOPS".into(), series: vec![s] },
        notes: vec![format!("paper: 7.49x over native at θ=16; measured {ratio:.2}x")],
    }]
}

/// fig6-xl: the Fig 6 access-pattern sweep pushed ~4× further out in
/// machine count — `pairs` identical writer pairs per point, aggregate
/// MOPS on the y axis. The largest point simulates 96 machines of
/// traffic in one global queue; each pair is an independent component,
/// so the sharded engine spreads pairs across cores and the sweep's
/// wall-clock scales with machines/shards instead of machines.
pub fn fig6_xl(ctx: &RunCtx) -> Vec<Experiment> {
    let (pair_counts, ops): (&[usize], u64) =
        if ctx.scale.paper { (&[4, 8, 16, 32, 48], 6000) } else { (&[4, 8, 16, 24], 1500) };
    let region = 64u64 << 20;
    let mut series = Vec::new();
    for (label, seq) in [("write-seq-seq", true), ("write-rand-rand", false)] {
        let mut s = Series::new(label);
        for &pairs in pair_counts {
            let cells: Vec<PatternCell> = (0..pairs)
                .map(|_| PatternCell {
                    kind: VerbKind::Write,
                    local_seq: seq,
                    remote_seq: seq,
                    payload: 32,
                    region,
                    ops,
                })
                .collect();
            let comps = pattern_cells_run(&cells, ctx.shards);
            // Aggregate throughput: fold per-pair meters over the common
            // steady-state window (second half of each pair's run).
            let mut merged = Meter::new(SimTime::ZERO);
            for c in &comps {
                let mut m = Meter::new(SimTime::ZERO);
                for &at in &c[(ops / 2) as usize..] {
                    m.record(at);
                }
                merged.merge(&m);
            }
            s.push(2.0 * pairs as f64, merged.mops());
        }
        series.push(s);
    }
    let biggest = *pair_counts.last().expect("non-empty") as f64 * 2.0;
    let ratio = series[0].y_at(biggest).expect("seq at max")
        / series[1].y_at(biggest).expect("rand at max");
    vec![Experiment {
        id: "fig6-xl",
        title: format!(
            "Fig 6 at cluster scale: aggregate 32 B write MOPS vs machine count \
             (up to {} machines, sharded engine)",
            biggest as u64
        ),
        output: Output::Series { x: "machines".into(), y: "aggregate MOPS".into(), series },
        notes: vec![
            format!("seq-seq/rand-rand aggregate at {} machines: {ratio:.2}x", biggest as u64),
            // No shard count here: printed output must stay
            // byte-identical across --shards settings.
            "simulated on the sharded engine (each writer pair is an independent component)"
                .to_string(),
        ],
    }]
}

/// Fleet-wide memory accounting of one [`fleet_run`]: actual sparse
/// residency vs the dense-equivalent registered footprint, plus an
/// FNV-1a fold of every machine's resident-page digest (placement *and*
/// content of materialized pages — the byte-identity token the 3-way
/// determinism gate checks for the memory subsystem).
struct FleetMem {
    resident: u64,
    dense: u64,
    digest: u64,
}

/// One fig6-xxl point: `pairs` writer pairs, each with a `fan`-wide set
/// of RC connections (the QP fleet), every machine holding one `region`-
/// byte *backed* registration. The sparse pool is what makes the point
/// feasible: dense backing for 2048 machines x 256 MiB would need half a
/// terabyte, while only the seeded source page and the destination pages
/// that received nonzero bytes ever materialize.
fn fleet_run(
    pairs: usize,
    fan: usize,
    region: u64,
    ops: u64,
    seq: bool,
    shards: usize,
) -> (f64, FleetMem) {
    let mut tb = Testbed::new(ClusterConfig { machines: 2 * pairs, ..Default::default() });
    let mut setups = Vec::new();
    for p in 0..pairs {
        let (a, b) = (2 * p, 2 * p + 1);
        let src = tb.register(a, 1, region);
        let dst = tb.register(b, 1, region);
        // A nonzero seed at the head of each source: the first sequential
        // writes carry real bytes (materializing one destination page);
        // everything else gathers zeros and is elided by the pool.
        tb.machine_mut(a).mem.write(src, 0, b"fig6-xxl sparse fleet seed bytes");
        let conns: Vec<ConnId> =
            (0..fan).map(|_| tb.connect(Endpoint::affine(a, 1), Endpoint::affine(b, 1))).collect();
        setups.push((src, dst, conns));
    }
    let payload = 32u64;
    let slots = region / payload;
    let mut loops: Vec<_> = setups
        .iter()
        .map(|(src, dst, conns)| {
            let (src, dst) = (*src, *dst);
            let conns = conns.clone();
            let mut rng = SimRng::new(11);
            let mut wr = WorkRequest {
                wr_id: WrId(0),
                kind: VerbKind::Write,
                sgl: Sge::new(src, 0, payload).into(),
                remote: Some((RKey(dst.0 as u64), 0)),
                signaled: true,
            };
            ClosedLoop::new(8, ops, move |tb: &mut Testbed, now, i| {
                let (l_off, r_off) = if seq {
                    ((i % slots) * payload, (i % slots) * payload)
                } else {
                    (rng.gen_range(slots) * payload, rng.gen_range(slots) * payload)
                };
                wr.wr_id = WrId(i);
                wr.sgl = Sge::new(src, l_off, payload).into();
                wr.remote = Some((RKey(dst.0 as u64), r_off));
                tb.post_one_ref(now, conns[(i % conns.len() as u64) as usize], &wr).at
            })
        })
        .collect();
    {
        let mut pinned: Vec<Pinned<'_>> =
            loops.iter_mut().enumerate().map(|(p, cl)| Pinned::new(2 * p, cl)).collect();
        run_clients_sharded(&mut tb, &mut pinned, shards, SimTime::MAX);
    }
    let (mut resident, mut dense, mut digest) = (0u64, 0u64, 0xcbf2_9ce4_8422_2325u64);
    for (p, (src, dst, _)) in setups.iter().enumerate() {
        for (m, mr) in [(2 * p, *src), (2 * p + 1, *dst)] {
            let mem = &tb.machine(m).mem;
            resident += mem.resident_bytes();
            dense += mem.dense_bytes();
            digest ^= mem.resident_digest(mr);
            digest = digest.wrapping_mul(0x100_0000_01b3);
        }
    }
    // The fleet claim itself: the run is only honest if sparse backing
    // actually carried it — materialized pages must stay far below the
    // dense-equivalent registration.
    assert!(resident * 5 <= dense, "fig6-xxl lost sparsity: {resident} of {dense} bytes resident");
    // Steady-state aggregate throughput: fold the second half of every
    // pair's completion stream into one merged meter.
    let mut merged = Meter::new(SimTime::ZERO);
    for cl in &loops {
        let mut m = Meter::new(SimTime::ZERO);
        for &at in &cl.completions()[(ops / 2) as usize..] {
            m.record(at);
        }
        merged.merge(&m);
    }
    (merged.mops(), FleetMem { resident, dense, digest })
}

/// fig6-xxl: the Fig 6 access-pattern sweep at fleet scale — up to 2048
/// machines and a QP fan per pair (tens of thousands of connections at
/// paper scale), every machine registering a 256 MiB *backed* region.
/// Feasible only on the sparse lazy-page pool: registration is O(pages
/// touched), untouched pages read as zeros, and all-zero payloads are
/// elided, so the fleet's resident memory stays megabytes while the
/// dense-equivalent registration is hundreds of gigabytes. The notes
/// carry the resident/dense accounting and the fleet memory digest, so
/// the 3-way determinism gate pins memory *placement* as well as timing.
pub fn fig6_xxl(ctx: &RunCtx) -> Vec<Experiment> {
    let (pair_counts, fan, ops): (&[usize], usize, u64) =
        if ctx.scale.paper { (&[256, 1024], 48, 600) } else { (&[64, 256, 1024], 6, 64) };
    let region = 256u64 << 20;
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for (label, seq) in [("write-seq-seq", true), ("write-rand-rand", false)] {
        let mut s = Series::new(label);
        let mut top: Option<FleetMem> = None;
        for &pairs in pair_counts {
            let (mops, mem) = fleet_run(pairs, fan, region, ops, seq, ctx.shards);
            s.push(2.0 * pairs as f64, mops);
            top = Some(mem);
        }
        series.push(s);
        let top = top.expect("non-empty pair_counts");
        let machines = 2 * pair_counts.last().expect("non-empty");
        notes.push(format!(
            "{label} at {machines} machines: resident {:.1} MiB of {:.0} GiB registered \
             ({:.0}x sparse saving); fleet memory digest {:016x}",
            top.resident as f64 / (1u64 << 20) as f64,
            top.dense as f64 / (1u64 << 30) as f64,
            top.dense as f64 / top.resident.max(1) as f64,
            top.digest,
        ));
    }
    let machines = 2 * pair_counts.last().expect("non-empty");
    let qps = 2 * fan * pair_counts.last().expect("non-empty");
    vec![Experiment {
        id: "fig6-xxl",
        title: format!(
            "Fig 6 at fleet scale: aggregate 32 B write MOPS vs machine count \
             (up to {machines} machines / {qps} QPs, sparse lazy-page memory pool)"
        ),
        output: Output::Series { x: "machines".into(), y: "aggregate MOPS".into(), series },
        notes,
    }]
}

/// Table II: local vs remote socket memory (Intel MLC analogue).
pub fn table2() -> Vec<Experiment> {
    let (local, remote) = memmodel::table2(&HostMemConfig::default());
    let mut t = String::new();
    let _ = writeln!(t, "{:<16} {:>14} {:>16}", "Type", "Latency (ns)", "Bandwidth (GB/s)");
    let _ = writeln!(
        t,
        "{:<16} {:>14.0} {:>16.2}",
        "local socket",
        local.latency.as_ns(),
        local.bandwidth_gbs
    );
    let _ = writeln!(
        t,
        "{:<16} {:>14.0} {:>16.2}",
        "remote socket",
        remote.latency.as_ns(),
        remote.bandwidth_gbs
    );
    vec![Experiment {
        id: "table2",
        title: "Throughput/latency of local inter-socket access".into(),
        output: Output::Table(t),
        notes: vec!["paper: 92/162 ns, 3.70/2.27 GB/s".into()],
    }]
}

/// Table III: the 4×4 NUMA placement matrix for small Reads and Writes.
pub fn table3() -> Vec<Experiment> {
    let cell = |kind: &VerbKind, own_core: bool, own_lmem: bool, own_rmem: bool| {
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let src = tb.register(0, if own_lmem { 1 } else { 0 }, 1 << 16);
        let dst = tb.register(1, if own_rmem { 1 } else { 0 }, 1 << 16);
        let conn = tb.connect(
            Endpoint { machine: 0, port: 1, core_socket: if own_core { 1 } else { 0 } },
            Endpoint::affine(1, 1),
        );
        let warm = tb.post_one(SimTime::ZERO, conn, verb_wr(kind, src, dst, 64, 0));
        let c = tb.post_one(warm.at, conn, verb_wr(kind, src, dst, 64, 1));
        let lat = c.at - warm.at;
        // Window-4 closed-loop throughput.
        let kind2 = kind.clone();
        let ops = 600u64;
        let mut cl = ClosedLoop::new(4, ops, move |tb: &mut Testbed, now, i| {
            tb.post_one(now, conn, verb_wr(&kind2, src, dst, 64, i)).at
        });
        {
            let mut clients: Vec<Box<dyn Client + '_>> = vec![Box::new(&mut cl)];
            run_clients(&mut tb, &mut clients, SimTime::MAX);
        }
        let comps = cl.completions();
        let mops = simcore::mops(
            ops - ops / 5 - 1,
            *comps.last().expect("ops") - comps[(ops / 5) as usize],
        );
        (lat, mops)
    };
    let mut t = String::new();
    let _ = writeln!(
        t,
        "cells: latency(us)/throughput(MOPS); rows = requester placement, cols = responder memory"
    );
    let _ = writeln!(t, "{:<26} {:>20} {:>20}", "Read/Write", "own mem", "alt mem");
    for (row, own_core, own_lmem) in [
        ("own core own mem", true, true),
        ("own core alt mem", true, false),
        ("alt core own mem", false, true),
        ("alt core alt mem", false, false),
    ] {
        for kind in [VerbKind::Read, VerbKind::Write] {
            let (l_own, m_own) = cell(&kind, own_core, own_lmem, true);
            let (l_alt, m_alt) = cell(&kind, own_core, own_lmem, false);
            let name =
                if matches!(kind, VerbKind::Read) { row.to_string() } else { "  (write)".into() };
            let _ = writeln!(
                t,
                "{:<26} {:>12.2}/{:<7.2} {:>12.2}/{:<7.2}",
                name,
                l_own.as_us(),
                m_own,
                l_alt.as_us(),
                m_alt
            );
        }
    }
    // Best vs worst.
    let (best_l, best_m) = cell(&VerbKind::Read, true, true, true);
    let (worst_l, worst_m) = cell(&VerbKind::Read, false, false, false);
    vec![Experiment {
        id: "table3",
        title: "Throughput and latency of remote inter-socket access".into(),
        output: Output::Table(t),
        notes: vec![format!(
            "read best→worst: latency +{:.0}%, throughput −{:.0}% (paper: up to ~55%/49%; its table shows ~+31% read latency)",
            100.0 * (worst_l.as_ns() / best_l.as_ns() - 1.0),
            100.0 * (1.0 - worst_m / best_m)
        )],
    }]
}

/// Extension (§II-B2): the MR-count claim — "we use 10× MRs, the access
/// latency of 32 bytes drops about 60%" (i.e. performance degrades ~60%).
/// Register growing numbers of 4 MB MRs and write them round-robin; once
/// the combined translation footprint exceeds the MTT cache, every access
/// pays a fill.
pub fn extra_mr_scale() -> Vec<Experiment> {
    let mut s = Series::new("32B write throughput");
    let per_mr = 4u64 << 20; // 4 MB each: one MR exactly fills the MTT cache
    for &mrs in &[1usize, 2, 4, 8, 10, 16, 32] {
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let src = tb.register(0, 1, 4096);
        let regions: Vec<MrId> = (0..mrs).map(|_| tb.register_unbacked(1, 1, per_mr)).collect();
        let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        let mut rng = SimRng::new(5);
        let ops = 6000u64;
        let mut cl = ClosedLoop::new(8, ops, move |tb: &mut Testbed, now, i| {
            let mr = regions[(i % mrs as u64) as usize];
            let off = rng.gen_range(per_mr / 32) * 32;
            tb.post_one(
                now,
                conn,
                WorkRequest::write(i, Sge::new(src, 0, 32), RKey(mr.0 as u64), off),
            )
            .at
        });
        {
            let mut clients: Vec<Box<dyn Client + '_>> = vec![Box::new(&mut cl)];
            run_clients(&mut tb, &mut clients, SimTime::MAX);
        }
        let comps = cl.completions();
        let skip = (ops / 2) as usize;
        s.push(mrs as f64, simcore::mops(ops / 2 - 1, *comps.last().expect("ops") - comps[skip]));
    }
    let one = s.y_at(1.0).expect("1 MR");
    let ten = s.y_at(10.0).expect("10 MRs");
    vec![Experiment {
        id: "extra-mr-scale",
        title: "§II-B2 extension: 32 B write throughput vs registered MR count (4 MB each)".into(),
        output: Output::Series { x: "MRs".into(), y: "MOPS".into(), series: vec![s] },
        notes: vec![format!(
            "paper: 10x MRs degrade 32 B access performance by ~60%; measured -{:.0}%",
            100.0 * (1.0 - ten / one)
        )],
    }]
}

/// Extension (§II-B2): the QP-count claim — Chen et al. observe ~50%
/// throughput loss as clients grow past the NIC's QP-context capacity.
/// RC needs a QP per client; UD shares one datagram QP per port and
/// sidesteps the cliff entirely (the FaSST argument cited in §III-E).
pub fn extra_qp_scale() -> Vec<Experiment> {
    let sweep = |transport: cluster::Transport| {
        let label = match transport {
            cluster::Transport::Ud => "UD sends (one server QP)",
            _ => "RC writes (one QP per client)",
        };
        let mut s = Series::new(label);
        for &clients in &[32usize, 64, 128, 192, 256, 320, 448] {
            let mut tb = Testbed::new(ClusterConfig::default());
            let dst = tb.register_unbacked(7, 1, 1 << 20);
            let ops_per = 150u64;
            let mut loops = Vec::new();
            for cl in 0..clients {
                let machine = cl % 7;
                let src = tb.register(machine, 1, 4096);
                let conn = tb.connect_with(
                    Endpoint::affine(machine, 1),
                    Endpoint::affine(7, 1),
                    transport,
                );
                let rkey = RKey(dst.0 as u64);
                let off = (cl as u64 * 64) % (1 << 19);
                let mut wr = WorkRequest {
                    wr_id: WrId(0),
                    kind: match transport {
                        cluster::Transport::Ud => VerbKind::Send,
                        _ => VerbKind::Write,
                    },
                    sgl: Sge::new(src, 0, 32).into(),
                    remote: Some((rkey, off)),
                    signaled: true,
                };
                loops.push(ClosedLoop::new(1, ops_per, move |tb: &mut Testbed, now, i| {
                    wr.wr_id = WrId(i);
                    tb.post_one_ref(now, conn, &wr).at
                }));
            }
            let mut actors: Vec<Box<dyn Client + '_>> =
                loops.iter_mut().map(|c| Box::new(c) as _).collect();
            let makespan = run_clients(&mut tb, &mut actors, SimTime::MAX);
            drop(actors);
            s.push(clients as f64, simcore::mops(clients as u64 * ops_per, makespan));
        }
        s
    };
    let rc = sweep(cluster::Transport::Rc);
    let ud = sweep(cluster::Transport::Ud);
    let before = rc.y_at(192.0).expect("192");
    let after = rc.y_at(320.0).expect("320");
    let ud_after = ud.y_at(320.0).expect("320");
    vec![Experiment {
        id: "extra-qp-scale",
        title: "§II-B2 extension: server throughput vs client (QP) count".into(),
        output: Output::Series { x: "clients".into(), y: "MOPS".into(), series: vec![rc, ud] },
        notes: vec![
            format!(
                "Chen et al. [7] see ~50% loss past their NIC's QP-context capacity; ours holds \
                 256 contexts, so the RC cliff lands between 256 and 320 clients: {:.0}% loss",
                100.0 * (1.0 - after / before)
            ),
            format!(
                "UD shares one datagram QP and keeps {ud_after:.1} MOPS at 320 clients — the \
                 FaSST argument the paper cites in §III-E"
            ),
            "UD CQEs are local send completions; offered load beyond the responder pipeline \
             (~9 MOPS/port) would be dropped by a real NIC, not delivered"
                .into(),
        ],
    }]
}

/// Extension (related work [17], Frey & Alonso): memory registration is
/// the hidden cost of RDMA. (a) registration latency vs region size;
/// (b) a 4 KB transfer that registers its buffer on the IO path vs one
/// using a pre-registered pool.
pub fn extra_reg_cost() -> Vec<Experiment> {
    let mut reg = Series::new("registration latency");
    for (xi, bytes) in
        [(0.0, 4u64 << 10), (1.0, 64 << 10), (2.0, 1 << 20), (3.0, 16 << 20), (4.0, 64 << 20)]
    {
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let (_, done) = tb.register_timed(SimTime::ZERO, 0, 1, bytes);
        reg.push(xi, done.as_us());
    }

    // On-path registration vs pre-registered pool for a 4 KB write.
    let mut tb = Testbed::new(ClusterConfig::two_machines());
    let dst = tb.register_unbacked(1, 1, 1 << 20);
    let pool = tb.register(0, 1, 4096);
    let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
    let warm = tb.post_one(
        SimTime::ZERO,
        conn,
        WorkRequest::write(0, Sge::new(pool, 0, 4096), RKey(dst.0 as u64), 0),
    );
    // Pre-registered: just the transfer.
    let pre = tb.post_one(
        warm.at,
        conn,
        WorkRequest::write(1, Sge::new(pool, 0, 4096), RKey(dst.0 as u64), 0),
    );
    let pre_lat = pre.at - warm.at;
    // On-path: register, transfer, deregister (the naive pattern).
    let t0 = pre.at;
    let (buf, ready) = tb.register_timed(t0, 0, 1, 4096);
    let c = tb.post_one(
        ready,
        conn,
        WorkRequest::write(2, Sge::new(buf, 0, 4096), RKey(dst.0 as u64), 0),
    );
    let done = tb.deregister_timed(c.at, 0, buf);
    let onpath_lat = done - t0;

    let mut cmp = Series::new("4 KB write latency");
    cmp.push(0.0, pre_lat.as_us());
    cmp.push(1.0, onpath_lat.as_us());
    vec![
        Experiment {
            id: "extra-reg-cost",
            title: "Related-work [17] extension: registration latency vs region size \
                    (x: 4K,64K,1M,16M,64M)"
                .into(),
            output: Output::Series {
                x: "size-idx".into(),
                y: "latency(us)".into(),
                series: vec![reg],
            },
            notes: vec!["pinning is per-page: registration cost scales with region size".into()],
        },
        Experiment {
            id: "extra-reg-path",
            title: "Related-work [17] extension: pre-registered pool vs register-on-IO-path \
                    (x: 0 = pooled, 1 = on-path) for one 4 KB write"
                .into(),
            output: Output::Series { x: "mode".into(), y: "latency(us)".into(), series: vec![cmp] },
            notes: vec![format!(
                "registering on the IO path costs {:.1}x the pooled transfer — why every system \
                 in the paper pre-registers",
                onpath_lat.as_ns() / pre_lat.as_ns()
            )],
        },
    ]
}
