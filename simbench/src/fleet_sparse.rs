//! fleet-sparse: thousands of machines in writer pairs, a QP fan per pair,
//! and one large *backed* region per machine that only the sparse
//! lazy-page pool makes affordable. Each pair runs a closed loop of small
//! writes, once at random offsets and once sequentially, each on a fresh
//! testbed. This is the workload where cluster set-up and teardown are
//! visible and the heap is large; its random pattern misses the MTT cache
//! on nearly every op while the sequential one hits, so a host-speed
//! change that tracks MTT behaviour instead of host work shows here.

use crate::check::Fnv;
use crate::trace::{self, Phase, Stepped};
use crate::workload::{Ctx, Sample};
use cluster::{run_clients_sharded, ClosedLoop, ClusterConfig, ConnId, Endpoint, Pinned, Testbed};
use rnicsim::{MrId, RKey, Sge, VerbKind, WorkRequest, WrId};
use simcore::{opcount, SimRng, SimTime};
use std::time::Instant;

const NAME: &str = "fleet-sparse";

struct Size {
    pairs: usize,
    /// RC connections per pair; ops round-robin over them.
    fan: usize,
    /// Closed-loop writes per pair.
    ops: u64,
    /// Backed region bytes per machine.
    region: u64,
}

const FULL: Size = Size { pairs: 1024, fan: 6, ops: 512, region: 256 << 20 };
const QUICK: Size = Size { pairs: 8, fan: 2, ops: 64, region: 4 << 20 };

const PAYLOAD: u64 = 32;
const WINDOW: usize = 8;

/// One repeat: the random fleet, then the sequential one.
pub fn repeat(ctx: &mut Ctx) -> Sample {
    let size = if ctx.quick { QUICK } else { FULL };
    let mut s = Sample::default();
    let (mut resident, mut dense) = (0u64, 0u64);
    for (config, seq) in [("rand", false), ("seq", true)] {
        let (r, d) = fleet(ctx, &size, config, seq, &mut s);
        resident += r;
        dense += d;
    }
    s.add("cluster.resident_mib", resident as f64 / f64::from(1 << 20));
    s.add("cluster.sparse_ratio", resident as f64 / dense as f64);
    s
}

/// Build, run, check and drop one fleet; returns (resident, dense) bytes.
fn fleet(
    ctx: &mut Ctx,
    size: &Size,
    config: &'static str,
    seq: bool,
    s: &mut Sample,
) -> (u64, u64) {
    let fleet_span = Phase::start(config);
    let setup = Phase::start("setup");
    let p = Phase::start("cluster.testbed_new");
    let mut tb = Testbed::new(ClusterConfig { machines: 2 * size.pairs, ..Default::default() });
    s.add("cluster.testbed_new_s", p.stop());

    // A nonzero, seed-derived head on every source region: the first
    // sequential writes carry real bytes and materialize one destination
    // page; every other write gathers zeros, which the pool elides.
    let mut head_rng = SimRng::new(ctx.seed).split(u64::MAX);
    let head: Vec<u8> =
        (0..PAYLOAD / 8).flat_map(|_| (head_rng.next_u64() | 1).to_le_bytes()).collect();
    let p = Phase::start("cluster.register");
    let regions: Vec<(MrId, MrId)> = (0..size.pairs)
        .map(|pair| {
            let (a, b) = (2 * pair, 2 * pair + 1);
            let src = tb.register(a, 1, size.region);
            let dst = tb.register(b, 1, size.region);
            tb.machine_mut(a).mem.write(src, 0, &head);
            (src, dst)
        })
        .collect();
    s.add("cluster.register_s", p.stop());
    let p = Phase::start("cluster.connect");
    let conns: Vec<Vec<ConnId>> = (0..size.pairs)
        .map(|pair| {
            let (a, b) = (Endpoint::affine(2 * pair, 1), Endpoint::affine(2 * pair + 1, 1));
            (0..size.fan).map(|_| tb.connect(a, b)).collect()
        })
        .collect();
    s.add("cluster.connect_s", p.stop());
    s.setup_s += setup.stop();

    let traced = trace::on();
    let ops_before = opcount::current();
    let run = Phase::start("run");
    let slots = size.region / PAYLOAD;
    let mut loops: Vec<_> = regions
        .iter()
        .zip(&conns)
        .enumerate()
        .map(|(pair, (&(src, dst), conns))| {
            let conns = conns.clone();
            let mut rng = SimRng::new(ctx.seed).split(pair as u64);
            let mut wr = WorkRequest {
                wr_id: WrId(0),
                kind: VerbKind::Write,
                sgl: Sge::new(src, 0, PAYLOAD).into(),
                remote: Some((RKey(u64::from(dst.0)), 0)),
                signaled: true,
            };
            ClosedLoop::new(WINDOW, size.ops, move |tb: &mut Testbed, now, i| {
                let (l_off, r_off) = if seq {
                    ((i % slots) * PAYLOAD, (i % slots) * PAYLOAD)
                } else {
                    (rng.gen_range(slots) * PAYLOAD, rng.gen_range(slots) * PAYLOAD)
                };
                wr.wr_id = WrId(i);
                wr.sgl = Sge::new(src, l_off, PAYLOAD).into();
                wr.remote = Some((RKey(u64::from(dst.0)), r_off));
                let conn = conns[(i % conns.len() as u64) as usize];
                if traced {
                    let t = Instant::now();
                    let at = tb.post_one_ref(now, conn, &wr).at;
                    trace::post_done(t);
                    at
                } else {
                    tb.post_one_ref(now, conn, &wr).at
                }
            })
        })
        .collect();
    {
        let mut pinned: Vec<Pinned<'_>> = loops
            .iter_mut()
            .enumerate()
            .map(|(pair, cl)| {
                if traced {
                    Pinned::new(2 * pair, Stepped::new(cl, |c| c.completions().len() as u64))
                } else {
                    Pinned::new(2 * pair, cl)
                }
            })
            .collect();
        run_clients_sharded(&mut tb, &mut pinned, 1, SimTime::MAX);
    }
    let run_s = run.stop();
    s.run_s += run_s;
    s.sim_ops += opcount::current() - ops_before;
    if traced {
        s.add_counters(trace::take_counters(), run_s, "cluster.driver_s");
    }

    // Output checks: the fold of every machine's resident-page digest and
    // every completion time, and the sparsity the fleet exists to prove.
    let (mut resident, mut dense, mut digest) = (0u64, 0u64, Fnv::default());
    for (pair, &(src, dst)) in regions.iter().enumerate() {
        for (m, mr) in [(2 * pair, src), (2 * pair + 1, dst)] {
            let mem = &tb.machine(m).mem;
            resident += mem.resident_bytes();
            dense += mem.dense_bytes();
            digest.eat(mem.resident_digest(mr));
        }
    }
    let mut completed = 0u64;
    for cl in &loops {
        completed += cl.completions().len() as u64;
        for at in cl.completions() {
            digest.eat(at.as_ps());
        }
    }
    let issued = size.pairs as u64 * size.ops;
    ctx.check.holds(
        &format!("{NAME} {config}: {completed} of {issued} ops completed"),
        completed == issued,
    );
    ctx.check.holds(
        &format!("{NAME} {config}: resident {resident} x 5 <= dense {dense}"),
        resident * 5 <= dense,
    );
    ctx.check.digest(NAME, config, digest.value());
    s.add_nic_caches(&tb);

    let teardown = Phase::start("teardown");
    drop(loops);
    drop(tb);
    let t = teardown.stop();
    s.teardown_s += t;
    s.add("cluster.teardown_s", t);
    fleet_span.stop();
    (resident, dense)
}
