//! Pinned-client runtime: one connected component at a time.
//!
//! [`run_clients_sharded`] drives clients [`Pinned`] to their home
//! machines. Machines joined by any connection form a *component*, and
//! clients in different components share no machine, connection, or
//! memory, so their relative order is unobservable. The runtime therefore
//! steps each component to completion on its own event queue, one after
//! another. The single-queue [`run_clients`](crate::run_clients)
//! interleaving restricted to one component is that component's own push
//! order, so the result is byte-identical; and one component's port
//! calendars, MTT/QPC caches and slot tables stay hot while it runs,
//! instead of a round-robin over the whole cluster.
//!
//! At one shard the components run on the calling thread against the
//! whole testbed. At more, whole components are dealt to shards by
//! client weight, `Testbed::split_shards` moves each shard's machines
//! into a sub-testbed, and scoped threads run their shards' components in
//! turn; per-thread [`opcount`] deltas fold back in thread order. Either
//! way a verb that reaches outside the component being stepped panics
//! (see `Testbed::post_into`) rather than silently reordering effects.

use crate::engine::{drive_steps, Client};
use crate::testbed::Testbed;
use simcore::{opcount, EventQueue, SimTime};

/// A client pinned to its home machine — the runtime needs to know
/// where each client's issuing CPU lives.
pub struct Pinned<'a> {
    /// Machine whose CPU runs this client.
    pub machine: usize,
    /// The client itself; `Send` so a shard thread can step it.
    pub client: Box<dyn Client + Send + 'a>,
}

impl<'a> Pinned<'a> {
    /// Pin `client` to `machine`.
    pub fn new(machine: usize, client: impl Client + Send + 'a) -> Self {
        Pinned { machine, client: Box::new(client) }
    }
}

/// The connected component of every machine: machines joined by any
/// connection share an id. Ids are dense and numbered in order of each
/// component's smallest machine, so they are a pure function of the
/// wiring.
pub(crate) fn components(tb: &Testbed) -> Vec<u32> {
    let n = tb.machine_count();
    // Union-find, rooted at the smallest index of each component.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for c in 0..tb.conn_count() {
        let id = crate::ConnId(c as u32);
        let a = find(&mut parent, tb.client_of(id).machine);
        let b = find(&mut parent, tb.server_of(id).machine);
        if a != b {
            parent[a.max(b)] = a.min(b);
        }
    }
    // A root precedes every other member, so its id is always assigned
    // by the time a member asks for it.
    let mut comp = vec![0u32; n];
    let mut next = 0;
    for m in 0..n {
        let r = find(&mut parent, m);
        comp[m] = if r == m {
            next += 1;
            next - 1
        } else {
            comp[r]
        };
    }
    comp
}

/// Deal components to `shards` greedily by descending client weight
/// (least-loaded shard first; every tie broken by index, so the deal is
/// deterministic). Returns the shard of each component.
fn deal(weight: &[u64], shards: usize) -> Vec<usize> {
    let mut by_weight: Vec<usize> = (0..weight.len()).collect();
    // Stable: equal weights keep component order.
    by_weight.sort_by_key(|&c| std::cmp::Reverse(weight[c]));
    let mut load = vec![0u64; shards.max(1)];
    let mut shard = vec![0usize; weight.len()];
    for c in by_weight {
        let s = (0..load.len()).min_by_key(|&s| (load[s], s)).expect("at least one shard");
        load[s] += weight[c];
        shard[c] = s;
    }
    shard
}

/// Client weight of each component: how many of `homes` it holds.
fn weights(comp: &[u32], homes: impl Iterator<Item = usize>) -> Vec<u64> {
    let mut weight = vec![0u64; comp.iter().max().map_or(0, |&c| c as usize + 1)];
    for h in homes {
        weight[comp[h] as usize] += 1;
    }
    weight
}

/// One component's clients, by component id, in global order.
type Group<'s, 'p, 'a> = (u32, &'s mut [&'p mut Pinned<'a>]);

/// Drive `clients` against `tb` until all finish or `deadline` passes;
/// returns the last time any client was stepped. Byte-identical to
/// [`run_clients`](crate::run_clients) at every shard count: each
/// connected component runs to completion on its own queue, serially at
/// one shard and on up to `shards` scoped threads above that.
pub fn run_clients_sharded(
    tb: &mut Testbed,
    clients: &mut [Pinned<'_>],
    shards: usize,
    deadline: SimTime,
) -> SimTime {
    if clients.is_empty() {
        return SimTime::ZERO;
    }
    let comp = components(tb);
    let weight = weights(&comp, clients.iter().map(|p| p.machine));

    // One counting sort groups the clients by component into a flat
    // array, keeping global order inside each group, so same-time ties
    // step in the same relative order as on the single queue.
    let mut next = Vec::with_capacity(weight.len());
    let mut at = 0;
    for &w in &weight {
        next.push(at);
        at += w as usize;
    }
    let mut slots: Vec<Option<&mut Pinned<'_>>> = clients.iter().map(|_| None).collect();
    for p in clients.iter_mut() {
        let c = comp[p.machine] as usize;
        slots[next[c]] = Some(p);
        next[c] += 1;
    }
    let mut flat: Vec<&mut Pinned<'_>> =
        slots.into_iter().map(|p| p.expect("every client has a slot")).collect();
    let mut groups: Vec<Group<'_, '_, '_>> = Vec::with_capacity(weight.len());
    let mut rest = &mut flat[..];
    for (c, &w) in weight.iter().enumerate().filter(|&(_, &w)| w > 0) {
        let (group, tail) = std::mem::take(&mut rest).split_at_mut(w as usize);
        rest = tail;
        groups.push((c as u32, group));
    }

    // More shards than busy components would only idle.
    let shards = shards.clamp(1, groups.len());
    let last = if shards == 1 {
        tb.guard_components(comp);
        run_components(tb, &mut EventQueue::new(), &mut groups, deadline)
    } else {
        run_threaded(tb, comp, &weight, groups, shards, deadline)
    };
    tb.guard_components(Vec::new());
    last
}

/// Deal whole components to `shards` sub-testbeds and run each shard's
/// components on scoped threads; fold op counts and machine state back.
fn run_threaded(
    tb: &mut Testbed,
    comp: Vec<u32>,
    weight: &[u64],
    groups: Vec<Group<'_, '_, '_>>,
    shards: usize,
    deadline: SimTime,
) -> SimTime {
    let shard_of = deal(weight, shards);
    let owner: Vec<usize> = comp.iter().map(|&c| shard_of[c as usize]).collect();
    tb.guard_components(comp);
    let mut work: Vec<(Testbed, Vec<Group<'_, '_, '_>>)> =
        tb.split_shards(&owner, shards).into_iter().map(|sub| (sub, Vec::new())).collect();
    for g in groups {
        work[shard_of[g.0 as usize]].1.push(g);
    }
    // One OS thread per shard churns the scheduler when shards outnumber
    // cores; chunk shards across at most the available cores, each
    // thread running its shards' components in turn on one queue.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let per = shards.div_ceil(cores.min(shards));
    let mut last = SimTime::ZERO;
    let mut deltas = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .chunks_mut(per)
            .map(|chunk| {
                scope.spawn(move || {
                    let before = opcount::current();
                    let mut q = EventQueue::new();
                    let mut last = SimTime::ZERO;
                    for (tb, groups) in chunk.iter_mut() {
                        last = last.max(run_components(tb, &mut q, groups, deadline));
                    }
                    (last, opcount::current() - before)
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok((l, ops)) => {
                    last = last.max(l);
                    deltas.push(ops);
                }
                // Re-raise the worker's own panic payload so callers (and
                // #[should_panic] tests) see the original message.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    opcount::fold_shards(&deltas);
    tb.absorb_shards(work.into_iter().map(|(sub, _)| sub).collect(), &owner);
    last
}

/// Step each component to completion in turn, with `tb`'s guard confined
/// to it. `q` serves them all, cleared back to time zero in between.
/// Returns the last time any client was stepped.
fn run_components(
    tb: &mut Testbed,
    q: &mut EventQueue<usize>,
    groups: &mut [Group<'_, '_, '_>],
    deadline: SimTime,
) -> SimTime {
    let mut last = SimTime::ZERO;
    for (c, clients) in groups.iter_mut() {
        tb.set_stepping(*c);
        q.clear();
        for i in 0..clients.len() {
            q.push(SimTime::ZERO, i);
        }
        drive_steps(tb, q, deadline, &mut last, &mut |tb, now, i| clients[i].client.step(now, tb));
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::engine::{ClosedLoop, Step};
    use crate::testbed::Endpoint;
    use crate::ConnId;
    use rnicsim::{MrId, RKey, Sge, VerbKind, WorkRequest, WrId};
    use simcore::SimRng;

    /// Everything a run leaves observable: per-client completions, every
    /// machine's memory image, every machine's MTT/QPC counters, the
    /// opcount delta, and the engine's `last`.
    type Observed = (Vec<Vec<SimTime>>, Vec<Vec<u8>>, Vec<((u64, u64), (u64, u64))>, u64, SimTime);

    /// A seeded, uneven multi-component mix: 3–6 components of 1–3 machine
    /// pairs each (chained by connections, so one component spans several
    /// machines), each hosting 1–4 closed loops of mixed read/write/FAA
    /// traffic with window 8 and uneven op counts. Every client starts at
    /// t = 0, so components with several clients tie there. `shards: None`
    /// drives the single-queue `run_clients` reference.
    fn run_mix(seed: u64, shards: Option<usize>, deadline: SimTime) -> Observed {
        let mut rng = SimRng::new(seed);
        let comps = 3 + rng.gen_range(4) as usize;
        let sizes: Vec<usize> = (0..comps).map(|_| 1 + rng.gen_range(3) as usize).collect();
        let machines = 2 * sizes.iter().sum::<usize>();
        let mut tb = Testbed::new(ClusterConfig { machines, ..Default::default() });
        // Per client: home machine, its component's legs, and its op count.
        type Leg = (MrId, MrId, ConnId);
        let mut plans: Vec<(usize, Vec<Leg>, u64)> = Vec::new();
        let mut mrs = Vec::new();
        let mut base = 0;
        for &pairs in &sizes {
            let mut legs = Vec::new();
            for p in 0..pairs {
                let (a, b) = (base + 2 * p, base + 2 * p + 1);
                let src = tb.register(a, 1, 1 << 14);
                let dst = tb.register(b, 1, 1 << 14);
                for i in 0..32u64 {
                    tb.machine_mut(a).mem.store_u64(src, i * 8, (seed ^ a as u64).wrapping_mul(i));
                }
                legs.push((src, dst, tb.connect(Endpoint::affine(a, 1), Endpoint::affine(b, 1))));
                if p > 0 {
                    // Chain this pair to the previous one: same component.
                    let prev = base + 2 * p - 2;
                    let back = tb.register(prev, 0, 1 << 14);
                    let fwd = tb.register(b, 0, 1 << 14);
                    legs.push((
                        fwd,
                        back,
                        tb.connect(Endpoint::affine(b, 0), Endpoint::affine(prev, 0)),
                    ));
                    mrs.push((prev, back));
                    mrs.push((b, fwd));
                }
                mrs.push((a, src));
                mrs.push((b, dst));
            }
            for _ in 0..1 + rng.gen_range(4) {
                let home = base + rng.gen_range(2 * pairs as u64) as usize;
                plans.push((home, legs.clone(), 20 + rng.gen_range(100)));
            }
            base += 2 * pairs;
        }
        let mut loops: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, (_, legs, ops))| {
                let legs = legs.clone();
                let mut rng = SimRng::new(seed).split(c as u64);
                ClosedLoop::new(8, *ops, move |tb: &mut Testbed, now: SimTime, i: u64| {
                    let (src, dst, conn) = legs[rng.gen_range(legs.len() as u64) as usize];
                    let off = rng.gen_range(64) * 8;
                    let wr = match rng.gen_range(3) {
                        0 => WorkRequest::write(i, Sge::new(src, off, 32), RKey(dst.0 as u64), off),
                        1 => WorkRequest::read(i, Sge::new(src, off, 32), RKey(dst.0 as u64), off),
                        _ => WorkRequest {
                            wr_id: WrId(i),
                            kind: VerbKind::FetchAdd { delta: i + 1 },
                            sgl: Sge::new(src, 0, 8).into(),
                            remote: Some((RKey(dst.0 as u64), 1024)),
                            signaled: true,
                        },
                    };
                    tb.post_one(now, conn, wr).at
                })
            })
            .collect();
        let before = opcount::current();
        let last = match shards {
            Some(shards) => {
                let mut pinned: Vec<Pinned<'_>> = loops
                    .iter_mut()
                    .zip(&plans)
                    .map(|(cl, (home, _, _))| Pinned::new(*home, cl))
                    .collect();
                run_clients_sharded(&mut tb, &mut pinned, shards, deadline)
            }
            None => {
                let mut boxed: Vec<Box<dyn Client + '_>> =
                    loops.iter_mut().map(|cl| Box::new(cl) as Box<dyn Client + '_>).collect();
                crate::run_clients(&mut tb, &mut boxed, deadline)
            }
        };
        let ops = opcount::current() - before;
        let completions = loops.iter().map(|cl| cl.completions().to_vec()).collect();
        let mems = mrs.iter().map(|&(m, mr)| tb.machine(m).mem.read(mr, 0, 1 << 14)).collect();
        let stats = (0..machines)
            .map(|m| (tb.machine(m).rnic.mtt.stats(), tb.machine(m).rnic.qpc.stats()))
            .collect();
        (completions, mems, stats, ops, last)
    }

    /// The component fan-out, serial or threaded, against the single-queue
    /// interleaving it replaces: run to completion and cut mid-run by a
    /// deadline.
    #[test]
    fn sharded_matches_serial_byte_for_byte() {
        for seed in 0..6u64 {
            let full = run_mix(seed, None, SimTime::MAX);
            let cut = SimTime::from_ps(full.4.as_ps() / 2);
            for deadline in [SimTime::MAX, cut] {
                let reference = run_mix(seed, None, deadline);
                if deadline == cut {
                    assert!(reference.3 < full.3, "seed {seed}: the deadline must cut the run");
                }
                for shards in [1, 2, 5] {
                    let run = run_mix(seed, Some(shards), deadline);
                    let at = format!("seed {seed}, {shards} shards, deadline {deadline}");
                    assert_eq!(reference.0, run.0, "completions diverged at {at}");
                    assert_eq!(reference.1, run.1, "memory diverged at {at}");
                    assert_eq!(reference.2, run.2, "MTT/QPC counters diverged at {at}");
                    assert_eq!(reference.3, run.3, "opcount diverged at {at}");
                    assert_eq!(reference.4, run.4, "engine last diverged at {at}");
                }
            }
        }
    }

    #[test]
    fn sharded_oracle_reports_identical_races() {
        // Two independent machine pairs; each pair runs *two* connections
        // (one component) whose writes overlap while in flight, so the
        // dynamic race oracle records real races inside every shard. The
        // oracle state lives in the machines and migrates across the
        // split/absorb cycle — a sharded run must report byte-identical
        // races to a serial one.
        let run = |shards: usize| -> Vec<crate::oracle::Race> {
            let mut tb = Testbed::new(ClusterConfig { machines: 4, ..Default::default() });
            tb.set_checked(true);
            let mut setups = Vec::new();
            for p in 0..2usize {
                let (a, b) = (2 * p, 2 * p + 1);
                let src = tb.register(a, 1, 1 << 16);
                let dst = tb.register(b, 1, 1 << 16);
                let c0 = tb.connect(Endpoint::affine(a, 1), Endpoint::affine(b, 1));
                let c1 = tb.connect(Endpoint::affine(a, 1), Endpoint::affine(b, 1));
                setups.push((src, dst, c0, c1));
            }
            let mut loops: Vec<_> = setups
                .iter()
                .map(|&(src, dst, c0, c1)| {
                    ClosedLoop::new(4, 16, move |tb: &mut Testbed, now: SimTime, i: u64| {
                        // Alternate connections; strided 64-byte writes
                        // overlap their neighbours on the other conn.
                        let conn = if i.is_multiple_of(2) { c0 } else { c1 };
                        let off = (i % 8) * 32;
                        let wr =
                            WorkRequest::write(i, Sge::new(src, off, 64), RKey(dst.0 as u64), off);
                        tb.post_one(now, conn, wr).at
                    })
                })
                .collect();
            {
                let mut pinned: Vec<Pinned<'_>> =
                    loops.iter_mut().enumerate().map(|(p, cl)| Pinned::new(2 * p, cl)).collect();
                run_clients_sharded(&mut tb, &mut pinned, shards, SimTime::MAX);
            }
            tb.take_races()
        };
        let serial = run(1);
        assert!(!serial.is_empty(), "fixture must observe real dynamic races");
        assert_eq!(serial, run(2), "sharded oracle diverged from serial");
    }

    #[test]
    fn colocated_connections_share_a_shard() {
        let mut tb = Testbed::new(ClusterConfig { machines: 5, ..Default::default() });
        // Chain 0-1-2 is one component; pair 3-4 another.
        tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        tb.connect(Endpoint::affine(1, 0), Endpoint::affine(2, 0));
        tb.connect(Endpoint::affine(3, 1), Endpoint::affine(4, 1));
        let comp = components(&tb);
        assert_eq!(comp, vec![0, 0, 0, 1, 1]);
        let shard = deal(&weights(&comp, [0, 1, 3].into_iter()), 2);
        let owner: Vec<usize> = comp.iter().map(|&c| shard[c as usize]).collect();
        assert_eq!(owner[0], owner[1]);
        assert_eq!(owner[1], owner[2]);
        assert_eq!(owner[3], owner[4]);
        assert_ne!(owner[0], owner[3], "independent components spread across shards");
    }

    /// Two components, {0,1} and {2,3}, with a client homed on each; the
    /// machine-0 client posts on the {2,3} connection.
    fn escape_component(shards: usize) {
        let mut tb = Testbed::new(ClusterConfig { machines: 4, ..Default::default() });
        let src = tb.register(2, 1, 4096);
        let dst = tb.register(3, 1, 4096);
        let _near = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        let far = tb.connect(Endpoint::affine(2, 1), Endpoint::affine(3, 1));
        struct Misbehaving {
            conn: ConnId,
            src: MrId,
            dst: MrId,
        }
        impl Client for Misbehaving {
            fn step(&mut self, now: SimTime, tb: &mut Testbed) -> Step {
                let wr =
                    WorkRequest::write(0, Sge::new(self.src, 0, 8), RKey(self.dst.0 as u64), 0);
                tb.post_one(now, self.conn, wr);
                Step::Done
            }
        }
        struct Idle;
        impl Client for Idle {
            fn step(&mut self, _now: SimTime, _tb: &mut Testbed) -> Step {
                Step::Done
            }
        }
        let mut bad = Misbehaving { conn: far, src, dst };
        let mut idle = Idle;
        let mut pinned = vec![Pinned::new(0, &mut bad), Pinned::new(2, &mut idle)];
        run_clients_sharded(&mut tb, &mut pinned, shards, SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "outside component")]
    fn foreign_post_panics() {
        escape_component(2);
    }

    #[test]
    #[should_panic(expected = "outside component")]
    fn foreign_post_panics_serially_too() {
        escape_component(1);
    }

    #[test]
    fn single_component_falls_back_to_serial() {
        // All clients in one component: the sharded entry point must take
        // the serial path (and still agree with run_clients exactly).
        let build = |tb: &mut Testbed| {
            let src = tb.register(0, 1, 4096);
            let dst = tb.register(1, 1, 4096);
            let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
            (src, dst, conn)
        };
        let mk_loop = |src: MrId, dst: MrId, conn: ConnId| {
            ClosedLoop::new(2, 40, move |tb: &mut Testbed, now: SimTime, i: u64| {
                let off = (i % 64) * 8;
                tb.post_one(
                    now,
                    conn,
                    WorkRequest::write(i, Sge::new(src, off, 16), RKey(dst.0 as u64), off),
                )
                .at
            })
        };
        let mut tb_a = Testbed::new(ClusterConfig::two_machines());
        let (src, dst, conn) = build(&mut tb_a);
        let mut cl_a = mk_loop(src, dst, conn);
        {
            let mut pinned = vec![Pinned::new(0, &mut cl_a)];
            run_clients_sharded(&mut tb_a, &mut pinned, 8, SimTime::MAX);
        }
        let mut tb_b = Testbed::new(ClusterConfig::two_machines());
        let (src, dst, conn) = build(&mut tb_b);
        let mut cl_b = mk_loop(src, dst, conn);
        {
            let mut clients: Vec<Box<dyn Client + '_>> = vec![Box::new(&mut cl_b)];
            crate::run_clients(&mut tb_b, &mut clients, SimTime::MAX);
        }
        assert_eq!(cl_a.completions(), cl_b.completions());
    }
}
