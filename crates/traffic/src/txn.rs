//! Open-loop transactional traffic over the multi-tenant txn service.
//!
//! Where [`engine`](crate::engine) drives the case-study apps directly,
//! this module drives them *through* the transactional service layer:
//! each pod hosts one [`TxnService`] whose tenants issue app-shaped
//! [`TxnRequest`] streams (hashtable RMW, shuffle puts, join snapshots,
//! dlog shared-tail bumps) at Poisson or bursty open-loop rates.
//!
//! The sweep axes are the contention story the subsystem exists to
//! measure: tenant count × conflict rate × lock hold time, per
//! concurrency-control mode, plus an *aggressor* multiplier for the
//! fairness experiment — tenant 0's arrival rate is scaled by
//! `aggressor` while the victims keep the base rate, and per-tenant p99
//! shows whether the scheduler bounds the victims' inflation.
//!
//! Determinism matches the rest of the stack: arrivals and requests are
//! drawn at admission from the same split RNG streams, pods are
//! connection-disjoint, and per-tenant stats fold in (pod, tenant)
//! order, so serial and `--shards N` runs are byte-identical.

use crate::arrivals::{ArrivalGen, ArrivalProcess};
use crate::sweep::{find_knee_with, Knee, SweepPoint};
use cluster::{ClusterConfig, Pinned, Testbed};
use simcore::{LatencyHistogram, SimRng, SimTime};
use txn::{
    build_pod, gen_request, Concurrency, ConflictGeometry, Scheduler, ServiceConfig, TenantSpec,
    TenantStats, TxnProfile, TxnService, TxnStats,
};

/// Everything one transactional traffic run needs.
#[derive(Clone, Debug)]
pub struct TxnTrafficConfig {
    /// Request shape the tenants issue.
    pub profile: TxnProfile,
    /// Concurrency-control mode.
    pub concurrency: Concurrency,
    /// QP-pool scheduling discipline.
    pub scheduler: Scheduler,
    /// Aggregate offered transaction load across all pods, in MTPS
    /// (million transactions per second — the txn analogue of MOPS).
    pub offered_mops: f64,
    /// Transactions per tenant (fixed count ⇒ deterministic end).
    pub ops_per_tenant: u64,
    /// Connection-disjoint pods (2 machines each); pods shard.
    pub pods: usize,
    /// Tenants per pod's service.
    pub tenants: usize,
    /// QP slots per pod's service.
    pub qps: usize,
    /// Per-tenant in-flight quota.
    pub quota: usize,
    /// Records per pod table.
    pub records: u64,
    /// Shared hot records (conflict targets).
    pub hot: u64,
    /// Probability an op targets the hot set.
    pub conflict: f64,
    /// Lock hold time: local compute between read and lock/write phases.
    pub hold: SimTime,
    /// Tenant 0's arrival-rate multiplier (1.0 = no aggressor).
    pub aggressor: f64,
    /// Bursty (MMPP) arrivals instead of Poisson.
    pub bursty: bool,
    /// Transactions arriving before this are excluded from histograms.
    pub warmup: SimTime,
    /// Run seed; tenant streams split from it.
    pub seed: u64,
    /// Shard count for the pinned-client run (1 = the calling thread).
    pub shards: usize,
}

impl Default for TxnTrafficConfig {
    fn default() -> Self {
        TxnTrafficConfig {
            profile: TxnProfile::Hashtable,
            concurrency: Concurrency::Optimistic,
            scheduler: Scheduler::Drr { quantum: 8 },
            offered_mops: 0.2,
            ops_per_tenant: 400,
            pods: 2,
            tenants: 4,
            qps: 4,
            quota: 2,
            records: 512,
            hot: 16,
            conflict: 0.2,
            hold: SimTime::from_ns(300),
            aggressor: 1.0,
            bursty: false,
            warmup: SimTime::from_us(50),
            seed: 42,
            shards: 1,
        }
    }
}

impl TxnTrafficConfig {
    /// Base per-tenant arrival rate in MTPS (before the aggressor
    /// multiplier; the aggressor's extra load is *on top of* the offered
    /// figure, so victims see the same base rate with and without it).
    pub fn rate_per_tenant(&self) -> f64 {
        self.offered_mops / (self.pods * self.tenants) as f64
    }
}

/// Aggregate result of one transactional traffic run.
#[derive(Clone, Debug)]
pub struct TxnReport {
    /// Offered transaction load that was requested (MTPS).
    pub offered_mops: f64,
    /// Arrival rate the drawn schedules actually realized (MTPS):
    /// post-warmup scheduled transactions over the post-warmup arrival
    /// span — the window the completion meters observe.
    pub realized_mops: f64,
    /// Committed-transaction throughput actually achieved (MTPS).
    pub achieved_mops: f64,
    /// Post-warmup transaction latency samples.
    pub ops: u64,
    /// Folded end-to-end (arrival → commit) latency distribution.
    pub hist: LatencyHistogram,
    /// Folded protocol accounting (commits, aborts by cause, retries).
    pub stats: TxnStats,
    /// Per-tenant stats folded across pods by tenant index — tenant `t`
    /// here aggregates tenant `t` of every pod.
    pub tenants: Vec<TenantStats>,
}

impl TxnReport {
    /// A quantile in microseconds (0 when the histogram is empty).
    pub fn q_us(&self, q: f64) -> f64 {
        self.hist.quantile(q).map_or(0.0, |t| t.as_us())
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.hist.mean().map_or(0.0, |t| t.as_us())
    }

    /// Per-tenant p99 in microseconds, tenant order.
    pub fn tenant_p99_us(&self) -> Vec<f64> {
        self.tenants.iter().map(|t| t.hist.quantile(0.99).map_or(0.0, |q| q.as_us())).collect()
    }

    /// Determinism token: latency buckets + abort accounting, folded in
    /// tenant order.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        eat(self.hist.digest());
        eat(self.stats.digest());
        for t in &self.tenants {
            eat(t.digest());
        }
        h
    }
}

/// Arrival times of tenant `t` of its pod, the `gidx`-th tenant counting
/// pod-major: `ops_per_tenant` gaps drawn from split stream `4000 + gidx`.
fn arrival_times(
    cfg: &TxnTrafficConfig,
    root: &SimRng,
    gidx: u64,
    t: usize,
) -> impl Iterator<Item = SimTime> + Send {
    let rate = cfg.rate_per_tenant() * if t == 0 { cfg.aggressor } else { 1.0 };
    let process = if cfg.bursty {
        ArrivalProcess::bursty(rate)
    } else {
        ArrivalProcess::Poisson { rate_mops: rate }
    };
    let mut gaps = ArrivalGen::new(process, root.split(4000 + gidx));
    let mut at = SimTime::ZERO;
    (0..cfg.ops_per_tenant).map(move |_| {
        at += gaps.next_gap();
        at
    })
}

/// Run one open-loop transactional traffic simulation.
///
/// Each tenant's schedule is drawn as the service admits it: arrival
/// gaps from split stream `4000 + g` and requests from `5000 + g`, for
/// the `g`-th tenant counting pod-major.
pub fn run_txn_traffic(cfg: &TxnTrafficConfig) -> TxnReport {
    assert!(cfg.pods >= 1 && cfg.tenants >= 1 && cfg.qps >= 1);
    assert!(cfg.offered_mops > 0.0, "offered load must be positive");
    assert!(cfg.aggressor >= 1.0, "aggressor multiplies the base rate");
    let root = SimRng::new(cfg.seed);
    let geo = ConflictGeometry {
        records: cfg.records,
        hot: cfg.hot,
        conflict: cfg.conflict,
        tenants: cfg.tenants,
    };
    let specs = (0..cfg.pods)
        .map(|pod| {
            (0..cfg.tenants)
                .map(|t| {
                    let gidx = (pod * cfg.tenants + t) as u64;
                    let (profile, mut req_rng) = (cfg.profile, root.split(5000 + gidx));
                    let schedule = arrival_times(cfg, &root, gidx, t)
                        .map(move |at| (at, gen_request(profile, &geo, t, &mut req_rng)));
                    TenantSpec { quota: cfg.quota, schedule: Box::new(schedule) }
                })
                .collect()
        })
        .collect();
    // The realized rate needs only the arrival times: replay the gap
    // streams once more rather than keep the schedules.
    let (mut sched_ops, mut sched_end) = (0u64, SimTime::ZERO);
    for gidx in 0..cfg.pods * cfg.tenants {
        for at in arrival_times(cfg, &root, gidx as u64, gidx % cfg.tenants) {
            sched_ops += u64::from(at >= cfg.warmup);
            sched_end = sched_end.max(at);
        }
    }
    run_specs(cfg, specs, simcore::mops(sched_ops, sched_end.saturating_sub(cfg.warmup)))
}

/// Run `cfg`'s pods with the given per-pod tenant specs, reporting
/// `realized_mops` as the schedules' realized arrival rate.
fn run_specs(cfg: &TxnTrafficConfig, specs: Vec<Vec<TenantSpec>>, realized_mops: f64) -> TxnReport {
    assert_eq!(specs.len(), cfg.pods, "one spec list per pod");
    let mut tb = Testbed::new(ClusterConfig { machines: cfg.pods * 2, ..Default::default() });
    let root = SimRng::new(cfg.seed);
    let svc_cfg = ServiceConfig {
        scheduler: cfg.scheduler,
        concurrency: cfg.concurrency,
        hold: cfg.hold,
        cap_reads: cfg.profile.cap_reads(),
        warmup: cfg.warmup,
        ..Default::default()
    };
    let mut setups = Vec::with_capacity(cfg.pods);
    let mut services = Vec::with_capacity(cfg.pods);
    for (pod, specs) in specs.into_iter().enumerate() {
        let setup = build_pod(
            &mut tb,
            pod * 2,
            pod * 2 + 1,
            cfg.qps,
            svc_cfg.cap_reads,
            cfg.records,
            cfg.table_value_len(),
        );
        let service = TxnService::new(
            setup.table,
            svc_cfg,
            setup.conns.clone(),
            setup.staging,
            specs,
            &root.split(500 + pod as u64),
        );
        setups.push(setup);
        services.push(service);
    }
    {
        let mut pins: Vec<Pinned<'_>> = services
            .iter_mut()
            .zip(&setups)
            .map(|(s, setup)| Pinned::new(setup.client, s))
            .collect();
        cluster::run_clients_sharded(&mut tb, &mut pins, cfg.shards, SimTime::MAX);
    }
    // Fold per-tenant stats across pods, tenant-major, in pod order.
    let mut tenants: Vec<TenantStats> = Vec::new();
    for service in &services {
        for (t, stats) in service.tenant_stats().into_iter().enumerate() {
            match tenants.get_mut(t) {
                Some(agg) => {
                    agg.hist.merge(&stats.hist);
                    agg.meter.merge(&stats.meter);
                    agg.txn.merge(&stats.txn);
                    agg.admitted += stats.admitted;
                    agg.completed += stats.completed;
                }
                None => tenants.push(stats.clone()),
            }
        }
    }
    let mut hist = LatencyHistogram::new();
    let mut stats = TxnStats::default();
    let mut achieved = 0.0;
    for t in &tenants {
        hist.merge(&t.hist);
        stats.merge(&t.txn);
        achieved += t.meter.mops();
    }
    TxnReport {
        offered_mops: cfg.offered_mops,
        realized_mops,
        achieved_mops: achieved,
        ops: hist.count(),
        hist,
        stats,
        tenants,
    }
}

impl TxnTrafficConfig {
    /// Value bytes per record (fixed: big enough for a counter plus a
    /// recognisable payload pattern, small enough to keep commits cheap).
    pub fn table_value_len(&self) -> u64 {
        32
    }

    /// Default p99 SLO for the txn knee search, per profile. Wider than
    /// the raw app SLOs: a transaction is several dependent verbs plus
    /// queueing at the service, and the dlog shape serializes on one
    /// record.
    pub fn default_slo(&self) -> SimTime {
        match self.profile {
            TxnProfile::Hashtable => SimTime::from_us(40),
            TxnProfile::Shuffle => SimTime::from_us(40),
            TxnProfile::Join => SimTime::from_us(40),
            TxnProfile::Dlog => SimTime::from_us(120),
        }
    }
}

/// Run `base` at one offered load, with the same warmup compensation as
/// the app-traffic sweep: expected warmup arrivals are added on top of
/// the configured op count so the post-warmup sample count stays roughly
/// constant across loads.
pub fn run_txn_at(base: &TxnTrafficConfig, offered_mops: f64) -> TxnReport {
    let mut cfg = TxnTrafficConfig { offered_mops, ..base.clone() };
    let warm_ops = (cfg.rate_per_tenant() * cfg.warmup.as_us()).ceil() as u64;
    cfg.ops_per_tenant = base.ops_per_tenant + warm_ops;
    run_txn_traffic(&cfg)
}

/// [`run_txn_at`], reduced to the sweep/knee measurement shape.
pub fn run_txn_point(base: &TxnTrafficConfig, offered_mops: f64) -> SweepPoint {
    let r = run_txn_at(base, offered_mops);
    SweepPoint {
        offered_mops: r.offered_mops,
        realized_mops: r.realized_mops,
        achieved_mops: r.achieved_mops,
        ops: r.ops,
        mean_us: r.mean_us(),
        p50_us: r.q_us(0.5),
        p99_us: r.q_us(0.99),
        p999_us: r.q_us(0.999),
        digest: r.digest(),
    }
}

/// Sweep `base` over offered loads, in order.
pub fn txn_sweep(base: &TxnTrafficConfig, loads: &[f64]) -> Vec<SweepPoint> {
    loads.iter().map(|&l| run_txn_point(base, l)).collect()
}

/// The capacity knee of one txn configuration under a p99 SLO.
pub fn find_txn_knee(base: &TxnTrafficConfig, slo: SimTime) -> Knee {
    find_knee_with(|load| run_txn_point(base, load), slo)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference run: every tenant's whole schedule pre-drawn into a
    /// `Vec` up front, and the realized rate computed from the stored
    /// schedules.
    fn run_predrawn(cfg: &TxnTrafficConfig) -> TxnReport {
        let root = SimRng::new(cfg.seed);
        let geo = ConflictGeometry {
            records: cfg.records,
            hot: cfg.hot,
            conflict: cfg.conflict,
            tenants: cfg.tenants,
        };
        let mut sched_ops = 0u64;
        let mut sched_end = SimTime::ZERO;
        let mut specs = Vec::new();
        for pod in 0..cfg.pods {
            let mut pod_specs = Vec::new();
            for t in 0..cfg.tenants {
                let gidx = (pod * cfg.tenants + t) as u64;
                let rate = cfg.rate_per_tenant() * if t == 0 { cfg.aggressor } else { 1.0 };
                let process = if cfg.bursty {
                    ArrivalProcess::bursty(rate)
                } else {
                    ArrivalProcess::Poisson { rate_mops: rate }
                };
                let mut arrivals = ArrivalGen::new(process, root.split(4000 + gidx));
                let mut req_rng = root.split(5000 + gidx);
                let mut at = SimTime::ZERO;
                let schedule: Vec<_> = (0..cfg.ops_per_tenant)
                    .map(|_| {
                        at += arrivals.next_gap();
                        (at, gen_request(cfg.profile, &geo, t, &mut req_rng))
                    })
                    .collect();
                sched_ops += schedule.iter().filter(|(at, _)| *at >= cfg.warmup).count() as u64;
                if let Some((at, _)) = schedule.last() {
                    sched_end = sched_end.max(*at);
                }
                pod_specs.push(TenantSpec {
                    quota: cfg.quota,
                    schedule: Box::new(schedule.into_iter()),
                });
            }
            specs.push(pod_specs);
        }
        run_specs(cfg, specs, simcore::mops(sched_ops, sched_end.saturating_sub(cfg.warmup)))
    }

    #[test]
    fn lazy_schedules_match_predrawn_reference() {
        let base = TxnTrafficConfig { ops_per_tenant: 120, conflict: 0.5, ..Default::default() };
        let cases = [
            ("poisson drr", base.clone()),
            ("bursty drr", TxnTrafficConfig { bursty: true, ..base.clone() }),
            (
                "bursty fifo aggressor",
                TxnTrafficConfig {
                    bursty: true,
                    aggressor: 4.0,
                    scheduler: Scheduler::Fifo,
                    ..base.clone()
                },
            ),
            (
                "poisson fifo aggressor locked join",
                TxnTrafficConfig {
                    aggressor: 2.0,
                    scheduler: Scheduler::Fifo,
                    concurrency: Concurrency::Locked,
                    profile: TxnProfile::Join,
                    ..base.clone()
                },
            ),
            (
                "bursty drr aggressor shuffle",
                TxnTrafficConfig {
                    bursty: true,
                    aggressor: 8.0,
                    profile: TxnProfile::Shuffle,
                    ..base
                },
            ),
        ];
        for (name, cfg) in cases {
            let (lazy, reference) = (run_txn_traffic(&cfg), run_predrawn(&cfg));
            assert_eq!(lazy.digest(), reference.digest(), "{name}: digest");
            assert_eq!(lazy.stats, reference.stats, "{name}: stats");
            assert_eq!(
                lazy.realized_mops.to_bits(),
                reference.realized_mops.to_bits(),
                "{name}: realized rate"
            );
            assert_eq!(lazy.achieved_mops.to_bits(), reference.achieved_mops.to_bits(), "{name}");
        }
    }

    #[test]
    fn txn_traffic_commits_everything() {
        let cfg =
            TxnTrafficConfig { ops_per_tenant: 60, pods: 1, tenants: 2, ..Default::default() };
        let r = run_txn_traffic(&cfg);
        let writes_committed = r.stats.commits;
        assert_eq!(r.stats.failures, 0);
        assert_eq!(writes_committed, 2 * 60, "every admitted txn commits");
        assert!(r.ops > 0 && r.q_us(0.99) > 0.0);
    }

    #[test]
    fn serial_and_sharded_reports_are_byte_identical() {
        let base = TxnTrafficConfig { ops_per_tenant: 50, conflict: 0.5, ..Default::default() };
        let serial = run_txn_traffic(&base);
        let sharded = run_txn_traffic(&TxnTrafficConfig { shards: 2, ..base });
        assert_eq!(serial.digest(), sharded.digest());
        assert_eq!(serial.stats, sharded.stats);
    }

    #[test]
    fn aggressor_raises_only_tenant_zero_rate() {
        let base = TxnTrafficConfig { ops_per_tenant: 80, aggressor: 4.0, ..Default::default() };
        let r = run_txn_traffic(&base);
        let per = &r.tenants;
        assert!(per[0].admitted == per[1].admitted, "same op count per tenant");
        // The aggressor issues the same count 4x faster, so its share of
        // early (pre-quiescence) service time is larger; the victims must
        // still complete everything.
        for t in per {
            assert_eq!(t.completed, t.admitted);
        }
    }
}
