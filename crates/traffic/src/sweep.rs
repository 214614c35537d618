//! Offered-load sweeps and the knee finder.
//!
//! A *sweep* runs the same traffic configuration at a list of offered
//! loads and reports a [`SweepPoint`] per load. The *knee finder* walks
//! offered load — doubling until the p99 SLO breaks, then bisecting — to
//! locate the maximum offered load whose p99 stays within the SLO: the
//! app's serving capacity under a tail-latency contract.

use crate::engine::{run_traffic, TrafficConfig, TrafficReport};
use simcore::SimTime;

/// Measured outcome at one offered load.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Offered load in MOPS (aggregate across workers).
    pub offered_mops: f64,
    /// Arrival rate the run actually realized in MOPS (a finite bursty
    /// run deviates several percent from the nominal offered rate).
    pub realized_mops: f64,
    /// Achieved completion throughput in MOPS.
    pub achieved_mops: f64,
    /// Post-warmup latency samples.
    pub ops: u64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile latency, µs.
    pub p999_us: f64,
    /// Histogram digest — byte-identity token across run modes.
    pub digest: u64,
}

impl SweepPoint {
    fn from_report(r: &TrafficReport) -> Self {
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
}

/// Run `base` at one offered load.
///
/// Arrivals inside the warmup window contribute no samples, and at high
/// load the whole configured op count can land there. The expected
/// warmup arrivals are added on top of `base.ops_per_worker`, keeping
/// the post-warmup sample count roughly constant across a sweep.
pub fn run_point(base: &TrafficConfig, offered_mops: f64) -> SweepPoint {
    let mut cfg = TrafficConfig { offered_mops, ..base.clone() };
    let warm_ops = (cfg.rate_per_worker() * cfg.warmup.as_us()).ceil() as u64;
    cfg.ops_per_worker = base.ops_per_worker + warm_ops;
    SweepPoint::from_report(&run_traffic(&cfg))
}

/// Run `base` at each offered load in `loads`, in order.
pub fn sweep(base: &TrafficConfig, loads: &[f64]) -> Vec<SweepPoint> {
    loads.iter().map(|&l| run_point(base, l)).collect()
}

/// The capacity knee of one app variant under a p99 SLO.
#[derive(Clone, Debug)]
pub struct Knee {
    /// Maximum offered load (MOPS) whose p99 met the SLO.
    pub knee_mops: f64,
    /// p99 at the knee, µs.
    pub p99_us_at_knee: f64,
    /// Achieved throughput at the knee, MOPS.
    pub achieved_mops: f64,
    /// Traffic runs spent locating the knee.
    pub probes: u32,
    /// The SLO that defined the knee.
    pub slo: SimTime,
}

/// Lowest offered load probed (MOPS); below this the knee reads as 0.
const KNEE_FLOOR: f64 = 0.05;
/// Offered-load cap (MOPS) in case the SLO never breaks.
const KNEE_CEIL: f64 = 256.0;
/// Bisection steps after the bracketing phase — enough for ~0.1% of the
/// bracket, far below run-to-run quantile noise.
const KNEE_BISECT: u32 = 10;
/// Minimum achieved/offered ratio for a probe to count as sustained.
/// Beyond capacity an open-loop run's backlog grows without bound, and a
/// finite run's arrival-windowed p99 lags the true steady state — but
/// goodput falling below offered load exposes the overload immediately.
/// Unsaturated runs measure ≥ 0.97 here (the meter's ramp/drain edges
/// cost a couple percent); saturated ones collapse well below 0.95.
/// The ratio is taken against the *realized* arrival rate when that is
/// lower than the nominal one: a finite MMPP run's phase luck shifts the
/// realized rate several percent below nominal even with zero backlog,
/// which is not a capacity failure. Arrivals are open-loop, so under true
/// overload the realized rate holds while completions stretch past the
/// last arrival — the collapse stays visible.
const GOODPUT_FLOOR: f64 = 0.95;

/// Find the maximum offered load whose p99 stays ≤ `slo` while goodput
/// tracks the offered load (≥ `GOODPUT_FLOOR`, 95 %, of it).
///
/// Doubles from `KNEE_FLOOR` (0.05) until the SLO breaks (bracketing), then
/// bisects the bracket. Returns a zero knee when even the floor load
/// breaks the SLO, and the cap when nothing does.
pub fn find_knee(base: &TrafficConfig, slo: SimTime) -> Knee {
    find_knee_with(|load| run_point(base, load), slo)
}

/// [`find_knee`] over an arbitrary probe function — any open-loop system
/// that can report a [`SweepPoint`] at an offered load (the txn service
/// reuses this; the measurement discipline must not fork per subsystem).
pub fn find_knee_with(mut point: impl FnMut(f64) -> SweepPoint, slo: SimTime) -> Knee {
    let slo_us = slo.as_us();
    let mut probes = 0u32;
    // Per-sweep memo keyed by the load's bit pattern: a probe is a full
    // open-loop simulation, and the bracketing and bisection phases can
    // land on the same load — replay the cached point instead of
    // simulating it again. `probes` counts simulations, not lookups.
    let mut cache: Vec<(u64, SweepPoint)> = Vec::new();
    let mut probe = |load: f64| -> SweepPoint {
        let key = load.to_bits();
        if let Some((_, pt)) = cache.iter().find(|(k, _)| *k == key) {
            return pt.clone();
        }
        probes += 1;
        let pt = point(load);
        cache.push((key, pt.clone()));
        pt
    };
    // A probe without a single post-warmup sample cannot demonstrate SLO
    // compliance, and neither can one whose goodput collapsed below the
    // offered load; treat both as violations so the bracket stays honest.
    let meets = |pt: &SweepPoint| {
        let sustained = GOODPUT_FLOOR * pt.offered_mops.min(pt.realized_mops);
        pt.ops > 0 && pt.p99_us <= slo_us && pt.achieved_mops >= sustained
    };

    // Bracket: double until p99 exceeds the SLO.
    let mut good: Option<SweepPoint> = None;
    let mut lo = 0.0f64;
    let mut hi = KNEE_FLOOR;
    loop {
        let pt = probe(hi);
        if meets(&pt) {
            lo = hi;
            good = Some(pt);
            if hi >= KNEE_CEIL {
                break;
            }
            hi = (hi * 2.0).min(KNEE_CEIL);
        } else {
            break;
        }
    }

    match good {
        None => Knee { knee_mops: 0.0, p99_us_at_knee: 0.0, achieved_mops: 0.0, probes, slo },
        Some(mut best) => {
            if lo < KNEE_CEIL {
                // Bisect (lo good, hi bad).
                let mut hi = hi;
                for _ in 0..KNEE_BISECT {
                    let mid = (lo + hi) / 2.0;
                    let pt = probe(mid);
                    if meets(&pt) {
                        lo = mid;
                        best = pt;
                    } else {
                        hi = mid;
                    }
                }
            }
            Knee {
                knee_mops: lo,
                p99_us_at_knee: best.p99_us,
                achieved_mops: best.achieved_mops,
                probes,
                slo,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(load: f64) -> SweepPoint {
        // An ideal open-loop system: p99 equals the offered load in µs,
        // goodput tracks offered exactly.
        SweepPoint {
            offered_mops: load,
            realized_mops: load,
            achieved_mops: load,
            ops: 1000,
            mean_us: load,
            p50_us: load,
            p99_us: load,
            p999_us: load,
            digest: 0,
        }
    }

    /// The memo contract: one simulation per distinct load, and the probe
    /// counter reports simulations (cache hits are free).
    #[test]
    fn knee_simulates_each_load_at_most_once() {
        let mut simulated: Vec<u64> = Vec::new();
        let knee = find_knee_with(
            |load| {
                assert!(
                    !simulated.contains(&load.to_bits()),
                    "load {load} simulated twice in one sweep"
                );
                simulated.push(load.to_bits());
                synthetic(load)
            },
            SimTime::from_us(3),
        );
        assert_eq!(knee.probes as usize, simulated.len());
        // SLO of 3µs on the ideal system: the knee lands in (2, 3].
        assert!(knee.knee_mops > 2.0 && knee.knee_mops <= 3.0, "knee {}", knee.knee_mops);
    }

    /// Replaying a cached point must not change the result: a probe
    /// function that would diverge on re-simulation (nondeterministic
    /// tail) still yields a stable knee because each load runs once.
    #[test]
    fn cached_points_replay_identically() {
        let mut calls = 0u32;
        let knee = find_knee_with(
            |load| {
                calls += 1;
                // Tail noise grows with every *simulation* — if a load
                // were re-simulated its p99 would move.
                let mut pt = synthetic(load);
                pt.p999_us += calls as f64;
                pt
            },
            SimTime::from_us(5),
        );
        assert_eq!(knee.probes, calls, "probe counter must track simulations exactly");
    }
}
