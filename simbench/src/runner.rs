//! Runs a workload's repeats and reduces them to metrics.
//!
//! One discarded warm-up repeat, then measured repeats until the time
//! budget is spent (and at least `min_repeats` ran). Every repeat builds
//! its clusters afresh, so the simulated caches start empty each time;
//! the warm-up only warms the host (allocator, page cache, branch state).
//! With tracing, untraced and traced repeats alternate, so both see the
//! same host conditions: end-to-end metrics come from the untraced ones,
//! per-layer metrics from the traced ones, and the gap between the two is
//! the tracing overhead.

use crate::alloc;
use crate::check::{Checker, PINNED_SEED};
use crate::metrics::{EndToEnd, PerLayer, END_TO_END, PER_LAYER, SELF_TIMES};
use crate::stats::{median, Summary};
use crate::trace::{self, Phase};
use crate::workload::{Ctx, Sample, Workload};
use std::time::Instant;

/// How to run.
#[derive(Debug)]
pub struct Plan {
    /// Workload seed.
    pub seed: u64,
    /// Measure for at least this long.
    pub seconds: f64,
    /// ... and at least this many untraced repeats.
    pub min_repeats: usize,
    /// Also run traced repeats, for the per-layer metrics.
    pub trace: bool,
    /// Tiny sizes, for tests.
    pub quick: bool,
}

/// A run-queue wait above this share of a repeat's wall time marks the
/// repeat as noisy: the host, not the benchmark, held it up.
pub const NOISY_WAIT_SHARE: f64 = 0.05;

/// One measured repeat.
#[derive(Debug)]
pub struct Measured {
    /// What the workload reported.
    pub sample: Sample,
    /// Set-up + run + teardown.
    pub wall_s: f64,
    /// Heap high-water mark above the bytes live when the repeat began.
    pub peak_heap_mib: f64,
}

/// Everything one workload's invocation measured.
pub struct Outcome {
    /// The workload measured.
    pub workload: &'static Workload,
    /// Untraced measured repeats.
    pub untraced: Vec<Measured>,
    /// Traced measured repeats (empty without tracing).
    pub traced: Vec<Measured>,
    /// Output checks made.
    pub attempted: u64,
    /// Output checks failed.
    pub failed: u64,
    /// `pin` lines of every config's digest.
    pub pins: Vec<String>,
}

/// Run `w` under `plan`.
pub fn measure(w: &'static Workload, plan: &Plan) -> Outcome {
    let mut check = Checker::new(plan.seed == PINNED_SEED && !plan.quick);
    let mut next_id = 0u32;
    let mut once = |traced: bool| {
        let warmup = next_id == 0;
        trace::set(traced, next_id);
        next_id += 1;
        let mut ctx = Ctx { seed: plan.seed, quick: plan.quick, warmup, check: &mut check };
        let m = measure_one(w, &mut ctx);
        trace::set(false, 0);
        m
    };
    once(false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while untraced.len() < plan.min_repeats || start.elapsed().as_secs_f64() < plan.seconds {
        untraced.push(once(false));
        if plan.trace {
            traced.push(once(true));
        }
    }
    Outcome {
        workload: w,
        untraced,
        traced,
        attempted: check.attempted,
        failed: check.failed,
        pins: check.pin_lines(w.name),
    }
}

fn measure_one(w: &Workload, ctx: &mut Ctx) -> Measured {
    let wait_before = runq_wait_ns();
    alloc::reset_peak();
    let heap_before = alloc::snapshot();
    let span = Phase::start(w.name);
    let mut sample = (w.repeat)(ctx);
    span.stop();
    let heap = alloc::snapshot();
    let wall_s = sample.setup_s + sample.run_s + sample.teardown_s;
    let allocs = (heap.allocs - heap_before.allocs) as f64;
    sample.add("simcore.sim_ops", sample.sim_ops as f64);
    sample.add("proc.heap_allocs", allocs);
    sample.add("proc.allocs_per_sim_op", allocs / sample.sim_ops.max(1) as f64);
    if let (Some(a), Some(b)) = (wait_before, runq_wait_ns()) {
        let share = b.saturating_sub(a) as f64 * 1e-9 / wall_s;
        sample.add("proc.runq_wait_share", share);
        sample.add("proc.noisy_repeats", f64::from(u8::from(share > NOISY_WAIT_SHARE)));
    }
    if trace::on() {
        for (secs, share) in SELF_TIMES {
            sample.add(share, sample.layer(secs) / wall_s);
        }
        let covered: f64 = SELF_TIMES.iter().map(|(_, share)| sample.layer(share)).sum();
        sample.add("trace.layer_coverage", covered);
    }
    // The counters are process-wide. The benchmark runs on one thread, so
    // they are exact there; under parallel tests other threads move them,
    // hence the saturation.
    let peak = heap.peak.saturating_sub(heap_before.live);
    Measured { sample, wall_s, peak_heap_mib: peak as f64 / f64::from(1 << 20) }
}

/// Nanoseconds this thread has spent runnable but waiting for a CPU, from
/// the kernel's scheduler statistics (second field of
/// `/proc/thread-self/schedstat`); `None` where that is unavailable.
fn runq_wait_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

impl Measured {
    fn end_to_end(&self, name: &str) -> f64 {
        let s = &self.sample;
        match name {
            "setup_s" => s.setup_s,
            "run_s" => s.run_s,
            "wall_s" => self.wall_s,
            "sim_ops_per_s" => s.sim_ops as f64 / s.run_s,
            "peak_heap_mib" => self.peak_heap_mib,
            _ => unreachable!("unknown end-to-end metric {name}"),
        }
    }
}

impl Outcome {
    /// Every end-to-end metric over the untraced repeats.
    pub fn end_to_end(&self) -> Vec<(&'static EndToEnd, Summary)> {
        END_TO_END
            .iter()
            .map(|m| {
                let v: Vec<f64> = self.untraced.iter().map(|r| r.end_to_end(m.name)).collect();
                (m, Summary::of(&v))
            })
            .collect()
    }

    /// Every per-layer metric: medians over the traced repeats, except the
    /// host-process figures, which come from the untraced ones, and the
    /// tracing overhead, which compares the two. Without traced repeats
    /// the traced figures read 0.
    pub fn per_layer(&self) -> Vec<(&'static PerLayer, f64)> {
        let over = |repeats: &[Measured], name: &str| {
            median(&repeats.iter().map(|r| r.sample.layer(name)).collect::<Vec<_>>())
        };
        let wall =
            |repeats: &[Measured]| median(&repeats.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        PER_LAYER
            .iter()
            .map(|m| {
                let v = match m.name {
                    "proc.noisy_repeats" => self.noisy_repeats() as f64,
                    n if n.starts_with("proc.") => over(&self.untraced, n),
                    _ if self.traced.is_empty() => 0.0,
                    "trace.wall_s" => wall(&self.traced),
                    "trace.overhead" => wall(&self.traced) / wall(&self.untraced) - 1.0,
                    n => over(&self.traced, n),
                };
                (m, v)
            })
            .collect()
    }

    /// Measured repeats whose run-queue wait marks them noisy.
    pub fn noisy_repeats(&self) -> usize {
        self.untraced.iter().filter(|r| r.sample.layer("proc.noisy_repeats") > 0.0).count()
    }
}
