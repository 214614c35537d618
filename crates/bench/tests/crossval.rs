//! Cross-validation of the two race layers: the static byte-range
//! analysis (verbcheck W102/W103/E005) against the runtime race oracle
//! (`cluster::oracle`, fed by replaying the same programs through the
//! simulated testbed in checked mode).
//!
//! The contract: **static is a sound over-approximation of dynamic.**
//! Every racing pair the oracle actually observes must be statically
//! flagged; static-only reports are "potential" races that concrete
//! timing happened to resolve. Both directions are exercised — the
//! soundness sweep over the whole lint corpus, non-vacuity fixtures
//! where both layers fire on the same pair, and a static-only fixture
//! where the poll of an unrelated op orders the writes in real time.

use std::collections::BTreeSet;

use rnicsim::{DeviceCaps, MrId, QpNum, RKey, Sge, WorkRequest};
use verbcheck::{analyze, Code, VerbProgram};

/// An unordered racing pair as `((qp, wr), (qp, wr))`, smaller side
/// first — the common currency of both layers.
type Pair = ((u32, u64), (u32, u64));

fn ordered(a: (u32, u64), b: (u32, u64)) -> Pair {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The racing pairs the static analyzer flags: each E005/W102/W103
/// diagnostic names the later post in its span and the earlier
/// conflicting post in its related span.
fn static_race_pairs(prog: &VerbProgram) -> BTreeSet<Pair> {
    analyze(prog, &DeviceCaps::default())
        .iter()
        .filter(|d| matches!(d.code, Code::E005 | Code::W102 | Code::W103))
        .map(|d| {
            let related = d.related.as_ref().expect("race diagnostics carry the earlier post").0;
            let here = (
                d.span.qp.expect("race span is a post").0,
                d.span.wr_id.expect("race span is a post").0,
            );
            let there = (
                related.qp.expect("related span is a post").0,
                related.wr_id.expect("related span is a post").0,
            );
            ordered(here, there)
        })
        .collect()
}

/// The racing pairs the oracle observed during replay.
fn dynamic_race_pairs(prog: &VerbProgram) -> BTreeSet<Pair> {
    let out = cluster::replay_program(prog);
    out.races
        .iter()
        .map(|r| ordered((r.first.0, r.first.1 .0), (r.second.0, r.second.1 .0)))
        .collect()
}

#[test]
fn static_analysis_soundly_overapproximates_the_oracle_on_every_lint_program() {
    let mut programs = 0usize;
    let mut dynamic_total = 0usize;
    for spec in bench::EXPERIMENTS {
        for (label, prog) in bench::lint::programs_of(spec) {
            programs += 1;
            let stat = static_race_pairs(&prog);
            let out = cluster::replay_program(&prog);
            assert_eq!(out.failures, 0, "{label}: replay produced failed completions");
            for r in &out.races {
                let pair = ordered((r.first.0, r.first.1 .0), (r.second.0, r.second.1 .0));
                dynamic_total += 1;
                assert!(
                    stat.contains(&pair),
                    "{label}: oracle race {pair:?} not statically flagged (static set: \
                     {stat:?}) — the static layer is unsound"
                );
            }
        }
    }
    assert!(programs >= 40, "expected the full lint corpus, got {programs} program(s)");
    // The corpus itself is race-disciplined (every op is polled), so the
    // sweep's value is the fixtures below plus this inventory assertion.
    assert_eq!(dynamic_total, 0, "lint corpus programs are expected race-free at runtime");
}

/// Two machines, two QPs between them, both MRs 4 KB on socket 1.
fn two_qp_skeleton() -> VerbProgram {
    let mut p = VerbProgram::new();
    p.mr(0, MrId(0), 1, 4096);
    p.mr(1, MrId(1), 1, 4096);
    p.qp(QpNum(0), 0, 1, 1, 1);
    p.qp(QpNum(1), 0, 1, 1, 1);
    p
}

#[test]
fn same_window_write_write_fires_in_both_layers_on_the_same_pair() {
    let mut p = two_qp_skeleton();
    p.post(QpNum(0), WorkRequest::write(1, Sge::new(MrId(0), 0, 64), RKey(1), 0));
    p.post(QpNum(1), WorkRequest::write(2, Sge::new(MrId(0), 128, 64), RKey(1), 48));
    p.poll(QpNum(0), 1);
    p.poll(QpNum(1), 1);
    let codes: Vec<Code> = analyze(&p, &DeviceCaps::default()).iter().map(|d| d.code).collect();
    assert_eq!(codes, vec![Code::E005], "provable same-window write-write");
    let stat = static_race_pairs(&p);
    let dynamic = dynamic_race_pairs(&p);
    assert_eq!(dynamic.len(), 1, "the oracle must observe the race");
    assert_eq!(stat, dynamic, "both layers name the same pair");
}

#[test]
fn write_read_race_fires_in_both_layers() {
    let mut p = two_qp_skeleton();
    p.post(QpNum(0), WorkRequest::write(1, Sge::new(MrId(0), 0, 64), RKey(1), 0));
    p.post(QpNum(1), WorkRequest::read(2, Sge::new(MrId(0), 128, 64), RKey(1), 32));
    p.poll(QpNum(0), 1);
    p.poll(QpNum(1), 1);
    let codes: Vec<Code> = analyze(&p, &DeviceCaps::default()).iter().map(|d| d.code).collect();
    assert_eq!(codes, vec![Code::W103]);
    let stat = static_race_pairs(&p);
    let dynamic = dynamic_race_pairs(&p);
    assert_eq!(dynamic.len(), 1);
    assert_eq!(stat, dynamic);
}

#[test]
fn static_only_report_is_a_potential_race_the_timing_resolved() {
    // QP 0 posts a small write it never polls. QP 1 then posts a *large*
    // write to a disjoint range and polls it — that CQE arrives well
    // after QP 0's small write completed, so the replay clock moves past
    // it. QP 1's final write overlaps QP 0's bytes: statically W102 (no
    // poll ever retired QP 0's op — on another schedule this races), but
    // dynamically clean (the spans never coexist in simulated time).
    let mut p = VerbProgram::new();
    p.mr(0, MrId(0), 1, 1 << 20);
    p.mr(1, MrId(1), 1, 1 << 20);
    p.qp(QpNum(0), 0, 1, 1, 1);
    p.qp(QpNum(1), 0, 1, 1, 1);
    p.post(QpNum(0), WorkRequest::write(1, Sge::new(MrId(0), 0, 64), RKey(1), 0));
    p.post(QpNum(1), WorkRequest::write(2, Sge::new(MrId(0), 4096, 65536), RKey(1), 65536));
    p.poll(QpNum(1), 1);
    p.post(QpNum(1), WorkRequest::write(3, Sge::new(MrId(0), 0, 64), RKey(1), 0));
    p.poll(QpNum(1), 1);
    let codes: Vec<Code> = analyze(&p, &DeviceCaps::default()).iter().map(|d| d.code).collect();
    assert_eq!(codes, vec![Code::W102], "statically a potential cross-window race");
    assert!(
        dynamic_race_pairs(&p).is_empty(),
        "dynamically clean: the polled big write ordered the schedule"
    );
}
