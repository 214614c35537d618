//! Property test: the hierarchical timing wheel against a `BinaryHeap`
//! reference model, under seeded random insert / advance interleavings — including `(time, seq)` tie runs planted exactly at
//! wheel-rollover boundaries (granule, slot, and level edges), where a
//! lazy wheel implementation would be most tempted to reorder.

use simcore::{SimRng, SimTime, TimingWheel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Granule and level geometry mirrored from `simcore::wheel` (private
/// there on purpose; the test only needs the boundary *locations*).
const G_BITS: u32 = 12;
const SLOT_BITS: u32 = 6;

struct Oracle {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
}

impl Oracle {
    fn new() -> Self {
        Oracle { heap: BinaryHeap::new() }
    }
    fn push(&mut self, at: SimTime, seq: u64) {
        self.heap.push(Reverse((at, seq)));
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|Reverse(k)| k)
    }
    fn peek(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|Reverse(k)| *k)
    }
}

/// A timestamp planted on or adjacent to a rollover boundary so that ties
/// and near-ties straddle granule/slot/level edges as the wheel advances.
fn boundary_time(rng: &mut SimRng, horizon: u64) -> u64 {
    // Pick a boundary bit: granule edge, a level-0 slot edge, or a
    // higher-level edge (where replenish must cascade).
    let bit = match rng.gen_range(4) {
        0 => G_BITS,
        1 => G_BITS + SLOT_BITS,
        2 => G_BITS + 2 * SLOT_BITS,
        _ => G_BITS + 3 * SLOT_BITS,
    };
    let edge = ((horizon >> bit) + 1 + rng.gen_range(3)) << bit;
    // On the edge, one tick before, or one tick after.
    match rng.gen_range(3) {
        0 => edge,
        1 => edge.saturating_sub(1),
        _ => edge + 1,
    }
}

#[test]
fn wheel_matches_heap_under_insert_advance() {
    let mut rng = SimRng::new(0xD1CE);
    for round in 0..30u64 {
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut oracle = Oracle::new();
        let mut seq = 0u64;
        let mut horizon = 0u64; // time of the latest pop; pushes are >= this
        for _ in 0..500 {
            match rng.gen_range(8) {
                // 0..=4: insert (half of them boundary-planted, with tie runs)
                0..=4 => {
                    let at = if rng.gen_bool(0.5) {
                        boundary_time(&mut rng, horizon)
                    } else {
                        horizon + rng.gen_range(1 << (14 + (round % 5) * 8))
                    };
                    // Sometimes a run of exact ties at the chosen time —
                    // their seq order must survive slot sorting and
                    // level cascades.
                    let run = if rng.gen_bool(0.3) { 1 + rng.gen_range(6) } else { 1 };
                    for _ in 0..run {
                        wheel.push(SimTime::from_ps(at), seq, seq);
                        oracle.push(SimTime::from_ps(at), seq);
                        seq += 1;
                    }
                }
                // 5..=7: advance — pop a burst, checking every key
                _ => {
                    let burst = 1 + rng.gen_range(8);
                    for _ in 0..burst {
                        let got = wheel.pop().map(|(at, s, p)| {
                            assert_eq!(s, p, "payload rides with its key");
                            (at, s)
                        });
                        let want = oracle.pop();
                        assert_eq!(got, want, "round {round}");
                        if let Some((at, _)) = want {
                            horizon = at.as_ps();
                        }
                    }
                }
            }
            assert_eq!(wheel.len(), oracle.heap.len(), "round {round}");
            assert_eq!(wheel.peek_key(), oracle.peek(), "round {round}");
        }
        // Drain: the full residue must match key-for-key.
        while let Some(want) = oracle.pop() {
            assert_eq!(wheel.pop().map(|(at, s, _)| (at, s)), Some(want));
        }
        assert!(wheel.is_empty());
        assert_eq!(wheel.pop().map(|(_, s, _)| s), None);
    }
}

/// Ties planted exactly on a level-2 rollover edge, popped one boundary at
/// a time: the cascade that redistributes a high-level slot must preserve
/// the seq order of equal timestamps it re-inserts.
#[test]
fn tie_runs_at_level_rollover_pop_in_seq_order() {
    let edge = 1u64 << (G_BITS + 2 * SLOT_BITS + 3);
    for offsets in [[0u64, 0, 0], [0, 1, 0], [1, 0, 1]] {
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut oracle = Oracle::new();
        let mut seq = 0u64;
        // Anchor so the wheel's base is far below the edge, forcing the
        // edge entries through at least two cascades.
        wheel.push(SimTime::from_ps(1), seq, seq);
        oracle.push(SimTime::from_ps(1), seq);
        seq += 1;
        for &off in &offsets {
            for _ in 0..20 {
                let at = SimTime::from_ps(edge + off);
                wheel.push(at, seq, seq);
                oracle.push(at, seq);
                seq += 1;
            }
        }
        loop {
            let want = oracle.pop();
            assert_eq!(wheel.pop().map(|(at, s, _)| (at, s)), want);
            if want.is_none() {
                break;
            }
        }
    }
}
