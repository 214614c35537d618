//! Output checks: every simulated result the benchmark produces is folded
//! into a digest and compared, and every invariant it asserts is counted.
//! A mismatch is reported and counted as a failure; nothing panics, so a
//! wrong result still yields a complete report with `correct: false`.

use std::collections::BTreeMap;

/// Seed-42 digests of every workload config at full size, one
/// `pin <workload> <config> <hex digest>` line each. Regenerate from the
/// `pin` lines a seed-42 run prints.
const EXPECTED: &str = include_str!("../expected.txt");

/// The seed whose digests `expected.txt` pins.
pub const PINNED_SEED: u64 = 42;

type Key = (&'static str, &'static str);

/// Running tally of checks for one invocation.
pub struct Checker {
    /// Pinned digests, when the run's seed and sizes are the pinned ones.
    pinned: Option<BTreeMap<(String, String), u64>>,
    /// First digest seen per config — the reference for other seeds, and
    /// what the `pin` lines print.
    first: BTreeMap<Key, u64>,
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checker {
    /// A checker comparing against `expected.txt` when `pinned` is set and
    /// otherwise only across repeats of this run.
    pub fn new(pinned: bool) -> Checker {
        Checker {
            pinned: pinned.then(|| parse_expected(EXPECTED)),
            first: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Check one config's digest: against the pinned value if there is
    /// one, else against the first repeat's.
    pub fn digest(&mut self, workload: &'static str, config: &'static str, value: u64) {
        let reference = match &self.pinned {
            Some(pins) => pins.get(&(workload.to_string(), config.to_string())).copied(),
            None => self.first.get(&(workload, config)).copied(),
        };
        self.first.entry((workload, config)).or_insert(value);
        let what = format!("{workload} {config} digest {value:016x}");
        match reference {
            Some(r) if r == value => self.holds(&what, true),
            Some(r) => self.holds(&format!("{what} matches {r:016x}"), false),
            None if self.pinned.is_some() => self.holds(&format!("{what} is pinned"), false),
            None => self.holds(&what, true),
        }
    }

    /// Count one check; report it on stderr when it fails.
    pub fn holds(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("simbench: CHECK FAILED: {what}");
        }
    }

    /// `pin` lines for every config seen, in `expected.txt` format.
    pub fn pin_lines(&self, workload: &str) -> Vec<String> {
        self.first
            .iter()
            .filter(|((w, _), _)| *w == workload)
            .map(|((w, c), d)| format!("pin {w} {c} {d:016x}"))
            .collect()
    }
}

fn parse_expected(text: &str) -> BTreeMap<(String, String), u64> {
    text.lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            match (f.next(), f.next(), f.next(), f.next()) {
                (Some("pin"), Some(w), Some(c), Some(hex)) => {
                    u64::from_str_radix(hex, 16).ok().map(|d| ((w.to_string(), c.to_string()), d))
                }
                _ => None,
            }
        })
        .collect()
}

/// FNV-1a over 64-bit words: folds simulated results into one digest.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold in one word.
    pub fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_file_pins_every_config_once() {
        let pins = parse_expected(EXPECTED);
        let lines = EXPECTED.lines().filter(|l| l.starts_with("pin ")).count();
        assert_eq!(pins.len(), lines, "a config is pinned twice or a pin line is malformed");
        for w in crate::workload::WORKLOADS {
            assert!(pins.keys().any(|(name, _)| name == w.name), "{} has no pins", w.name);
        }
    }

    #[test]
    fn unpinned_digests_must_agree_across_repeats() {
        let mut c = Checker::new(false);
        c.digest("w", "a", 1);
        c.digest("w", "a", 1);
        c.digest("w", "b", 5);
        assert_eq!((c.attempted, c.failed), (3, 0));
        c.digest("w", "a", 2);
        assert_eq!((c.attempted, c.failed), (4, 1));
        assert_eq!(c.pin_lines("w"), ["pin w a 0000000000000001", "pin w b 0000000000000005"]);
    }

    #[test]
    fn pinned_digests_must_match_the_file() {
        let mut c = Checker::new(true);
        c.digest("no-such-workload", "cfg", 1);
        assert_eq!((c.attempted, c.failed), (1, 1));
    }
}
