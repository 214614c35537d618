//! Medians and quartiles of repeat samples.

/// Median, quartiles and sample count of one metric's repeats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Middle value (mean of the middle pair for even `n`).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarize `samples`, which must not be empty.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles_sorted(&v);
        Summary { n: v.len(), median: median_sorted(&v), q1, q3 }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Median of `samples`, which must not be empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

fn median_sorted(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method) gives
/// them, so the spreads printed here are the ones a script computes from
/// the same values.
fn quartiles_sorted(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "quartiles of no samples");
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(v, n=4)`.
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((s.q1, s.q3), (2.75, 8.25));
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        let s = Summary::of(&[10.0, 20.0]);
        assert_eq!((s.q1, s.q3), (7.5, 22.5));
        let s = Summary::of(&[1.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.q3), (1.0, 4.0));
        assert_eq!(Summary::of(&[2.0]).iqr(), 0.0);
        assert_eq!(s.n, 3);
    }
}
