//! Order statistics over timing samples.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples above it, so a tail figure
//! never rests on a handful of outliers.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A set of samples, sorted on construction.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

/// A tail figure: which percentile, and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, an integer from 50 to 99.
    pub percentile: u32,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
}

impl Samples {
    /// Sorts `values`; NaNs sort last and so never reach a median.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.total_cmp(b));
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The median (mean of the two middle samples for an even count).
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.sorted[n / 2]),
            _ => Some((self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0),
        }
    }

    /// Nearest-rank percentile `p` in (0, 100].
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        Some(self.sorted[nearest_rank(p, n) - 1])
    }

    /// The highest integer percentile from 50 to 99 with at least
    /// [`TAIL_MIN_BEYOND`] samples above its rank, or `None` when even the
    /// 50th percentile has fewer (under 20 samples).
    pub fn tail(&self) -> Option<Tail> {
        let n = self.sorted.len();
        (50..=99u32).rev().find_map(|p| {
            let rank = nearest_rank(f64::from(p), n);
            (n >= rank + TAIL_MIN_BEYOND).then(|| Tail {
                percentile: p,
                value: self.sorted[rank - 1],
            })
        })
    }

    /// Distance between the first and third quartile (nearest rank).
    pub fn iqr(&self) -> Option<f64> {
        Some(self.percentile(75.0)? - self.percentile(25.0)?)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        (!self.sorted.is_empty())
            .then(|| self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples: the smallest
/// rank whose cumulative share reaches `p`.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(ramp(5).median(), Some(3.0));
        assert_eq!(ramp(4).median(), Some(2.5));
        assert_eq!(Samples::default().median(), None);
    }

    #[test]
    fn sample_counts_are_kept() {
        assert_eq!(ramp(37).len(), 37);
        assert!(Samples::default().is_empty());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 above.
        let t = ramp(1000).tail().unwrap();
        assert_eq!((t.percentile, t.value), (99, 990.0));
        // 100 samples: p90 leaves 10 above, p91 only 9.
        let t = ramp(100).tail().unwrap();
        assert_eq!((t.percentile, t.value), (90, 90.0));
        // 24 samples: ceil(0.58 * 24) = 14 leaves 10, ceil(0.59 * 24) = 15 leaves 9.
        let t = ramp(24).tail().unwrap();
        assert_eq!((t.percentile, t.value), (58, 14.0));
        // 20 samples is the least that still admits the median.
        assert_eq!(ramp(20).tail().map(|t| t.percentile), Some(50));
        assert_eq!(ramp(19).tail(), None);
    }

    #[test]
    fn tail_never_leaves_fewer_than_ten_beyond() {
        for n in 20..2_000 {
            let s = ramp(n);
            let t = s.tail().unwrap();
            let beyond = s.sorted.iter().filter(|&&v| v > t.value).count();
            assert!(
                beyond >= TAIL_MIN_BEYOND,
                "n={n}: {beyond} beyond p{}",
                t.percentile
            );
            if t.percentile < 99 {
                let next = nearest_rank(f64::from(t.percentile + 1), n);
                assert!(
                    n < next + TAIL_MIN_BEYOND,
                    "n={n}: p{} also qualifies",
                    t.percentile + 1
                );
            }
        }
    }

    #[test]
    fn quartiles_and_mean() {
        let s = ramp(8);
        assert_eq!(s.percentile(25.0), Some(2.0));
        assert_eq!(s.percentile(75.0), Some(6.0));
        assert_eq!(s.iqr(), Some(4.0));
        assert_eq!(s.mean(), Some(4.5));
    }
}
