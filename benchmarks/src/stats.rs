//! Order statistics over a handful of repetition timings, and the FNV-1a
//! fold the outcome digests are built from.

/// Summary of a sample: count, minimum, quartiles and median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (must be non-empty). Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)`, the rule the acceptance check
    /// uses; with a single sample all of them equal it.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of an empty sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let quartile = |i: usize| {
            if n < 2 {
                return sorted[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Summary {
            n,
            min: sorted[0],
            q1: quartile(1),
            median,
            q3: quartile(3),
            max: sorted[n - 1],
        }
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// FNV-1a over 64-bit words: the outcome fingerprint every repetition of a
/// workload must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in, byte by byte.
    pub fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a float in by its bit pattern, so "equal" means bit-equal.
    pub fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    /// The fingerprint so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 1.0, 2.0, 3.0, 3.0)
        );
        assert_eq!(Summary::of(&[4.0]).spread(), 0.0);
    }

    #[test]
    fn digest_depends_on_order_and_bits() {
        let fold = |words: &[u64]| {
            let mut d = Digest::default();
            words.iter().for_each(|w| d.word(*w));
            d.finish()
        };
        assert_ne!(fold(&[1, 2]), fold(&[2, 1]));
        let mut a = Digest::default();
        a.float(0.0);
        let mut b = Digest::default();
        b.float(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}
