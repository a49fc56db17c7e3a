//! The benchmark's own arithmetic: order statistics over timing samples,
//! the deepest-percentile rule, and the result fingerprint fold.

/// Samples below this many nanoseconds are kept as counts in a 1 ns
/// histogram (bounded memory for millions of per-query times); larger
/// ones are kept individually. Either way every order statistic is exact.
const FINE_NS: usize = 1 << 16;

/// Tail percentiles tried by [`deepest_tail`], each with the number of
/// samples per one sample beyond it (`1 / (1 − p)`).
const TAIL_LADDER: [(f64, u64); 7] = [
    (0.5, 2),
    (0.9, 10),
    (0.99, 100),
    (0.999, 1_000),
    (0.9999, 10_000),
    (0.99999, 100_000),
    (0.999999, 1_000_000),
];

/// Samples a reported tail percentile must have beyond it.
const TAIL_SAMPLES: u64 = 10;

/// The deepest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it among `n` samples, or `None` when even the median has fewer.
pub fn deepest_tail(n: u64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .take_while(|&&(_, per)| n >= TAIL_SAMPLES.saturating_mul(per))
        .last()
        .map(|&(p, _)| p)
}

/// A percentile label such as `p99` or `p99.9`.
pub fn percentile_label(p: f64) -> String {
    let pct = format!("{:.4}", p * 100.0);
    format!("p{}", pct.trim_end_matches('0').trim_end_matches('.'))
}

/// Linear-interpolation quantile (type 7) of `n ≥ 1` ordered values read
/// through `at(rank)`.
fn quantile_by_rank(n: u64, p: f64, mut at: impl FnMut(u64) -> f64) -> f64 {
    let h = (n - 1) as f64 * p;
    let lo = h.floor() as u64;
    let lo_v = at(lo);
    if lo + 1 >= n {
        return lo_v;
    }
    lo_v + (h - lo as f64) * (at(lo + 1) - lo_v)
}

/// Median, quartiles and the deepest well-sampled tail of `n ≥ 1`
/// ordered values read through `at(rank)`.
fn summarize_by_rank(n: u64, mut at: impl FnMut(u64) -> f64) -> Summary {
    let mut q = |p: f64| quantile_by_rank(n, p, &mut at);
    Summary {
        n,
        median: q(0.5),
        q1: q(0.25),
        q3: q(0.75),
        tail: deepest_tail(n).map(|p| (p, q(p))),
    }
}

/// Median, quartiles and tail of plain values (rates, per-pass counts),
/// or `None` when there are none.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(summarize_by_rank(v.len() as u64, |r| v[r as usize]))
}

/// Median of plain values; 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

/// Durations in nanoseconds, with exact order statistics.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    fine: Vec<u32>,
    fine_n: u64,
    coarse: Vec<u64>,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Records one duration.
    pub fn push(&mut self, d: std::time::Duration) {
        self.push_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one duration given in nanoseconds.
    pub fn push_ns(&mut self, ns: u64) {
        match usize::try_from(ns) {
            Ok(i) if i < FINE_NS => {
                if self.fine.is_empty() {
                    self.fine = vec![0; FINE_NS];
                }
                self.fine[i] += 1;
                self.fine_n += 1;
            }
            _ => self.coarse.push(ns),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.fine_n + self.coarse.len() as u64
    }

    /// The order statistics in units of `unit_ns` nanoseconds, or `None`
    /// when there are no samples.
    pub fn summary(&mut self, unit_ns: f64) -> Option<Summary> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        self.coarse.sort_unstable();
        Some(summarize_by_rank(n, |r| self.at_rank(r) as f64 / unit_ns))
    }

    /// The `p`-quantile in units of `unit_ns` (0 when empty).
    pub fn quantile(&mut self, p: f64, unit_ns: f64) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        self.coarse.sort_unstable();
        quantile_by_rank(n, p, |r| self.at_rank(r) as f64) / unit_ns
    }

    /// The `r`-th smallest sample (0-based); needs `coarse` sorted.
    fn at_rank(&self, r: u64) -> u64 {
        if r < self.fine_n {
            let mut seen = 0u64;
            for (ns, &c) in self.fine.iter().enumerate() {
                seen += u64::from(c);
                if seen > r {
                    return ns as u64;
                }
            }
        }
        self.coarse[usize::try_from(r - self.fine_n).expect("rank fits in memory")]
    }
}

/// Median, quartiles and the deepest well-sampled tail of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: u64,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(p, value)` of the deepest percentile with ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// One report line: median, quartiles, tail and sample count.
    pub fn render(&self) -> String {
        let tail = self.tail.map_or(String::new(), |(p, v)| {
            format!(" {} {v:.4}", percentile_label(p))
        });
        format!(
            "median {:.4} q1 {:.4} q3 {:.4}{tail} n {}",
            self.median, self.q1, self.q3, self.n
        )
    }
}

/// An order-sensitive 64-bit fold of result words. Each step is a
/// bijection of the running state for a fixed word and of the word for a
/// fixed state, so changing any single word — any single bit of any
/// result — changes the fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fold(u64);

impl Default for Fold {
    fn default() -> Self {
        Fold(0x6A09_E667_F3BC_C909)
    }
}

impl Fold {
    /// Folds in one word.
    pub fn word(&mut self, w: u64) {
        let mut z = self.0 ^ w.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    /// Folds in the exact bits of one `f64`.
    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// The folded value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deepest_tail_needs_ten_samples_beyond() {
        assert_eq!(deepest_tail(0), None);
        assert_eq!(deepest_tail(19), None);
        assert_eq!(deepest_tail(20), Some(0.5));
        assert_eq!(deepest_tail(99), Some(0.5));
        assert_eq!(deepest_tail(100), Some(0.9));
        assert_eq!(deepest_tail(999), Some(0.9));
        assert_eq!(deepest_tail(1_000), Some(0.99));
        assert_eq!(deepest_tail(6_500_000), Some(0.99999));
        assert_eq!(deepest_tail(u64::MAX), Some(0.999999));
    }

    #[test]
    fn percentile_labels() {
        assert_eq!(percentile_label(0.5), "p50");
        assert_eq!(percentile_label(0.99), "p99");
        assert_eq!(percentile_label(0.999), "p99.9");
        assert_eq!(percentile_label(0.99999), "p99.999");
    }

    #[test]
    fn summary_matches_type7_quantiles_across_both_stores() {
        // 1..=100 µs: the first 65 land in the 1 ns histogram, the rest
        // are kept individually; the order statistics must not notice.
        let mut s = Samples::new();
        for v in (1..=100u64).rev() {
            s.push_ns(v * 1_000);
        }
        let sum = s.summary(1_000.0).expect("non-empty");
        assert_eq!(sum.n, 100);
        assert!((sum.median - 50.5).abs() < 1e-12);
        assert!((sum.q1 - 25.75).abs() < 1e-12);
        assert!((sum.q3 - 75.25).abs() < 1e-12);
        let (p, v) = sum.tail.expect("100 samples resolve p90");
        assert_eq!(p, 0.9);
        assert!((v - 90.1).abs() < 1e-12);
        assert!((s.quantile(0.99, 1_000.0) - 99.01).abs() < 1e-12);
    }

    #[test]
    fn summary_of_one_sample_and_of_none() {
        let mut s = Samples::new();
        assert!(s.summary(1.0).is_none());
        assert_eq!(s.quantile(0.5, 1.0), 0.0);
        s.push_ns(7);
        let sum = s.summary(1.0).expect("one sample");
        assert_eq!(
            (sum.median, sum.q1, sum.q3, sum.tail),
            (7.0, 7.0, 7.0, None)
        );
    }

    #[test]
    fn plain_values_share_the_rule() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        let s = summarize(&v).expect("non-empty");
        assert_eq!((s.n, s.median, s.tail), (20, 9.5, Some((0.5, 9.5))));
    }

    #[test]
    fn fold_changes_when_any_single_bit_flips() {
        let words = [0u64, 1, 0x3FF0_0000_0000_0000, u64::MAX, 0xDEAD_BEEF];
        let fold = |ws: &[u64]| {
            let mut f = Fold::default();
            for &w in ws {
                f.word(w);
            }
            f.finish()
        };
        let base = fold(&words);
        for i in 0..words.len() {
            for bit in 0..64 {
                let mut flipped = words;
                flipped[i] ^= 1 << bit;
                assert_ne!(fold(&flipped), base, "word {i} bit {bit}");
            }
        }
        let mut swapped = words;
        swapped.swap(0, 1);
        assert_ne!(fold(&swapped), base, "the fold is order-sensitive");
    }

    #[test]
    fn fold_of_f64_uses_exact_bits() {
        let mut a = Fold::default();
        a.f64(0.0);
        let mut b = Fold::default();
        b.f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}
