//! The benchmark's own arithmetic: medians, nearest-rank percentiles,
//! and a bounded log-bucket histogram for per-layer timers.

/// Samples that must lie strictly beyond a percentile's rank before it
/// is reported: with fewer, the "percentile" is one of the last few
/// samples and says nothing stable about the tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the sample at rank
/// `ceil(q * n)`. `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond that rank.
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    let rank = rank_of(sorted.len() as u64, q)?;
    Some(sorted[rank as usize - 1])
}

/// The 1-based nearest rank of quantile `q` among `n` samples, if at
/// least [`MIN_BEYOND`] samples lie beyond it.
fn rank_of(n: u64, q: f64) -> Option<u64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    (n - rank >= MIN_BEYOND as u64).then_some(rank)
}

/// Median of `values` (mean of the two middle samples for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sub-buckets per power of two: bucket bounds are within 1/8 of the
/// values they hold.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// Log-bucket histogram of nanosecond durations: fixed size whatever the
/// sample count, so a traced 10⁶-call layer costs 4 KiB.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl LogHist {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
        (SUB + (exp - SUB_BITS) as u64 * SUB + sub) as usize
    }

    /// Largest value bucket `i` holds.
    fn upper(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            return i;
        }
        let exp = (i - SUB) / SUB + SUB_BITS as u64;
        let sub = (i - SUB) % SUB;
        let width = 1u64 << (exp - SUB_BITS as u64);
        ((SUB + sub) << (exp - SUB_BITS as u64)).saturating_add(width - 1)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank percentile, reported as the upper bound of the
    /// bucket holding that rank (so it never understates). Same
    /// [`MIN_BEYOND`] rule as [`nearest_rank`].
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let rank = rank_of(self.n, q)?;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::upper(i));
            }
        }
        unreachable!("rank {rank} within {} samples", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50));
        assert_eq!(nearest_rank(&v, 0.9), Some(90));
        assert_eq!(nearest_rank(&v, 0.505), Some(51));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=100).collect();
        // p90: rank 90, exactly 10 beyond — reported; p91: 9 beyond.
        assert_eq!(nearest_rank(&v, 0.90), Some(90));
        assert_eq!(nearest_rank(&v, 0.91), None);
        // p99 needs at least 1 000 samples.
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(nearest_rank(&v, 0.99), None);
        let v: Vec<u64> = (1..=1_000).collect();
        assert_eq!(nearest_rank(&v, 0.99), Some(990));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn histogram_buckets_bound_their_values() {
        for v in [0u64, 1, 7, 8, 9, 15, 16, 17, 1_000, 123_456_789, u64::MAX] {
            let i = LogHist::bucket(v);
            assert!(LogHist::upper(i) >= v, "bucket {i} upper below {v}");
            if i > 0 {
                assert!(
                    LogHist::upper(i - 1) < v,
                    "bucket {i} not the first to hold {v}"
                );
            }
            // Upper bound within one eighth of the value.
            assert!(
                LogHist::upper(i) - v <= v / 8,
                "bucket {i} too wide for {v}"
            );
        }
    }

    #[test]
    fn histogram_percentile_matches_exact_rank_within_a_bucket() {
        let mut h = LogHist::default();
        let v: Vec<u64> = (1..=10_000).map(|i| i * 37).collect();
        for &x in &v {
            h.record(x);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = nearest_rank(&v, q).unwrap();
            let approx = h.percentile(q).unwrap();
            assert!(
                approx >= exact && approx - exact <= exact / 8,
                "q={q}: {approx} vs {exact}"
            );
        }
        assert_eq!(LogHist::default().percentile(0.5), None);
    }
}
