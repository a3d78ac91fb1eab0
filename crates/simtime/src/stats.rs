//! Streaming statistics for kernel and phase timings.
//!
//! The runner aggregates tens of thousands of kernel launches per sweep
//! point; these accumulators are O(1) per sample and allocation-free,
//! per the project's hot-loop discipline.

use crate::time::SimDuration;

/// Welford one-pass mean/variance with min/max tracking.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Add a duration sample in seconds.
    pub fn push_duration(&mut self, d: SimDuration) {
        self.push(d.as_secs_f64());
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n-1 denominator); zero for fewer than 2 samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel reduction of
    /// per-thread statistics; Chan et al. update).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n_total = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n_total as f64;
        let m2 =
            self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n_total as f64;
        self.n = n_total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed-bucket histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Create a histogram with `n` equal-width buckets over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0, "histogram needs at least one bucket");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
        }
    }

    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.buckets.len() as f64;
            let i = ((x - self.lo) / w) as usize;
            // Guard the edge where floating-point rounding lands exactly
            // on the upper bound.
            let i = i.min(self.buckets.len() - 1);
            self.buckets[i] += 1;
        }
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }

    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The inclusive lower edge of bucket `i`.
    pub fn bucket_lo(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.buckets.len() as f64;
        self.lo + w * i as f64
    }

    /// An approximate quantile (0.0..=1.0) from bucket midpoints.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return self.lo;
        }
        let w = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.lo + w * (i as f64 + 0.5);
            }
        }
        self.hi
    }
}

/// Bits of linear resolution per power of two in [`LogHistogram`]:
/// 2^7 = 128 sub-buckets per octave.
const LOG_SUB_BITS: u32 = 7;
const LOG_SUB: usize = 1 << LOG_SUB_BITS;
/// One exact group for `0..128`, then one group of 128 sub-buckets for
/// each octave `[2^m, 2^(m+1))`, m = 7..=63: 58 groups in all.
const LOG_BUCKETS: usize = (64 - LOG_SUB_BITS as usize + 1) * LOG_SUB;

/// Fixed-size log-linear histogram of `u64` samples (the HdrHistogram
/// layout over the whole `u64` range). Values below 128 are counted
/// exactly; larger ones fall into 128 equal-width sub-buckets per power
/// of two, so no bucket is wider than 1/128 of its lower edge.
///
/// Recording is O(1) and never allocates; the structure is 58 KiB
/// however many samples it has seen. Quantiles are reported as the
/// midpoint of the bucket holding the exact nearest-rank sample, which
/// is within [`LogHistogram::MAX_RELATIVE_ERROR`] of it.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Largest relative distance between a reported quantile and the
    /// exact sample it stands for: half a bucket, 1/256 (0.39%).
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / (2 * LOG_SUB) as f64;

    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; LOG_BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    /// Add one sample.
    pub fn record(&mut self, v: u64) {
        if let Some(c) = self.counts.get_mut(bucket_of(v)) {
            *c = c.saturating_add(1);
        }
        self.total = self.total.saturating_add(1);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantiles, all from one cumulative walk: for each
    /// `q`, the sample at 0-based rank `round((n−1)·q)` of the sorted
    /// stream, as its bucket's midpoint. All zeros when empty.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [u64; N] {
        let mut out = [0; N];
        if self.total == 0 {
            return out;
        }
        let ranks = qs.map(|q| ((self.total - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64);
        let last = ranks.iter().copied().max().unwrap_or(0);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = seen.saturating_add(c);
            for (o, r) in out.iter_mut().zip(ranks) {
                if (seen..next).contains(&r) {
                    *o = bucket_mid(i);
                }
            }
            if next > last {
                break;
            }
            seen = next;
        }
        out
    }
}

/// The [`LogHistogram`] bucket holding `v`.
fn bucket_of(v: u64) -> usize {
    if v < LOG_SUB as u64 {
        return v as usize;
    }
    // v lies in [2^m, 2^(m+1)) with m >= 7; its top 8 bits pick the
    // sub-bucket, the octave picks the group.
    let shift = 63 - v.leading_zeros() - LOG_SUB_BITS;
    ((shift as usize + 1) << LOG_SUB_BITS) | ((v >> shift) as usize & (LOG_SUB - 1))
}

/// The middle value of [`LogHistogram`] bucket `i` (rounded down).
fn bucket_mid(i: usize) -> u64 {
    let group = i >> LOG_SUB_BITS;
    let sub = (i & (LOG_SUB - 1)) as u64;
    if group == 0 {
        return sub;
    }
    let shift = (group - 1) as u32;
    ((LOG_SUB as u64 | sub) << shift) + ((1u64 << shift) - 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_empty_is_zeroed() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), 0.0);
        assert_eq!(w.max(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn welford_merge_with_empty_sides() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        b.push(3.0);
        a.merge(&b); // empty <- nonempty
        assert_eq!(a.count(), 1);
        let empty = Welford::new();
        a.merge(&empty); // nonempty <- empty
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 3.0);
    }

    #[test]
    fn histogram_buckets_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        h.push(-1.0);
        h.push(10.0);
        h.push(123.0);
        assert_eq!(h.count(), 13);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert!(h.bucket_counts().iter().all(|&c| c == 1));
        assert_eq!(h.bucket_lo(3), 3.0);
    }

    #[test]
    fn histogram_quantile_is_monotone() {
        let mut h = Histogram::new(0.0, 100.0, 20);
        for i in 0..1000 {
            h.push((i % 100) as f64);
        }
        let q25 = h.quantile(0.25);
        let q50 = h.quantile(0.50);
        let q90 = h.quantile(0.90);
        assert!(q25 <= q50 && q50 <= q90);
        assert!((q50 - 50.0).abs() < 5.0);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn histogram_rejects_zero_buckets() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[allow(clippy::excessive_precision)]
    fn histogram_edge_rounding_stays_in_range() {
        let mut h = Histogram::new(0.0, 0.3, 3);
        // 0.3 * (2/3) style values can round to the bucket count.
        h.push(0.29999999999999999);
        assert_eq!(h.count(), 1);
    }

    /// The exact nearest-rank quantile of a sorted copy: the log-based
    /// algorithm `hsim-serve` used before [`LogHistogram`], kept as the
    /// oracle. 0 for an empty stream.
    fn exact_quantile(xs: &[u64], q: f64) -> u64 {
        let mut sorted = xs.to_vec();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return 0;
        }
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    /// Records `xs` and checks p50 and p99 against the oracle, the
    /// error bound, their order, and the fixed footprint.
    fn check_log_histogram(xs: &[u64]) {
        let mut h = LogHistogram::new();
        let footprint = h.counts.len();
        for &x in xs {
            h.record(x);
        }
        assert_eq!(h.count(), xs.len() as u64);
        assert_eq!(h.counts.len(), footprint, "memory grew with samples");
        let [p50, p99] = h.quantiles([0.50, 0.99]);
        for (q, got) in [(0.50, p50), (0.99, p99)] {
            let want = exact_quantile(xs, q);
            let err = got.abs_diff(want) as f64;
            assert!(
                err <= want as f64 * LogHistogram::MAX_RELATIVE_ERROR,
                "q={q}: histogram {got} vs exact {want} over {} samples",
                xs.len()
            );
        }
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
    }

    #[test]
    fn log_histogram_footprint_is_fixed_and_under_64_kib() {
        let mut h = LogHistogram::new();
        let bytes = |h: &LogHistogram| {
            std::mem::size_of::<LogHistogram>() + std::mem::size_of_val(&*h.counts)
        };
        let before = bytes(&h);
        assert!(before <= 64 * 1024, "{before} bytes");
        for i in 0..100_000u64 {
            h.record(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 64));
        }
        assert_eq!(bytes(&h), before);
        const { assert!(LogHistogram::MAX_RELATIVE_ERROR < 0.01) };
    }

    #[test]
    fn log_histogram_edges_and_empty() {
        let empty = LogHistogram::new();
        assert_eq!(empty.quantiles([0.5, 0.99]), [0, 0]);
        for v in [0, 1, 127, 128, 255, 256, 1 << 40, u64::MAX - 1, u64::MAX] {
            check_log_histogram(&[v]);
            check_log_histogram(&[v; 5]);
        }
        check_log_histogram(&[0, u64::MAX]);
        check_log_histogram(&[0, 1, u64::MAX]);
        // Values below 128 are exact.
        let mut h = LogHistogram::new();
        for v in 0..128 {
            h.record(v);
        }
        assert_eq!(h.quantiles([0.0, 0.5, 1.0]), [0, 64, 127]);
    }

    #[test]
    fn log_histogram_buckets_tile_the_u64_range() {
        // Every bucket's midpoint maps back to the bucket, and bucket
        // boundaries map to adjacent buckets in order.
        for i in 0..LOG_BUCKETS {
            assert_eq!(bucket_of(bucket_mid(i)), i, "bucket {i}");
        }
        for m in LOG_SUB_BITS..64 {
            let lo = 1u64 << m;
            assert_eq!(bucket_of(lo - 1) + 1, bucket_of(lo), "octave {m}");
        }
        assert_eq!(bucket_of(u64::MAX), LOG_BUCKETS - 1);
    }

    use proptest::prelude::*;

    proptest! {
        /// Random streams over every magnitude: `m >> e` spreads the
        /// samples from 0 up to `u64::MAX`.
        #[test]
        fn log_histogram_quantiles_match_exact_nearest_rank(
            xs in prop::collection::vec((0u64..=u64::MAX, 0u32..64), 1..600),
        ) {
            let xs: Vec<u64> = xs.into_iter().map(|(m, e)| m >> e).collect();
            check_log_histogram(&xs);
        }

        /// Narrow streams: latencies clustered in one decade, as served
        /// requests are.
        #[test]
        fn log_histogram_clustered_streams(
            base in 1_000u64..10_000_000,
            xs in prop::collection::vec(0u64..1000, 1..600),
        ) {
            let xs: Vec<u64> = xs.into_iter().map(|x| base + x * (base / 1000)).collect();
            check_log_histogram(&xs);
        }

        #[test]
        fn log_histogram_all_equal_and_two_point_streams(
            a in 0u64..=u64::MAX,
            b in 0u64..=u64::MAX,
            shift in 0u32..64,
            na in 1usize..300,
            nb in 0usize..300,
        ) {
            let (a, b) = (a >> shift, b >> (63 - shift));
            check_log_histogram(&vec![a; na]);
            let mut xs = vec![a; na];
            xs.extend(std::iter::repeat_n(b, nb));
            check_log_histogram(&xs);
        }
    }
}
