//! Log2-bucket latency histogram with linear sub-buckets.
//!
//! Values (nanoseconds, or any non-negative integer) below
//! `2^SUB_BITS` get one exact bucket each. Above that, every octave
//! `[2^e, 2^(e+1))` is split into `2^SUB_BITS` equal sub-buckets, so a
//! bucket is never wider than `1 / 2^SUB_BITS` (0.4%) of its lower
//! bound. Recording is O(1) and allocation-free; percentiles walk the
//! fixed bucket array and interpolate linearly inside the bucket that
//! holds the requested rank, so two runs with slightly different
//! samples report slightly different values instead of the same bucket
//! edge.

/// Sub-bucket resolution: `2^SUB_BITS` linear sub-buckets per octave.
pub const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
/// Bucket count covering the whole `u64` range.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// The percentiles a report may use as its tail figure, highest last.
pub const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// A fixed-size log2/linear bucket histogram.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn index_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // e >= SUB_BITS
    let shift = e - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    (((e - SUB_BITS + 1) as usize) << SUB_BITS) + sub as usize
}

/// `[lo, hi)` of bucket `idx`.
fn bounds_of(idx: usize) -> (u64, u64) {
    if idx < SUB as usize {
        return (idx as u64, idx as u64 + 1);
    }
    let e = (idx >> SUB_BITS) as u32 - 1 + SUB_BITS;
    let shift = e - SUB_BITS;
    let sub = (idx as u64) & (SUB - 1);
    let lo = (SUB + sub) << shift;
    (lo, lo.saturating_add(1u64 << shift))
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += u128::from(v);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value below which `p` percent of the samples fall (0 when
    /// empty). The rank is located exactly; the value is interpolated
    /// inside its bucket and clamped to the observed min/max.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.total as f64)
            .ceil()
            .clamp(1.0, self.total as f64);
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let (lo, hi) = bounds_of(idx);
                let frac = (rank - below as f64 - 0.5) / c as f64;
                let v = lo as f64 + (hi - lo) as f64 * frac;
                return v.clamp(self.min as f64, self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }

    /// The highest of [`TAIL_PERCENTILES`] that has at least ten samples
    /// above it (`None` with fewer than 20 samples).
    pub fn tail_percentile(&self) -> Option<f64> {
        tail_percentile_for(self.total)
    }
}

/// The highest of [`TAIL_PERCENTILES`] leaving at least ten of `n`
/// samples beyond it.
pub fn tail_percentile_for(n: u64) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in (0..5000u64).chain([1 << 20, (1 << 40) + 12345, u64::MAX / 3]) {
            let (lo, hi) = bounds_of(index_of(v));
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi})");
            // never wider than 1/SUB of the lower bound above the exact range
            if v >= SUB {
                assert!((hi - lo) * SUB <= lo, "bucket of {v} too wide");
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 7, 7, 7, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.percentile(50.0).round(), 7.0);
        assert_eq!(h.percentile(1.0).round(), 3.0);
        assert_eq!(h.percentile(100.0).round(), 9.0);
    }

    #[test]
    fn uniform_percentiles_within_bucket_resolution() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for p in [10.0, 50.0, 90.0, 99.0, 99.9] {
            let want = p / 100.0 * 100_000.0;
            let got = h.percentile(p);
            let err = (got - want).abs() / want;
            assert!(err < 1.0 / SUB as f64, "p{p}: got {got}, want {want}");
        }
        assert!((h.mean() - 50_000.5).abs() < 1e-6);
    }

    #[test]
    fn percentiles_are_monotone_and_clamped() {
        let mut h = Histogram::new();
        for i in 0..1000u64 {
            h.record(1000 + (i * 7919) % 50_000);
        }
        let mut last = 0.0;
        for p in [0.1, 1.0, 25.0, 50.0, 75.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            assert!(v >= last, "p{p} = {v} < {last}");
            assert!((1000.0..=51_000.0).contains(&v));
            last = v;
        }
    }

    #[test]
    fn merge_equals_recording_everything_once() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 0..3000u64 {
            let x = v * v % 77_777;
            if v % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
            all.record(x);
        }
        a.merge(&b);
        for p in [50.0, 99.0] {
            assert_eq!(a.percentile(p), all.percentile(p));
        }
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.tail_percentile(), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile_for(19), None);
        assert_eq!(tail_percentile_for(20), Some(50.0));
        assert_eq!(tail_percentile_for(999), Some(90.0));
        assert_eq!(tail_percentile_for(1000), Some(99.0));
        assert_eq!(tail_percentile_for(10_000), Some(99.9));
        assert_eq!(tail_percentile_for(1_000_000), Some(99.99));
    }
}
