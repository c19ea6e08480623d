//! Log-linear (HDR-style) histogram with lock-free recording.
//!
//! Values are bucketed by a 5-bit mantissa under the leading one: the
//! first 32 buckets are exact (width 1), and every later power-of-two
//! range is split into 32 sub-buckets. A bucket at magnitude `2^e` has
//! width `2^(e-5)`, so any reported quantile overstates the true value by
//! at most a factor of `1/32` (= [`QUANTILE_ERROR_BOUND`]) — and is
//! additionally clamped to the observed min/max, which makes degenerate
//! distributions exact.
//!
//! Recording is a relaxed `fetch_add` on one bucket plus the count/sum
//! cells — safe from any number of threads, never blocking. Histograms
//! merge bucket-wise, so per-thread shards can be combined into one
//! distribution with no loss beyond the shared bucketing.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS; // 32 sub-buckets per power of two
const GROUPS: usize = 64 - SUB_BITS as usize; // magnitudes 2^5 ..= 2^63
const BUCKETS: usize = SUB + GROUPS * SUB;

/// Worst-case relative overestimate of any quantile: one sub-bucket width.
pub const QUANTILE_ERROR_BOUND: f64 = 1.0 / SUB as f64;

fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // e >= SUB_BITS
        let g = (e - SUB_BITS) as usize;
        let s = ((v >> (e - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        SUB + g * SUB + s
    }
}

/// Smallest value mapping to bucket `idx`.
fn bucket_low(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let g = (idx - SUB) / SUB;
        let s = ((idx - SUB) % SUB) as u64;
        (SUB as u64 + s) << g
    }
}

/// Largest value mapping to bucket `idx` (the reported representative).
fn bucket_high(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        bucket_low(idx) + ((1u64 << ((idx - SUB) / SUB)) - 1)
    }
}

/// Index of the bucket holding the value of quantile `q` among `total`
/// values spread over `counts` (`None` when the counts hold fewer).
fn quantile_bucket(counts: impl Iterator<Item = u64>, total: u64, q: f64) -> Option<usize> {
    // Rank of the q-th value, 1-based; q=0 maps to the first value.
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    counts.enumerate().find_map(|(i, n)| {
        seen += n;
        (seen >= rank).then_some(i)
    })
}

struct Core {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A shareable, lock-free latency/size distribution.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<Core>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram(n={}, p50={})",
            self.count(),
            self.quantile(0.5)
        )
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Arc::new(Core {
                buckets: buckets.into_boxed_slice(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        let c = &self.core;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record `n` occurrences of the same value.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let c = &self.core;
        c.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        c.count.fetch_add(n, Ordering::Relaxed);
        c.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a slice of values in one pass, amortizing the aggregate
    /// cells: count/sum/min/max are folded locally and touched with one
    /// atomic each, so `n` samples cost `n + 4` atomic adds instead of
    /// `5n`. This is the per-batch flush path of the runtime's shards.
    pub fn record_all(&self, values: &[u64]) {
        if values.is_empty() {
            return;
        }
        let c = &self.core;
        let mut sum = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for &v in values {
            c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            sum = sum.wrapping_add(v);
            min = min.min(v);
            max = max.max(v);
        }
        c.count.fetch_add(values.len() as u64, Ordering::Relaxed);
        c.sum.fetch_add(sum, Ordering::Relaxed);
        c.min.fetch_min(min, Ordering::Relaxed);
        c.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Record a virtual-clock duration in nanoseconds.
    pub fn record_dur(&self, d: smartwatch_net::Dur) {
        self.record(d.as_nanos());
    }

    /// Fold every sample of `other` into `self` (bucket-wise; loses
    /// nothing beyond the shared bucketing).
    pub fn merge_from(&self, other: &Histogram) {
        let (a, b) = (&self.core, &other.core);
        for (dst, src) in a.buckets.iter().zip(b.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        a.count
            .fetch_add(b.count.load(Ordering::Relaxed), Ordering::Relaxed);
        a.sum
            .fetch_add(b.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        a.min
            .fetch_min(b.min.load(Ordering::Relaxed), Ordering::Relaxed);
        a.max
            .fetch_max(b.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.core.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.core.max.load(Ordering::Relaxed)
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The value at quantile `q` (in `[0, 1]`), overestimating by at most
    /// [`QUANTILE_ERROR_BOUND`] relative error and clamped to the
    /// observed min/max. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let counts = self.core.buckets.iter().map(|b| b.load(Ordering::Relaxed));
        match quantile_bucket(counts, total, q) {
            Some(i) => bucket_high(i).clamp(self.min(), self.max()),
            None => self.max(),
        }
    }

    /// Immutable point-in-time summary (used by the exporters).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }

    /// Freeze the current bucket counts: the baseline a later
    /// [`Histogram::snapshot_since`] subtracts.
    pub fn base(&self) -> HistBase {
        HistBase {
            buckets: self.load_buckets(),
            count: self.count(),
            sum: self.sum(),
        }
    }

    /// Summary of only the values recorded since `base` was taken from
    /// this histogram. Count, sum, mean and quantiles cover exactly that
    /// window (quantiles at the usual bucket resolution). Min and max are
    /// exact while the baseline is empty; otherwise they are the bounds
    /// of the lowest and highest bucket the window touched, clamped to
    /// the lifetime min and max.
    pub fn snapshot_since(&self, base: &HistBase) -> HistSnapshot {
        let mut buckets = self.load_buckets();
        for (n, b) in buckets.iter_mut().zip(base.buckets.iter()) {
            *n = n.saturating_sub(*b);
        }
        let count = self.count().saturating_sub(base.count);
        let first = buckets.iter().position(|&n| n > 0);
        let last = buckets.iter().rposition(|&n| n > 0);
        let (min, max) = match (first, last) {
            (Some(_), Some(_)) if base.count == 0 => (self.min(), self.max()),
            (Some(lo), Some(hi)) => (
                bucket_low(lo).max(self.min()),
                bucket_high(hi).min(self.max()),
            ),
            _ => return HistSnapshot::default(),
        };
        let sum = self.sum().wrapping_sub(base.sum);
        let q = |q: f64| match quantile_bucket(buckets.iter().copied(), count, q) {
            Some(i) => bucket_high(i).clamp(min, max),
            None => max,
        };
        HistSnapshot {
            count,
            sum,
            min,
            max,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: q(0.50),
            p90: q(0.90),
            p99: q(0.99),
            p999: q(0.999),
        }
    }

    fn load_buckets(&self) -> Box<[u64]> {
        let load = |b: &AtomicU64| b.load(Ordering::Relaxed);
        self.core.buckets.iter().map(load).collect()
    }

    /// True when no two `Histogram` handles share this distribution.
    pub fn is_unshared(&self) -> bool {
        Arc::strong_count(&self.core) == 1
    }
}

/// A histogram's bucket counts frozen at one instant (see
/// [`Histogram::base`]).
#[derive(Clone, Debug)]
pub struct HistBase {
    buckets: Box<[u64]>,
    count: u64,
    sum: u64,
}

/// Point-in-time histogram summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct HistSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trip_bounds() {
        for v in (0..64).chain([100, 1000, 65_535, 1 << 20, u64::MAX / 3, u64::MAX]) {
            let idx = bucket_index(v);
            let high = bucket_high(idx);
            assert!(high >= v, "high {high} < v {v}");
            // Relative error bound: high <= v * (1 + 1/32) for v >= 32.
            if v >= SUB as u64 {
                let bound = v as f64 * (1.0 + QUANTILE_ERROR_BOUND);
                assert!(high as f64 <= bound, "v={v} high={high} bound={bound}");
            } else {
                assert_eq!(high, v, "linear region must be exact");
            }
        }
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn exact_in_linear_region() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(1.0), 10);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10);
        assert_eq!(h.mean(), 5.5);
    }

    #[test]
    fn degenerate_distribution_is_exact() {
        let h = Histogram::new();
        h.record_n(123_456_789, 1000);
        assert_eq!(h.quantile(0.5), 123_456_789);
        assert_eq!(h.quantile(0.999), 123_456_789);
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn record_all_equals_repeated_record() {
        let bulk = Histogram::new();
        let scalar = Histogram::new();
        let values: Vec<u64> = (0..2000u64).map(|i| i * i % 7919).collect();
        for chunk in values.chunks(64) {
            bulk.record_all(chunk);
        }
        bulk.record_all(&[]);
        for &v in &values {
            scalar.record(v);
        }
        assert_eq!(bulk.snapshot(), scalar.snapshot());
    }

    #[test]
    fn snapshot_since_covers_only_the_window() {
        let h = Histogram::new();
        let empty = h.base();
        let window = Histogram::new();
        for i in 0..500u64 {
            h.record(i * 37 % 1009 + 1);
        }
        assert_eq!(h.snapshot_since(&empty), h.snapshot(), "empty baseline");
        let base = h.base();
        assert_eq!(h.snapshot_since(&base), HistSnapshot::default());
        for i in 0..300u64 {
            let v = i * i % 7919 + 100;
            h.record(v);
            window.record(v);
        }
        let (got, want) = (h.snapshot_since(&base), window.snapshot());
        assert_eq!(
            (got.count, got.sum, got.mean, got.p50, got.p90, got.p99),
            (want.count, want.sum, want.mean, want.p50, want.p90, want.p99)
        );
        // Min and max come from the window's extreme buckets.
        assert!(got.min <= want.min && bucket_index(got.min) == bucket_index(want.min));
        assert!(got.max >= want.max && bucket_index(got.max) == bucket_index(want.max));
    }

    #[test]
    fn merge_equals_record_all() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for i in 0..1000u64 {
            let v = i * i % 7919 + 1;
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            all.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), all.snapshot());
    }
}
