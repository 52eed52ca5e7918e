//! Measurement utilities mirroring the paper's methodology.
//!
//! [`Log2Histogram`] reproduces the Figure 2 presentation: page-fault
//! handling times bucketed by powers of two of microseconds (0.5 µs …
//! 512 µs). [`Summary`] accumulates mean / standard deviation / min / max /
//! percentiles for run-to-run variation (the paper reports mean ± stddev of
//! 3–5 runs).

use std::fmt;

use crate::time::SimDuration;

/// A histogram with power-of-two microsecond buckets, as in Figure 2.
///
/// Bucket `i` counts samples in `[2^(i-1) µs, 2^i µs)`; bucket 0 counts
/// samples below `0.5 µs` is handled by `lo`, and samples at or above the
/// top edge land in `hi`.
#[derive(Clone, Debug, Default)]
pub struct Log2Histogram {
    /// Count below the first edge (0.5 µs).
    lo: u64,
    /// Counts for [0.5,1), [1,2), [2,4), ... [256,512) µs.
    buckets: [u64; 11],
    /// Count at or above 512 µs.
    hi: u64,
    total_ns: u64,
    count: u64,
    max_ns: u64,
}

impl Log2Histogram {
    /// Bucket edges in microseconds, matching Figure 2's x ticks.
    pub const EDGES_US: [f64; 12] = [
        0.5,
        1.0,
        2.0,
        4.0,
        8.0,
        16.0,
        32.0,
        64.0,
        128.0,
        256.0,
        512.0,
        f64::INFINITY,
    ];

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a duration sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.total_ns += ns;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
        if ns < 500 {
            self.lo += 1;
        } else if ns >= 512_000 {
            self.hi += 1;
        } else {
            // Bucket `i` holds [0.5·2^i, 0.5·2^(i+1)) µs, so its index is
            // the integer log2 of the sample in units of 0.5 µs.
            self.buckets[(ns / 500).ilog2() as usize] += 1;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos(self.total_ns)
    }

    /// Mean sample, or zero if empty.
    pub fn mean(&self) -> SimDuration {
        match self.total_ns.checked_div(self.count) {
            Some(ns) => SimDuration::from_nanos(ns),
            None => SimDuration::ZERO,
        }
    }

    /// Largest sample seen.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Fraction of samples at or above `edge_us` microseconds (computed
    /// from bucket boundaries; `edge_us` must be one of [`Self::EDGES_US`]).
    pub fn fraction_at_or_above(&self, edge_us: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut above = self.hi;
        for (i, &e) in Self::EDGES_US[..11].iter().enumerate() {
            if e >= edge_us {
                above += self.buckets[i];
            }
        }
        above as f64 / self.count as f64
    }

    /// Percentile estimate in microseconds from the bucket counts
    /// (nearest-rank over the cumulative distribution). The estimate is
    /// conservative: it reports the *upper* edge of the bucket holding
    /// the ranked sample, so an SLO check against it can only
    /// over-count, never under-count, slow samples. Ranks landing below
    /// the first edge report that edge (0.5); ranks landing in the
    /// open-ended top bucket report the largest recorded sample.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * (self.count as f64 - 1.0)).round() as u64;
        let mut seen = self.lo;
        if rank < seen {
            return Self::EDGES_US[0];
        }
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if rank < seen {
                return Self::EDGES_US[i + 1];
            }
        }
        self.max_ns as f64 / 1000.0
    }

    /// Returns `(label, count)` rows for display, matching Figure 2's bars.
    pub fn rows(&self) -> Vec<(String, u64)> {
        let mut rows = vec![("<0.5us".to_string(), self.lo)];
        for i in 0..11 {
            let lo = Self::EDGES_US[i];
            let hi = Self::EDGES_US[i + 1];
            rows.push((format!("[{lo},{hi})us"), self.buckets[i]));
        }
        rows.push((">=512us".to_string(), self.hi));
        rows
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        self.lo += other.lo;
        self.hi += other.hi;
        for i in 0..11 {
            self.buckets[i] += other.buckets[i];
        }
        self.total_ns += other.total_ns;
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

impl fmt::Display for Log2Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:>14} {:>10}", "bucket", "count")?;
        for (label, count) in self.rows() {
            if count > 0 {
                writeln!(f, "{label:>14} {count:>10}")?;
            }
        }
        write!(
            f,
            "n={} mean={} total={}",
            self.count,
            self.mean(),
            self.total()
        )
    }
}

/// Accumulates scalar samples and reports summary statistics.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Records a duration in milliseconds.
    pub fn record_ms(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Population standard deviation, or 0 if fewer than two samples.
    pub fn stddev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / self.samples.len() as f64)
            .sqrt()
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Percentile via nearest-rank on a sorted copy (p in [0, 100]).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Median (nearest-rank). The shared implementation behind bench
    /// tables and fleet metrics.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 95th percentile (nearest-rank).
    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    /// 99th percentile (nearest-rank).
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// All samples, in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Summary {
            samples: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} +/- {:.2} (n={})",
            self.mean(),
            self.stddev(),
            self.count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: f64) -> SimDuration {
        SimDuration::from_micros_f64(v)
    }

    #[test]
    fn histogram_bucket_assignment() {
        let mut h = Log2Histogram::new();
        h.record(us(0.3)); // lo
        h.record(us(0.5)); // [0.5,1)
        h.record(us(0.9)); // [0.5,1)
        h.record(us(1.0)); // [1,2)
        h.record(us(3.7)); // [2,4)
        h.record(us(31.9)); // [16,32)
        h.record(us(32.0)); // [32,64)
        h.record(us(600.0)); // hi
        let rows = h.rows();
        assert_eq!(rows[0].1, 1, "lo");
        assert_eq!(rows[1].1, 2, "[0.5,1)");
        assert_eq!(rows[2].1, 1, "[1,2)");
        assert_eq!(rows[3].1, 1, "[2,4)");
        assert_eq!(rows[6].1, 1, "[16,32)");
        assert_eq!(rows[7].1, 1, "[32,64)");
        assert_eq!(rows[12].1, 1, "hi");
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn integer_buckets_match_the_float_formula() {
        // The float bucketing `record` replaced: log2 of microseconds.
        let float_bucket = |ns: u64| {
            let us = ns as f64 / 1000.0;
            if us < 0.5 {
                None
            } else if us >= 512.0 {
                Some(11)
            } else {
                Some((us.log2().floor() as i32 + 1).clamp(0, 10) as usize)
            }
        };
        let mut h = Log2Histogram::new();
        for ns in 0..=2_000_000u64 {
            let before = (h.lo, h.buckets, h.hi);
            h.record(SimDuration::from_nanos(ns));
            match float_bucket(ns) {
                None => assert_eq!(h.lo, before.0 + 1, "{ns} ns below 0.5 us"),
                Some(11) => assert_eq!(h.hi, before.2 + 1, "{ns} ns at or above 512 us"),
                Some(i) => assert_eq!(h.buckets[i], before.1[i] + 1, "{ns} ns in bucket {i}"),
            }
        }
        let bucketed: u64 = h.buckets.iter().sum();
        assert_eq!(h.lo + bucketed + h.hi, h.count(), "one counter per sample");
    }

    #[test]
    fn histogram_fraction_above() {
        let mut h = Log2Histogram::new();
        for _ in 0..91 {
            h.record(us(3.0));
        }
        for _ in 0..9 {
            h.record(us(100.0));
        }
        let f = h.fraction_at_or_above(32.0);
        assert!((f - 0.09).abs() < 1e-9, "got {f}");
    }

    #[test]
    fn histogram_mean_total_max() {
        let mut h = Log2Histogram::new();
        h.record(us(2.0));
        h.record(us(4.0));
        assert_eq!(h.mean().as_nanos(), 3_000);
        assert_eq!(h.total().as_nanos(), 6_000);
        assert_eq!(h.max().as_nanos(), 4_000);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.record(us(1.0));
        b.record(us(1.0));
        b.record(us(700.0));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.rows()[2].1, 2);
        assert_eq!(a.rows()[12].1, 1);
    }

    #[test]
    fn histogram_empty() {
        let h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.fraction_at_or_above(32.0), 0.0);
    }

    #[test]
    fn histogram_zero_and_one_sample() {
        let zero = Log2Histogram::new();
        assert_eq!(zero.total(), SimDuration::ZERO);
        assert_eq!(zero.max(), SimDuration::ZERO);
        assert!(zero.rows().iter().all(|(_, c)| *c == 0));

        let mut one = Log2Histogram::new();
        one.record(us(5.0));
        assert_eq!(one.count(), 1);
        assert_eq!(one.mean().as_nanos(), 5_000);
        assert_eq!(one.max().as_nanos(), 5_000);
        assert_eq!(one.rows()[4].1, 1, "[4,8)");
        assert_eq!(one.fraction_at_or_above(4.0), 1.0);
        assert_eq!(one.fraction_at_or_above(8.0), 0.0);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Samples exactly on edges land in the bucket whose lower edge
        // they hit (intervals are half-open [lo, hi)).
        let mut h = Log2Histogram::new();
        h.record(us(0.5));
        h.record(us(256.0));
        h.record(us(511.999));
        h.record(us(512.0));
        let rows = h.rows();
        assert_eq!(rows[1].1, 1, "[0.5,1) holds 0.5");
        assert_eq!(rows[10].1, 2, "[256,512) holds 256.0 and 511.999");
        assert_eq!(rows[12].1, 1, ">=512 holds 512.0");
    }

    #[test]
    fn histogram_merge_disjoint() {
        // Merging histograms with non-overlapping buckets preserves every
        // count, the total, and the max.
        let mut lo = Log2Histogram::new();
        lo.record(us(0.1));
        lo.record(us(0.7));
        let mut hi = Log2Histogram::new();
        hi.record(us(100.0));
        hi.record(us(900.0));
        lo.merge(&hi);
        assert_eq!(lo.count(), 4);
        assert_eq!(lo.rows()[0].1, 1, "lo bucket kept");
        assert_eq!(lo.rows()[1].1, 1, "[0.5,1) kept");
        assert_eq!(lo.rows()[8].1, 1, "[64,128) from other");
        assert_eq!(lo.rows()[12].1, 1, "hi from other");
        assert_eq!(lo.max().as_nanos(), 900_000);
        assert_eq!(lo.total().as_nanos(), 1_000_800);
        // Merging an empty histogram is the identity.
        let snapshot = lo.rows();
        lo.merge(&Log2Histogram::new());
        assert_eq!(lo.rows(), snapshot);
        assert_eq!(lo.count(), 4);
    }

    #[test]
    fn histogram_percentile_at_bucket_boundaries() {
        // Samples sitting exactly on edges: the estimate must report the
        // upper edge of the half-open bucket each one landed in.
        let mut h = Log2Histogram::new();
        for _ in 0..50 {
            h.record(us(0.5)); // [0.5, 1)
        }
        for _ in 0..50 {
            h.record(us(256.0)); // [256, 512)
        }
        assert_eq!(h.percentile_us(0.0), 1.0, "p0 upper edge of [0.5,1)");
        assert_eq!(h.percentile_us(25.0), 1.0);
        assert_eq!(h.percentile_us(75.0), 512.0, "upper edge of [256,512)");
        assert_eq!(h.percentile_us(100.0), 512.0);
    }

    #[test]
    fn histogram_percentile_lo_hi_and_empty() {
        assert_eq!(Log2Histogram::new().percentile_us(50.0), 0.0);
        let mut h = Log2Histogram::new();
        h.record(us(0.1)); // below first edge
        assert_eq!(h.percentile_us(50.0), 0.5, "lo ranks report first edge");
        let mut h = Log2Histogram::new();
        h.record(us(3000.0)); // >= 512 — open-ended top bucket
        assert_eq!(h.percentile_us(50.0), 3000.0, "hi ranks report the max");
        // A mix: the p100 rank lands in hi and reports the true max, not
        // an edge.
        let mut h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(us(4.0));
        }
        h.record(us(700.0));
        assert_eq!(h.percentile_us(50.0), 8.0);
        assert_eq!(h.percentile_us(100.0), 700.0);
    }

    #[test]
    fn histogram_merge_is_associative() {
        let mk = |samples: &[f64]| {
            let mut h = Log2Histogram::new();
            for &s in samples {
                h.record(us(s));
            }
            h
        };
        let (a, b, c) = (
            mk(&[0.2, 0.5, 3.0]),
            mk(&[3.9, 4.0, 900.0]),
            mk(&[64.0, 511.9, 0.6]),
        );
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.rows(), right.rows());
        assert_eq!(left.count(), right.count());
        assert_eq!(left.total(), right.total());
        assert_eq!(left.max(), right.max());
        for p in [0.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            assert_eq!(left.percentile_us(p), right.percentile_us(p), "p{p}");
        }
    }

    #[test]
    fn summary_fixed_percentiles() {
        let s = Summary::from_iter((1..=100).map(|x| x as f64));
        assert_eq!(s.p50(), s.percentile(50.0));
        assert_eq!(s.p95(), s.percentile(95.0));
        assert_eq!(s.p99(), s.percentile(99.0));
        assert!(s.p50() < s.p95() && s.p95() < s.p99());
    }

    #[test]
    fn summary_basic_stats() {
        let s = Summary::from_iter([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), 2.5);
        assert!((s.stddev() - 1.118).abs() < 1e-3);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn summary_percentiles() {
        let s = Summary::from_iter((1..=100).map(|x| x as f64));
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        let p50 = s.percentile(50.0);
        assert!((49.0..=51.0).contains(&p50));
    }

    #[test]
    fn summary_empty_and_single() {
        let e = Summary::new();
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.stddev(), 0.0);
        assert_eq!(e.percentile(50.0), 0.0);
        let s = Summary::from_iter([7.0]);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 7.0);
        assert_eq!(s.max(), 7.0);
    }

    #[test]
    fn summary_display() {
        let s = Summary::from_iter([1.0, 3.0]);
        assert_eq!(format!("{s}"), "2.00 +/- 1.00 (n=2)");
    }
}
