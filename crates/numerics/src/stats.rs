//! Descriptive statistics: running moments, histograms, empirical CDFs,
//! Kolmogorov–Smirnov distance.
//!
//! The Fokker–Planck density is cross-validated against Langevin
//! Monte-Carlo histograms (experiment E4 in `DESIGN.md`); the KS distance
//! is the agreement metric reported in `EXPERIMENTS.md`.

use crate::{NumericsError, Result};

/// Numerically stable running mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Fresh accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one observation in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; 0 with fewer than two observations.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+∞ when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Half-width of the normal-approximation 95% confidence interval
    /// for the mean: `1.96 · s / √n`; 0 with fewer than two
    /// observations. Replication counts in ensemble sweeps are small, so
    /// this is a deliberate normal (not Student-t) approximation — the
    /// reported interval is slightly anti-conservative for n ≲ 10.
    #[must_use]
    pub fn ci95_halfwidth(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A fixed-range histogram with uniform bins plus underflow/overflow
/// counters.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Create a histogram over `[lo, hi)` with `bins` uniform bins.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] when `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self> {
        if bins == 0 || !(hi > lo) {
            return Err(NumericsError::InvalidParameter {
                context: "Histogram: need bins > 0 and hi > lo",
            });
        }
        Ok(Self {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        })
    }

    /// Deposit one sample.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let b = ((x - self.lo) / (self.hi - self.lo) * self.counts.len() as f64) as usize;
            let b = b.min(self.counts.len() - 1);
            self.counts[b] += 1;
        }
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw counts per bin.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples below `lo`.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above `hi`.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples pushed (including out-of-range).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bin width.
    #[must_use]
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Probability-density estimate: counts normalised so the histogram
    /// integrates to the in-range fraction of samples.
    #[must_use]
    pub fn density(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        let norm = self.total as f64 * self.bin_width();
        self.counts.iter().map(|&c| c as f64 / norm).collect()
    }
}

/// Two-sample Kolmogorov–Smirnov statistic: the sup-distance between the
/// empirical CDFs of `a` and `b`.
///
/// # Errors
/// [`NumericsError::InvalidParameter`] when either sample is empty.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.is_empty() || b.is_empty() {
        return Err(NumericsError::InvalidParameter {
            context: "ks_statistic: samples must be non-empty",
        });
    }
    let mut xa = a.to_vec();
    let mut xb = b.to_vec();
    xa.sort_unstable_by(|p, q| p.partial_cmp(q).unwrap());
    xb.sort_unstable_by(|p, q| p.partial_cmp(q).unwrap());
    let (mut i, mut j) = (0usize, 0usize);
    let (na, nb) = (xa.len() as f64, xb.len() as f64);
    let mut d: f64 = 0.0;
    while i < xa.len() && j < xb.len() {
        let x = xa[i].min(xb[j]);
        while i < xa.len() && xa[i] <= x {
            i += 1;
        }
        while j < xb.len() && xb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    Ok(d)
}

/// KS distance between an empirical sample and a discretised density
/// `(centers, pdf)` interpreted as a piecewise-constant distribution with
/// uniform spacing.
///
/// # Errors
/// [`NumericsError::InvalidParameter`] on empty inputs;
/// [`NumericsError::DimensionMismatch`] when table lengths differ.
pub fn ks_sample_vs_density(sample: &[f64], centers: &[f64], pdf: &[f64]) -> Result<f64> {
    if sample.is_empty() || centers.len() < 2 {
        return Err(NumericsError::InvalidParameter {
            context: "ks_sample_vs_density: empty inputs",
        });
    }
    if centers.len() != pdf.len() {
        return Err(NumericsError::DimensionMismatch {
            context: "ks_sample_vs_density: centers and pdf lengths differ",
        });
    }
    let dx = centers[1] - centers[0];
    // Build model CDF at bin right edges, normalising the discrete pdf.
    let total: f64 = pdf.iter().sum::<f64>() * dx;
    if total <= 0.0 {
        return Err(NumericsError::InvalidParameter {
            context: "ks_sample_vs_density: density has no mass",
        });
    }
    let mut cdf = Vec::with_capacity(pdf.len());
    let mut acc = 0.0;
    for p in pdf {
        acc += p * dx / total;
        cdf.push(acc);
    }
    let mut xs = sample.to_vec();
    xs.sort_unstable_by(|p, q| p.partial_cmp(q).unwrap());
    let n = xs.len() as f64;
    let mut d: f64 = 0.0;
    for (k, edge_pdfcdf) in cdf.iter().enumerate() {
        let edge = centers[k] + 0.5 * dx;
        // Empirical CDF at this edge.
        let idx = xs.partition_point(|&v| v <= edge);
        d = d.max((idx as f64 / n - edge_pdfcdf).abs());
    }
    Ok(d)
}

/// Sample mean of a slice; 0 for empty input.
#[must_use]
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Unbiased sample variance of a slice; 0 with fewer than 2 samples.
#[must_use]
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (x.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn running_stats_match_direct() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert!(approx_eq(rs.mean(), 5.0, 1e-14, 0.0));
        assert!(approx_eq(rs.variance(), variance(&xs), 1e-12, 0.0));
        assert!(approx_eq(rs.min(), 2.0, 0.0, 0.0));
        assert!(approx_eq(rs.max(), 9.0, 0.0, 0.0));
        assert_eq!(rs.count(), 8);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let mut all = RunningStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..20] {
            a.push(x);
        }
        for &x in &xs[20..] {
            b.push(x);
        }
        a.merge(&b);
        assert!(approx_eq(a.mean(), all.mean(), 1e-12, 1e-12));
        assert!(approx_eq(a.variance(), all.variance(), 1e-12, 1e-12));
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn ci95_halfwidth_scales_with_sqrt_n() {
        // σ = 1 (alternating ±1 about mean 0): s ≈ 1.0, so the half-width
        // is ≈ 1.96/√n and quarters... halves when n quadruples.
        let fill = |n: usize| {
            let mut rs = RunningStats::new();
            for i in 0..n {
                rs.push(if i % 2 == 0 { 1.0 } else { -1.0 });
            }
            rs
        };
        let a = fill(100);
        let b = fill(400);
        assert!(approx_eq(a.ci95_halfwidth(), 1.96 / 10.0, 1e-2, 1e-3));
        assert!(approx_eq(
            a.ci95_halfwidth() / b.ci95_halfwidth(),
            2.0,
            1e-2,
            0.0
        ));
        // Degenerate accumulators report a zero-width interval.
        assert_eq!(RunningStats::new().ci95_halfwidth(), 0.0);
        let mut one = RunningStats::new();
        one.push(3.0);
        assert_eq!(one.ci95_halfwidth(), 0.0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.clone();
        a.merge(&RunningStats::new());
        assert!(approx_eq(a.mean(), before.mean(), 0.0, 0.0));
        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert!(approx_eq(empty.mean(), before.mean(), 0.0, 0.0));
    }

    #[test]
    fn histogram_density_integrates_to_one() {
        let mut h = Histogram::new(0.0, 10.0, 20).unwrap();
        for i in 0..1000 {
            h.push((i % 100) as f64 / 10.0);
        }
        let total: f64 = h.density().iter().sum::<f64>() * h.bin_width();
        assert!(approx_eq(total, 1.0, 1e-12, 0.0));
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn histogram_out_of_range_counted() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        h.push(-1.0);
        h.push(2.0);
        h.push(0.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn ks_identical_samples_zero() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(ks_statistic(&a, &a).unwrap() < 1e-12);
    }

    #[test]
    fn ks_disjoint_samples_one() {
        let a = vec![0.0, 1.0, 2.0];
        let b = vec![10.0, 11.0, 12.0];
        assert!(approx_eq(ks_statistic(&a, &b).unwrap(), 1.0, 0.0, 1e-12));
    }

    #[test]
    fn ks_shifted_uniform() {
        let a: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
        let b: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0 + 0.25).collect();
        let d = ks_statistic(&a, &b).unwrap();
        assert!((d - 0.25).abs() < 0.01, "d={d}");
    }

    #[test]
    fn ks_sample_vs_density_uniform() {
        // Uniform density on [0, 1), sample drawn uniformly → small D.
        let centers: Vec<f64> = (0..100).map(|i| (i as f64 + 0.5) / 100.0).collect();
        let pdf = vec![1.0; 100];
        let sample: Vec<f64> = (0..2000).map(|i| (i as f64 + 0.5) / 2000.0).collect();
        let d = ks_sample_vs_density(&sample, &centers, &pdf).unwrap();
        assert!(d < 0.02, "d={d}");
    }
}
