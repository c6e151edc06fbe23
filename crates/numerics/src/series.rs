//! One layout for every sampled trajectory.
//!
//! A [`Series`] is a time column plus one row of `width` values per
//! sample, stored flat and row-major: column `i` at sample `k` is
//! `data[k * width + i]`. The ODE and DDE integrators, the fluid model
//! (row = q, then each λ_i), the packet simulator's queue and control
//! traces and the event tracer's switchings all record into it, and the
//! tail window every summary reads is chosen in one place,
//! [`Series::tail_start`].

use crate::{NumericsError, Result};
use serde::Serialize;

/// Sample times with one fixed-width row of values per sample.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Series {
    t: Vec<f64>,
    width: usize,
    data: Vec<f64>,
}

impl Series {
    /// An empty series of rows `width` values wide.
    #[must_use]
    pub fn new(width: usize) -> Self {
        Self {
            width,
            ..Self::default()
        }
    }

    /// Empty the series for rows `width` wide and reserve `rows`
    /// samples, keeping the buffers' capacity (for reuse across runs).
    pub fn reset(&mut self, width: usize, rows: usize) {
        self.width = width;
        self.t.clear();
        self.data.clear();
        self.t.reserve(rows);
        self.data.reserve(rows * width);
    }

    /// Append the sample `(t, row)`.
    ///
    /// # Panics
    /// Panics when `row` does not hold exactly `width` values.
    #[inline]
    pub fn push(&mut self, t: f64, row: impl IntoIterator<Item = f64>) {
        let before = self.data.len();
        self.data.extend(row);
        assert_eq!(
            self.data.len() - before,
            self.width,
            "Series::push: row width differs from the series'"
        );
        self.t.push(t);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether the series holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Values per sample.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sample times.
    #[must_use]
    pub fn t(&self) -> &[f64] {
        &self.t
    }

    /// Every value, row-major.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Allocated capacity of the time and value buffers.
    #[must_use]
    pub fn capacity(&self) -> (usize, usize) {
        (self.t.capacity(), self.data.capacity())
    }

    /// Every value, row-major, for in-place edits.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The row of sample `k`.
    ///
    /// # Panics
    /// Panics when `k >= len()`.
    #[must_use]
    pub fn row(&self, k: usize) -> &[f64] {
        &self.data[k * self.width..(k + 1) * self.width]
    }

    /// Column `i`, one value per sample.
    ///
    /// # Panics
    /// Panics when `i >= width()`.
    pub fn col(&self, i: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(i < self.width, "Series::col: column {i} of {}", self.width);
        self.data.iter().skip(i).step_by(self.width).copied()
    }

    /// The last sample's time and row.
    #[must_use]
    pub fn last(&self) -> Option<(f64, &[f64])> {
        let k = self.len().checked_sub(1)?;
        Some((self.t[k], self.row(k)))
    }

    /// Step-hold value at time `t`: the row of the last sample at or
    /// before `t` (the first row for `t` before the first sample).
    ///
    /// # Panics
    /// Panics on an empty series.
    #[must_use]
    pub fn at(&self, t: f64) -> &[f64] {
        self.row(self.t.partition_point(|&s| s <= t).saturating_sub(1))
    }

    /// First sample of the final `fraction` of the series: sample
    /// `⌊(1 − fraction)·len⌋`, moved back so the window keeps at least
    /// `min_len` samples (all of them when the series is shorter).
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] naming `tail_fraction` when
    /// `fraction` is NaN or outside `(0, 1]`.
    pub fn tail_start(&self, fraction: f64, min_len: usize) -> Result<usize> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(NumericsError::InvalidParameter {
                context: "Series::tail_start: tail_fraction must lie in (0, 1]",
            });
        }
        let n = self.len();
        Ok((((1.0 - fraction) * n as f64) as usize).min(n.saturating_sub(min_len)))
    }

    /// Mean of column `i` over samples `start..`, summed in sample order.
    #[must_use]
    pub fn tail_mean(&self, i: usize, start: usize) -> f64 {
        let sum = self.col(i).skip(start).fold(0.0, |acc, v| acc + v);
        sum / (self.len() - start) as f64
    }

    /// Unbiased variance of column `i` over samples `start..` (0 with
    /// fewer than two), the two-pass sum of
    /// [`crate::stats::variance`].
    #[must_use]
    pub fn tail_var(&self, i: usize, start: usize) -> f64 {
        let n = self.len() - start;
        if n < 2 {
            return 0.0;
        }
        let m = self.tail_mean(i, start);
        self.col(i)
            .skip(start)
            .map(|v| (v - m) * (v - m))
            .sum::<f64>()
            / (n - 1) as f64
    }

    /// Drop the first `k` samples.
    pub(crate) fn drop_front(&mut self, k: usize) {
        self.t.drain(..k);
        self.data.drain(..k * self.width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Series {
        let mut s = Series::new(2);
        for k in 0..n {
            s.push(k as f64, [k as f64, 10.0 * k as f64]);
        }
        s
    }

    #[test]
    fn rows_columns_and_step_hold_are_row_major() {
        let s = ramp(4);
        assert_eq!((s.len(), s.width(), s.data()[2 * 2 + 1]), (4, 2, 20.0));
        assert_eq!(s.col(1).collect::<Vec<_>>(), [0.0, 10.0, 20.0, 30.0]);
        assert_eq!(s.last(), Some((3.0, &[3.0, 30.0][..])));
        assert_eq!(Series::new(3).last(), None);
        // The last sample at or before t; the first row before the start.
        for (t, k) in [(-1.0, 0), (1.0, 1), (1.999, 1), (9.0, 3)] {
            assert_eq!(s.at(t), s.row(k), "t = {t}");
        }
    }

    #[test]
    fn reset_keeps_the_buffers() {
        let mut s = ramp(8);
        let before = (s.t().as_ptr(), s.data().as_ptr(), s.capacity());
        s.reset(2, 8);
        s.push(0.0, [1.0, 2.0]);
        assert_eq!((s.t().as_ptr(), s.data().as_ptr(), s.capacity()), before);
        assert_eq!((s.len(), s.row(0)), (1, &[1.0, 2.0][..]));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn push_rejects_a_row_of_the_wrong_width() {
        Series::new(2).push(0.0, [1.0]);
    }

    #[test]
    fn tail_start_validates_and_keeps_the_minimum_window() {
        let s = ramp(10);
        assert_eq!(s.tail_start(0.3, 1), Ok(7));
        assert_eq!(s.tail_start(1.0, 1), Ok(0));
        assert_eq!(s.tail_start(1e-9, 1), Ok(9));
        assert_eq!(s.tail_start(1e-9, 3), Ok(7));
        assert_eq!(ramp(2).tail_start(0.5, 3), Ok(0));
        for bad in [0.0, -1.0, 1.5, f64::NAN] {
            let err = s.tail_start(bad, 1);
            assert!(
                matches!(err, Err(NumericsError::InvalidParameter { context })
                if context.contains("tail_fraction")),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn tail_moments_match_the_slice_statistics() {
        let s = ramp(10);
        let tail: Vec<f64> = s.col(1).skip(6).collect();
        assert_eq!(s.tail_mean(1, 6), crate::stats::mean(&tail));
        assert_eq!(s.tail_var(1, 6), crate::stats::variance(&tail));
        assert_eq!(s.tail_var(1, 9), 0.0);
    }
}
