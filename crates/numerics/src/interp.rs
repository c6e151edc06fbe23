//! Interpolation: linear, cubic Hermite, and natural cubic splines.
//!
//! The delay-differential integrator (`crate::dde`) needs dense history
//! interpolation, and the experiment harnesses resample trajectories onto
//! common time grids for comparison; both use these routines.

use crate::{NumericsError, Result};

/// Find `i` such that `xs[i] <= x < xs[i+1]`, clamping to the end
/// intervals, via binary search. `xs` must be strictly increasing.
fn bracket(xs: &[f64], x: f64) -> usize {
    let n = xs.len();
    if x <= xs[0] {
        return 0;
    }
    if x >= xs[n - 2] {
        return n - 2;
    }
    let mut lo = 0usize;
    let mut hi = n - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if xs[mid] <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

fn check_table(xs: &[f64], ys: &[f64], context: &'static str) -> Result<()> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return Err(NumericsError::DimensionMismatch { context });
    }
    if xs.windows(2).any(|w| w[1] <= w[0]) {
        return Err(NumericsError::InvalidParameter { context });
    }
    Ok(())
}

/// Piecewise-linear interpolation of tabulated `(xs, ys)` at `x`
/// (linear extrapolation beyond the table ends).
///
/// # Errors
/// [`NumericsError::DimensionMismatch`] / [`NumericsError::InvalidParameter`]
/// for tables shorter than 2 points or non-increasing `xs`.
pub fn linear(xs: &[f64], ys: &[f64], x: f64) -> Result<f64> {
    check_table(xs, ys, "interp::linear")?;
    let i = bracket(xs, x);
    let t = (x - xs[i]) / (xs[i + 1] - xs[i]);
    Ok(ys[i] + t * (ys[i + 1] - ys[i]))
}

/// Cubic Hermite interpolation on one interval `[x0, x1]` given endpoint
/// values `y0, y1` and slopes `d0, d1`.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn hermite(x0: f64, y0: f64, d0: f64, x1: f64, y1: f64, d1: f64, x: f64) -> f64 {
    let h = x1 - x0;
    let t = (x - x0) / h;
    let h00 = (1.0 + 2.0 * t) * (1.0 - t) * (1.0 - t);
    let h10 = t * (1.0 - t) * (1.0 - t);
    let h01 = t * t * (3.0 - 2.0 * t);
    let h11 = t * t * (t - 1.0);
    h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1
}

/// A natural cubic spline through tabulated points.
///
/// "Natural" means the second derivative vanishes at both ends. Second
/// derivatives at the knots are precomputed with a tridiagonal solve, so
/// evaluation is O(log n).
#[derive(Debug, Clone)]
pub struct CubicSpline {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Second derivatives at the knots.
    m: Vec<f64>,
}

impl CubicSpline {
    /// Fit a natural cubic spline to `(xs, ys)`.
    ///
    /// # Errors
    /// Same table-validity conditions as [`linear`].
    pub fn fit(xs: &[f64], ys: &[f64]) -> Result<Self> {
        check_table(xs, ys, "CubicSpline::fit")?;
        let n = xs.len();
        let mut m = vec![0.0; n];
        if n > 2 {
            // Solve for interior second derivatives.
            let k = n - 2;
            let mut sub = vec![0.0; k];
            let mut diag = vec![0.0; k];
            let mut sup = vec![0.0; k];
            let mut rhs = vec![0.0; k];
            for i in 1..n - 1 {
                let h0 = xs[i] - xs[i - 1];
                let h1 = xs[i + 1] - xs[i];
                sub[i - 1] = h0;
                diag[i - 1] = 2.0 * (h0 + h1);
                sup[i - 1] = h1;
                rhs[i - 1] = 6.0 * ((ys[i + 1] - ys[i]) / h1 - (ys[i] - ys[i - 1]) / h0);
            }
            // Natural BC: m[0] = m[n-1] = 0, already zero; first/last rows
            // of the interior system don't reference them beyond that.
            let mut scratch = vec![0.0; k];
            crate::linalg::solve_tridiagonal(&sub, &diag, &sup, &mut rhs, &mut scratch)?;
            m[1..n - 1].copy_from_slice(&rhs);
        }
        Ok(Self {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            m,
        })
    }

    /// Evaluate the spline at `x` (natural-cubic extrapolation outside the
    /// table, i.e. the end cubic continues).
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let i = bracket(&self.xs, x);
        let h = self.xs[i + 1] - self.xs[i];
        let a = (self.xs[i + 1] - x) / h;
        let b = (x - self.xs[i]) / h;
        a * self.ys[i]
            + b * self.ys[i + 1]
            + ((a * a * a - a) * self.m[i] + (b * b * b - b) * self.m[i + 1]) * h * h / 6.0
    }

    /// Evaluate the spline derivative at `x`.
    #[must_use]
    pub fn eval_deriv(&self, x: f64) -> f64 {
        let i = bracket(&self.xs, x);
        let h = self.xs[i + 1] - self.xs[i];
        let a = (self.xs[i + 1] - x) / h;
        let b = (x - self.xs[i]) / h;
        (self.ys[i + 1] - self.ys[i]) / h
            + ((3.0 * b * b - 1.0) * self.m[i + 1] - (3.0 * a * a - 1.0) * self.m[i]) * h / 6.0
    }

    /// The knot abscissae.
    #[must_use]
    pub fn knots(&self) -> &[f64] {
        &self.xs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn linear_interpolates_line_exactly() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0]; // y = 1 + 2x
        for &x in &[0.0, 0.4, 1.5, 2.9, 3.0] {
            assert!(approx_eq(
                linear(&xs, &ys, x).unwrap(),
                1.0 + 2.0 * x,
                1e-14,
                1e-14
            ));
        }
        // extrapolation continues the end segments
        assert!(approx_eq(linear(&xs, &ys, 4.0).unwrap(), 9.0, 1e-14, 0.0));
        assert!(approx_eq(
            linear(&xs, &ys, -1.0).unwrap(),
            -1.0,
            1e-13,
            1e-13
        ));
    }

    #[test]
    fn linear_rejects_bad_tables() {
        assert!(linear(&[0.0], &[1.0], 0.5).is_err());
        assert!(linear(&[0.0, 0.0], &[1.0, 2.0], 0.5).is_err());
        assert!(linear(&[0.0, 1.0], &[1.0], 0.5).is_err());
    }

    #[test]
    fn hermite_reproduces_cubic() {
        // p(x) = x^3 on [1, 2]: values and slopes at ends determine it.
        let f = |x: f64| x * x * x;
        let d = |x: f64| 3.0 * x * x;
        for &x in &[1.0, 1.25, 1.5, 1.75, 2.0] {
            let v = hermite(1.0, f(1.0), d(1.0), 2.0, f(2.0), d(2.0), x);
            assert!(approx_eq(v, f(x), 1e-13, 1e-13), "x={x}: {v} vs {}", f(x));
        }
    }

    #[test]
    fn spline_interpolates_knots_exactly() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64 * 0.7).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x * 1.3).sin()).collect();
        let sp = CubicSpline::fit(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!(approx_eq(sp.eval(*x), *y, 1e-12, 1e-12));
        }
    }

    #[test]
    fn spline_approximates_smooth_function() {
        let n = 40;
        let xs: Vec<f64> = (0..=n).map(|i| i as f64 / n as f64 * 3.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
        let sp = CubicSpline::fit(&xs, &ys).unwrap();
        // Natural boundary conditions cost O(h^2) accuracy near the ends
        // (sin'' != 0 at x = 3), so check the interior tightly and the
        // whole range loosely.
        let mut max_err_interior = 0.0f64;
        let mut max_err_all = 0.0f64;
        for k in 0..=300 {
            let x = k as f64 / 100.0;
            let e = (sp.eval(x) - x.sin()).abs();
            max_err_all = max_err_all.max(e);
            if (0.3..=2.7).contains(&x) {
                max_err_interior = max_err_interior.max(e);
            }
        }
        assert!(
            max_err_interior < 1e-5,
            "interior spline error {max_err_interior}"
        );
        assert!(max_err_all < 2e-3, "overall spline error {max_err_all}");
    }

    #[test]
    fn spline_derivative_of_parabola() {
        // A natural spline won't reproduce x^2 exactly at the ends, but
        // should be accurate mid-table.
        let xs: Vec<f64> = (0..=20).map(|i| i as f64 * 0.25).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * x).collect();
        let sp = CubicSpline::fit(&xs, &ys).unwrap();
        for &x in &[2.0, 2.4, 3.0] {
            assert!(
                (sp.eval_deriv(x) - 2.0 * x).abs() < 1e-3,
                "deriv at {x}: {}",
                sp.eval_deriv(x)
            );
        }
    }

    #[test]
    fn spline_two_points_is_linear() {
        let sp = CubicSpline::fit(&[0.0, 2.0], &[0.0, 4.0]).unwrap();
        assert!(approx_eq(sp.eval(1.0), 2.0, 1e-14, 0.0));
        assert!(approx_eq(sp.eval_deriv(0.5), 2.0, 1e-14, 0.0));
    }

    #[test]
    fn bracket_boundaries() {
        let xs = [0.0, 1.0, 2.0];
        assert_eq!(bracket(&xs, -1.0), 0);
        assert_eq!(bracket(&xs, 0.5), 0);
        assert_eq!(bracket(&xs, 1.5), 1);
        assert_eq!(bracket(&xs, 5.0), 1);
    }
}
