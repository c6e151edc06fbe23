//! Constant-lag delay differential equations (DDEs) by the method of steps.
//!
//! Section 7 of the paper studies feedback that arrives after delay τ: the
//! control law becomes `dλ/dt = g(Q(t − τ), λ(t))`. This module integrates
//! systems
//!
//! ```text
//! dy/dt = F(t, y(t), y(t − τ₁), …, y(t − τ_m))
//! ```
//!
//! with a fixed-step RK4 whose delayed-state lookups go through a dense
//! cubic-Hermite history. For stage times falling between stored samples
//! (including the half-step stages of RK4) the history interpolant is
//! third-order accurate, matching the overall scheme order for the smooth
//! segments between breaking points.
//!
//! Breaking-point caveat: DDE solutions have derivative discontinuities at
//! t0 + k·τ. A fixed step that divides τ keeps those points on the grid;
//! [`DdeProblem::solve`] snaps the step to the smallest lag when possible.

use crate::interp::hermite;
use crate::series::Series;
use crate::{NumericsError, Result};

/// Right-hand side of a DDE. `delayed[k]` holds `y(t − lags[k])`.
pub trait DdeRhs {
    /// Evaluate `dydt = F(t, y, delayed…)`.
    fn eval(&mut self, t: f64, y: &[f64], delayed: &[Vec<f64>], dydt: &mut [f64]);
}

impl<F: FnMut(f64, &[f64], &[Vec<f64>], &mut [f64])> DdeRhs for F {
    fn eval(&mut self, t: f64, y: &[f64], delayed: &[Vec<f64>], dydt: &mut [f64]) {
        self(t, y, delayed, dydt)
    }
}

/// Dense solution history: time-ordered `(t, y, dy/dt)` samples with cubic
/// Hermite evaluation between them. The `(t, y)` samples are a [`Series`];
/// `dy` is row-major alongside it.
#[derive(Debug, Clone)]
struct History {
    y: Series,
    dy: Vec<f64>,
}

impl History {
    fn new(dim: usize) -> Self {
        let (y, dy) = (Series::new(dim), Vec::new());
        Self { y, dy }
    }

    /// Append a sample; times must be pushed in increasing order, and
    /// `y` and `dy` must have the history's dimension.
    fn push(&mut self, t: f64, y: &[f64], dy: &[f64]) {
        debug_assert!(self.y.t().last().is_none_or(|&last| t > last));
        assert_eq!(
            dy.len(),
            y.len(),
            "History::push: dy and y dimensions differ"
        );
        self.y.push(t, y.iter().copied());
        self.dy.extend_from_slice(dy);
    }

    /// Evaluate the interpolant at time `tq`, writing into `out`.
    /// Clamps to the first/last sample outside the stored range.
    fn eval(&self, tq: f64, out: &mut [f64]) {
        let (t, n) = (self.y.t(), self.y.len());
        if tq <= t[0] || tq >= t[n - 1] {
            out.copy_from_slice(self.y.at(tq));
            return;
        }
        let lo = t.partition_point(|&s| s <= tq) - 1;
        let dim = self.y.width();
        let (d0, d1) = self.dy[lo * dim..(lo + 2) * dim].split_at(dim);
        let (y0, y1) = (self.y.row(lo), self.y.row(lo + 1));
        for i in 0..out.len() {
            out[i] = hermite(t[lo], y0[i], d0[i], t[lo + 1], y1[i], d1[i], tq);
        }
    }
}

/// A constant-lag DDE initial-value problem.
pub struct DdeProblem<'a> {
    /// The lags τ_k, each strictly positive.
    pub lags: &'a [f64],
    /// Initial time.
    pub t0: f64,
    /// Final time.
    pub t1: f64,
    /// History function φ(t): writes the whole state at `t <= t0` into
    /// its output buffer, which is reused between calls.
    pub phi: &'a dyn Fn(f64, &mut [f64]),
    /// State dimension.
    pub dim: usize,
}

impl DdeProblem<'_> {
    /// Integrate with approximately `steps_hint` RK4 steps, snapping the
    /// step so the smallest lag is an integer number of steps (keeps the
    /// breaking points t0 + k·τ on the grid).
    ///
    /// Returns the trajectory sampled at `t0` and every step: the
    /// history's own samples from `t0` on.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] for non-positive lags, empty
    /// lag list, `t1 <= t0`, or `steps_hint == 0`.
    pub fn solve<R: DdeRhs>(&self, rhs: &mut R, steps_hint: usize) -> Result<Series> {
        if self.lags.is_empty() {
            return Err(NumericsError::InvalidParameter {
                context: "DdeProblem: need at least one lag",
            });
        }
        if self.lags.iter().any(|&l| !(l > 0.0)) {
            return Err(NumericsError::InvalidParameter {
                context: "DdeProblem: lags must be positive",
            });
        }
        if !(self.t1 > self.t0) {
            return Err(NumericsError::InvalidParameter {
                context: "DdeProblem: t1 must exceed t0",
            });
        }
        if steps_hint == 0 {
            return Err(NumericsError::InvalidParameter {
                context: "DdeProblem: steps_hint must be positive",
            });
        }
        let span = self.t1 - self.t0;
        let mut h = span / steps_hint as f64;
        let tau_min = self.lags.iter().cloned().fold(f64::INFINITY, f64::min);
        // Snap h so tau_min / h is an integer (when tau_min is within the
        // integration span scale); improves accuracy at breaking points.
        if tau_min.is_finite() && tau_min > 0.0 {
            let k = (tau_min / h).ceil().max(1.0);
            h = tau_min / k;
        }
        let n_steps = (span / h).ceil() as usize;
        let dim = self.dim;

        // Seed the history with φ over [t0 − max_lag, t0], sampled densely
        // enough for the interpolant.
        let tau_max = self.lags.iter().cloned().fold(0.0, f64::max);
        let mut history = History::new(dim);
        let seed_steps = ((tau_max / h).ceil() as usize).max(2);
        // Seed strictly before t0; the t0 sample is pushed below with the
        // true RHS derivative.
        let (mut y, mut yp, mut ym, mut dy) = (
            vec![0.0; dim],
            vec![0.0; dim],
            vec![0.0; dim],
            vec![0.0; dim],
        );
        for s in 0..seed_steps {
            let t = self.t0 - tau_max + s as f64 * tau_max / seed_steps as f64;
            (self.phi)(t, &mut y);
            // Numerical derivative of φ by central difference.
            let eps = (tau_max / seed_steps as f64) * 1e-3;
            (self.phi)(t + eps, &mut yp);
            (self.phi)(t - eps, &mut ym);
            for ((d, p), m) in dy.iter_mut().zip(&yp).zip(&ym) {
                *d = (p - m) / (2.0 * eps);
            }
            history.push(t, &y, &dy);
        }

        (self.phi)(self.t0, &mut y);

        let m = self.lags.len();
        let mut delayed: Vec<Vec<f64>> = vec![vec![0.0; dim]; m];
        let mut k1 = vec![0.0; dim];
        let mut k2 = vec![0.0; dim];
        let mut k3 = vec![0.0; dim];
        let mut k4 = vec![0.0; dim];
        let mut ytmp = vec![0.0; dim];

        // The derivative at `ts`, with delayed lookups at `ts − lag`.
        let stage = |ts: f64,
                     ys: &[f64],
                     kout: &mut [f64],
                     delayed: &mut [Vec<f64>],
                     rhs: &mut R,
                     history: &History| {
            for (k, &lag) in self.lags.iter().enumerate() {
                history.eval(ts - lag, &mut delayed[k]);
            }
            rhs.eval(ts, ys, delayed, kout);
        };
        // Record the initial derivative into history so the first interval
        // interpolates correctly.
        stage(self.t0, &y, &mut k1, &mut delayed, rhs, &history);
        history.push(self.t0, &y, &k1);

        let mut t = self.t0;
        for step in 0..n_steps {
            let h_eff = if t + h > self.t1 { self.t1 - t } else { h };
            if h_eff <= 0.0 {
                break;
            }
            // RK4 stages with delayed lookups at the stage times; `k1`
            // is the derivative at (t, y) that went into the history.
            for i in 0..dim {
                ytmp[i] = y[i] + 0.5 * h_eff * k1[i];
            }
            stage(t + 0.5 * h_eff, &ytmp, &mut k2, &mut delayed, rhs, &history);
            for i in 0..dim {
                ytmp[i] = y[i] + 0.5 * h_eff * k2[i];
            }
            stage(t + 0.5 * h_eff, &ytmp, &mut k3, &mut delayed, rhs, &history);
            for i in 0..dim {
                ytmp[i] = y[i] + h_eff * k3[i];
            }
            stage(t + h_eff, &ytmp, &mut k4, &mut delayed, rhs, &history);
            for i in 0..dim {
                y[i] += h_eff / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
            t = self.t0 + (step + 1) as f64 * h;
            if t > self.t1 {
                t = self.t1;
            }
            // Derivative at the new point for the dense history.
            stage(t, &y, &mut k1, &mut delayed, rhs, &history);
            history.push(t, &y, &k1);
            if (t - self.t1).abs() < 1e-14 {
                break;
            }
        }
        let mut traj = history.y;
        traj.drop_front(seed_steps);
        Ok(traj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    /// The classic test DDE: y'(t) = -y(t-1), y(t)=1 for t<=0.
    /// On [0,1]: y(t) = 1 - t. On [1,2]: y(t) = 1 - t + (t-1)^2/2.
    #[test]
    fn linear_test_equation_segments() {
        let phi = |_t: f64, out: &mut [f64]| out[0] = 1.0;
        let prob = DdeProblem {
            lags: &[1.0],
            t0: 0.0,
            t1: 2.0,
            phi: &phi,
            dim: 1,
        };
        let mut rhs = |_t: f64, _y: &[f64], delayed: &[Vec<f64>], d: &mut [f64]| {
            d[0] = -delayed[0][0];
        };
        let traj = prob.solve(&mut rhs, 200).unwrap();
        // Check a few interior points against the analytic segments.
        for (t, y) in traj.t().iter().zip(traj.col(0)) {
            let exact = if *t <= 1.0 {
                1.0 - t
            } else {
                1.0 - t + (t - 1.0) * (t - 1.0) / 2.0
            };
            // The Hermite history smooths the derivative kink at the
            // breaking point t = τ, costing O(h²) locally; with h = 5e-3
            // that is ~2.5e-5.
            assert!(
                approx_eq(y, exact, 1e-4, 5e-5),
                "t={t}: got {y} expected {exact}"
            );
        }
    }

    #[test]
    fn zero_lag_limit_matches_ode() {
        // With a tiny lag the DDE y' = -y(t-τ) approaches y' = -y.
        let phi = |_t: f64, out: &mut [f64]| out[0] = 1.0;
        let prob = DdeProblem {
            lags: &[1e-4],
            t0: 0.0,
            t1: 1.0,
            phi: &phi,
            dim: 1,
        };
        let mut rhs = |_t: f64, _y: &[f64], delayed: &[Vec<f64>], d: &mut [f64]| {
            d[0] = -delayed[0][0];
        };
        let traj = prob.solve(&mut rhs, 1000).unwrap();
        let yf = traj.last().unwrap().1[0];
        assert!(approx_eq(yf, (-1.0f64).exp(), 1e-3, 1e-3), "yf={yf}");
    }

    #[test]
    fn hutchinson_oscillates_for_large_delay() {
        // Hutchinson / delayed logistic: y' = r y(t)(1 - y(t-τ)).
        // For rτ > π/2 the equilibrium y=1 is unstable → oscillations.
        let phi = |_t: f64, out: &mut [f64]| out[0] = 0.5;
        let prob = DdeProblem {
            lags: &[2.0],
            t0: 0.0,
            t1: 80.0,
            phi: &phi,
            dim: 1,
        };
        let r = 1.0;
        let mut rhs = |_t: f64, y: &[f64], delayed: &[Vec<f64>], d: &mut [f64]| {
            d[0] = r * y[0] * (1.0 - delayed[0][0]);
        };
        let traj = prob.solve(&mut rhs, 4000).unwrap();
        // Tail should oscillate around 1 with sustained amplitude.
        let start = traj.tail_start(0.25, 1).unwrap();
        let max = traj.col(0).skip(start).fold(f64::NEG_INFINITY, f64::max);
        let min = traj.col(0).skip(start).fold(f64::INFINITY, f64::min);
        assert!(max > 1.5, "max={max}");
        assert!(min < 0.5, "min={min}");
    }

    #[test]
    fn hutchinson_converges_for_small_delay() {
        // rτ < π/2 → damped convergence to 1.
        let phi = |_t: f64, out: &mut [f64]| out[0] = 0.5;
        let prob = DdeProblem {
            lags: &[0.5],
            t0: 0.0,
            t1: 80.0,
            phi: &phi,
            dim: 1,
        };
        let mut rhs = |_t: f64, y: &[f64], delayed: &[Vec<f64>], d: &mut [f64]| {
            d[0] = y[0] * (1.0 - delayed[0][0]);
        };
        let traj = prob.solve(&mut rhs, 4000).unwrap();
        let yf = traj.last().unwrap().1[0];
        assert!(approx_eq(yf, 1.0, 1e-3, 1e-3), "yf={yf}");
    }

    #[test]
    fn multiple_lags_are_respected() {
        // y' = -y(t-1) + y(t-2); with φ=1: on [0,1] y' = -1 + 1 = 0 → y=1.
        let phi = |_t: f64, out: &mut [f64]| out[0] = 1.0;
        let prob = DdeProblem {
            lags: &[1.0, 2.0],
            t0: 0.0,
            t1: 1.0,
            phi: &phi,
            dim: 1,
        };
        let mut rhs = |_t: f64, _y: &[f64], delayed: &[Vec<f64>], d: &mut [f64]| {
            d[0] = -delayed[0][0] + delayed[1][0];
        };
        let traj = prob.solve(&mut rhs, 100).unwrap();
        for (t, y) in traj.t().iter().zip(traj.col(0)) {
            assert!(approx_eq(y, 1.0, 1e-9, 1e-9), "t={t} y={y}");
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        let phi = |_t: f64, out: &mut [f64]| out[0] = 1.0;
        let mut rhs = |_t: f64, _y: &[f64], _d: &[Vec<f64>], d: &mut [f64]| d[0] = 0.0;
        let bad_lag = DdeProblem {
            lags: &[0.0],
            t0: 0.0,
            t1: 1.0,
            phi: &phi,
            dim: 1,
        };
        assert!(bad_lag.solve(&mut rhs, 10).is_err());
        let no_lag = DdeProblem {
            lags: &[],
            t0: 0.0,
            t1: 1.0,
            phi: &phi,
            dim: 1,
        };
        assert!(no_lag.solve(&mut rhs, 10).is_err());
        let bad_span = DdeProblem {
            lags: &[1.0],
            t0: 1.0,
            t1: 1.0,
            phi: &phi,
            dim: 1,
        };
        assert!(bad_span.solve(&mut rhs, 10).is_err());
    }

    #[test]
    fn history_eval_clamps_and_interpolates() {
        let mut h = History::new(1);
        h.push(0.0, &[0.0], &[1.0]);
        h.push(1.0, &[1.0], &[1.0]);
        let mut out = [0.0];
        h.eval(-1.0, &mut out);
        assert!(approx_eq(out[0], 0.0, 0.0, 0.0));
        h.eval(2.0, &mut out);
        assert!(approx_eq(out[0], 1.0, 0.0, 0.0));
        h.eval(0.5, &mut out);
        assert!(approx_eq(out[0], 0.5, 1e-12, 1e-12)); // linear data
    }
}
