//! Stationary-density computation: run the Fokker–Planck evolution until
//! the low-order moments stop changing.
//!
//! With σ² > 0 the JRJ-controlled queue relaxes to a stationary joint
//! density concentrated around the limit point (q̂, ν = 0) — experiment
//! E5 measures how its spread grows with σ.

use crate::density::Density;
use crate::solver::FpSolver;
use fpk_congestion::RateControl;
use fpk_numerics::{NumericsError, Result};
use serde::Serialize;

/// Convergence settings for the stationary solve.
#[derive(Debug, Clone, Copy)]
pub struct SteadyOptions {
    /// Time between convergence checks.
    pub check_interval: f64,
    /// Relative tolerance on the change of (mean_q, var_q, mean_nu)
    /// between checks.
    pub tol: f64,
    /// Give up after this much simulated time.
    pub t_max: f64,
}

impl Default for SteadyOptions {
    fn default() -> Self {
        Self {
            check_interval: 5.0,
            tol: 1e-4,
            t_max: 2000.0,
        }
    }
}

/// Moments summarising a (stationary) density.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DensityMoments {
    /// Mean queue length.
    pub mean_q: f64,
    /// Queue-length variance.
    pub var_q: f64,
    /// Mean growth rate.
    pub mean_nu: f64,
    /// Growth-rate variance.
    pub var_nu: f64,
}

impl DensityMoments {
    /// Extract moments from a density.
    #[must_use]
    pub fn of(d: &Density) -> Self {
        Self {
            mean_q: d.mean_q(),
            var_q: d.var_q(),
            mean_nu: d.mean_nu(),
            var_nu: d.var_nu(),
        }
    }

    fn close_to(&self, other: &Self, tol: f64, scale_q: f64) -> bool {
        let rel = |a: f64, b: f64, s: f64| (a - b).abs() <= tol * s.max(1e-9);
        rel(self.mean_q, other.mean_q, scale_q)
            && rel(self.var_q, other.var_q, scale_q * scale_q)
            && rel(self.mean_nu, other.mean_nu, 1.0 + self.mean_nu.abs())
    }
}

/// Result of a stationary solve.
#[derive(Debug)]
pub struct SteadyResult {
    /// The stationary density.
    pub density: Density,
    /// Simulated time at which convergence was declared.
    pub t_converged: f64,
    /// Final moments.
    pub moments: DensityMoments,
}

/// Run the solver until moments stabilise.
///
/// # Errors
/// [`NumericsError::NoConvergence`] when `t_max` elapses first; plus any
/// stepping errors.
pub fn solve_stationary<L: RateControl>(
    mut solver: FpSolver<L>,
    opts: &SteadyOptions,
) -> Result<SteadyResult> {
    if !(opts.check_interval > 0.0 && opts.tol > 0.0 && opts.t_max > opts.check_interval) {
        return Err(NumericsError::InvalidParameter {
            context: "SteadyOptions: need 0 < check_interval < t_max and tol > 0",
        });
    }
    let scale_q = solver.density().grid.x.hi();
    let mut prev = DensityMoments::of(solver.density());
    let mut t = solver.time();
    while t < opts.t_max {
        let target = t + opts.check_interval;
        solver.run_until(target)?;
        t = solver.time();
        let cur = DensityMoments::of(solver.density());
        if cur.close_to(&prev, opts.tol, scale_q) {
            return Ok(SteadyResult {
                moments: cur,
                t_converged: t,
                density: solver.into_density(),
            });
        }
        prev = cur;
    }
    Err(NumericsError::NoConvergence {
        context: "solve_stationary: t_max reached before moments settled",
        iterations: (opts.t_max / opts.check_interval) as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::FpProblem;
    use fpk_congestion::LinearExp;

    fn run_stationary(sigma2: f64) -> SteadyResult {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let problem = FpProblem::new(law, 5.0, sigma2);
        let grid = Density::standard_grid(40.0, -6.0, 6.0, 80, 48).unwrap();
        let init = Density::gaussian(grid, 10.0, 0.0, 1.5, 0.8).unwrap();
        let solver = FpSolver::new(problem, init).unwrap();
        let opts = SteadyOptions {
            check_interval: 10.0,
            tol: 5e-4,
            t_max: 1500.0,
        };
        solve_stationary(solver, &opts).expect("stationary solve should converge")
    }

    #[test]
    fn stationary_mass_centred_near_limit_point() {
        let r = run_stationary(0.4);
        assert!(
            (r.moments.mean_q - 10.0).abs() < 2.5,
            "mean q {} should sit near q̂ = 10",
            r.moments.mean_q
        );
        assert!(
            r.moments.mean_nu.abs() < 0.8,
            "mean ν {}",
            r.moments.mean_nu
        );
        assert!((r.density.mass() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn spread_grows_with_sigma() {
        let lo = run_stationary(0.1);
        let hi = run_stationary(1.0);
        assert!(
            hi.moments.var_q > lo.moments.var_q,
            "var_q {} (σ²=0.1) vs {} (σ²=1.0)",
            lo.moments.var_q,
            hi.moments.var_q
        );
    }

    #[test]
    fn rejects_bad_options() {
        let law = LinearExp::standard();
        let problem = FpProblem::new(law, 5.0, 0.1);
        let grid = Density::standard_grid(30.0, -5.0, 5.0, 30, 20).unwrap();
        let init = Density::gaussian(grid, 10.0, 0.0, 1.0, 0.5).unwrap();
        let solver = FpSolver::new(problem, init).unwrap();
        let bad = SteadyOptions {
            check_interval: 0.0,
            tol: 1e-4,
            t_max: 10.0,
        };
        assert!(solve_stationary(solver, &bad).is_err());
    }
}
