//! The classical one-dimensional Fokker–Planck equation (Eq. 5 of the
//! paper) used as the no-control baseline of Section 3:
//!
//! ```text
//! f_t + ((λ(q) − μ) f)_q = (σ²/2) f_qq
//! ```
//!
//! with a reflecting barrier at q = 0. For a *constant* arrival rate
//! λ < μ the stationary solution is the exponential density
//! `f(q) ∝ exp(−2(μ−λ)q/σ²)` — the heavy-traffic diffusion approximation
//! of a stable queue — which the unit tests verify.

use crate::fv::{advect_sweep, CnFactor, Limiter};
use fpk_numerics::grid::Grid1d;
use fpk_numerics::{NumericsError, Result};

/// A 1-D Fokker–Planck problem for the queue-length density alone.
pub struct Classic1d<F: Fn(f64) -> f64> {
    /// Drift coefficient a(q) = λ(q) − μ.
    pub drift: F,
    /// Diffusion strength σ².
    pub sigma2: f64,
    /// Spatial grid over [0, q_max].
    pub grid: Grid1d,
}

/// Default advective CFL safety factor. Near a blocked boundary the
/// advect/diffuse splitting leaves an O(Courant) sawtooth in the wall
/// cell, so accurate stationary profiles want a modest Courant number.
pub const DEFAULT_CFL: f64 = 0.2;

/// The evolving 1-D density.
pub struct Classic1dSolver<F: Fn(f64) -> f64> {
    problem: Classic1d<F>,
    f: Vec<f64>,
    t: f64,
    vel: Vec<f64>,
    flux: Vec<f64>,
    /// Crank–Nicolson factor of the latest diffusion step, reused while
    /// the step size stays fixed.
    cn: Option<CnFactor>,
}

impl<F: Fn(f64) -> f64> Classic1dSolver<F> {
    /// Initialise with a density sampled on the grid (normalised
    /// internally).
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] for a negative or non-finite
    /// σ² or a zero-mass initial condition; [`NumericsError::DimensionMismatch`] when
    /// `initial.len() != grid.n()`.
    pub fn new(problem: Classic1d<F>, initial: &[f64]) -> Result<Self> {
        if !(problem.sigma2 >= 0.0 && problem.sigma2.is_finite()) {
            return Err(NumericsError::InvalidParameter {
                context: "Classic1dSolver: sigma2 must be finite and >= 0",
            });
        }
        let n = problem.grid.n();
        if initial.len() != n {
            return Err(NumericsError::DimensionMismatch {
                context: "Classic1dSolver: initial length != grid cells",
            });
        }
        let mass: f64 = initial.iter().sum::<f64>() * problem.grid.dx();
        if !(mass > 0.0) {
            return Err(NumericsError::InvalidParameter {
                context: "Classic1dSolver: initial density has no mass",
            });
        }
        let mut f = initial.to_vec();
        f.iter_mut().for_each(|v| *v /= mass);
        // Face velocities a(q_face).
        let vel: Vec<f64> = (0..=n)
            .map(|k| (problem.drift)(problem.grid.face(k)))
            .collect();
        Ok(Self {
            problem,
            f,
            t: 0.0,
            vel,
            flux: vec![0.0; n + 1],
            cn: None,
        })
    }

    /// Current time.
    #[must_use]
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Borrow the current density values.
    #[must_use]
    pub fn density(&self) -> &[f64] {
        &self.f
    }

    /// Total mass (should stay 1).
    #[must_use]
    pub fn mass(&self) -> f64 {
        self.f.iter().sum::<f64>() * self.problem.grid.dx()
    }

    /// Mean queue length under the current density.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let dx = self.problem.grid.dx();
        self.f
            .iter()
            .enumerate()
            .map(|(i, v)| self.problem.grid.center(i) * v)
            .sum::<f64>()
            * dx
            / self.mass()
    }

    /// Largest stable advective step (diffusion is Crank–Nicolson) at the
    /// default CFL factor [`DEFAULT_CFL`].
    #[must_use]
    pub fn max_dt(&self) -> f64 {
        let vmax = self
            .vel
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1e-12);
        DEFAULT_CFL * self.problem.grid.dx() / vmax
    }

    /// Advance to `t_end` with Strang splitting
    /// (advect dt/2, diffuse dt, advect dt/2).
    ///
    /// # Errors
    /// Propagates solver failures; rejects `t_end` in the past.
    pub fn run_until(&mut self, t_end: f64) -> Result<()> {
        if t_end < self.t {
            return Err(NumericsError::InvalidParameter {
                context: "Classic1dSolver::run_until: t_end in the past",
            });
        }
        let dt_max = self.max_dt();
        let dx = self.problem.grid.dx();
        while self.t < t_end - 1e-12 {
            let dt = dt_max.min(t_end - self.t);
            advect_sweep(
                &mut self.f,
                &self.vel,
                dx,
                0.5 * dt,
                Limiter::VanLeer,
                &mut self.flux,
            );
            if self.problem.sigma2 > 0.0 {
                let d = 0.5 * self.problem.sigma2;
                let r = 0.5 * d * dt / (dx * dx);
                let cn = match self.cn.take() {
                    Some(cn) if cn.r() == r => cn,
                    _ => CnFactor::new(self.f.len(), r)?,
                };
                cn.solve(&mut self.f);
                self.cn = Some(cn);
            }
            advect_sweep(
                &mut self.f,
                &self.vel,
                dx,
                0.5 * dt,
                Limiter::VanLeer,
                &mut self.flux,
            );
            self.t += dt;
        }
        Ok(())
    }
}

/// The stationary density of the constant-drift 1-D problem on [0, ∞):
/// exponential with rate `2(μ−λ)/σ²`, sampled at the grid centres
/// (normalised over the truncated domain). Returns `None` when `λ ≥ μ`
/// (no stationary density exists).
#[must_use]
pub fn stationary_exponential(
    grid: &Grid1d,
    lambda: f64,
    mu: f64,
    sigma2: f64,
) -> Option<Vec<f64>> {
    if lambda >= mu || sigma2 <= 0.0 {
        return None;
    }
    let rate = 2.0 * (mu - lambda) / sigma2;
    let vals: Vec<f64> = (0..grid.n())
        .map(|i| (-rate * grid.center(i)).exp())
        .collect();
    let mass: f64 = vals.iter().sum::<f64>() * grid.dx();
    Some(vals.into_iter().map(|v| v / mass).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_density_is_exponential() {
        // λ = 3, μ = 5, σ² = 2 → rate 2. Domain [0, 8] holds ~all mass.
        let grid = Grid1d::new(0.0, 8.0, 400).unwrap();
        let lambda = 3.0;
        let problem = Classic1d {
            drift: |_q| lambda - 5.0,
            sigma2: 2.0,
            grid: grid.clone(),
        };
        // Start from a bump mid-domain and relax.
        let init: Vec<f64> = (0..grid.n())
            .map(|i| (-((grid.center(i) - 3.0) / 0.5).powi(2)).exp())
            .collect();
        let mut s = Classic1dSolver::new(problem, &init).unwrap();
        s.run_until(60.0).unwrap();
        let expected = stationary_exponential(&grid, lambda, 5.0, 2.0).unwrap();
        let mut max_err = 0.0f64;
        for (a, b) in s.density().iter().zip(expected.iter()) {
            max_err = max_err.max((a - b).abs());
        }
        // Peak of the exponential is 2.0; allow a few % discretisation.
        assert!(max_err < 0.1, "max pointwise error {max_err}");
        assert!((s.mass() - 1.0).abs() < 1e-9);
        // Mean of Exp(2) is 0.5.
        assert!((s.mean() - 0.5).abs() < 0.05, "mean {}", s.mean());
    }

    #[test]
    fn unstable_queue_mass_piles_at_right_wall() {
        // λ > μ: no stationary density; mass drifts right and pools at
        // the blocked outer face (a domain-too-small indicator).
        let grid = Grid1d::new(0.0, 10.0, 100).unwrap();
        let problem = Classic1d {
            drift: |_q| 2.0, // λ − μ = +2
            sigma2: 0.5,
            grid: grid.clone(),
        };
        let init: Vec<f64> = (0..grid.n())
            .map(|i| (-(grid.center(i) - 2.0).powi(2)).exp())
            .collect();
        let mut s = Classic1dSolver::new(problem, &init).unwrap();
        s.run_until(10.0).unwrap();
        let f = s.density();
        assert!(f[grid.n() - 1] > f[grid.n() / 2]);
        assert!((s.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stationary_none_for_unstable() {
        let grid = Grid1d::new(0.0, 5.0, 10).unwrap();
        assert!(stationary_exponential(&grid, 6.0, 5.0, 1.0).is_none());
        assert!(stationary_exponential(&grid, 5.0, 5.0, 1.0).is_none());
        assert!(stationary_exponential(&grid, 4.0, 5.0, 0.0).is_none());
    }

    #[test]
    fn rejects_bad_inputs() {
        let grid = Grid1d::new(0.0, 5.0, 10).unwrap();
        let p = Classic1d {
            drift: |_q| -1.0,
            sigma2: -1.0,
            grid: grid.clone(),
        };
        assert!(Classic1dSolver::new(p, &[1.0; 10]).is_err());
        let p2 = Classic1d {
            drift: |_q| -1.0,
            sigma2: 1.0,
            grid: grid.clone(),
        };
        assert!(Classic1dSolver::new(p2, &[1.0; 7]).is_err());
        let p3 = Classic1d {
            drift: |_q| -1.0,
            sigma2: 1.0,
            grid,
        };
        assert!(Classic1dSolver::new(p3, &[0.0; 10]).is_err());
    }

    #[test]
    fn rejects_non_finite_sigma2() {
        for sigma2 in [f64::NAN, f64::INFINITY] {
            let p = Classic1d {
                drift: |_q| -1.0,
                sigma2,
                grid: Grid1d::new(0.0, 5.0, 10).unwrap(),
            };
            match Classic1dSolver::new(p, &[1.0; 10]) {
                Err(NumericsError::InvalidParameter { context }) => {
                    assert!(context.contains("sigma2"), "{context}");
                }
                Err(e) => panic!("sigma2 = {sigma2}: wrong error {e:?}"),
                Ok(_) => panic!("sigma2 = {sigma2} accepted"),
            }
        }
    }

    #[test]
    fn state_dependent_drift_supported() {
        // Ornstein–Uhlenbeck-style drift toward q = 3: stationary mean 3.
        let grid = Grid1d::new(0.0, 8.0, 200).unwrap();
        let p = Classic1d {
            drift: |q| -(q - 3.0),
            sigma2: 0.5,
            grid: grid.clone(),
        };
        let init: Vec<f64> = vec![1.0; grid.n()];
        let mut s = Classic1dSolver::new(p, &init).unwrap();
        s.run_until(30.0).unwrap();
        assert!((s.mean() - 3.0).abs() < 0.1, "mean {}", s.mean());
    }
}
