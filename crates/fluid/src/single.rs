//! Single-source fluid model: `dQ/dt = λ − μ`, `dλ/dt = g(Q, λ)`.
//!
//! Integration uses fixed-step RK4: the right-hand side is discontinuous
//! across the switching line `Q = q̂` and the boundary `Q = 0`, so an
//! adaptive error estimator would thrash; a small fixed step with
//! post-step clamping is both faster and more predictable here. The
//! clamping implements the paper's convention `ν(t) = 0 if Q(t) = 0 and
//! λ(t) < μ` (the queue cannot drain below empty).

use fpk_congestion::RateControl;
use fpk_numerics::{NumericsError, Result};
use serde::Serialize;

/// Parameters of a single-source fluid run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FluidParams {
    /// Bottleneck service rate μ > 0.
    pub mu: f64,
    /// Initial queue length Q(0) ≥ 0.
    pub q0: f64,
    /// Initial sending rate λ(0) ≥ 0.
    pub lambda0: f64,
    /// Final integration time.
    pub t_end: f64,
    /// Integration step (choose ≲ 1e-3 of the system time scale).
    pub dt: f64,
}

impl FluidParams {
    /// Validate the parameter set.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] naming the field, for a
    /// non-positive or non-finite `mu` or `t_end`, `dt` outside
    /// `(0, t_end)`, or a negative or non-finite initial condition.
    pub fn validate(&self) -> Result<()> {
        // Each check is phrased positively so NaN fails it too.
        for (ok, context) in [
            (
                self.mu > 0.0 && self.mu.is_finite(),
                "FluidParams: mu must be finite and > 0",
            ),
            (
                self.t_end > 0.0 && self.t_end.is_finite(),
                "FluidParams: t_end must be finite and > 0",
            ),
            (
                self.dt > 0.0 && self.dt < self.t_end,
                "FluidParams: dt must lie in (0, t_end)",
            ),
            (
                self.q0 >= 0.0 && self.q0.is_finite(),
                "FluidParams: q0 must be finite and >= 0",
            ),
            (
                self.lambda0 >= 0.0 && self.lambda0.is_finite(),
                "FluidParams: lambda0 must be finite and >= 0",
            ),
        ] {
            if !ok {
                return Err(NumericsError::InvalidParameter { context });
            }
        }
        Ok(())
    }
}

/// A recorded fluid trajectory.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FluidTrajectory {
    /// Sample times.
    pub t: Vec<f64>,
    /// Queue length at each sample.
    pub q: Vec<f64>,
    /// Aggregate arrival rate at each sample (single source: the source's
    /// rate).
    pub lambda: Vec<f64>,
}

impl FluidTrajectory {
    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether the trajectory is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Queue growth rate ν = λ − μ at each sample (with the empty-queue
    /// clamp applied), for phase-plane plots.
    #[must_use]
    pub fn nu(&self, mu: f64) -> Vec<f64> {
        self.q
            .iter()
            .zip(self.lambda.iter())
            .map(|(&q, &l)| if q <= 0.0 && l < mu { 0.0 } else { l - mu })
            .collect()
    }

    /// Final `(q, λ)` state.
    ///
    /// # Panics
    /// Panics when the trajectory is empty.
    #[must_use]
    pub fn final_state(&self) -> (f64, f64) {
        (*self.q.last().unwrap(), *self.lambda.last().unwrap())
    }
}

/// The fluid right-hand side for one (q, λ) pair, with the empty-queue
/// convention. Exposed so `multi` and `delay` share the exact semantics.
#[inline]
#[must_use]
pub fn queue_drift(q: f64, total_lambda: f64, mu: f64) -> f64 {
    if q <= 0.0 && total_lambda < mu {
        0.0
    } else {
        total_lambda - mu
    }
}

/// Integrate the single-source fluid system, recording every step.
///
/// # Errors
/// Propagates [`FluidParams::validate`].
pub fn simulate<L: RateControl>(law: &L, params: &FluidParams) -> Result<FluidTrajectory> {
    params.validate()?;
    let n_steps = (params.t_end / params.dt).ceil() as usize;
    let mut q = params.q0;
    let mut lambda = params.lambda0;
    let mut traj = FluidTrajectory {
        t: Vec::with_capacity(n_steps + 1),
        q: Vec::with_capacity(n_steps + 1),
        lambda: Vec::with_capacity(n_steps + 1),
    };
    traj.t.push(0.0);
    traj.q.push(q);
    traj.lambda.push(lambda);
    let h = params.dt;
    for step in 0..n_steps {
        // RK4 on the clamped vector field.
        let f = |q: f64, l: f64| -> (f64, f64) {
            let q_eff = q.max(0.0);
            (queue_drift(q_eff, l, params.mu), law.g(q_eff, l))
        };
        let (k1q, k1l) = f(q, lambda);
        let (k2q, k2l) = f(q + 0.5 * h * k1q, lambda + 0.5 * h * k1l);
        let (k3q, k3l) = f(q + 0.5 * h * k2q, lambda + 0.5 * h * k2l);
        let (k4q, k4l) = f(q + h * k3q, lambda + h * k3l);
        q += h / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q);
        lambda += h / 6.0 * (k1l + 2.0 * k2l + 2.0 * k3l + k4l);
        // Clamps: the queue cannot be negative; rates cannot go negative.
        q = q.max(0.0);
        lambda = lambda.max(0.0);
        let t = (step + 1) as f64 * h;
        traj.t.push(t);
        traj.q.push(q);
        traj.lambda.push(lambda);
    }
    Ok(traj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpk_congestion::{LinearExp, LinearLinear};

    fn std_params() -> FluidParams {
        FluidParams {
            mu: 5.0,
            q0: 0.0,
            lambda0: 0.0,
            t_end: 400.0,
            dt: 1e-3,
        }
    }

    #[test]
    fn params_validation() {
        let mut p = std_params();
        assert!(p.validate().is_ok());
        p.mu = 0.0;
        assert!(p.validate().is_err());
        let mut p2 = std_params();
        p2.q0 = -1.0;
        assert!(p2.validate().is_err());
        let mut p3 = std_params();
        p3.dt = p3.t_end + 1.0;
        assert!(p3.validate().is_err());
    }

    #[test]
    fn non_finite_parameters_rejected_by_name() {
        let cases: [(&str, fn(&mut FluidParams)); 5] = [
            ("mu", |p| p.mu = f64::INFINITY),
            ("q0", |p| p.q0 = f64::NAN),
            ("lambda0", |p| p.lambda0 = f64::NAN),
            ("t_end", |p| p.t_end = f64::INFINITY),
            ("t_end", |p| p.t_end = f64::NAN),
        ];
        for (field, spoil) in cases {
            let mut bad = std_params();
            spoil(&mut bad);
            match simulate(&LinearExp::new(1.0, 0.5, 10.0), &bad) {
                Err(NumericsError::InvalidParameter { context }) => {
                    assert!(context.split(' ').any(|w| w == field), "{field}: {context}");
                }
                other => panic!("{field}: expected InvalidParameter, got {other:?}"),
            }
        }
    }

    #[test]
    fn jrj_converges_to_target_point() {
        // Theorem 1: limit point (q̂, μ). Convergence is algebraic, so
        // after t = 400 expect to be within a few percent.
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let traj = simulate(&law, &std_params()).unwrap();
        let (qf, lf) = traj.final_state();
        assert!((qf - 10.0).abs() < 1.0, "q_final = {qf}");
        assert!((lf - 5.0).abs() < 0.5, "lambda_final = {lf}");
    }

    #[test]
    fn queue_never_negative_and_rate_never_negative() {
        let law = LinearExp::new(2.0, 2.0, 1.0);
        let mut p = std_params();
        p.lambda0 = 20.0; // massive overshoot to provoke the boundary
        p.q0 = 50.0;
        let traj = simulate(&law, &p).unwrap();
        assert!(traj.q.iter().all(|&q| q >= 0.0));
        assert!(traj.lambda.iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn empty_queue_clamp_holds_queue_at_zero() {
        // Start with λ far below μ and a short horizon: the queue should
        // pin at zero, not go negative.
        let law = LinearExp::new(0.1, 0.5, 100.0);
        let p = FluidParams {
            mu: 10.0,
            q0: 1.0,
            lambda0: 0.0,
            t_end: 2.0,
            dt: 1e-4,
        };
        let traj = simulate(&law, &p).unwrap();
        let (qf, _) = traj.final_state();
        assert_eq!(qf, 0.0);
    }

    #[test]
    fn nu_applies_clamp() {
        let traj = FluidTrajectory {
            t: vec![0.0, 1.0],
            q: vec![0.0, 5.0],
            lambda: vec![1.0, 1.0],
        };
        let nu = traj.nu(5.0);
        assert_eq!(nu[0], 0.0); // clamped: empty queue, λ < μ
        assert_eq!(nu[1], -4.0); // normal: q > 0
    }

    #[test]
    fn oscillation_amplitude_shrinks_for_jrj() {
        // Convergent spiral: early queue excursions exceed late ones.
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let traj = simulate(&law, &std_params()).unwrap();
        let n = traj.q.len();
        let early_max = traj.q[..n / 4]
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let late = &traj.q[3 * n / 4..];
        let late_max = late.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let late_min = late.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            late_max - late_min < 0.5 * (early_max - 10.0).abs().max(1.0),
            "late band [{late_min}, {late_max}] vs early max {early_max}"
        );
    }

    #[test]
    fn linear_linear_keeps_oscillating() {
        // Section 7: linear decrease gives a closed orbit even with
        // instant feedback.
        let law = LinearLinear::new(1.0, 1.0, 10.0);
        let mut p = std_params();
        p.q0 = 10.0;
        p.lambda0 = 4.0; // on the section, defect 1 -> dip 0.5 < q̂
        let traj = simulate(&law, &p).unwrap();
        let n = traj.q.len();
        let late = &traj.q[3 * n / 4..];
        let late_max = late.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let late_min = late.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            late_max - late_min > 0.5,
            "linear/linear should keep oscillating, band = {}",
            late_max - late_min
        );
    }

    #[test]
    fn queue_drift_clamp_semantics() {
        assert_eq!(queue_drift(0.0, 1.0, 5.0), 0.0);
        assert_eq!(queue_drift(0.0, 7.0, 5.0), 2.0);
        assert_eq!(queue_drift(3.0, 1.0, 5.0), -4.0);
    }
}
