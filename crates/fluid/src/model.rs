//! The fluid model: N adaptive sources sharing one bottleneck.
//!
//! State is `(Q, λ_1, …, λ_N)` with `dQ/dt = Σλ_i − μ` (clamped at the
//! empty queue) and each `dλ_i/dt = g_i(Q, λ_i)`. One source is the
//! phase-plane system of Section 5; with N sources every source switches
//! on the same signal, and Section 6's prediction is that the stationary
//! shares are `λ_i* ∝ C0_i/C1_i` (`fpk_congestion::theory::sliding_share`).

use fpk_congestion::RateControl;
use fpk_numerics::{NumericsError, Result};
use serde::Serialize;

/// Parameters of a fluid run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FluidParams {
    /// Bottleneck service rate μ > 0.
    pub mu: f64,
    /// Initial queue length Q(0) ≥ 0.
    pub q0: f64,
    /// Initial per-source rates λ_i(0) ≥ 0, one entry per source.
    pub lambda0: Vec<f64>,
    /// Final integration time.
    pub t_end: f64,
    /// Integration step (choose ≲ 1e-3 of the system time scale).
    pub dt: f64,
}

impl FluidParams {
    /// Validate the parameter set for a run with `n_sources` laws.
    ///
    /// # Errors
    /// [`NumericsError::DimensionMismatch`] unless
    /// `n_sources == lambda0.len() >= 1`;
    /// [`NumericsError::InvalidParameter`] naming the field, for a
    /// non-positive or non-finite `mu` or `t_end`, `dt` outside
    /// `(0, t_end)`, or a negative or non-finite initial condition.
    pub fn validate(&self, n_sources: usize) -> Result<()> {
        if n_sources == 0 || n_sources != self.lambda0.len() {
            return Err(NumericsError::DimensionMismatch {
                context: "FluidParams: need laws.len() == lambda0.len() >= 1",
            });
        }
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
                self.lambda0.iter().all(|&l| l >= 0.0 && l.is_finite()),
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
    /// Per-source rates, flat and row-major: source `i` at sample `k` is
    /// `lambda[k * n_sources() + i]` (with one source, the source's rate
    /// at each sample).
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

    /// Number of sources (0 for an empty trajectory).
    #[must_use]
    pub fn n_sources(&self) -> usize {
        if self.t.is_empty() {
            0
        } else {
            self.lambda.len() / self.t.len()
        }
    }

    /// The per-source rates at each sample, one row per sample.
    fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.lambda.chunks_exact(self.n_sources().max(1))
    }

    /// Aggregate arrival rate Λ = Σ λ_i at sample `k` (with one source,
    /// that source's rate).
    ///
    /// # Panics
    /// Panics when `k >= len()`.
    #[must_use]
    pub fn total_rate(&self, k: usize) -> f64 {
        let n = self.n_sources();
        total(&self.lambda[k * n..(k + 1) * n])
    }

    /// Queue growth rate ν = Λ − μ at each sample (with the empty-queue
    /// clamp applied), for phase-plane plots.
    #[must_use]
    pub fn nu(&self, mu: f64) -> Vec<f64> {
        self.q
            .iter()
            .zip(self.rows())
            .map(|(&q, row)| queue_drift(q, total(row), mu))
            .collect()
    }

    /// Time-averaged per-source rate over the final `fraction` of the run
    /// — the throughput allocation compared against theory in E6a/E6b.
    #[must_use]
    pub fn mean_rates_tail(&self, fraction: f64) -> Vec<f64> {
        let n = self.len();
        if n == 0 {
            return Vec::new();
        }
        let start = ((1.0 - fraction.clamp(0.0, 1.0)) * n as f64) as usize;
        let start = start.min(n - 1);
        let mut acc = vec![0.0; self.n_sources()];
        for row in self.rows().skip(start) {
            for (a, v) in acc.iter_mut().zip(row) {
                *a += v;
            }
        }
        let count = (n - start) as f64;
        acc.iter_mut().for_each(|a| *a /= count);
        acc
    }

    /// Final `(q, λ⃗)` state.
    ///
    /// # Panics
    /// Panics when the trajectory is empty.
    #[must_use]
    pub fn final_state(&self) -> (f64, &[f64]) {
        let q = *self.q.last().unwrap();
        (q, &self.lambda[self.lambda.len() - self.n_sources()..])
    }
}

/// The fluid queue drift for an aggregate rate, with the empty-queue
/// convention. Shared with [`crate::delay`] so both models use the exact
/// same semantics.
#[inline]
#[must_use]
pub fn queue_drift(q: f64, total_lambda: f64, mu: f64) -> f64 {
    if q <= 0.0 && total_lambda < mu {
        0.0
    } else {
        total_lambda - mu
    }
}

/// Σ λ_i, exact (no added zero) for one source.
#[inline]
fn total(lambda: &[f64]) -> f64 {
    lambda[1..].iter().fold(lambda[0], |acc, &l| acc + l)
}

/// Integrate the fluid system with one law per source (`laws[i]` drives
/// `lambda0[i]`), recording every step.
///
/// Integration uses fixed-step RK4: the right-hand side is discontinuous
/// across the switching line `Q = q̂` and the boundary `Q = 0`, so an
/// adaptive error estimator would thrash; a small fixed step with
/// post-step clamping is both faster and more predictable here. The
/// clamping implements the paper's convention `ν(t) = 0 if Q(t) = 0 and
/// λ(t) < μ` (the queue cannot drain below empty).
///
/// # Errors
/// Propagates [`FluidParams::validate`].
pub fn simulate<L: RateControl>(laws: &[L], params: &FluidParams) -> Result<FluidTrajectory> {
    params.validate(laws.len())?;
    let n = laws.len();
    let n_steps = (params.t_end / params.dt).ceil() as usize;
    let (h, mu) = (params.dt, params.mu);
    let mut q = params.q0;
    let mut lam = params.lambda0.clone();
    let mut traj = FluidTrajectory {
        t: Vec::with_capacity(n_steps + 1),
        q: Vec::with_capacity(n_steps + 1),
        lambda: Vec::with_capacity((n_steps + 1) * n),
    };
    traj.t.push(0.0);
    traj.q.push(q);
    traj.lambda.extend_from_slice(&lam);

    // RK4 on the clamped vector field: `eval` writes the rate slopes of
    // one stage into `k` and returns the queue slope.
    let eval = |q: f64, lam: &[f64], k: &mut [f64]| -> f64 {
        let q_eff = q.max(0.0);
        for ((k, law), &l) in k.iter_mut().zip(laws).zip(lam) {
            *k = law.g(q_eff, l);
        }
        queue_drift(q_eff, total(lam), mu)
    };
    // `stage = lam + c·k`, elementwise.
    let advance = |stage: &mut [f64], lam: &[f64], c: f64, k: &[f64]| {
        for ((s, &l), &k) in stage.iter_mut().zip(lam).zip(k) {
            *s = l + c * k;
        }
    };
    let (mut k1, mut k2, mut k3, mut k4) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut stage = vec![0.0; n];
    for step in 0..n_steps {
        let k1q = eval(q, &lam, &mut k1);
        advance(&mut stage, &lam, 0.5 * h, &k1);
        let k2q = eval(q + 0.5 * h * k1q, &stage, &mut k2);
        advance(&mut stage, &lam, 0.5 * h, &k2);
        let k3q = eval(q + 0.5 * h * k2q, &stage, &mut k3);
        advance(&mut stage, &lam, h, &k3);
        let k4q = eval(q + h * k3q, &stage, &mut k4);
        // Clamps: the queue cannot be negative; rates cannot go negative.
        q = (q + h / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)).max(0.0);
        for (i, l) in lam.iter_mut().enumerate() {
            *l = (*l + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])).max(0.0);
        }
        traj.t.push((step + 1) as f64 * h);
        traj.q.push(q);
        traj.lambda.extend_from_slice(&lam);
    }
    Ok(traj)
}
