//! Multi-source fluid model: N adaptive sources sharing one bottleneck.
//!
//! State is `(Q, λ_1, …, λ_N)` with `dQ/dt = Σλ_i − μ` (clamped at the
//! empty queue) and each `dλ_i/dt = g_i(Q, λ_i)`. With instant feedback
//! every source switches on the same signal; Section 6's prediction is
//! that the stationary shares are `λ_i* ∝ C0_i/C1_i` (implemented in
//! `fpk_congestion::theory::sliding_share`), verified here numerically.

use crate::single::queue_drift;
use fpk_congestion::RateControl;
use fpk_numerics::{NumericsError, Result};
use serde::Serialize;

/// Parameters for a multi-source fluid run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MultiParams {
    /// Bottleneck service rate μ > 0.
    pub mu: f64,
    /// Initial queue length.
    pub q0: f64,
    /// Initial per-source rates (length = number of sources).
    pub lambda0: Vec<f64>,
    /// Final time.
    pub t_end: f64,
    /// Fixed integration step.
    pub dt: f64,
}

/// Recorded multi-source trajectory.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MultiTrajectory {
    /// Sample times.
    pub t: Vec<f64>,
    /// Queue length per sample.
    pub q: Vec<f64>,
    /// Per-source rates: `lambda[k][i]` = source i at sample k.
    pub lambda: Vec<Vec<f64>>,
}

impl MultiTrajectory {
    /// Number of sources.
    #[must_use]
    pub fn n_sources(&self) -> usize {
        self.lambda.first().map_or(0, Vec::len)
    }

    /// Time-averaged per-source rate over the final `fraction` of the run
    /// — the throughput allocation compared against theory in E6a/E6b.
    #[must_use]
    pub fn mean_rates_tail(&self, fraction: f64) -> Vec<f64> {
        let n = self.lambda.len();
        if n == 0 {
            return Vec::new();
        }
        let start = ((1.0 - fraction.clamp(0.0, 1.0)) * n as f64) as usize;
        let start = start.min(n - 1);
        let m = self.n_sources();
        let mut acc = vec![0.0; m];
        for sample in &self.lambda[start..] {
            for (a, v) in acc.iter_mut().zip(sample.iter()) {
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
        (*self.q.last().unwrap(), self.lambda.last().unwrap())
    }
}

/// Integrate the multi-source system with one law per source.
///
/// # Errors
/// [`NumericsError::InvalidParameter`] / [`NumericsError::DimensionMismatch`]
/// for invalid parameters or `laws.len() != lambda0.len()`.
pub fn simulate_multi<L: RateControl>(laws: &[L], params: &MultiParams) -> Result<MultiTrajectory> {
    if laws.is_empty() || laws.len() != params.lambda0.len() {
        return Err(NumericsError::DimensionMismatch {
            context: "simulate_multi: need laws.len() == lambda0.len() >= 1",
        });
    }
    // Each check is phrased positively so NaN fails it too.
    for (ok, context) in [
        (
            params.mu > 0.0 && params.mu.is_finite(),
            "simulate_multi: mu must be finite and > 0",
        ),
        (
            params.t_end > 0.0 && params.t_end.is_finite(),
            "simulate_multi: t_end must be finite and > 0",
        ),
        (
            params.dt > 0.0 && params.dt < params.t_end,
            "simulate_multi: dt must lie in (0, t_end)",
        ),
        (
            params.q0 >= 0.0 && params.q0.is_finite(),
            "simulate_multi: q0 must be finite and >= 0",
        ),
        (
            params.lambda0.iter().all(|&l| l >= 0.0 && l.is_finite()),
            "simulate_multi: lambda0 must be finite and >= 0",
        ),
    ] {
        if !ok {
            return Err(NumericsError::InvalidParameter { context });
        }
    }
    let m = laws.len();
    let n_steps = (params.t_end / params.dt).ceil() as usize;
    let h = params.dt;
    let mut q = params.q0;
    let mut lam = params.lambda0.clone();
    let mut traj = MultiTrajectory {
        t: Vec::with_capacity(n_steps + 1),
        q: Vec::with_capacity(n_steps + 1),
        lambda: Vec::with_capacity(n_steps + 1),
    };
    traj.t.push(0.0);
    traj.q.push(q);
    traj.lambda.push(lam.clone());

    // Scratch buffers for RK4 stages (state = [q, λ_1..λ_m]).
    let dim = m + 1;
    let mut k = vec![vec![0.0; dim]; 4];
    let mut ytmp = vec![0.0; dim];
    let mut y = vec![0.0; dim];
    for step in 0..n_steps {
        y[0] = q;
        y[1..].copy_from_slice(&lam);
        let eval = |state: &[f64], out: &mut [f64]| {
            let q_eff = state[0].max(0.0);
            let total: f64 = state[1..].iter().sum();
            out[0] = queue_drift(q_eff, total, params.mu);
            for (i, law) in laws.iter().enumerate() {
                out[i + 1] = law.g(q_eff, state[i + 1]);
            }
        };
        eval(&y, &mut k[0]);
        for i in 0..dim {
            ytmp[i] = y[i] + 0.5 * h * k[0][i];
        }
        eval(&ytmp, &mut k[1]);
        for i in 0..dim {
            ytmp[i] = y[i] + 0.5 * h * k[1][i];
        }
        eval(&ytmp, &mut k[2]);
        for i in 0..dim {
            ytmp[i] = y[i] + h * k[2][i];
        }
        eval(&ytmp, &mut k[3]);
        for i in 0..dim {
            y[i] += h / 6.0 * (k[0][i] + 2.0 * k[1][i] + 2.0 * k[2][i] + k[3][i]);
        }
        q = y[0].max(0.0);
        for (li, yi) in lam.iter_mut().zip(y[1..].iter()) {
            *li = yi.max(0.0);
        }
        traj.t.push((step + 1) as f64 * h);
        traj.q.push(q);
        traj.lambda.push(lam.clone());
    }
    Ok(traj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpk_congestion::fairness::jain_index;
    use fpk_congestion::theory::sliding_share;
    use fpk_congestion::LinearExp;

    fn params(n: usize) -> MultiParams {
        MultiParams {
            mu: 10.0,
            q0: 0.0,
            lambda0: (0..n).map(|i| i as f64 * 0.5).collect(),
            t_end: 600.0,
            dt: 2e-3,
        }
    }

    #[test]
    fn non_finite_parameters_rejected_by_name() {
        let cases: [(&str, fn(&mut MultiParams)); 6] = [
            ("mu", |p| p.mu = f64::INFINITY),
            ("q0", |p| p.q0 = f64::NAN),
            ("lambda0", |p| p.lambda0[1] = f64::NAN),
            ("lambda0", |p| p.lambda0[0] = f64::INFINITY),
            ("t_end", |p| p.t_end = f64::INFINITY),
            ("t_end", |p| p.t_end = f64::NAN),
        ];
        for (field, spoil) in cases {
            let mut bad = params(2);
            spoil(&mut bad);
            match simulate_multi(&[LinearExp::new(1.0, 0.5, 10.0); 2], &bad) {
                Err(NumericsError::InvalidParameter { context }) => {
                    assert!(context.split(' ').any(|w| w == field), "{field}: {context}");
                }
                other => panic!("{field}: expected InvalidParameter, got {other:?}"),
            }
        }
    }

    #[test]
    fn identical_sources_converge_to_equal_shares() {
        // Section 6 / E6a: same (C0, C1) → fair (equal) split of μ,
        // regardless of unequal starting rates.
        let laws = vec![LinearExp::new(1.0, 0.5, 10.0); 4];
        let traj = simulate_multi(&laws, &params(4)).unwrap();
        let shares = traj.mean_rates_tail(0.25);
        let j = jain_index(&shares).unwrap();
        assert!(j > 0.999, "Jain index {j}, shares {shares:?}");
        let total: f64 = shares.iter().sum();
        assert!((total - 10.0).abs() < 0.3, "total {total}");
    }

    #[test]
    fn heterogeneous_sources_follow_sliding_share() {
        // E6b: shares ∝ C0_i/C1_i.
        let laws = vec![
            LinearExp::new(1.0, 0.5, 10.0), // ratio 2
            LinearExp::new(2.0, 0.5, 10.0), // ratio 4
            LinearExp::new(0.5, 0.5, 10.0), // ratio 1
        ];
        let predicted = sliding_share(&laws, 10.0).unwrap();
        let traj = simulate_multi(&laws, &params(3)).unwrap();
        let measured = traj.mean_rates_tail(0.25);
        for (m, p) in measured.iter().zip(predicted.iter()) {
            assert!(
                (m - p).abs() / p < 0.12,
                "measured {measured:?} vs predicted {predicted:?}"
            );
        }
    }

    #[test]
    fn aggregate_utilisation_near_capacity() {
        let laws = vec![LinearExp::new(1.0, 0.5, 10.0); 2];
        let traj = simulate_multi(&laws, &params(2)).unwrap();
        let shares = traj.mean_rates_tail(0.3);
        let total: f64 = shares.iter().sum();
        assert!(total > 9.0 && total < 11.0, "total {total}");
    }

    #[test]
    fn queue_stays_non_negative() {
        let laws = vec![LinearExp::new(3.0, 2.0, 1.0); 3];
        let traj = simulate_multi(&laws, &params(3)).unwrap();
        assert!(traj.q.iter().all(|&q| q >= 0.0));
    }

    #[test]
    fn rejects_mismatched_inputs() {
        let laws = vec![LinearExp::standard(); 2];
        let mut p = params(3);
        assert!(simulate_multi(&laws, &p).is_err());
        p.lambda0 = vec![1.0, 1.0];
        p.mu = -1.0;
        assert!(simulate_multi(&laws, &p).is_err());
    }

    #[test]
    fn rejects_negative_initial_rate() {
        let laws = vec![LinearExp::standard(); 2];
        let mut p = params(2);
        p.lambda0 = vec![1.0, -0.5];
        assert!(simulate_multi(&laws, &p).is_err());
    }

    #[test]
    fn single_source_multi_matches_single_module() {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let p_multi = MultiParams {
            mu: 5.0,
            q0: 2.0,
            lambda0: vec![1.0],
            t_end: 50.0,
            dt: 1e-3,
        };
        let tm = simulate_multi(&[law], &p_multi).unwrap();
        let p_single = crate::single::FluidParams {
            mu: 5.0,
            q0: 2.0,
            lambda0: 1.0,
            t_end: 50.0,
            dt: 1e-3,
        };
        let ts = crate::single::simulate(&law, &p_single).unwrap();
        let (qm, lm) = (tm.q.last().unwrap(), tm.lambda.last().unwrap()[0]);
        let (qs, ls) = ts.final_state();
        assert!((qm - qs).abs() < 1e-6, "q {qm} vs {qs}");
        assert!((lm - ls).abs() < 1e-6, "lambda {lm} vs {ls}");
    }

    #[test]
    fn mean_rates_tail_empty_safe() {
        let traj = MultiTrajectory::default();
        assert!(traj.mean_rates_tail(0.5).is_empty());
        assert_eq!(traj.n_sources(), 0);
    }
}
