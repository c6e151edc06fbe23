//! Theorem 1 verification: the no-delay JRJ fluid system converges to the
//! limit point `(q̂, μ)`.
//!
//! Two independent routes are cross-checked:
//!
//! 1. the **analytic return map** of
//!    `fpk_congestion::theory::ReturnMap` (piecewise closed forms plus one
//!    transcendental root per revolution), and
//! 2. **direct numerical integration** of the fluid ODEs with section
//!    crossings extracted from the trajectory.
//!
//! Agreement between the two validates both the analysis and the
//! integrator, and the resulting [`ConvergenceReport`] is what the T1
//! experiment table prints.

use crate::phase::section_crossings;
use crate::{simulate, FluidParams};
use fpk_congestion::theory::ReturnMap;
use fpk_congestion::LinearExp;
use fpk_numerics::Result;
use serde::Serialize;

/// Result of a Theorem-1 verification run.
#[derive(Debug, Clone, Serialize)]
pub struct ConvergenceReport {
    /// Law parameters used.
    pub law: LinearExp,
    /// Service rate μ.
    pub mu: f64,
    /// Starting rate on the section.
    pub lambda0: f64,
    /// Section rates from the analytic return map (λ after each
    /// revolution).
    pub analytic_rates: Vec<f64>,
    /// Section rates extracted from the numerical trajectory (downward
    /// crossings of q̂, where λ < μ).
    pub numeric_rates: Vec<f64>,
    /// Largest relative discrepancy between the two over the compared
    /// prefix.
    pub max_discrepancy: f64,
    /// Per-revolution contraction factors `(μ − λ_{k+1})/(μ − λ_k)` from
    /// the analytic map; Theorem 1 ⇔ all < 1.
    pub contraction_factors: Vec<f64>,
    /// Whether every contraction factor was strictly below 1.
    pub all_contracting: bool,
    /// Defect μ − λ after the last analysed revolution, normalised by μ.
    pub final_relative_defect: f64,
}

/// Verify Theorem 1 for one parameter set by running `revolutions` of the
/// analytic map and comparing against a numerically integrated
/// trajectory.
///
/// The trajectory starts on the section at `(q̂, λ0)` with `λ0 < μ`.
///
/// # Errors
/// Propagates return-map and integrator errors (invalid parameters).
pub fn verify(
    law: LinearExp,
    mu: f64,
    lambda0: f64,
    revolutions: usize,
    dt: f64,
) -> Result<ConvergenceReport> {
    let map = ReturnMap::new(law, mu)?;
    let analytic_rates = map.iterate(lambda0, revolutions)?;

    // Numerical horizon: sum of the analytic cycle periods plus margin.
    let mut horizon = 0.0;
    let mut l = lambda0;
    for _ in 0..revolutions {
        let c = map.cycle(l)?;
        horizon += c.t_up + c.t_down;
        l = c.lambda_next;
    }
    horizon *= 1.05;
    let params = FluidParams {
        mu,
        q0: law.q_hat,
        lambda0: vec![lambda0],
        t_end: horizon.max(10.0 * dt),
        dt,
    };
    let traj = simulate(&[law], &params)?;
    // Downward crossings (entering the under-target half-plane) carry the
    // section rates λ < μ — note the initial point itself is *on* the
    // section and is prepended manually.
    let mut numeric_rates = vec![lambda0];
    numeric_rates.extend(
        section_crossings(&traj, law.q_hat)
            .into_iter()
            .filter(|c| !c.upward)
            .map(|c| c.lambda),
    );

    let n_cmp = numeric_rates.len().min(analytic_rates.len());
    let mut max_discrepancy = 0.0f64;
    for k in 0..n_cmp {
        let a = analytic_rates[k];
        let n = numeric_rates[k];
        max_discrepancy = max_discrepancy.max((a - n).abs() / mu);
    }

    let contraction_factors: Vec<f64> = analytic_rates
        .windows(2)
        .map(|w| (mu - w[1]) / (mu - w[0]))
        .collect();
    let all_contracting = contraction_factors.iter().all(|&c| c < 1.0 && c > 0.0);
    let final_relative_defect = (mu - analytic_rates.last().unwrap()) / mu;

    Ok(ConvergenceReport {
        law,
        mu,
        lambda0,
        analytic_rates,
        numeric_rates,
        max_discrepancy,
        contraction_factors,
        all_contracting,
        final_relative_defect,
    })
}

// (no borrowed fields; lifetime elided in practice)
impl ConvergenceReport {
    /// One-line verdict for experiment tables.
    #[must_use]
    pub fn verdict(&self) -> String {
        format!(
            "C0={:.3} C1={:.3} q̂={:.1} μ={:.1} λ0={:.2}: contracting={} defect={:.2e} agree={:.2e}",
            self.law.c0,
            self.law.c1,
            self.law.q_hat,
            self.mu,
            self.lambda0,
            self.all_contracting,
            self.final_relative_defect,
            self.max_discrepancy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_parameters_verify() {
        let report = verify(LinearExp::new(1.0, 0.5, 10.0), 5.0, 2.0, 8, 5e-4).unwrap();
        assert!(report.all_contracting, "{:?}", report.contraction_factors);
        assert!(
            report.max_discrepancy < 5e-3,
            "numeric vs analytic discrepancy {}",
            report.max_discrepancy
        );
        assert!(report.final_relative_defect < (5.0 - 2.0) / 5.0);
    }

    #[test]
    fn aggressive_backoff_still_contracts() {
        let report = verify(LinearExp::new(0.5, 3.0, 5.0), 8.0, 1.0, 6, 5e-4).unwrap();
        assert!(report.all_contracting);
    }

    #[test]
    fn gentle_backoff_still_contracts() {
        let report = verify(LinearExp::new(2.0, 0.05, 20.0), 3.0, 0.5, 5, 5e-4).unwrap();
        assert!(report.all_contracting);
    }

    #[test]
    fn boundary_hitting_start_converges() {
        // Small q̂ forces the q = 0 clamp; Theorem 1 still holds.
        let report = verify(LinearExp::new(0.2, 0.5, 0.5), 5.0, 0.0, 6, 2e-4).unwrap();
        assert!(report.all_contracting);
        // Numeric agreement is looser near the clamped boundary.
        assert!(report.max_discrepancy < 5e-2, "{}", report.max_discrepancy);
    }

    #[test]
    fn verdict_string_mentions_parameters() {
        let report = verify(LinearExp::new(1.0, 0.5, 10.0), 5.0, 2.0, 3, 1e-3).unwrap();
        let v = report.verdict();
        assert!(v.contains("contracting=true"));
    }
}
