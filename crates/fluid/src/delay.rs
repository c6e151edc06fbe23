//! Delayed feedback (Section 7): the control law acts on the queue state
//! from `τ_i` seconds ago.
//!
//! ```text
//! dQ/dt   = Σ λ_i(t) − μ                (clamped at the empty queue)
//! dλ_i/dt = g_i(Q(t − τ_i), λ_i(t))     (stale observation)
//! ```
//!
//! The paper's Section 7 findings, reproduced by this module and its
//! experiments:
//!
//! * any positive delay turns the convergent spiral into a **limit
//!   cycle** — oscillation for *every* user;
//! * cycle amplitude grows with τ (experiment E7a);
//! * sources with **different** delays get **unequal** throughput
//!   (experiment E7b), the fluid-level analogue of Jacobson's observation
//!   that long-haul connections lose to short-haul ones.
//!
//! # On the unfairness mechanism (quantitative decomposition)
//!
//! This reproduction separates two effects the paper says are *partly*
//! responsible for unfairness:
//!
//! 1. **Pure observation delay** — identical continuous laws, each merely
//!    observing Q with its own lag τ_i. In periodic steady state the
//!    observed signal of each source is a time-shift of the same
//!    congestion waveform, so every source spends the same *fraction* of
//!    time in each branch and the time-averaged rates stay within ~1% of
//!    equal (measured across wide parameter sweeps). Delay alone makes
//!    everyone oscillate but barely skews the split.
//! 2. **RTT-scaled dynamics** — real window algorithms (Eq. 1) adapt once
//!    per round trip, so the *rate-law parameters themselves* depend on
//!    the delay: `C0_i = a/τ_i²`, `C1_i = −ln(d)/τ_i` (see
//!    `fpk_congestion::laws::WindowAimd`). The sliding-share theorem then
//!    predicts `share_i ∝ C0_i/C1_i ∝ 1/τ_i` — the longer connection gets
//!    proportionally less, which is Jacobson's and Zhang's measured
//!    unfairness and is confirmed by [`window_laws_for_delays`] +
//!    `simulate_delayed`.

use crate::{queue_drift, FluidTrajectory};
use fpk_congestion::RateControl;
use fpk_numerics::dde::DdeProblem;
use fpk_numerics::signal::{analyze_oscillation, classify_regime, Oscillation, Regime};
use fpk_numerics::{NumericsError, Result};
use serde::Serialize;

/// Parameters of a delayed-feedback fluid run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DelayParams {
    /// Bottleneck service rate μ > 0.
    pub mu: f64,
    /// Initial queue length (held constant for t ≤ 0 as the DDE history).
    pub q0: f64,
    /// Initial per-source rates (held constant for t ≤ 0).
    pub lambda0: Vec<f64>,
    /// Per-source feedback delays τ_i > 0 (same length as `lambda0`).
    pub taus: Vec<f64>,
    /// Final time.
    pub t_end: f64,
    /// Approximate number of integration steps (the DDE solver snaps the
    /// step to divide the smallest lag).
    pub steps: usize,
}

impl DelayParams {
    fn validate(&self) -> Result<()> {
        if self.lambda0.is_empty() || self.lambda0.len() != self.taus.len() {
            return Err(NumericsError::DimensionMismatch {
                context: "DelayParams: need lambda0.len() == taus.len() >= 1",
            });
        }
        // Each check is phrased positively so NaN fails it too.
        for (ok, context) in [
            (
                self.mu > 0.0 && self.mu.is_finite(),
                "DelayParams: mu must be finite and > 0",
            ),
            (
                self.t_end > 0.0 && self.t_end.is_finite(),
                "DelayParams: t_end must be finite and > 0",
            ),
            (self.steps > 0, "DelayParams: steps must be > 0"),
            (
                self.q0 >= 0.0 && self.q0.is_finite(),
                "DelayParams: q0 must be finite and >= 0",
            ),
            (
                self.lambda0.iter().all(|&l| l >= 0.0 && l.is_finite()),
                "DelayParams: lambda0 must be finite and >= 0",
            ),
            (
                self.taus.iter().all(|&t| t > 0.0),
                "DelayParams: delays must be positive (use simulate for zero delay)",
            ),
        ] {
            if !ok {
                return Err(NumericsError::InvalidParameter { context });
            }
        }
        Ok(())
    }
}

/// Integrate the delayed-feedback fluid system. `laws[i]` observes the
/// queue with lag `taus[i]`. The trajectory records the DDE solver's
/// steps, in the layout [`crate::simulate`] uses.
///
/// # Errors
/// Parameter validation errors plus DDE solver errors.
pub fn simulate_delayed<L: RateControl>(
    laws: &[L],
    params: &DelayParams,
) -> Result<FluidTrajectory> {
    params.validate()?;
    if laws.len() != params.lambda0.len() {
        return Err(NumericsError::DimensionMismatch {
            context: "simulate_delayed: laws.len() != lambda0.len()",
        });
    }
    let m = laws.len();
    let dim = m + 1; // state = [q, λ_1, …, λ_m]
    let q0 = params.q0;
    let lambda0 = params.lambda0.clone();
    let phi = move |_t: f64, out: &mut [f64]| {
        out[0] = q0;
        out[1..].copy_from_slice(&lambda0);
    };
    let mu = params.mu;
    let mut rhs = |_t: f64, y: &[f64], delayed: &[Vec<f64>], dydt: &mut [f64]| {
        let q_now = y[0].max(0.0);
        let total: f64 = y[1..].iter().sum();
        dydt[0] = queue_drift(q_now, total, mu);
        for (i, law) in laws.iter().enumerate() {
            // Source i sees the queue as it was τ_i ago.
            let q_stale = delayed[i][0].max(0.0);
            let lam = y[i + 1].max(0.0);
            let g = law.g(q_stale, lam);
            // Keep rates non-negative: suppress decrease at λ = 0.
            dydt[i + 1] = if y[i + 1] <= 0.0 && g < 0.0 { 0.0 } else { g };
        }
    };
    let problem = DdeProblem {
        lags: &params.taus,
        t0: 0.0,
        t1: params.t_end,
        phi: &phi,
        dim,
    };
    let traj = problem.solve(&mut rhs, params.steps)?;
    // Repackage into a FluidTrajectory, clamping the recorded state.
    let mut out = FluidTrajectory {
        t: traj.t,
        q: Vec::with_capacity(traj.y.len()),
        lambda: Vec::with_capacity(traj.y.len() * m),
    };
    for y in traj.y {
        out.q.push(y[0].max(0.0));
        out.lambda.extend(y[1..].iter().map(|l| l.max(0.0)));
    }
    Ok(out)
}

/// Limit-cycle summary of a delayed run's queue trace: amplitude/period
/// over the final `tail_fraction`, plus the regime classification.
#[derive(Debug, Clone, Serialize)]
pub struct CycleSummary {
    /// Oscillation statistics, `None` when the tail has settled.
    pub oscillation: Option<Oscillation>,
    /// Damped / sustained / divergent / converged classification.
    pub regime: Regime,
}

/// Build the rate-equivalent laws of window-AIMD sources whose round-trip
/// times equal their feedback delays — the physically consistent model of
/// heterogeneous-RTT connections (`C0_i = a/τ_i²`, `C1_i = −ln d / τ_i`).
///
/// Combined with `fpk_congestion::theory::sliding_share` this predicts
/// `share_i ∝ 1/τ_i`.
#[must_use]
pub fn window_laws_for_delays(
    a: f64,
    d: f64,
    taus: &[f64],
    q_hat: f64,
) -> Vec<fpk_congestion::LinearExp> {
    taus.iter()
        .map(|&tau| fpk_congestion::WindowAimd::new(a, d, tau, q_hat).to_rate_law())
        .collect()
}

/// Analyse the queue trace of a (delayed or undelayed) run.
///
/// `floor` is the amplitude below which the system counts as converged —
/// use a small fraction of q̂.
///
/// # Errors
/// Propagates signal-analysis errors (traces shorter than a few samples).
pub fn cycle_summary(
    traj: &FluidTrajectory,
    tail_fraction: f64,
    floor: f64,
) -> Result<CycleSummary> {
    let oscillation = analyze_oscillation(&traj.t, &traj.q, tail_fraction)?;
    let regime = classify_regime(&traj.t, &traj.q, floor)?;
    Ok(CycleSummary {
        oscillation,
        regime,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpk_congestion::fairness::jain_index;
    use fpk_congestion::LinearExp;

    fn law() -> LinearExp {
        LinearExp::new(1.0, 0.5, 10.0)
    }

    fn params_one(tau: f64) -> DelayParams {
        DelayParams {
            mu: 5.0,
            q0: 10.0,
            lambda0: vec![3.0],
            taus: vec![tau],
            t_end: 300.0,
            steps: 60_000,
        }
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        let mut p = params_one(1.0);
        p.taus = vec![0.0];
        assert!(simulate_delayed(&[law()], &p).is_err());
        let mut p2 = params_one(1.0);
        p2.lambda0 = vec![1.0, 2.0];
        assert!(simulate_delayed(&[law()], &p2).is_err());
        let mut p3 = params_one(1.0);
        p3.mu = 0.0;
        assert!(simulate_delayed(&[law()], &p3).is_err());
    }

    #[test]
    fn non_finite_parameters_rejected_by_name() {
        let cases: [(&str, fn(&mut DelayParams)); 5] = [
            ("mu", |p| p.mu = f64::INFINITY),
            ("q0", |p| p.q0 = f64::NAN),
            ("lambda0", |p| p.lambda0[0] = f64::NAN),
            ("t_end", |p| p.t_end = f64::INFINITY),
            ("t_end", |p| p.t_end = f64::NAN),
        ];
        for (field, spoil) in cases {
            let mut bad = params_one(1.0);
            spoil(&mut bad);
            match simulate_delayed(&[law()], &bad) {
                Err(NumericsError::InvalidParameter { context }) => {
                    assert!(context.split(' ').any(|w| w == field), "{field}: {context}");
                }
                other => panic!("{field}: expected InvalidParameter, got {other:?}"),
            }
        }
    }

    #[test]
    fn tiny_delay_behaves_like_no_delay() {
        // τ → 0 limit: amplitude shrinks like the undelayed spiral.
        let p = params_one(0.01);
        let traj = simulate_delayed(&[law()], &p).unwrap();
        let summary = cycle_summary(&traj, 0.3, 0.5).unwrap();
        assert!(
            matches!(summary.regime, Regime::Damped | Regime::Converged),
            "tiny delay should stay damped, got {:?}",
            summary.regime
        );
    }

    #[test]
    fn substantial_delay_sustains_oscillation() {
        // E7a: τ comparable to the system time constant → limit cycle.
        let p = params_one(2.0);
        let traj = simulate_delayed(&[law()], &p).unwrap();
        let summary = cycle_summary(&traj, 0.3, 0.2).unwrap();
        assert_eq!(
            summary.regime,
            Regime::Sustained,
            "{:?}",
            summary.oscillation
        );
        let osc = summary.oscillation.expect("should oscillate");
        assert!(osc.amplitude > 1.0, "amplitude {}", osc.amplitude);
        assert!(osc.cycles >= 3);
    }

    #[test]
    fn amplitude_grows_with_delay() {
        let amp = |tau: f64| {
            let p = params_one(tau);
            let traj = simulate_delayed(&[law()], &p).unwrap();
            cycle_summary(&traj, 0.3, 1e-6)
                .unwrap()
                .oscillation
                .map_or(0.0, |o| o.amplitude)
        };
        let a1 = amp(0.5);
        let a2 = amp(1.5);
        let a3 = amp(3.0);
        assert!(a2 > a1, "amplitude should grow with delay: {a1} -> {a2}");
        assert!(a3 > a2, "amplitude should grow with delay: {a2} -> {a3}");
    }

    #[test]
    fn queue_and_rates_stay_non_negative() {
        let p = params_one(3.0);
        let traj = simulate_delayed(&[law()], &p).unwrap();
        assert!(traj.q.iter().all(|&q| q >= 0.0));
        assert!(traj.lambda.iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn pure_observation_delay_is_nearly_fair() {
        // Identical continuous laws, 4× different observation delays: in
        // the fluid limit the time-shift averages out and the split stays
        // within ~2% of equal (the paper's "may be unfair" is driven by
        // the RTT-scaled dynamics tested below).
        let laws = vec![law(), law()];
        let p = DelayParams {
            mu: 5.0,
            q0: 10.0,
            lambda0: vec![2.5, 2.5],
            taus: vec![0.5, 2.0],
            t_end: 800.0,
            steps: 160_000,
        };
        let traj = simulate_delayed(&laws, &p).unwrap();
        let shares = traj.mean_rates_tail(0.5);
        let j = jain_index(&shares).unwrap();
        assert!(
            j > 0.99,
            "pure-delay skew should be mild; Jain = {j}, {shares:?}"
        );
    }

    #[test]
    fn rtt_scaled_dynamics_cause_unfairness() {
        // E7b proper: window sources adapting once per RTT, with RTT =
        // feedback delay. Theory: share_i ∝ 1/τ_i, so the 3×-longer
        // connection should get roughly a third of the short one.
        let taus = vec![1.0, 3.0];
        let laws = window_laws_for_delays(1.0, 0.5, &taus, 10.0);
        let predicted = fpk_congestion::theory::sliding_share(&laws, 5.0).unwrap();
        assert!(
            (predicted[0] / predicted[1] - 3.0).abs() < 1e-9,
            "theory: share ratio = tau ratio"
        );
        let p = DelayParams {
            mu: 5.0,
            q0: 10.0,
            lambda0: vec![2.5, 2.5],
            taus,
            t_end: 800.0,
            steps: 160_000,
        };
        let traj = simulate_delayed(&laws, &p).unwrap();
        let shares = traj.mean_rates_tail(0.5);
        let j = jain_index(&shares).unwrap();
        assert!(
            j < 0.95,
            "RTT-scaled laws must be unfair; Jain = {j}, {shares:?}"
        );
        assert!(
            shares[0] > shares[1],
            "shorter connection should win: {shares:?}"
        );
        let ratio = shares[0] / shares[1];
        assert!(
            ratio > 1.8,
            "share skew should approach the predicted 3:1; measured ratio {ratio}"
        );
    }

    #[test]
    fn equal_delays_preserve_fairness() {
        let laws = vec![law(), law()];
        let p = DelayParams {
            mu: 5.0,
            q0: 10.0,
            lambda0: vec![1.0, 4.0],
            taus: vec![1.0, 1.0],
            t_end: 400.0,
            steps: 80_000,
        };
        let traj = simulate_delayed(&laws, &p).unwrap();
        let shares = traj.mean_rates_tail(0.25);
        let j = jain_index(&shares).unwrap();
        assert!(
            j > 0.995,
            "equal delays should stay fair; Jain = {j}, {shares:?}"
        );
    }
}
