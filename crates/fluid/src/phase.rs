//! The (q, ν) phase plane of Section 5: drift quadrants, characteristic
//! tracing, and section crossings of the convergent spiral.
//!
//! Figure 2 of the paper divides the plane by the lines `q = q̂` and
//! `ν = 0` into four quadrants and reads off the drift direction in each:
//!
//! ```text
//!            ν
//!            ▲
//!   IV  ↗    │    I  ↗       (q ≤ q̂: ν-drift = +C0 > 0)
//!  ──────────┼──────────▶ q = q̂ line is vertical; ν = 0 horizontal
//!   III ↙    │    II ↘       (q > q̂: ν-drift = −C1·λ < 0)
//! ```
//!
//! (Quadrant numbering follows the paper: I = {ν>0, q≤q̂},
//! II = {ν>0, q>q̂}, III = {ν<0, q>q̂}, IV = {ν<0, q≤q̂}.)

use crate::{simulate, FluidParams, FluidTrajectory};
use fpk_congestion::RateControl;
use fpk_numerics::Result;
use serde::Serialize;

/// The four quadrants of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Quadrant {
    /// ν > 0, q ≤ q̂: queue filling, rate probing up.
    I,
    /// ν > 0, q > q̂: queue filling, rate backing off.
    II,
    /// ν ≤ 0, q > q̂: queue draining, rate backing off.
    III,
    /// ν ≤ 0, q ≤ q̂: queue draining, rate probing up.
    IV,
}

/// Classify a phase-plane point per the paper's quadrant scheme.
#[must_use]
pub fn quadrant(q: f64, nu: f64, q_hat: f64) -> Quadrant {
    match (nu > 0.0, q > q_hat) {
        (true, false) => Quadrant::I,
        (true, true) => Quadrant::II,
        (false, true) => Quadrant::III,
        (false, false) => Quadrant::IV,
    }
}

/// The instantaneous drift (characteristic direction) at a phase point:
/// `(dq/dt, dν/dt) = (ν, g(q, ν + μ))` — Eq. 16 of the paper.
#[must_use]
pub fn drift<L: RateControl>(law: &L, mu: f64, q: f64, nu: f64) -> (f64, f64) {
    (nu, law.g(q, nu + mu))
}

/// One arrow of the direction field for Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FieldArrow {
    /// Queue coordinate of the sample point.
    pub q: f64,
    /// Growth-rate coordinate of the sample point.
    pub nu: f64,
    /// q-component of the drift.
    pub dq: f64,
    /// ν-component of the drift.
    pub dnu: f64,
    /// Which quadrant the sample point is in.
    pub quadrant: Quadrant,
}

/// Sample the direction field on an `nq × nnu` grid over
/// `[0, q_max] × [nu_min, nu_max]` — the data behind Figure 2.
#[must_use]
pub fn direction_field<L: RateControl>(
    law: &L,
    mu: f64,
    q_max: f64,
    nu_min: f64,
    nu_max: f64,
    nq: usize,
    nnu: usize,
) -> Vec<FieldArrow> {
    let mut out = Vec::with_capacity(nq * nnu);
    for i in 0..nq {
        let q = q_max * (i as f64 + 0.5) / nq as f64;
        for j in 0..nnu {
            let nu = nu_min + (nu_max - nu_min) * (j as f64 + 0.5) / nnu as f64;
            let (dq, dnu) = drift(law, mu, q, nu);
            out.push(FieldArrow {
                q,
                nu,
                dq,
                dnu,
                quadrant: quadrant(q, nu, law.q_hat()),
            });
        }
    }
    out
}

/// Verify the quadrant sign pattern of Figure 2 for a law: returns `true`
/// iff in each quadrant the drift signs match the paper's table
/// (Q-drift sign = sign of ν; ν-drift > 0 for q ≤ q̂, < 0 for q > q̂ when
/// λ > 0).
#[must_use]
pub fn check_figure2_signs<L: RateControl>(_law: &L, mu: f64, arrows: &[FieldArrow]) -> bool {
    arrows.iter().all(|a| {
        let q_ok = (a.dq > 0.0) == (a.nu > 0.0) || a.nu == 0.0;
        let lambda = a.nu + mu;
        let nu_ok = match a.quadrant {
            Quadrant::I | Quadrant::IV => a.dnu > 0.0,
            Quadrant::II | Quadrant::III => lambda <= 0.0 || a.dnu < 0.0,
        };
        q_ok && nu_ok
    })
}

/// A crossing of the Poincaré section `{q = q̂}` extracted from a
/// trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SectionCrossing {
    /// Interpolated crossing time.
    pub t: f64,
    /// Interpolated rate λ at the crossing.
    pub lambda: f64,
    /// `true` when q was increasing through q̂ (entering the over-target
    /// half-plane).
    pub upward: bool,
}

/// Find all crossings of `q = q_hat` in a trajectory, with linear
/// interpolation between samples. The crossing rate is the aggregate
/// rate Λ ([`FluidTrajectory::total_rate`]).
#[must_use]
pub fn section_crossings(traj: &FluidTrajectory, q_hat: f64) -> Vec<SectionCrossing> {
    let mut out = Vec::new();
    for k in 1..traj.t.len() {
        let (q0, q1) = (traj.q[k - 1], traj.q[k]);
        let d0 = q0 - q_hat;
        let d1 = q1 - q_hat;
        if d0 == 0.0 {
            continue; // counted at the previous interval's end if a true crossing
        }
        if d0 * d1 < 0.0 {
            let w = d0 / (d0 - d1);
            let t = traj.t[k - 1] + w * (traj.t[k] - traj.t[k - 1]);
            let (l0, l1) = (traj.total_rate(k - 1), traj.total_rate(k));
            let lambda = l0 + w * (l1 - l0);
            out.push(SectionCrossing {
                t,
                lambda,
                upward: d1 > 0.0,
            });
        }
    }
    out
}

/// Trace the characteristic through `(q0, λ0)` and report the spiral's
/// section rates: the λ values at successive *upward* crossings of q̂.
/// Theorem 1 predicts these approach μ monotonically from above... note:
/// upward crossings carry λ > μ; their excursion |λ − μ| must shrink.
///
/// # Errors
/// Propagates fluid integration errors.
pub fn spiral_section_rates<L: RateControl>(law: &L, params: &FluidParams) -> Result<Vec<f64>> {
    let traj = simulate(std::slice::from_ref(law), params)?;
    Ok(section_crossings(&traj, law.q_hat())
        .into_iter()
        .filter(|c| c.upward)
        .map(|c| c.lambda)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpk_congestion::LinearExp;

    fn law() -> LinearExp {
        LinearExp::new(1.0, 0.5, 10.0)
    }

    #[test]
    fn quadrant_classification() {
        assert_eq!(quadrant(5.0, 1.0, 10.0), Quadrant::I);
        assert_eq!(quadrant(15.0, 1.0, 10.0), Quadrant::II);
        assert_eq!(quadrant(15.0, -1.0, 10.0), Quadrant::III);
        assert_eq!(quadrant(5.0, -1.0, 10.0), Quadrant::IV);
        // Boundary q = q̂ belongs to the under-target side (paper's ≤).
        assert_eq!(quadrant(10.0, 1.0, 10.0), Quadrant::I);
    }

    #[test]
    fn drift_matches_eq16() {
        let l = law();
        let (dq, dnu) = drift(&l, 5.0, 5.0, 2.0);
        assert_eq!(dq, 2.0);
        assert_eq!(dnu, 1.0); // under target: +C0
        let (_, dnu2) = drift(&l, 5.0, 12.0, 2.0);
        assert_eq!(dnu2, -0.5 * 7.0); // over target: -C1 (ν+μ)
    }

    #[test]
    fn figure2_sign_pattern_holds_for_jrj() {
        let l = law();
        let arrows = direction_field(&l, 5.0, 20.0, -4.0, 4.0, 12, 12);
        assert_eq!(arrows.len(), 144);
        assert!(check_figure2_signs(&l, 5.0, &arrows));
    }

    #[test]
    fn section_crossings_of_synthetic_sine() {
        // q(t) = 10 + sin t crosses q̂ = 10 at every multiple of π.
        let t: Vec<f64> = (0..=1000).map(|i| i as f64 * 0.01).collect();
        let q: Vec<f64> = t.iter().map(|&t| 10.0 + t.sin()).collect();
        let lambda = vec![5.0; t.len()];
        let traj = FluidTrajectory { t, q, lambda };
        let crossings = section_crossings(&traj, 10.0);
        // t in (0, 10]: crossings at π, 2π, 3π (~3.14, 6.28, 9.42).
        assert_eq!(crossings.len(), 3);
        assert!((crossings[0].t - std::f64::consts::PI).abs() < 1e-3);
        assert!(!crossings[0].upward); // sine is falling through 10 at π
        assert!(crossings[1].upward);
    }

    #[test]
    fn spiral_rates_contract_toward_mu() {
        let l = law();
        // dt must be small: crossing the switching discontinuity costs
        // O(dt) locally, and late-spiral contraction per cycle is tiny.
        let params = FluidParams {
            mu: 5.0,
            q0: 10.0,
            lambda0: vec![1.0],
            t_end: 150.0,
            dt: 2e-4,
        };
        let rates = spiral_section_rates(&l, &params).unwrap();
        assert!(rates.len() >= 4, "expected several revolutions");
        // Upward crossings carry λ > μ; excursions |λ − μ| must shrink.
        // Late in the spiral the analytic per-cycle decrease is only
        // ~(2/3)ε²/μ, comparable to the integrator's error across the
        // switching discontinuity, so allow sub-1e-3 noise.
        for w in rates.windows(2) {
            assert!(
                (w[1] - 5.0).abs() <= (w[0] - 5.0).abs() + 1e-3,
                "excursions must not grow: {w:?}"
            );
        }
        assert!((rates.last().unwrap() - 5.0).abs() < (rates[0] - 5.0).abs());
    }

    #[test]
    fn direction_field_covers_grid() {
        let l = law();
        let arrows = direction_field(&l, 5.0, 20.0, -3.0, 3.0, 4, 6);
        assert_eq!(arrows.len(), 24);
        // All four quadrants should be represented on this grid.
        for q in [Quadrant::I, Quadrant::II, Quadrant::III, Quadrant::IV] {
            assert!(arrows.iter().any(|a| a.quadrant == q), "missing {q:?}");
        }
    }
}
