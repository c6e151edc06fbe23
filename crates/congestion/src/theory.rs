//! Analytic theory for Sections 5 and 6 of the paper.
//!
//! # Single source: the return map behind Theorem 1
//!
//! With σ² = 0 and no feedback delay, the characteristics of Eq. 14 are
//! the fluid ODEs `dq/dt = λ − μ`, `dλ/dt = g(q, λ)`. For the JRJ law the
//! trajectory through the phase plane decomposes into closed-form arcs:
//!
//! * **Increase phase** (`q ≤ q̂`): `λ(t) = λ₀ + C0·t` and
//!   `q(t) = q̂ + (λ₀−μ)t + C0 t²/2` — a parabola (Eq. 18 of the paper,
//!   `d²q/dt² = C0`). Starting on the switching line with λ₀ < μ the
//!   trajectory dips below q̂ and, absent the q = 0 boundary, returns to
//!   the line with the *mirrored* rate `λ₁ = 2μ − λ₀`.
//! * **Decrease phase** (`q > q̂`): `λ(t) = λ₁ e^{−C1 t}` and
//!   `q(t) = q̂ + (λ₁/C1)(1 − e^{−C1 t}) − μ t`. The return time solves a
//!   transcendental equation; crucially the exponential decay *overshoots*
//!   the mirror image, landing at `λ₂` with `μ − λ₂ < μ − λ₀`.
//!
//! Composing the two arcs gives the **return map** `λ₀ ↦ λ₂` on the
//! section `{q = q̂, λ < μ}`. Theorem 1 = "this map is a contraction
//! towards μ", which [`ReturnMap::contraction`] exhibits numerically to
//! machine precision and the property tests sweep over parameters.
//!
//! A quantitative refinement this implementation makes explicit: with
//! defect ε = μ − λ, the per-revolution contraction factor expands as
//! `1 − (2/3)·ε/μ + O(ε²)` — strictly below 1 for every ε > 0 (Theorem 1
//! holds) but approaching 1 at the limit point, so the defect decays
//! *algebraically* (`ε_n ≈ 3μ/(2n)`), not geometrically. The paper's
//! phrase "converges in the limit" is thus precise: convergence is
//! guaranteed yet slows down arbitrarily close to equilibrium.
//!
//! For the **linear-decrease** law the decrease arc is also a parabola and
//! the map is exactly the identity (`λ₂ = λ₀`): the system orbits forever.
//! That is the paper's Section 7 observation that linear/linear oscillates
//! *even without delay* — see [`linear_linear_cycle`].
//!
//! # Multiple sources: sliding-mode shares
//!
//! With N sources and instant feedback every source sees the same signal,
//! so the stationary point is a *sliding mode* on `Q = q̂`: the system
//! chatters between "all increase" and "all decrease" with duty cycle α
//! (fraction of time in increase). Stationarity of each λ_i requires
//!
//! ```text
//! α·C0_i = (1−α)·C1_i·λ_i       ⇒   λ_i = (α/(1−α)) · C0_i / C1_i
//! ```
//!
//! and Σλ_i = μ pins α. Hence **each source's throughput share is
//! proportional to C0_i / C1_i** — equal parameters give equal (fair)
//! shares, and [`sliding_share`] returns the exact split for arbitrary
//! parameters. This is the quantitative content of Section 6.

use crate::law::RateControl;
use crate::laws::{LinearExp, LinearLinear};
use fpk_numerics::roots::brent;
use fpk_numerics::{NumericsError, Result};
use serde::Serialize;

/// Outcome of one revolution of the single-source return map.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CycleOutcome {
    /// Rate when the trajectory next returns to the section
    /// `{q = q̂, λ < μ}`.
    pub lambda_next: f64,
    /// Duration of the increase (under-target) phase.
    pub t_up: f64,
    /// Duration of the decrease (over-target) phase.
    pub t_down: f64,
    /// Minimum queue length reached during the dip (0 when the boundary
    /// was hit).
    pub q_min: f64,
    /// Peak queue length during the overshoot.
    pub q_peak: f64,
    /// Peak rate reached (at the switch from increase to decrease).
    pub lambda_peak: f64,
    /// Whether the q = 0 boundary clamped the dip.
    pub hit_empty: bool,
}

/// The Poincaré return map of the no-delay JRJ fluid system on the
/// section `{q = q̂, λ < μ}`.
#[derive(Debug, Clone, Copy)]
pub struct ReturnMap {
    law: LinearExp,
    mu: f64,
}

impl ReturnMap {
    /// Build the map for a law and service rate.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] unless `c0, c1, μ > 0` and
    /// `q̂ ≥ 0`.
    pub fn new(law: LinearExp, mu: f64) -> Result<Self> {
        if !(law.c0 > 0.0 && law.c1 > 0.0 && mu > 0.0 && law.q_hat >= 0.0) {
            return Err(NumericsError::InvalidParameter {
                context: "ReturnMap: need c0, c1, mu > 0 and q_hat >= 0",
            });
        }
        Ok(Self { law, mu })
    }

    /// Service rate μ.
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The underlying law.
    #[must_use]
    pub fn law(&self) -> LinearExp {
        self.law
    }

    /// Advance one full revolution from `(q̂, λ0)` with `0 ≤ λ0 < μ`.
    ///
    /// # Errors
    /// * [`NumericsError::InvalidParameter`] when `λ0` is outside
    ///   `[0, μ)`.
    /// * Propagates root-finder failures from the decrease-phase return
    ///   time (not observed for valid parameters).
    pub fn cycle(&self, lambda0: f64) -> Result<CycleOutcome> {
        let (c0, c1, q_hat, mu) = (self.law.c0, self.law.c1, self.law.q_hat, self.mu);
        if !(0.0..self.mu).contains(&lambda0) {
            return Err(NumericsError::InvalidParameter {
                context: "ReturnMap::cycle: need 0 <= lambda0 < mu",
            });
        }

        // ---- Increase phase: parabola dipping below q̂. ----
        let (up, down) = (self.law.regime(q_hat), self.law.regime(f64::INFINITY));
        let defect = mu - lambda0;
        let q_dip = defect * defect / (2.0 * c0); // depth of the dip below q̂
        let (t_up, lambda_peak, q_min, hit_empty) = if q_dip <= q_hat {
            // Unclamped: symmetric parabola, λ mirrors about μ (where the
            // increase arc lands, written exactly).
            (2.0 * defect / c0, 2.0 * mu - lambda0, q_hat - q_dip, false)
        } else {
            // The dip reaches q = 0: queue sticks at empty (ν clamped to 0
            // per the paper's convention) while λ climbs to μ, then the
            // queue refills from 0 along a fresh parabola.
            //
            // Time to reach λ = μ from λ0: (μ − λ0)/C0 (during part of
            // which q is already pinned at 0 — the pin does not alter λ's
            // linear growth). Refill from q = 0 with λ(t) = μ + C0·t:
            // q(t) = C0 t²/2 = q̂ ⇒ t = sqrt(2 q̂ / C0).
            let t_rise = defect / c0;
            let t_refill = (2.0 * q_hat / c0).sqrt();
            (t_rise + t_refill, up.arc(mu, t_refill).0, 0.0, true)
        };

        // ---- Decrease phase: exponential decay of λ above q̂. ----
        // q(t) − q̂ = (λ1/C1)(1 − e^{−C1 t}) − μ t, return when this hits 0
        // at t2 > 0. Define h(t) = λ1 (1 − e^{−C1 t}) − μ C1 t: C1 times
        // the decrease arc's ∫λ − μt, in the operation order the pinned
        // return times were computed in.
        let lambda1 = lambda_peak;
        let h = |t: f64| lambda1 * (1.0 - (-c1 * t).exp()) - mu * c1 * t;
        // h'(0) = C1(λ1 − μ) > 0, h → −∞; bracket the positive root.
        let mut hi = lambda1 / (mu * c1) + 1.0;
        // Ensure sign change (h(hi) < 0); expand defensively.
        let mut tries = 0;
        while h(hi) >= 0.0 && tries < 60 {
            hi *= 2.0;
            tries += 1;
        }
        // Lower edge: small positive time where h > 0.
        let mut lo = 1e-12 * (1.0 + hi);
        tries = 0;
        while h(lo) <= 0.0 && tries < 60 {
            lo *= 8.0;
            tries += 1;
            if lo >= hi {
                break;
            }
        }
        let t_down = brent(h, lo, hi, 1e-13 * (1.0 + hi), 200)?;
        let lambda_next = down.arc(lambda1, t_down).0;

        // Peak queue: at λ(t) = μ, t_pk = ln(λ1/μ)/C1.
        let t_pk = (lambda1 / mu).ln() / c1;
        let q_peak = q_hat + (lambda1 - mu) / c1 - (mu / c1) * (lambda1 / mu).ln();
        debug_assert!(t_pk >= 0.0);

        Ok(CycleOutcome {
            lambda_next,
            t_up,
            t_down,
            q_min,
            q_peak,
            lambda_peak,
            hit_empty,
        })
    }

    /// Per-revolution contraction factor `(μ − λ₂)/(μ − λ₀)`; Theorem 1
    /// asserts this is `< 1` for every admissible start.
    ///
    /// # Errors
    /// Propagates [`ReturnMap::cycle`] errors.
    pub fn contraction(&self, lambda0: f64) -> Result<f64> {
        let out = self.cycle(lambda0)?;
        Ok((self.mu - out.lambda_next) / (self.mu - lambda0))
    }

    /// Iterate the map `n` times, returning the successive section rates
    /// `[λ0, λ1, …, λn]`.
    ///
    /// # Errors
    /// Propagates [`ReturnMap::cycle`] errors.
    pub fn iterate(&self, lambda0: f64, n: usize) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(n + 1);
        out.push(lambda0);
        let mut l = lambda0;
        for _ in 0..n {
            l = self.cycle(l)?.lambda_next;
            out.push(l);
        }
        Ok(out)
    }

    /// Number of revolutions until `μ − λ < tol·μ`, or `None` within
    /// `max_cycles`. Theorem 1 says this is always `Some` for valid
    /// parameters.
    ///
    /// # Errors
    /// Propagates [`ReturnMap::cycle`] errors.
    pub fn cycles_to_converge(
        &self,
        lambda0: f64,
        tol: f64,
        max_cycles: usize,
    ) -> Result<Option<usize>> {
        let mut l = lambda0;
        for k in 0..max_cycles {
            if self.mu - l < tol * self.mu {
                return Ok(Some(k));
            }
            l = self.cycle(l)?.lambda_next;
        }
        Ok(None)
    }
}

/// One revolution of the **linear/linear** law's fluid system starting at
/// `(q̂, λ0)` with `λ0 < μ`, assuming the q = 0 boundary is not hit.
/// Returns `(λ_next, period)`, λ_next read off the law's two arcs.
/// Analytically `λ_next = λ0` — the orbit is closed, demonstrating
/// oscillation without feedback delay.
///
/// # Errors
/// [`NumericsError::InvalidParameter`] when parameters are non-positive,
/// `λ0 ∉ [0, μ)`, or the q = 0 boundary would be hit (in which case the
/// orbit is *not* closed and the caller should integrate numerically).
pub fn linear_linear_cycle(law: &LinearLinear, mu: f64, lambda0: f64) -> Result<(f64, f64)> {
    if !(law.c0 > 0.0 && law.c1 > 0.0 && mu > 0.0) {
        return Err(NumericsError::InvalidParameter {
            context: "linear_linear_cycle: need c0, c1, mu > 0",
        });
    }
    if !(0.0..mu).contains(&lambda0) {
        return Err(NumericsError::InvalidParameter {
            context: "linear_linear_cycle: need 0 <= lambda0 < mu",
        });
    }
    let defect = mu - lambda0;
    let q_dip = defect * defect / (2.0 * law.c0);
    if q_dip > law.q_hat {
        return Err(NumericsError::InvalidParameter {
            context: "linear_linear_cycle: dip reaches q = 0; orbit not closed-form",
        });
    }
    // Increase arc mirrors λ about μ in time 2·defect/c0; the decrease arc
    // (dλ/dt = −c1) mirrors it back in time 2·defect/c1.
    let t_up = 2.0 * defect / law.c0;
    let t_down = 2.0 * defect / law.c1;
    let lambda1 = law.regime(law.q_hat).arc(lambda0, t_up).0;
    let lambda_next = law.regime(f64::INFINITY).arc(lambda1, t_down).0;
    Ok((lambda_next, t_up + t_down))
}

/// The sliding-mode equilibrium share of each JRJ source (Section 6):
/// `λ_i* = μ · (C0_i/C1_i) / Σ_j (C0_j/C1_j)`.
///
/// Returns the per-source equilibrium rates; they sum to μ.
///
/// # Errors
/// [`NumericsError::InvalidParameter`] for an empty source list or
/// non-positive parameters/μ.
pub fn sliding_share(laws: &[LinearExp], mu: f64) -> Result<Vec<f64>> {
    if laws.is_empty() || !(mu > 0.0) {
        return Err(NumericsError::InvalidParameter {
            context: "sliding_share: need >= 1 source and mu > 0",
        });
    }
    if laws.iter().any(|l| !(l.c0 > 0.0 && l.c1 > 0.0)) {
        return Err(NumericsError::InvalidParameter {
            context: "sliding_share: all c0, c1 must be positive",
        });
    }
    let total: f64 = laws.iter().map(|l| l.c0 / l.c1).sum();
    Ok(laws.iter().map(|l| mu * (l.c0 / l.c1) / total).collect())
}

/// The sliding-mode duty cycle α (fraction of time in the increase branch)
/// for the same configuration as [`sliding_share`].
///
/// # Errors
/// Same conditions as [`sliding_share`].
pub fn sliding_duty_cycle(laws: &[LinearExp], mu: f64) -> Result<f64> {
    if laws.is_empty() || !(mu > 0.0) {
        return Err(NumericsError::InvalidParameter {
            context: "sliding_duty_cycle: need >= 1 source and mu > 0",
        });
    }
    let s: f64 = laws.iter().map(|l| l.c0 / l.c1).sum();
    // α/(1−α) = μ/S  ⇒  α = μ/(μ + S) ... careful: λ_i = (α/(1−α))(C0_i/C1_i),
    // Σλ_i = (α/(1−α))·S = μ ⇒ α/(1−α) = μ/S ⇒ α = μ/(μ+S).
    Ok(mu / (mu + s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn std_map() -> ReturnMap {
        ReturnMap::new(LinearExp::new(1.0, 0.5, 10.0), 5.0).unwrap()
    }

    #[test]
    fn increase_phase_mirror_when_unclamped() {
        let m = std_map();
        // λ0 = 4 (defect 1): dip = 1/(2·1) = 0.5 < q̂ → mirror to λ1 = 6.
        let out = m.cycle(4.0).unwrap();
        assert!((out.lambda_peak - 6.0).abs() < 1e-12);
        assert!((out.t_up - 2.0).abs() < 1e-12);
        assert!((out.q_min - 9.5).abs() < 1e-12);
        assert!(!out.hit_empty);
    }

    #[test]
    fn cycle_contracts_toward_mu() {
        let m = std_map();
        for &l0 in &[0.5, 2.0, 4.0, 4.9] {
            let c = m.contraction(l0).unwrap();
            assert!(c < 1.0, "contraction {c} at lambda0 = {l0}");
            assert!(c > 0.0);
        }
    }

    #[test]
    fn theorem1_iteration_converges() {
        // Convergence is algebraic (ε_n ≈ 3μ/(2n)); after 300 cycles the
        // defect should be ≈ 3·5/600 = 0.025, i.e. < 1% of μ.
        let m = std_map();
        let seq = m.iterate(1.0, 300).unwrap();
        let last = *seq.last().unwrap();
        assert!(
            (m.mu() - last) / m.mu() < 0.01,
            "final lambda {last} should be within 1% of mu"
        );
        // Monotone approach on the section.
        for w in seq.windows(2) {
            assert!(w[1] > w[0], "section rates must increase: {w:?}");
        }
    }

    #[test]
    fn defect_decays_harmonically() {
        // Quantitative Theorem-1 refinement: 1/ε grows by ≈ 2/(3μ) per
        // revolution once ε is small.
        let m = std_map();
        let seq = m.iterate(4.0, 200).unwrap();
        let eps_100 = m.mu() - seq[100];
        let eps_200 = m.mu() - seq[200];
        let slope = (1.0 / eps_200 - 1.0 / eps_100) / 100.0;
        let expected = 2.0 / (3.0 * m.mu());
        assert!(
            (slope - expected).abs() / expected < 0.05,
            "1/eps slope {slope} vs predicted {expected}"
        );
    }

    #[test]
    fn cycles_to_converge_finite() {
        let m = std_map();
        let n = m.cycles_to_converge(0.1, 1e-2, 100_000).unwrap();
        assert!(n.is_some(), "Theorem 1 promises convergence");
    }

    #[test]
    fn empty_queue_clamp_engages_for_deep_dips() {
        // Tiny q̂ and slow probe → dip would pass below zero.
        let m = ReturnMap::new(LinearExp::new(0.1, 0.5, 0.5), 5.0).unwrap();
        let out = m.cycle(1.0).unwrap();
        assert!(out.hit_empty);
        assert_eq!(out.q_min, 0.0);
        // λ peak after refill is μ + sqrt(2 q̂ C0).
        let expect = 5.0 + (2.0f64 * 0.5 * 0.1).sqrt();
        assert!((out.lambda_peak - expect).abs() < 1e-12);
    }

    #[test]
    fn clamped_cycles_still_converge() {
        let m = ReturnMap::new(LinearExp::new(0.1, 0.5, 0.5), 5.0).unwrap();
        let n = m.cycles_to_converge(0.0, 1e-2, 100_000).unwrap();
        assert!(n.is_some());
    }

    #[test]
    fn q_peak_positive_and_above_target() {
        let m = std_map();
        let out = m.cycle(3.0).unwrap();
        assert!(out.q_peak > m.law().q_hat);
        assert!(out.q_min < m.law().q_hat);
    }

    #[test]
    fn cycle_rejects_bad_lambda() {
        let m = std_map();
        assert!(m.cycle(5.0).is_err()); // == mu
        assert!(m.cycle(7.0).is_err());
        assert!(m.cycle(-0.1).is_err());
    }

    #[test]
    fn return_map_rejects_bad_parameters() {
        assert!(ReturnMap::new(LinearExp::new(0.0, 0.5, 10.0), 5.0).is_err());
        assert!(ReturnMap::new(LinearExp::new(1.0, -0.5, 10.0), 5.0).is_err());
        assert!(ReturnMap::new(LinearExp::new(1.0, 0.5, -1.0), 5.0).is_err());
        assert!(ReturnMap::new(LinearExp::new(1.0, 0.5, 10.0), 0.0).is_err());
    }

    #[test]
    fn linear_linear_orbit_is_closed() {
        let law = LinearLinear::new(1.0, 2.0, 10.0);
        let (l_next, period) = linear_linear_cycle(&law, 5.0, 4.0).unwrap();
        assert_eq!(l_next, 4.0); // exactly periodic
        assert!((period - (2.0 + 1.0)).abs() < 1e-12); // 2·1/1 + 2·1/2
    }

    #[test]
    fn linear_linear_rejects_boundary_hit() {
        let law = LinearLinear::new(0.01, 2.0, 0.1);
        assert!(linear_linear_cycle(&law, 5.0, 1.0).is_err());
    }

    #[test]
    fn sliding_share_equal_parameters_is_fair() {
        let laws = vec![LinearExp::new(1.0, 0.5, 10.0); 4];
        let shares = sliding_share(&laws, 8.0).unwrap();
        for s in &shares {
            assert!((s - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sliding_share_proportional_to_c0_over_c1() {
        let laws = vec![
            LinearExp::new(1.0, 0.5, 10.0), // ratio 2
            LinearExp::new(2.0, 0.5, 10.0), // ratio 4
            LinearExp::new(1.0, 1.0, 10.0), // ratio 1
        ];
        let shares = sliding_share(&laws, 7.0).unwrap();
        assert!((shares.iter().sum::<f64>() - 7.0).abs() < 1e-12);
        assert!((shares[0] - 2.0).abs() < 1e-12);
        assert!((shares[1] - 4.0).abs() < 1e-12);
        assert!((shares[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sliding_duty_cycle_bounds() {
        let laws = vec![LinearExp::new(1.0, 0.5, 10.0); 2];
        let a = sliding_duty_cycle(&laws, 5.0).unwrap();
        assert!(a > 0.0 && a < 1.0);
        // Self-consistency: (α/(1−α))·Σ(C0/C1) = μ.
        let s: f64 = laws.iter().map(|l| l.c0 / l.c1).sum();
        assert!((a / (1.0 - a) * s - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sliding_share_rejects_degenerate() {
        assert!(sliding_share(&[], 5.0).is_err());
        assert!(sliding_share(&[LinearExp::new(0.0, 1.0, 1.0)], 5.0).is_err());
        assert!(sliding_share(&[LinearExp::new(1.0, 1.0, 1.0)], 0.0).is_err());
    }
}
