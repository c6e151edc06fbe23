//! Concrete rate-control laws.
//!
//! * [`LinearExp`] — the JRJ law of Eq. 2 (linear increase / exponential
//!   decrease), the paper's main subject.
//! * [`LinearLinear`] — linear increase / linear decrease, the comparison
//!   law of Section 7 that can oscillate even without feedback delay.
//! * [`Mimd`] — multiplicative increase / multiplicative decrease.
//! * [`WindowAimd`] — Jacobson's window rule of Eq. 1 with its
//!   rate-equivalent mapping (`λ = w / RTT`).

use crate::law::{Affine, RateControl};
use serde::Serialize;

/// Linear increase / exponential decrease (the JRJ algorithm, Eq. 2):
///
/// ```text
/// dλ/dt =  c0          if Q ≤ q̂
///          -c1 · λ      if Q > q̂
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LinearExp {
    /// Probe slope C0 > 0 (rate units per second²).
    pub c0: f64,
    /// Back-off rate C1 > 0 (per second).
    pub c1: f64,
    /// Target queue length q̂ ≥ 0.
    pub q_hat: f64,
}

impl LinearExp {
    /// Construct the law; clamps nothing, callers own validation.
    #[must_use]
    pub fn new(c0: f64, c1: f64, q_hat: f64) -> Self {
        Self { c0, c1, q_hat }
    }

    /// A sensible default used throughout the examples: C0 = 1, C1 = 0.5,
    /// q̂ = 10.
    #[must_use]
    pub fn standard() -> Self {
        Self::new(1.0, 0.5, 10.0)
    }
}

impl RateControl for LinearExp {
    #[inline]
    fn regime(&self, q: f64) -> Affine {
        if q > self.q_hat {
            Affine::proportional(-self.c1)
        } else {
            Affine::linear(self.c0)
        }
    }

    fn q_hat(&self) -> f64 {
        self.q_hat
    }
}

/// Linear increase / linear decrease:
///
/// ```text
/// dλ/dt =  c0     if Q ≤ q̂
///          -c1    if Q > q̂   (independent of λ, floored so λ ≥ 0)
/// ```
///
/// Section 7 of the paper singles this law out: because the decrease does
/// not scale with λ, the revolution map of the no-delay fluid system is an
/// isometry (|λ − μ| is preserved around a cycle, absent the q = 0
/// boundary), so the law *orbits* instead of spiralling in — oscillation
/// without any feedback delay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LinearLinear {
    /// Probe slope C0 > 0.
    pub c0: f64,
    /// Back-off slope C1 > 0 (same units as C0).
    pub c1: f64,
    /// Target queue length q̂ ≥ 0.
    pub q_hat: f64,
}

impl LinearLinear {
    /// Construct the law.
    #[must_use]
    pub fn new(c0: f64, c1: f64, q_hat: f64) -> Self {
        Self { c0, c1, q_hat }
    }
}

impl RateControl for LinearLinear {
    #[inline]
    fn regime(&self, q: f64) -> Affine {
        if q > self.q_hat {
            // The floor keeps λ from integrating below zero.
            Affine::linear(-self.c1).floored(0.0)
        } else {
            Affine::linear(self.c0)
        }
    }

    fn q_hat(&self) -> f64 {
        self.q_hat
    }
}

/// Multiplicative increase / multiplicative decrease:
///
/// ```text
/// dλ/dt =  a · λ      if Q ≤ q̂
///          -c1 · λ     if Q > q̂
/// ```
///
/// Included as an ablation: MIMD shares the exponential decrease but
/// probes aggressively; its sliding-mode shares are *not* equalising
/// (the equilibrium share condition `a·α = c1·(1−α)` is independent of λ,
/// so any split of μ is neutrally stable — MIMD is not fair).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Mimd {
    /// Multiplicative probe rate a > 0 (per second).
    pub a: f64,
    /// Back-off rate C1 > 0 (per second).
    pub c1: f64,
    /// Target queue length q̂ ≥ 0.
    pub q_hat: f64,
}

impl Mimd {
    /// Construct the law.
    #[must_use]
    pub fn new(a: f64, c1: f64, q_hat: f64) -> Self {
        Self { a, c1, q_hat }
    }
}

impl RateControl for Mimd {
    #[inline]
    fn regime(&self, q: f64) -> Affine {
        if q > self.q_hat {
            Affine::proportional(-self.c1)
        } else {
            // Floor the probe so a source at λ = 0 can still start up.
            Affine::proportional(self.a).floored(1e-6)
        }
    }

    fn q_hat(&self) -> f64 {
        self.q_hat
    }
}

/// Jacobson's window algorithm (Eq. 1 of the paper) and its rate-law
/// equivalent.
///
/// ```text
/// w ← d·w       if congested   (0 < d < 1)
/// w ← w + a     if not         (per round-trip)
/// ```
///
/// With `λ = w / RTT` and updates once per RTT, the continuous-time
/// equivalent is the JRJ rate law with
///
/// ```text
/// C0 = a / RTT²          (window grows a packets per RTT)
/// C1 = −ln(d) / RTT      (window scales by d each congested RTT)
/// ```
///
/// which is how the paper justifies analysing Eq. 2 in place of Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WindowAimd {
    /// Additive window increment `a` (packets per RTT).
    pub a: f64,
    /// Multiplicative decrease factor `d ∈ (0, 1)`.
    pub d: f64,
    /// Round-trip time (seconds).
    pub rtt: f64,
    /// Target queue length q̂ ≥ 0.
    pub q_hat: f64,
}

impl WindowAimd {
    /// Construct the window law. TCP-like defaults: `a = 1`, `d = 0.5`.
    #[must_use]
    pub fn new(a: f64, d: f64, rtt: f64, q_hat: f64) -> Self {
        Self { a, d, rtt, q_hat }
    }

    /// The rate-based equivalent law (C0 = a/RTT², C1 = −ln d / RTT).
    #[must_use]
    pub fn to_rate_law(&self) -> LinearExp {
        LinearExp::new(
            self.a / (self.rtt * self.rtt),
            -self.d.ln() / self.rtt,
            self.q_hat,
        )
    }
}

impl RateControl for WindowAimd {
    #[inline]
    fn regime(&self, q: f64) -> Affine {
        self.to_rate_law().regime(q)
    }

    fn q_hat(&self) -> f64 {
        self.q_hat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_exp_branches() {
        let law = LinearExp::new(2.0, 0.5, 10.0);
        assert_eq!(law.g(5.0, 100.0), 2.0); // under target: +C0, λ-independent
        assert_eq!(law.g(10.0, 100.0), 2.0); // boundary counts as not congested
        assert_eq!(law.g(10.1, 100.0), -50.0); // above target: -C1·λ
        assert!(law.is_multiplicative_decrease());
    }

    #[test]
    fn linear_linear_branches_and_floor() {
        let law = LinearLinear::new(1.0, 3.0, 5.0);
        assert_eq!(law.g(0.0, 2.0), 1.0);
        assert_eq!(law.g(6.0, 2.0), -3.0);
        assert_eq!(law.g(6.0, 0.0), 0.0); // floor at λ = 0
        assert_eq!(law.g(6.0, -0.1), 0.0);
        assert!(!law.is_multiplicative_decrease());
    }

    #[test]
    fn mimd_branches() {
        let law = Mimd::new(0.3, 0.6, 4.0);
        assert!((law.g(1.0, 10.0) - 3.0).abs() < 1e-12);
        assert!((law.g(5.0, 10.0) + 6.0).abs() < 1e-12);
        assert!(law.g(1.0, 0.0) > 0.0); // start-up floor
    }

    #[test]
    fn window_rate_mapping() {
        let w = WindowAimd::new(1.0, 0.5, 0.1, 10.0);
        let r = w.to_rate_law();
        assert!((r.c0 - 100.0).abs() < 1e-9); // 1 / 0.01
        assert!((r.c1 - 0.5f64.ln().abs() / 0.1).abs() < 1e-9);
        assert_eq!(r.q_hat, 10.0);
    }

    #[test]
    fn window_rate_law_reduces_decrease_proportionally() {
        // Exponential decrease over one RTT should multiply λ by ≈ d.
        let w = WindowAimd::new(1.0, 0.5, 0.2, 10.0);
        let r = w.to_rate_law();
        // dλ/dt = -c1 λ over time RTT: λ(RTT) = λ0 e^{-c1 RTT} = λ0·d.
        let factor = (-r.c1 * w.rtt).exp();
        assert!((factor - w.d).abs() < 1e-12);
    }

    /// `(λ(h), ∫₀ʰ λ)` of `dλ/dt = g(q, λ)` by RK4 in `n` fixed steps.
    fn integrate(law: &impl RateControl, q: f64, lambda0: f64, h: f64, n: usize) -> (f64, f64) {
        let dt = h / n as f64;
        let (mut l, mut area) = (lambda0, 0.0);
        for _ in 0..n {
            let k1 = law.g(q, l);
            let k2 = law.g(q, l + 0.5 * dt * k1);
            let k3 = law.g(q, l + 0.5 * dt * k2);
            let k4 = law.g(q, l + dt * k3);
            // ∫λ over the step: RK4 on A' = λ with the same stages.
            area += dt / 6.0 * (6.0 * l + dt * (k1 + k2 + k3));
            l += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
        }
        (l, area)
    }

    /// Smooth arcs are checked at 2·10⁴ steps to 1e-10; an arc through
    /// a floor's kink takes 10⁶ steps and a looser `rtol`.
    fn check_arc(law: &impl RateControl, q: f64, lambda0: f64, h: f64, rtol: f64) {
        let regime = law.regime(q);
        let (l, area) = regime.arc(lambda0, h);
        let n = if rtol < 1e-9 { 20_000 } else { 1_000_000 };
        let (l_num, area_num) = integrate(law, q, lambda0, h, n);
        for (what, exact, num) in [("lambda", l, l_num), ("area", area, area_num)] {
            assert!(
                (exact - num).abs() <= rtol * num.abs().max(lambda0),
                "{regime:?} from {lambda0} over {h}: {what} {exact} vs integrated {num}"
            );
        }
        // `time_to` inverts the arc.
        let half = regime.arc(lambda0, 0.5 * h).0;
        let t = regime.time_to(lambda0, half).expect("reachable");
        let back = regime.arc(lambda0, t).0;
        assert!(
            t <= 0.5 * h * (1.0 + 1e-12) && (back - half).abs() <= 1e-12 * half.abs().max(lambda0),
            "{regime:?}: time_to {t} lands on {back}, not {half}"
        );
    }

    #[test]
    fn arcs_match_fine_integration_of_g() {
        let window = WindowAimd::new(1.0, 0.5, 0.2, 10.0);
        for (q, lambda0, h) in [(0.0, 2.0, 3.0), (20.0, 8.0, 3.0)] {
            check_arc(&LinearExp::standard(), q, lambda0, h, 1e-10);
            check_arc(&window, q, lambda0, 0.1 * h, 1e-10);
            check_arc(&Mimd::new(0.3, 0.6, 4.0), q, lambda0, h, 1e-10);
        }
        let ll = LinearLinear::new(1.0, 3.0, 5.0);
        check_arc(&ll, 0.0, 2.0, 3.0, 1e-10);
        // Falls to its stop at λ = 0 at h = 2/3, mid-arc.
        check_arc(&ll, 6.0, 2.0, 3.0, 1e-5);
        // Starts below the probe floor: held at a·1e-6 until λ = 1e-6.
        check_arc(&Mimd::new(0.3, 0.6, 4.0), 0.0, 0.0, 10.0, 1e-6);
    }

    #[test]
    fn floors_stop_and_release_exactly() {
        let ll = LinearLinear::new(1.0, 3.0, 5.0).regime(6.0);
        assert_eq!(ll.arc(2.0, 3.0), (0.0, 2.0 / 3.0));
        assert_eq!(ll.arc(0.0, 3.0), (0.0, 0.0));
        assert_eq!(ll.time_to(2.0, -1.0), None);
        let mimd = Mimd::new(0.3, 0.6, 4.0).regime(0.0);
        let out = 1e-6 / (0.3 * 1e-6);
        let (l, area) = mimd.arc(0.0, out);
        assert!((l - 1e-6).abs() < 1e-18 && (area - 0.5e-6 * out).abs() < 1e-18);
        assert!((mimd.time_to(0.0, 1e-6).unwrap() - out).abs() < 1e-12);
    }

    #[test]
    fn unclamped_increase_arc_from_q_hat_lands_on_the_mirror() {
        // From (q̂, λ0 < μ) the increase arc returns to q̂ after
        // t = 2(μ − λ0)/C0, at λ = 2μ − λ0 (Eq. 18's parabola).
        let (law, mu) = (LinearExp::standard(), 5.0);
        for lambda0 in [0.0, 1.5, 4.0, 4.99] {
            let t_up = 2.0 * (mu - lambda0) / law.c0;
            let (l, area) = law.regime(law.q_hat).arc(lambda0, t_up);
            assert!((l - (2.0 * mu - lambda0)).abs() < 1e-12, "{lambda0}: {l}");
            assert!(
                (area - mu * t_up).abs() < 1e-12,
                "{lambda0}: q moved by {}",
                area - mu * t_up
            );
        }
    }

    #[test]
    fn regimes_keep_the_bits_of_the_branch_formulas() {
        let (exp, mimd) = (LinearExp::new(2.0, 0.5, 10.0), Mimd::new(0.3, 0.6, 4.0));
        for lambda in [0.0, 1e-7, 0.3, 7.0, 1e3] {
            assert_eq!(exp.g(11.0, lambda).to_bits(), (-0.5 * lambda).to_bits());
            assert_eq!(exp.g(1.0, lambda).to_bits(), 2.0f64.to_bits());
            assert_eq!(
                mimd.g(1.0, lambda).to_bits(),
                (0.3 * lambda.max(1e-6)).to_bits()
            );
            let dt = 0.2;
            let down = exp.regime(11.0).arc(lambda, dt).0;
            assert_eq!(down.to_bits(), (lambda * (-0.5 * dt).exp()).to_bits());
            assert_eq!(
                exp.regime(1.0).arc(lambda, dt).0.to_bits(),
                (lambda + 2.0 * dt).to_bits()
            );
        }
    }
}
