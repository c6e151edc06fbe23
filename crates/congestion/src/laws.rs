//! Concrete rate-control laws.
//!
//! * [`LinearExp`] — the JRJ law of Eq. 2 (linear increase / exponential
//!   decrease), the paper's main subject.
//! * [`LinearLinear`] — linear increase / linear decrease, the comparison
//!   law of Section 7 that can oscillate even without feedback delay.
//! * [`Mimd`] — multiplicative increase / multiplicative decrease.
//! * [`WindowAimd`] — Jacobson's window rule of Eq. 1 with its
//!   rate-equivalent mapping (`λ = w / RTT`).

use crate::law::RateControl;
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
    fn g(&self, q: f64, lambda: f64) -> f64 {
        if q > self.q_hat {
            -self.c1 * lambda
        } else {
            self.c0
        }
    }

    fn q_hat(&self) -> f64 {
        self.q_hat
    }

    fn name(&self) -> &'static str {
        "linear-increase/exponential-decrease (JRJ)"
    }

    fn is_multiplicative_decrease(&self) -> bool {
        true
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
    fn g(&self, q: f64, lambda: f64) -> f64 {
        if q > self.q_hat {
            // The floor keeps λ from integrating below zero.
            if lambda > 0.0 {
                -self.c1
            } else {
                0.0
            }
        } else {
            self.c0
        }
    }

    fn q_hat(&self) -> f64 {
        self.q_hat
    }

    fn name(&self) -> &'static str {
        "linear-increase/linear-decrease"
    }

    fn is_multiplicative_decrease(&self) -> bool {
        false
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
    fn g(&self, q: f64, lambda: f64) -> f64 {
        if q > self.q_hat {
            -self.c1 * lambda
        } else {
            // Floor the probe so a source at λ = 0 can still start up.
            self.a * lambda.max(1e-6)
        }
    }

    fn q_hat(&self) -> f64 {
        self.q_hat
    }

    fn name(&self) -> &'static str {
        "multiplicative-increase/multiplicative-decrease"
    }

    fn is_multiplicative_decrease(&self) -> bool {
        true
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
    fn g(&self, q: f64, lambda: f64) -> f64 {
        self.to_rate_law().g(q, lambda)
    }

    fn q_hat(&self) -> f64 {
        self.q_hat
    }

    fn name(&self) -> &'static str {
        "window AIMD (rate-equivalent)"
    }

    fn is_multiplicative_decrease(&self) -> bool {
        true
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

    #[test]
    fn law_names_distinct() {
        let names = [
            LinearExp::standard().name(),
            LinearLinear::new(1.0, 1.0, 1.0).name(),
            Mimd::new(1.0, 1.0, 1.0).name(),
            WindowAimd::new(1.0, 0.5, 0.1, 1.0).name(),
        ];
        for i in 0..names.len() {
            for j in i + 1..names.len() {
                assert_ne!(names[i], names[j]);
            }
        }
    }
}
