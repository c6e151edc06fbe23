//! The [`RateControl`] trait — the paper's generic `g(·)` of Eq. 3 — and
//! [`Affine`], the regime every law is made of.
//!
//! Every consumer of a control law (fluid ODEs, Fokker–Planck ν-drift,
//! discrete-event sources) sees only this trait, so new laws plug into all
//! three analyses at once.
//!
//! On each side of q̂ every law here is affine in λ (Eq. 2 is `C0` below
//! q̂ and `−C1·λ` above it), so a law is two [`Affine`] regimes and each
//! regime's arc has a closed form, [`Affine::arc`]. The return map of
//! `theory`, the packet sources' rate update and the fluid event tracer
//! all read that one arc.

/// One regime of a law: `dλ/dt = a + b·λ` while λ is above `floor`.
///
/// At or below the floor `dλ/dt` is held at `max(a + b·floor, 0)`: a
/// falling λ stops there (linear decrease's stop at λ = 0) and a λ below
/// it climbs out linearly (MIMD's start-up probe).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Affine {
    /// Constant term. Proportional regimes store `−0.0`, the exact
    /// additive identity, so `a + b·λ` keeps the bits of `b·λ`.
    pub a: f64,
    /// Slope in λ (per second).
    pub b: f64,
    /// Where the line stops applying, if anywhere.
    pub floor: Option<f64>,
}

impl Affine {
    /// `dλ/dt = a`, independent of λ.
    #[must_use]
    pub(crate) const fn linear(a: f64) -> Self {
        Self {
            a,
            b: 0.0,
            floor: None,
        }
    }

    /// `dλ/dt = b·λ`.
    #[must_use]
    pub(crate) const fn proportional(b: f64) -> Self {
        Self {
            a: -0.0,
            b,
            floor: None,
        }
    }

    /// The same line with a floor.
    #[must_use]
    pub(crate) const fn floored(self, floor: f64) -> Self {
        Self {
            floor: Some(floor),
            ..self
        }
    }

    /// `dλ/dt` at rate `lambda`.
    #[inline]
    #[must_use]
    pub fn rate(&self, lambda: f64) -> f64 {
        match self.floor {
            // Phrased so a NaN rate reads as "at the floor".
            Some(f) if !(lambda > f) => self.held(f),
            _ => self.a + self.b * lambda,
        }
    }

    /// The arc from `lambda0` over a duration `h ≥ 0`: `(λ(h), ∫₀ʰ λ)`.
    ///
    /// On the line λ(h) = (λ₀ + a/b)·e^{bh} − a/b, or λ₀ + a·h when
    /// b = 0; a stretch held at or below the floor is linear.
    #[inline]
    #[must_use]
    pub fn arc(&self, lambda0: f64, h: f64) -> (f64, f64) {
        if let Some(f) = self.floor {
            if !(lambda0 > f) {
                let r = self.held(f);
                let h_out = if r > 0.0 { (f - lambda0) / r } else { h };
                if h <= h_out {
                    return (lambda0 + r * h, (lambda0 + 0.5 * r * h) * h);
                }
                let (lambda, area) = self.line(f, h - h_out);
                return (lambda, 0.5 * (lambda0 + f) * h_out + area);
            }
            if let Some(h_stop) = self.line_time(lambda0, f).filter(|&s| s < h) {
                return (f, self.line(lambda0, h_stop).1 + f * (h - h_stop));
            }
        }
        self.line(lambda0, h)
    }

    /// How long the arc from `lambda0` takes to reach `target`, or `None`
    /// if it never does (it moves away, or stops at the floor first).
    #[must_use]
    pub fn time_to(&self, lambda0: f64, target: f64) -> Option<f64> {
        if target == lambda0 {
            return Some(0.0);
        }
        if let Some(f) = self.floor {
            if !(lambda0 > f) {
                let r = self.held(f);
                if !(target > f) {
                    let h = (target - lambda0) / r;
                    return (h >= 0.0 && h.is_finite()).then_some(h);
                }
                let h = (f - lambda0) / r + self.line_time(f, target)?;
                return h.is_finite().then_some(h);
            }
            if target < f {
                return None;
            }
        }
        self.line_time(lambda0, target)
    }

    /// `dλ/dt` at or below the floor `f`.
    fn held(&self, f: f64) -> f64 {
        (self.a + self.b * f).max(0.0)
    }

    /// The arc of the unfloored line.
    #[inline]
    fn line(&self, lambda0: f64, h: f64) -> (f64, f64) {
        if self.b == 0.0 {
            (lambda0 + self.a * h, (lambda0 + 0.5 * self.a * h) * h)
        } else {
            // ∫λ = (λ(h) − λ₀)/b − (a/b)·h reuses λ(h): no second
            // transcendental, and an absolute error of a few ulps of λ/b.
            let c = self.a / self.b;
            let lambda = (lambda0 + c) * (self.b * h).exp() - c;
            (lambda, (lambda - lambda0) / self.b - c * h)
        }
    }

    /// How long the unfloored line takes from `lambda0` to `target`.
    fn line_time(&self, lambda0: f64, target: f64) -> Option<f64> {
        let h = if self.b == 0.0 {
            (target - lambda0) / self.a
        } else {
            let c = self.a / self.b;
            ((target + c) / (lambda0 + c)).ln() / self.b
        };
        (h >= 0.0 && h.is_finite()).then_some(h)
    }
}

/// A dynamic rate-control law `dλ/dt = g(Q, λ)`.
///
/// Implementations must be memoryless in `(Q, λ)` — all state lives in the
/// arguments — which is exactly the structure the Fokker–Planck derivation
/// of Section 4 requires (the law enters the PDE as the ν-drift
/// coefficient `g`).
pub trait RateControl {
    /// The regime in force at the *observed* queue length `q` (which may
    /// be stale under delayed feedback): the increase regime for
    /// `q ≤ q̂`, the decrease regime above it. `regime(f64::INFINITY)` is
    /// the decrease regime.
    fn regime(&self, q: f64) -> Affine;

    /// The switching threshold q̂ (target queue length).
    fn q_hat(&self) -> f64;

    /// The rate derivative `g(q, λ)` given the observed queue length `q`
    /// and the current sending rate `λ`.
    #[inline]
    fn g(&self, q: f64, lambda: f64) -> f64 {
        self.regime(q).rate(lambda)
    }

    /// Whether the *decrease* branch is proportional to λ (multiplicative/
    /// exponential decrease). Section 7 of the paper shows this property
    /// decides whether oscillation can be blamed on the algorithm itself:
    /// exponential-decrease laws are stable without delay; laws violating
    /// this (e.g. linear decrease) can oscillate even with instant
    /// feedback.
    fn is_multiplicative_decrease(&self) -> bool {
        self.regime(f64::INFINITY).b < 0.0
    }
}

impl<T: RateControl + ?Sized> RateControl for &T {
    fn regime(&self, q: f64) -> Affine {
        (**self).regime(q)
    }
    fn q_hat(&self) -> f64 {
        (**self).q_hat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy;
    impl RateControl for Toy {
        fn regime(&self, q: f64) -> Affine {
            if q > self.q_hat() {
                Affine::proportional(-1.0)
            } else {
                Affine::linear(1.0)
            }
        }
        fn q_hat(&self) -> f64 {
            2.0
        }
    }

    #[test]
    fn reference_impl_delegates() {
        let law = Toy;
        let r = &law;
        assert_eq!(r.q_hat(), 2.0);
        assert_eq!(r.g(0.0, 1.0), 1.0);
        assert!(r.is_multiplicative_decrease());
    }
}
