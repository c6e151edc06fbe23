//! The [`RateControl`] trait — the paper's generic `g(·)` of Eq. 3.
//!
//! Every consumer of a control law (fluid ODEs, Fokker–Planck ν-drift,
//! discrete-event sources) sees only this trait, so new laws plug into all
//! three analyses at once.

/// A dynamic rate-control law `dλ/dt = g(Q, λ)`.
///
/// Implementations must be memoryless in `(Q, λ)` — all state lives in the
/// arguments — which is exactly the structure the Fokker–Planck derivation
/// of Section 4 requires (the law enters the PDE as the ν-drift
/// coefficient `g`).
pub trait RateControl {
    /// The rate derivative `g(q, λ)` given the *observed* queue length
    /// `q` (which may be stale under delayed feedback) and the current
    /// sending rate `λ`.
    fn g(&self, q: f64, lambda: f64) -> f64;

    /// The switching threshold q̂ (target queue length).
    fn q_hat(&self) -> f64;

    /// Human-readable law name for reports and experiment output.
    fn name(&self) -> &'static str {
        "custom"
    }

    /// Whether the *decrease* branch is proportional to λ (multiplicative/
    /// exponential decrease). Section 7 of the paper shows this property
    /// decides whether oscillation can be blamed on the algorithm itself:
    /// exponential-decrease laws are stable without delay; laws violating
    /// this (e.g. linear decrease) can oscillate even with instant
    /// feedback.
    fn is_multiplicative_decrease(&self) -> bool;
}

impl<T: RateControl + ?Sized> RateControl for &T {
    fn g(&self, q: f64, lambda: f64) -> f64 {
        (**self).g(q, lambda)
    }
    fn q_hat(&self) -> f64 {
        (**self).q_hat()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn is_multiplicative_decrease(&self) -> bool {
        (**self).is_multiplicative_decrease()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy;
    impl RateControl for Toy {
        fn g(&self, q: f64, lambda: f64) -> f64 {
            if q > self.q_hat() {
                -lambda
            } else {
                1.0
            }
        }
        fn q_hat(&self) -> f64 {
            2.0
        }
        fn is_multiplicative_decrease(&self) -> bool {
            true
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
