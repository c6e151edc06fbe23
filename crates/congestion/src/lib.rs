//! Adaptive congestion-control laws and their equilibrium/fairness theory.
//!
//! The paper analyses rate-adaptation rules of the form
//!
//! ```text
//! dλ/dt = g(Q, λ)
//! ```
//!
//! driven by (possibly delayed) knowledge of a bottleneck queue length Q.
//! The flagship rule is the **JRJ algorithm** (Jacobson 88 /
//! Ramakrishnan–Jain 88), Eq. 2 of the paper:
//!
//! ```text
//! g(Q, λ) =  C0        if Q ≤ q̂     (linear increase — probe)
//!            -C1 · λ    if Q > q̂     (exponential decrease — back off)
//! ```
//!
//! # Modules
//!
//! * [`law`] — the [`law::RateControl`] trait shared by the fluid model,
//!   the Fokker–Planck solver and the discrete-event simulator, and
//!   [`law::Affine`], one regime `a + b·λ` of a law with its closed-form
//!   arc.
//! * [`laws`] — concrete laws: [`laws::LinearExp`] (JRJ),
//!   [`laws::LinearLinear`], [`laws::Mimd`], window↔rate conversion.
//! * [`theory`] — Section 5/6 theory: the single-source return map on the
//!   switching line (Theorem 1 machinery) and the multi-source sliding-
//!   mode equilibrium predicting each source's share `∝ C0_i / C1_i`.
//! * [`fairness`] — Jain's index and related share metrics.
//!
//! # Example
//!
//! The JRJ law's two branches, and the sliding-mode share prediction
//! `λ_i* ∝ C0_i/C1_i` it induces for competing sources:
//!
//! ```
//! use fpk_congestion::theory::sliding_share;
//! use fpk_congestion::{LinearExp, RateControl};
//!
//! let law = LinearExp::new(1.0, 0.5, 10.0);
//! assert_eq!(law.g(4.0, 2.0), 1.0);   // q ≤ q̂: probe up at C0
//! assert_eq!(law.g(12.0, 2.0), -1.0); // q > q̂: back off at −C1·λ
//!
//! let shares = sliding_share(&[law, LinearExp::new(3.0, 0.5, 10.0)], 8.0).unwrap();
//! assert!((shares[1] / shares[0] - 3.0).abs() < 1e-12); // ∝ C0 ratio
//! assert!((shares.iter().sum::<f64>() - 8.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decbit;
pub mod fairness;
pub mod law;
pub mod laws;
pub mod theory;
pub mod window_map;

pub use law::{Affine, RateControl};
pub use laws::{LinearExp, LinearLinear, Mimd, WindowAimd};
