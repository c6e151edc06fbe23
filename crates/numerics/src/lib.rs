//! Numerical kernels for the Fokker–Planck congestion-control reproduction.
//!
//! This crate is the "scipy substitute" substrate called out in `DESIGN.md`:
//! every downstream crate (`fpk-fluid`, `fpk-core`, `fpk-sim`,
//! `fpk-congestion`) builds on the integrators, solvers and analysis
//! routines defined here.
//!
//! # Modules
//!
//! * [`grid`] — uniform cell-centred 1-D and 2-D grids with ghost cells.
//! * [`dde`] — constant-lag delay differential equations via the method of
//!   steps with cubic-Hermite history interpolation.
//! * [`exec`] — the one parallel executor (`run_indexed[_with]`, jobs
//!   striped over scoped workers, results in job order) and the
//!   `FPK_THREADS` worker-count accessor every parallel layer sizes
//!   itself from.
//! * [`linalg`] — tridiagonal (Thomas) and banded solvers.
//! * [`interp`] — linear, cubic-Hermite and natural-cubic-spline
//!   interpolation.
//! * [`roots`] — Brent root finding.
//! * [`series`] — [`Series`], the one row-major layout of every sampled
//!   trajectory, with step-hold lookup and the shared tail window.
//! * [`signal`] — peak detection, oscillation amplitude/period estimation,
//!   regime classification and power-law fits.
//! * [`stats`] — running moments, histograms, empirical CDFs, KS distance.
//!
//! # Design notes
//!
//! The crate is deliberately synchronous and allocation-conscious: the
//! workloads are CPU-bound inner loops (PDE sweeps, Monte-Carlo batches),
//! so the hot paths take `&mut [f64]` buffers the caller owns and reuses.
//! All algorithms are deterministic; nothing here seeds its own RNG.
//!
//! # Example
//!
//! The Thomas solve at the heart of every Crank–Nicolson sweep:
//!
//! ```
//! use fpk_numerics::linalg::solve_tridiagonal;
//! // [ 2 -1  0 ] x = [1, 0, 1]ᵀ  →  x = [1, 1, 1]ᵀ
//! // [-1  2 -1 ]
//! // [ 0 -1  2 ]
//! let (sub, diag, sup) = (vec![-1.0; 3], vec![2.0; 3], vec![-1.0; 3]);
//! let mut d = vec![1.0, 0.0, 1.0];
//! let mut scratch = vec![0.0; 3];
//! solve_tridiagonal(&sub, &diag, &sup, &mut d, &mut scratch).unwrap();
//! for x in d {
//!     assert!((x - 1.0).abs() < 1e-12);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dde;
pub mod exec;
pub mod grid;
pub mod interp;
pub mod linalg;
pub mod roots;
pub mod series;
pub mod signal;
pub mod stats;

pub use series::Series;

/// Errors produced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericsError {
    /// Input slices had inconsistent or empty dimensions.
    DimensionMismatch {
        /// Human-readable description of which dimensions disagreed.
        context: &'static str,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Which algorithm failed.
        context: &'static str,
        /// Number of iterations that were attempted.
        iterations: usize,
    },
    /// A matrix was singular (or numerically singular) where a solve was
    /// requested.
    Singular {
        /// Which solver detected the singularity.
        context: &'static str,
    },
    /// A parameter was outside its admissible range.
    InvalidParameter {
        /// Description of the offending parameter.
        context: &'static str,
    },
    /// A bracketing method was called on an interval that does not bracket
    /// a root.
    NoBracket {
        /// Which algorithm rejected the bracket.
        context: &'static str,
    },
}

impl std::fmt::Display for NumericsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericsError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            NumericsError::NoConvergence {
                context,
                iterations,
            } => write!(
                f,
                "no convergence in {context} after {iterations} iterations"
            ),
            NumericsError::Singular { context } => write!(f, "singular system in {context}"),
            NumericsError::InvalidParameter { context } => {
                write!(f, "invalid parameter: {context}")
            }
            NumericsError::NoBracket { context } => {
                write!(f, "interval does not bracket a root in {context}")
            }
        }
    }
}

impl std::error::Error for NumericsError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NumericsError>;

/// Relative-plus-absolute closeness test used by tests and convergence
/// checks: `|a - b| <= atol + rtol * max(|a|, |b|)`.
#[must_use]
pub fn approx_eq(a: f64, b: f64, rtol: f64, atol: f64) -> bool {
    (a - b).abs() <= atol + rtol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_exact() {
        assert!(approx_eq(1.0, 1.0, 0.0, 0.0));
    }

    #[test]
    fn approx_eq_within_rtol() {
        assert!(approx_eq(100.0, 100.0 + 1e-7, 1e-8, 0.0));
        assert!(!approx_eq(100.0, 100.0 + 1e-5, 1e-8, 0.0));
    }

    #[test]
    fn approx_eq_within_atol() {
        assert!(approx_eq(0.0, 1e-12, 0.0, 1e-10));
        assert!(!approx_eq(0.0, 1e-8, 0.0, 1e-10));
    }

    #[test]
    fn error_display_is_informative() {
        let e = NumericsError::NoConvergence {
            context: "brent",
            iterations: 100,
        };
        let s = format!("{e}");
        assert!(s.contains("brent"));
        assert!(s.contains("100"));
    }
}
