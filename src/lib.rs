//! `fpk-repro` — umbrella crate for the reproduction of
//! Mukherjee & Strikwerda, *Analysis of Dynamic Congestion Control
//! Protocols: A Fokker–Planck Approximation* (UPenn MS-CIS-91-18, 1991).
//!
//! This crate re-exports the workspace members under stable paths so the
//! examples and integration tests can depend on a single crate:
//!
//! * [`numerics`] — ODE/DDE integrators, linear algebra, FFT, statistics…
//! * [`congestion`] — control laws (JRJ linear-increase/exponential-
//!   decrease and friends) and the fairness/equilibrium theory.
//! * [`fluid`] — the Bolot–Shankar deterministic fluid baseline, the
//!   phase-plane characteristics machinery and Theorem 1.
//! * [`fpk`] — the paper's contribution: the Fokker–Planck solver for the
//!   joint density f(t, q, ν), plus Langevin Monte Carlo.
//! * [`sim`] — a discrete-event bottleneck simulator with rate- and
//!   window-based adaptive sources and delayed feedback.
//! * [`scenarios`] — named scenario bundles, cartesian parameter sweeps
//!   with deterministic per-cell seeds, replicated ensembles
//!   (mean/std/95% CI), and a thread-count-independent parallel runner.
//!
//! See `README.md` for a guided tour and `DESIGN.md` / `EXPERIMENTS.md`
//! for the experiment inventory.
//!
//! # Example
//!
//! Evolve the joint density of a JRJ-controlled queue for 5 seconds and
//! read off its moments (the README quickstart, compile-checked):
//!
//! ```
//! use fpk_repro::congestion::LinearExp;
//! use fpk_repro::fpk::{Density, FpProblem, FpSolver};
//!
//! // dλ/dt = +1 below q̂ = 10, −0.5·λ above; μ = 5; σ² = 0.4.
//! let law = LinearExp::new(1.0, 0.5, 10.0);
//! let grid = Density::standard_grid(40.0, -6.0, 6.0, 60, 36)?;
//! let init = Density::gaussian(grid, 3.0, -3.0, 1.2, 0.6)?;
//! let mut solver = FpSolver::new(FpProblem::new(law, 5.0, 0.4), init)?;
//! solver.run_until(5.0)?;
//! assert!((solver.density().mass() - 1.0).abs() < 1e-9);
//! assert!(solver.density().mean_q() >= 0.0);
//! # Ok::<(), fpk_repro::numerics::NumericsError>(())
//! ```

#![forbid(unsafe_code)]

pub use fpk_congestion as congestion;
pub use fpk_core as fpk;
pub use fpk_fluid as fluid;
pub use fpk_numerics as numerics;
pub use fpk_scenarios as scenarios;
pub use fpk_sim as sim;
