//! `fpk-core` — the paper's contribution: a Fokker–Planck solver for the
//! **joint density** f(t, q, ν) of queue length and queue growth rate
//! under adaptive rate control (Mukherjee & Strikwerda, MS-CIS-91-18).
//!
//! The central object is Eq. 14:
//!
//! ```text
//! f_t + ν f_q + (g f)_ν = (σ²/2) f_qq
//! ```
//!
//! where `g(q, λ)` is the control law (`fpk_congestion::RateControl`) and
//! σ² captures traffic variability that pure fluid models cannot express
//! (Section 3's argument for why a *joint* density is unavoidable: λ(t)
//! is a functional of the random sample path of Q, so one cannot couple a
//! marginal density equation with a deterministic control ODE).
//!
//! # Modules
//!
//! * [`density`] — the discretised joint density: marginals, moments,
//!   mass/positivity audits.
//! * [`fv`] — conservative finite-volume kernels (flux-limited advection,
//!   explicit and Crank–Nicolson diffusion).
//! * [`solver`] — the Strang-split time stepper for Eq. 14 with the
//!   empty-queue boundary convention.
//! * [`steady`] — stationary densities (experiment E5).
//! * [`montecarlo`] — Euler–Maruyama Langevin ensembles cross-validating
//!   the PDE (experiment E4), and their delayed-feedback case (the joint
//!   density is non-Markov under delay; Section 7 is reproduced on
//!   paths, as in the paper).
//!
//! # Example
//!
//! Evolve a Gaussian initial density under the JRJ law and check the
//! invariants the finite-volume scheme guarantees by construction:
//!
//! ```
//! use fpk_congestion::LinearExp;
//! use fpk_core::solver::{FpProblem, FpSolver};
//! use fpk_core::Density;
//!
//! let grid = Density::standard_grid(30.0, -5.0, 5.0, 40, 24).unwrap();
//! let init = Density::gaussian(grid, 8.0, -1.0, 1.0, 0.5).unwrap();
//! let law = LinearExp::new(1.0, 0.5, 10.0);
//! let mut solver = FpSolver::new(FpProblem::new(law, 5.0, 0.3), init).unwrap();
//! solver.run_until(0.2).unwrap();
//! assert!((solver.density().mass() - 1.0).abs() < 1e-9);  // conservative
//! assert!(solver.density().min_value() >= -1e-12);        // positive
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod density;
pub mod fv;
pub mod montecarlo;
pub mod solver;
pub mod steady;

pub use density::Density;
pub use fv::Limiter;
pub use solver::{DiffusionScheme, FpProblem, FpSolver};

/// Section 7's delayed-feedback checks on the lagged Monte-Carlo
/// ensemble; the module keeps the test names they had when delayed paths
/// had a driver of their own.
#[cfg(test)]
mod delayed {
    mod tests {
        use crate::montecarlo::tests::{delayed_cfg, every_nth_step};
        use crate::montecarlo::{ensemble_cycle_amplitude, simulate_ensemble_delayed, McConfig};
        use fpk_congestion::LinearExp;
        use fpk_numerics::NumericsError;

        fn law() -> LinearExp {
            LinearExp::new(1.0, 0.5, 10.0)
        }

        #[test]
        fn path_respects_bounds() {
            let times = every_nth_step(10, 1e-3, 300.0);
            let snaps =
                simulate_ensemble_delayed(&law(), &delayed_cfg(1, 0.5), 2.0, &times).unwrap();
            assert_eq!(snaps.len(), times.len());
            assert!(snaps.len() > 1000);
            for s in &snaps {
                assert_eq!(s.q.len(), 1);
                assert!(s.q[0] >= 0.0, "queue must stay non-negative");
                assert!(s.nu[0] >= -5.0, "λ must stay non-negative");
            }
        }

        #[test]
        fn deterministic_for_seed() {
            let times = every_nth_step(5, 1e-3, 300.0);
            let run =
                || simulate_ensemble_delayed(&law(), &delayed_cfg(3, 0.2), 1.0, &times).unwrap();
            let (a, b) = (run(), run());
            for (a, b) in a.iter().zip(&b) {
                assert_eq!(a.q, b.q);
                assert_eq!(a.nu, b.nu);
            }
        }

        #[test]
        fn noiseless_delayed_path_matches_fluid_dde_regime() {
            // σ = 0, τ = 2: should show a sustained limit cycle like the
            // fluid DDE (amplitude > 1 in the tail).
            let law = LinearExp::new(1.0, 0.5, 10.0);
            let snaps = simulate_ensemble_delayed(
                &law,
                &delayed_cfg(1, 0.0),
                2.0,
                &every_nth_step(10, 1e-3, 300.0),
            )
            .unwrap();
            let t: Vec<f64> = snaps.iter().map(|s| s.t).collect();
            let q: Vec<f64> = snaps.iter().map(|s| s.q[0]).collect();
            let osc = fpk_numerics::signal::analyze_oscillation(&t, &q, 0.4)
                .unwrap()
                .expect("delayed path should oscillate");
            assert!(osc.amplitude > 1.0, "amplitude {}", osc.amplitude);
        }

        #[test]
        fn amplitude_grows_with_delay_stochastically() {
            let law = LinearExp::new(1.0, 0.5, 10.0);
            let times = every_nth_step(20, 1e-3, 300.0);
            let amplitude = |tau: f64| {
                let snaps =
                    simulate_ensemble_delayed(&law, &delayed_cfg(4, 0.1), tau, &times).unwrap();
                ensemble_cycle_amplitude(&snaps).unwrap().0
            };
            let (a_small, a_large) = (amplitude(0.5), amplitude(3.0));
            assert!(
                a_large > a_small,
                "amplitude should grow with τ: {a_small} -> {a_large}"
            );
        }

        #[test]
        fn rejects_bad_config() {
            // τ = 0 is the Markov ensemble, so only a negative lag is bad.
            let times = [1.0];
            let c = delayed_cfg(1, 0.1);
            assert!(simulate_ensemble_delayed(&law(), &c, -1.0, &times).is_err());
            let no_paths = McConfig {
                n_particles: 0,
                ..c.clone()
            };
            assert!(simulate_ensemble_delayed(&law(), &no_paths, 1.0, &times).is_err());
            let mut c3 = c;
            c3.sigma2 = -0.1;
            assert!(simulate_ensemble_delayed(&law(), &c3, 1.0, &times).is_err());
        }

        #[test]
        fn non_finite_parameters_rejected_by_name() {
            let cases: [(&str, f64, fn(&mut McConfig)); 7] = [
                ("tau", f64::INFINITY, |_| {}),
                ("tau", f64::NAN, |_| {}),
                ("tau", -1.0, |_| {}),
                ("dt", 1.0, |c| c.dt = f64::INFINITY),
                ("mu", 1.0, |c| c.mu = f64::INFINITY),
                ("sigma2", 1.0, |c| c.sigma2 = f64::NAN),
                ("sigma2", 1.0, |c| c.sigma2 = f64::INFINITY),
            ];
            for (field, tau, spoil) in cases {
                let mut bad = delayed_cfg(1, 0.1);
                spoil(&mut bad);
                match simulate_ensemble_delayed(&law(), &bad, tau, &[2.0]) {
                    Err(NumericsError::InvalidParameter { context }) => {
                        assert!(context.contains(field), "{field}: {context}");
                    }
                    other => panic!("{field}: expected InvalidParameter, got {other:?}"),
                }
            }
            match simulate_ensemble_delayed(&law(), &delayed_cfg(1, 0.1), 1.0, &[f64::INFINITY]) {
                Err(NumericsError::InvalidParameter { context }) => {
                    assert!(context.contains("snapshot_times"), "{context}");
                }
                other => panic!("snapshot_times: expected InvalidParameter, got {other:?}"),
            }
        }

        #[test]
        fn ensemble_amplitude_empty_guard() {
            assert!(ensemble_cycle_amplitude(&[]).is_err());
        }
    }
}
