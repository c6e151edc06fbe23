//! Deterministic fluid approximation of adaptively controlled queues —
//! the Bolot–Shankar [BoSh 90] baseline the paper compares against.
//!
//! The fluid model couples
//!
//! ```text
//! dQ/dt = Λ(t) − μ          (clamped so Q ≥ 0)
//! dλ_i/dt = g_i(Q, λ_i)      (one law per source, Λ = Σ λ_i)
//! ```
//!
//! Section 3 of the paper explains why this coupling is only valid for
//! *deterministic* Q — the Fokker–Planck crate (`fpk-core`) supplies the
//! stochastic treatment. The fluid model remains the right tool for the
//! characteristic curves of the σ² = 0 hyperbolic limit (Section 5), and
//! everything in this crate is exactly that machinery:
//!
//! * [`simulate`] — N ≥ 1 heterogeneous sources sharing one queue, by
//!   fixed-step RK4: one [`Series`](fpk_numerics::Series) row
//!   `(Q, λ_1, …, λ_N)` per step, read through [`state`],
//!   [`final_state`], [`queue`], [`nu`] and [`mean_rates_tail`].
//! * [`phase`] — the (q, ν) phase plane: drift quadrants (Figure 2),
//!   characteristic tracing, spiral section crossings (Figure 3).
//! * [`theorem1`] — certified convergence checks combining the analytic
//!   return map of `fpk-congestion::theory` with numerical integration.
//! * [`delay`] — delayed feedback (Section 7): DDE integration, limit
//!   cycle detection, per-source throughput under heterogeneous delays.
//! * [`events`] — the exact event tracer: it marches the law's
//!   closed-form arcs and finds every switching-surface crossing by
//!   root finding (the accuracy reference).
//!
//! # Example
//!
//! A JRJ-controlled fluid queue converging toward the limit point
//! (q̂, μ), never going negative on the way:
//!
//! ```
//! use fpk_congestion::LinearExp;
//! use fpk_fluid::{final_state, queue, simulate, FluidParams};
//!
//! let law = LinearExp::new(1.0, 0.5, 10.0);
//! let traj = simulate(&[law], &FluidParams {
//!     mu: 5.0, q0: 2.0, lambda0: vec![1.0], t_end: 60.0, dt: 1e-3,
//! }).unwrap();
//! let (q, lambda) = final_state(&traj);
//! assert!(queue(&traj).all(|q| q >= 0.0));
//! assert!((q - 10.0).abs() < 2.0 && (lambda[0] - 5.0).abs() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delay;
pub mod events;
mod model;
pub mod phase;
pub mod theorem1;

pub use model::{
    final_state, mean_rates_tail, nu, queue, queue_drift, simulate, state, FluidParams,
};

// Unit tests of `simulate`, grouped by source count: one source (the
// (q, λ) phase-plane system of §5) and N sources sharing the queue (§6).

/// Spoils one field per case of `base` with a NaN or an infinity and
/// checks that `simulate` rejects it, naming the field.
#[cfg(test)]
fn assert_non_finite_rejected_by_name(base: &FluidParams) {
    use fpk_congestion::LinearExp;
    use fpk_numerics::NumericsError;
    let cases: [(&str, fn(&mut FluidParams)); 7] = [
        ("mu", |p| p.mu = f64::INFINITY),
        ("q0", |p| p.q0 = f64::NAN),
        ("lambda0", |p| p.lambda0[0] = f64::NAN),
        ("lambda0", |p| *p.lambda0.last_mut().unwrap() = f64::NAN),
        ("lambda0", |p| p.lambda0[0] = f64::INFINITY),
        ("t_end", |p| p.t_end = f64::INFINITY),
        ("t_end", |p| p.t_end = f64::NAN),
    ];
    let n = base.lambda0.len();
    for (field, spoil) in cases {
        let mut bad = base.clone();
        spoil(&mut bad);
        match simulate(&vec![LinearExp::new(1.0, 0.5, 10.0); n], &bad) {
            Err(NumericsError::InvalidParameter { context }) => {
                assert!(
                    context.split(' ').any(|w| w == field),
                    "{n} sources, {field}: {context}"
                );
            }
            other => panic!("{n} sources, {field}: expected InvalidParameter, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod single {
    mod tests {
        use crate::{final_state, nu, queue, queue_drift, simulate, FluidParams};
        use fpk_congestion::{LinearExp, LinearLinear};
        use fpk_numerics::Series;

        fn std_params() -> FluidParams {
            FluidParams {
                mu: 5.0,
                q0: 0.0,
                lambda0: vec![0.0],
                t_end: 400.0,
                dt: 1e-3,
            }
        }

        #[test]
        fn params_validation() {
            let mut p = std_params();
            assert!(p.validate(1).is_ok());
            p.mu = 0.0;
            assert!(p.validate(1).is_err());
            let mut p2 = std_params();
            p2.q0 = -1.0;
            assert!(p2.validate(1).is_err());
            let mut p3 = std_params();
            p3.dt = p3.t_end + 1.0;
            assert!(p3.validate(1).is_err());
        }

        #[test]
        fn non_finite_parameters_rejected_by_name() {
            crate::assert_non_finite_rejected_by_name(&std_params());
        }

        #[test]
        fn jrj_converges_to_target_point() {
            // Theorem 1: limit point (q̂, μ). Convergence is algebraic, so
            // after t = 400 expect to be within a few percent.
            let law = LinearExp::new(1.0, 0.5, 10.0);
            let traj = simulate(&[law], &std_params()).unwrap();
            let (q, lambda) = final_state(&traj);
            assert!((q - 10.0).abs() < 1.0, "q_final = {q}");
            assert!(
                (lambda[0] - 5.0).abs() < 0.5,
                "lambda_final = {}",
                lambda[0]
            );
        }

        #[test]
        fn queue_never_negative_and_rate_never_negative() {
            let law = LinearExp::new(2.0, 2.0, 1.0);
            let mut p = std_params();
            p.lambda0 = vec![20.0]; // massive overshoot to provoke the boundary
            p.q0 = 50.0;
            let traj = simulate(&[law], &p).unwrap();
            assert!(traj.data().iter().all(|&v| v >= 0.0));
        }

        #[test]
        fn empty_queue_clamp_holds_queue_at_zero() {
            // Start with λ far below μ and a short horizon: the queue should
            // pin at zero, not go negative.
            let law = LinearExp::new(0.1, 0.5, 100.0);
            let p = FluidParams {
                mu: 10.0,
                q0: 1.0,
                lambda0: vec![0.0],
                t_end: 2.0,
                dt: 1e-4,
            };
            let traj = simulate(&[law], &p).unwrap();
            assert_eq!(final_state(&traj).0, 0.0);
        }

        #[test]
        fn nu_applies_clamp() {
            let mut traj = Series::new(2);
            traj.push(0.0, [0.0, 1.0]);
            traj.push(1.0, [5.0, 1.0]);
            let nu = nu(&traj, 5.0);
            assert_eq!(nu[0], 0.0); // clamped: empty queue, λ < μ
            assert_eq!(nu[1], -4.0); // normal: q > 0
        }

        #[test]
        fn oscillation_amplitude_shrinks_for_jrj() {
            // Convergent spiral: early queue excursions exceed late ones.
            let law = LinearExp::new(1.0, 0.5, 10.0);
            let traj = simulate(&[law], &std_params()).unwrap();
            let n = traj.len();
            let early_max = queue(&traj).take(n / 4).fold(f64::NEG_INFINITY, f64::max);
            let late = traj.tail_start(0.25, 1).unwrap();
            let late_max = queue(&traj).skip(late).fold(f64::NEG_INFINITY, f64::max);
            let late_min = queue(&traj).skip(late).fold(f64::INFINITY, f64::min);
            assert!(
                late_max - late_min < 0.5 * (early_max - 10.0).abs().max(1.0),
                "late band [{late_min}, {late_max}] vs early max {early_max}"
            );
        }

        #[test]
        fn linear_linear_keeps_oscillating() {
            // Section 7: linear decrease gives a closed orbit even with
            // instant feedback.
            let law = LinearLinear::new(1.0, 1.0, 10.0);
            let mut p = std_params();
            p.q0 = 10.0;
            p.lambda0 = vec![4.0]; // on the section, defect 1 -> dip 0.5 < q̂
            let traj = simulate(&[law], &p).unwrap();
            let late = traj.tail_start(0.25, 1).unwrap();
            let late_max = queue(&traj).skip(late).fold(f64::NEG_INFINITY, f64::max);
            let late_min = queue(&traj).skip(late).fold(f64::INFINITY, f64::min);
            assert!(
                late_max - late_min > 0.5,
                "linear/linear should keep oscillating, band = {}",
                late_max - late_min
            );
        }

        #[test]
        fn queue_drift_clamp_semantics() {
            assert_eq!(queue_drift(0.0, 1.0, 5.0), 0.0);
            assert_eq!(queue_drift(0.0, 7.0, 5.0), 2.0);
            assert_eq!(queue_drift(3.0, 1.0, 5.0), -4.0);
        }
    }
}

#[cfg(test)]
mod multi {
    mod tests {
        use crate::{mean_rates_tail, queue, simulate, FluidParams};
        use fpk_congestion::fairness::jain_index;
        use fpk_congestion::theory::sliding_share;
        use fpk_congestion::LinearExp;
        use fpk_numerics::{NumericsError, Series};

        fn params(n: usize) -> FluidParams {
            FluidParams {
                mu: 10.0,
                q0: 0.0,
                lambda0: (0..n).map(|i| i as f64 * 0.5).collect(),
                t_end: 600.0,
                dt: 2e-3,
            }
        }

        #[test]
        fn non_finite_parameters_rejected_by_name() {
            crate::assert_non_finite_rejected_by_name(&params(2));
        }

        #[test]
        fn identical_sources_converge_to_equal_shares() {
            // Section 6 / E6a: same (C0, C1) → fair (equal) split of μ,
            // regardless of unequal starting rates.
            let laws = vec![LinearExp::new(1.0, 0.5, 10.0); 4];
            let traj = simulate(&laws, &params(4)).unwrap();
            let shares = mean_rates_tail(&traj, 0.25).unwrap();
            let j = jain_index(&shares).unwrap();
            assert!(j > 0.999, "Jain index {j}, shares {shares:?}");
            let total: f64 = shares.iter().sum();
            assert!((total - 10.0).abs() < 0.3, "total {total}");
        }

        #[test]
        fn heterogeneous_sources_follow_sliding_share() {
            // E6b: shares ∝ C0_i/C1_i.
            let laws = vec![
                LinearExp::new(1.0, 0.5, 10.0), // ratio 2
                LinearExp::new(2.0, 0.5, 10.0), // ratio 4
                LinearExp::new(0.5, 0.5, 10.0), // ratio 1
            ];
            let predicted = sliding_share(&laws, 10.0).unwrap();
            let traj = simulate(&laws, &params(3)).unwrap();
            let measured = mean_rates_tail(&traj, 0.25).unwrap();
            for (m, p) in measured.iter().zip(predicted.iter()) {
                assert!(
                    (m - p).abs() / p < 0.12,
                    "measured {measured:?} vs predicted {predicted:?}"
                );
            }
        }

        #[test]
        fn aggregate_utilisation_near_capacity() {
            let laws = vec![LinearExp::new(1.0, 0.5, 10.0); 2];
            let traj = simulate(&laws, &params(2)).unwrap();
            let shares = mean_rates_tail(&traj, 0.3).unwrap();
            let total: f64 = shares.iter().sum();
            assert!(total > 9.0 && total < 11.0, "total {total}");
        }

        #[test]
        fn queue_stays_non_negative() {
            let laws = vec![LinearExp::new(3.0, 2.0, 1.0); 3];
            let traj = simulate(&laws, &params(3)).unwrap();
            assert!(queue(&traj).all(|q| q >= 0.0));
        }

        #[test]
        fn rejects_mismatched_inputs() {
            let laws = vec![LinearExp::standard(); 2];
            let mut p = params(3);
            assert!(matches!(
                simulate(&laws, &p),
                Err(NumericsError::DimensionMismatch { .. })
            ));
            let none: [LinearExp; 0] = [];
            p.lambda0.clear();
            assert!(matches!(
                simulate(&none, &p),
                Err(NumericsError::DimensionMismatch { .. })
            ));
            p.lambda0 = vec![1.0, 1.0];
            p.mu = -1.0;
            assert!(simulate(&laws, &p).is_err());
        }

        #[test]
        fn rejects_negative_initial_rate() {
            let laws = vec![LinearExp::standard(); 2];
            let mut p = params(2);
            p.lambda0 = vec![1.0, -0.5];
            assert!(simulate(&laws, &p).is_err());
        }

        #[test]
        fn mean_rates_tail_empty_safe() {
            assert_eq!(mean_rates_tail(&Series::default(), 0.5), Ok(vec![]));
        }

        #[test]
        fn mean_rates_tail_rejects_fractions_outside_unit_interval() {
            let mut traj = Series::new(2);
            traj.push(0.0, [0.0, 5.0]);
            for bad in [f64::NAN, 2.0, 0.0, -1.0] {
                let err = mean_rates_tail(&traj, bad);
                assert!(
                    matches!(err, Err(NumericsError::InvalidParameter { context })
                    if context.contains("tail_fraction")),
                    "{bad}: {err:?}"
                );
            }
        }
    }
}
