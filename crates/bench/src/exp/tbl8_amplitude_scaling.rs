//! Table 8 (extension of E7a): how does the limit-cycle amplitude scale
//! with the feedback delay?
//!
//! The paper proves delay causes cycles but does not quantify the
//! growth law. We sweep τ over 1.5 decades, fit `amplitude ≈ c·τ^β` and
//! report the exponent, separately for the queue amplitude and the cycle
//! period — the kind of engineering rule ("halve the RTT, shrink the
//! queue swing by ~2^β") the model makes available.

use crate::{fmt, print_table, write_json};
use fpk_congestion::LinearExp;
use fpk_fluid::delay::{cycle_summary, simulate_delayed, DelayParams};
use fpk_numerics::signal::fit_power_law;
use serde::Serialize;

#[derive(Serialize)]
struct Out {
    taus: Vec<f64>,
    amplitudes: Vec<f64>,
    periods: Vec<f64>,
    amp_prefactor: f64,
    amp_exponent: f64,
    period_prefactor: f64,
    period_exponent: f64,
}

/// Runs the experiment: prints its tables and writes `results/<name>.json`.
pub fn run(name: &str) {
    let mu = 5.0;
    let law = LinearExp::new(1.0, 0.5, 10.0);
    let taus: Vec<f64> = vec![0.1, 0.18, 0.3, 0.5, 0.9, 1.5, 2.5, 4.0];
    let mut amplitudes = Vec::new();
    let mut periods = Vec::new();
    let mut table = Vec::new();
    for &tau in &taus {
        let traj = simulate_delayed(
            &[law],
            &DelayParams {
                mu,
                q0: 10.0,
                lambda0: vec![3.0],
                taus: vec![tau],
                t_end: 400.0,
                steps: 80_000,
            },
        )
        .expect("dde");
        let s = cycle_summary(&traj, 0.3, 1e-6).expect("analysis");
        let (a, p) = s
            .oscillation
            .map_or((0.0, 0.0), |o| (o.amplitude, o.period));
        table.push(vec![fmt(tau, 2), fmt(a, 3), fmt(p, 2)]);
        amplitudes.push(a);
        periods.push(p);
    }
    let (ca, ba) = fit_power_law(&taus, &amplitudes).expect("amp fit");
    let (cp, bp) = fit_power_law(&taus, &periods).expect("period fit");
    print_table(
        "Table 8 — limit-cycle scaling with delay (fluid DDE)",
        &["tau", "amplitude", "period"],
        &table,
    );
    println!("\nPower-law fits over 1.5 decades of tau:");
    println!("  amplitude ≈ {ca:.2} · tau^{ba:.3}");
    println!("  period    ≈ {cp:.2} · tau^{bp:.3}");
    println!("\nReading: both grow sub-linearly (the q = 0 boundary and the");
    println!("exponential back-off saturate the swing); the exponents are the");
    println!("engineering summary of Section 7's 'delay causes cycles'.");
    assert!(ba > 0.2 && ba < 1.2, "amplitude exponent {ba}");
    assert!(bp > 0.2 && bp < 1.2, "period exponent {bp}");
    write_json(
        name,
        &Out {
            taus,
            amplitudes,
            periods,
            amp_prefactor: ca,
            amp_exponent: ba,
            period_prefactor: cp,
            period_exponent: bp,
        },
    );
}
