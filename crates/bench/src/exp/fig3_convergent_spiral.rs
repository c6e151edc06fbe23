//! Figure 3: the convergent spiral — the (q, ν) trajectory of the
//! no-delay JRJ system homing into the limit point (q̂, 0).
//!
//! Prints the decimated phase-plane orbit plus the revolution-by-
//! revolution excursions that shrink per Theorem 1.

use crate::{fmt, print_table, write_json};
use fpk_congestion::LinearExp;
use fpk_fluid::phase::section_crossings;
use fpk_fluid::{simulate, FluidParams};
use serde::Serialize;

#[derive(Serialize)]
struct Fig3 {
    q: Vec<f64>,
    nu: Vec<f64>,
    section_rates: Vec<f64>,
    excursions: Vec<f64>,
}

/// Runs the experiment: prints its tables and writes `results/<name>.json`.
pub fn run(name: &str) {
    let mu = 5.0;
    let law = LinearExp::new(1.0, 0.5, 10.0);
    let params = FluidParams {
        mu,
        q0: 10.0,
        lambda0: vec![0.5],
        t_end: 150.0,
        dt: 2e-4,
    };
    let traj = simulate(&[law], &params).expect("fluid");
    let nu = traj.nu(mu);

    // Decimated orbit samples.
    let step = traj.q.len() / 60;
    let rows: Vec<Vec<String>> = (0..traj.q.len())
        .step_by(step.max(1))
        .map(|k| vec![fmt(traj.t[k], 1), fmt(traj.q[k], 3), fmt(nu[k], 3)])
        .collect();
    print_table(
        "Figure 3 — convergent spiral (q, nu) orbit",
        &["t", "q", "nu"],
        &rows,
    );

    let crossings = section_crossings(&traj, law.q_hat);
    let rates: Vec<f64> = crossings.iter().map(|c| c.lambda).collect();
    let excursions: Vec<f64> = rates.iter().map(|l| (l - mu).abs()).collect();
    println!("\nSection crossings of q = q̂ (|lambda - mu| must shrink):");
    for (k, (r, e)) in rates.iter().zip(excursions.iter()).enumerate().take(10) {
        println!("  crossing {k}: lambda = {r:.4}, excursion = {e:.4}");
    }
    let shrinking = excursions.windows(2).all(|w| w[1] <= w[0] + 1e-3);
    println!("Excursions monotonically shrinking: {shrinking}");
    assert!(shrinking, "spiral must converge (Theorem 1)");

    let dec: Vec<usize> = (0..traj.q.len()).step_by(step.max(1)).collect();
    write_json(
        name,
        &Fig3 {
            q: dec.iter().map(|&k| traj.q[k]).collect(),
            nu: dec.iter().map(|&k| nu[k]).collect(),
            section_rates: rates,
            excursions,
        },
    );
}
