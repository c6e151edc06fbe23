//! Figure 5 (§7, E7a): delayed feedback turns the convergent spiral into
//! a limit cycle; amplitude and period grow with the delay τ.
//!
//! Sweeps τ in the fluid DDE and in the noisy Langevin path, showing the
//! same qualitative law (amplitude ↑ with τ, ≈0 as τ → 0).

use crate::{fmt, print_table, write_json};
use fpk_congestion::LinearExp;
use fpk_core::montecarlo::{ensemble_cycle_amplitude, simulate_ensemble_delayed, McConfig};
use fpk_fluid::delay::{cycle_summary, simulate_delayed, DelayParams};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    tau: f64,
    fluid_amplitude: f64,
    fluid_period: f64,
    regime: String,
    langevin_amplitude: f64,
    langevin_amp_std: f64,
}

/// Runs the experiment: prints its tables and writes `results/<name>.json`.
pub fn run(name: &str) {
    let mu = 5.0;
    let law = LinearExp::new(1.0, 0.5, 10.0);
    let taus = [0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0];
    // Langevin: 6 point-mass paths, one stream (`seed + k`) each, over
    // 300 s at dt = 1e-3, q read every 20th step.
    let dt = 1e-3;
    let mc_cfg = McConfig {
        mu,
        sigma2: 0.1,
        n_particles: 6,
        dt,
        seed: 55,
        threads: 6,
        init_mean: (10.0, -2.0),
        init_std: (0.0, 0.0),
    };
    let mc_times: Vec<f64> = (0..=15_000).map(|j| (j * 20) as f64 * dt).collect();

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for &tau in &taus {
        let traj = simulate_delayed(
            &[law],
            &DelayParams {
                mu,
                q0: 10.0,
                lambda0: vec![3.0],
                taus: vec![tau],
                t_end: 300.0,
                steps: 60_000,
            },
        )
        .expect("dde");
        let summary = cycle_summary(&traj, 0.3, 0.2).expect("analysis");
        let (amp, period) = summary
            .oscillation
            .as_ref()
            .map_or((0.0, 0.0), |o| (o.amplitude, o.period));

        let snaps = simulate_ensemble_delayed(&law, &mc_cfg, tau, &mc_times).expect("mc");
        let (mc_amp, mc_std) = ensemble_cycle_amplitude(&snaps).expect("amplitude");

        table.push(vec![
            fmt(tau, 2),
            fmt(amp, 3),
            fmt(period, 2),
            format!("{:?}", summary.regime),
            fmt(mc_amp, 3),
            fmt(mc_std, 3),
        ]);
        rows.push(Row {
            tau,
            fluid_amplitude: amp,
            fluid_period: period,
            regime: format!("{:?}", summary.regime),
            langevin_amplitude: mc_amp,
            langevin_amp_std: mc_std,
        });
    }
    print_table(
        "Figure 5 — limit-cycle amplitude & period vs feedback delay τ",
        &[
            "tau",
            "fluid amp",
            "fluid period",
            "regime",
            "langevin amp",
            "±std",
        ],
        &table,
    );
    println!("\nClaim (§7): delayed feedback introduces cyclic behaviour for every");
    println!("individual user; the cycle grows with the delay. Amplitude must");
    println!("increase monotonically in τ in both columns.");
    let amps: Vec<f64> = rows.iter().map(|r| r.fluid_amplitude).collect();
    assert!(
        amps.windows(2).all(|w| w[1] > w[0]),
        "fluid amplitude must grow with tau: {amps:?}"
    );
    write_json(name, &rows);
}
