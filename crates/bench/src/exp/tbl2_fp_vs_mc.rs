//! Table 2 (Eq. 14 validation): the Fokker–Planck density against a
//! Langevin Monte-Carlo ensemble — moments and KS distance of the
//! q-marginal at several times, for transient and near-stationary phases.

use crate::{fmt, print_table, write_json};
use fpk_congestion::LinearExp;
use fpk_core::montecarlo::{simulate_ensemble, McConfig};
use fpk_core::solver::{FpProblem, FpSolver};
use fpk_core::Density;
use fpk_numerics::stats::ks_sample_vs_density;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    t: f64,
    pde_mean_q: f64,
    mc_mean_q: f64,
    pde_var_q: f64,
    mc_var_q: f64,
    ks_distance: f64,
}

/// Runs the experiment: prints its tables and writes `results/<name>.json`.
pub fn run(name: &str) {
    let mu = 5.0;
    let sigma2 = 0.4;
    let law = LinearExp::new(1.0, 0.5, 10.0);
    let times = [1.0, 3.0, 8.0, 20.0, 60.0];

    let grid = Density::standard_grid(40.0, -6.0, 6.0, 200, 120).expect("grid");
    let init = Density::gaussian(grid, 3.0, -3.0, 1.2, 0.6).expect("init");
    let mut solver = FpSolver::new(FpProblem::new(law, mu, sigma2), init).expect("solver");

    let mc = simulate_ensemble(
        &law,
        &McConfig {
            mu,
            sigma2,
            n_particles: 120_000,
            dt: 1e-3,
            seed: 31,
            threads: 8,
            init_mean: (3.0, -3.0),
            init_std: (1.2, 0.6),
        },
        &times,
    )
    .expect("mc");

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (k, &t) in times.iter().enumerate() {
        solver.run_until(t).expect("run");
        let d = solver.density();
        let snap = &mc[k];
        let ks = ks_sample_vs_density(&snap.q, &d.grid.x.centers(), &d.marginal_q()).expect("ks");
        let row = Row {
            t,
            pde_mean_q: d.mean_q(),
            mc_mean_q: snap.mean_q(),
            pde_var_q: d.var_q(),
            mc_var_q: snap.var_q(),
            ks_distance: ks,
        };
        table.push(vec![
            fmt(t, 1),
            fmt(row.pde_mean_q, 3),
            fmt(row.mc_mean_q, 3),
            fmt(row.pde_var_q, 3),
            fmt(row.mc_var_q, 3),
            fmt(ks, 4),
        ]);
        rows.push(row);
    }
    print_table(
        "Table 2 — Fokker–Planck PDE vs Langevin Monte Carlo (q-marginal)",
        &["t", "E[Q] pde", "E[Q] mc", "Var pde", "Var mc", "KS"],
        &table,
    );
    println!("\nShape check: means within a few %, KS small in the transient and");
    println!("bounded (≈0.1) at stationarity, where the PDE's first-order scheme");
    println!("smears q: refining q narrows the gap, while refining ν or swapping");
    println!("the limiter barely moves it.");
    write_json(name, &rows);
}
