//! Figure 4 (§5, σ² > 0): the stationary joint density stays centred at
//! the limit point while its spread grows with the traffic-variability
//! parameter σ.

use crate::{fmt, print_table, write_json};
use fpk_congestion::LinearExp;
use fpk_core::solver::{FpProblem, FpSolver};
use fpk_core::steady::{solve_stationary, SteadyOptions};
use fpk_core::Density;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    sigma2: f64,
    mean_q: f64,
    std_q: f64,
    mean_nu: f64,
    std_nu: f64,
    t_converged: f64,
}

/// Runs the experiment: prints its tables and writes `results/<name>.json`.
pub fn run(name: &str) {
    let mu = 5.0;
    let law = LinearExp::new(1.0, 0.5, 10.0);
    let sigmas = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6];

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for &sigma2 in &sigmas {
        let grid = Density::standard_grid(40.0, -6.0, 6.0, 100, 60).expect("grid");
        let init = Density::gaussian(grid, 10.0, 0.0, 1.5, 0.8).expect("init");
        let solver = FpSolver::new(FpProblem::new(law, mu, sigma2), init).expect("solver");
        let r = solve_stationary(
            solver,
            &SteadyOptions {
                check_interval: 10.0,
                tol: 5e-4,
                t_max: 1500.0,
            },
        )
        .expect("stationary");
        let row = Row {
            sigma2,
            mean_q: r.moments.mean_q,
            std_q: r.moments.var_q.sqrt(),
            mean_nu: r.moments.mean_nu,
            std_nu: r.moments.var_nu.sqrt(),
            t_converged: r.t_converged,
        };
        table.push(vec![
            fmt(sigma2, 2),
            fmt(row.mean_q, 3),
            fmt(row.std_q, 3),
            fmt(row.mean_nu, 3),
            fmt(row.std_nu, 3),
            fmt(row.t_converged, 0),
        ]);
        rows.push(row);
    }
    print_table(
        "Figure 4 — stationary density vs sigma² (limit point q̂ = 10, nu = 0)",
        &["sigma²", "E[Q]", "std Q", "E[nu]", "std nu", "t_conv"],
        &table,
    );
    println!("\nShape check: E[Q] stays near q̂ and E[nu] near 0 for every sigma,");
    println!("while std Q grows monotonically with sigma — variability spreads");
    println!("the operating point but does not move it.");
    let stds: Vec<f64> = rows.iter().map(|r| r.std_q).collect();
    assert!(
        stds.windows(2).all(|w| w[1] > w[0]),
        "std must grow with sigma"
    );
    write_json(name, &rows);
}
