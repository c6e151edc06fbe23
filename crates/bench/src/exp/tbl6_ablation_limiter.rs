//! Table 6 (ablation A1): flux-limiter choice vs numerical diffusion.
//!
//! Runs the same Fokker–Planck problem at σ² = 0 (no physical diffusion —
//! any spreading is numerical) under each limiter, comparing variance
//! inflation of the advected blob and wall-clock cost.
//!
//! Wall-clock timings go to **stderr only**: the serialized artifact
//! must be a pure function of the computation (byte-identical across
//! runs), so the JSON in `results/` carries no timing field. CI
//! diffs two back-to-back runs to pin this.

use crate::{fmt, print_table, write_json};
use fpk_congestion::LinearExp;
use fpk_core::solver::{FpProblem, FpSolver};
use fpk_core::{Density, Limiter};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    limiter: String,
    final_var_q: f64,
    var_inflation: f64,
    peak_density: f64,
    mass_error: f64,
    min_value: f64,
}

/// Runs the experiment: prints its tables and writes `results/<name>.json`.
pub fn run(name: &str) {
    let mu = 5.0;
    let law = LinearExp::new(1.0, 0.5, 10.0);
    let limiters = [
        Limiter::Upwind,
        Limiter::Minmod,
        Limiter::VanLeer,
        Limiter::Superbee,
    ];
    let mut rows = Vec::new();
    let mut table = Vec::new();
    let grid = Density::standard_grid(40.0, -6.0, 6.0, 120, 72).expect("grid");
    let init = Density::gaussian(grid, 8.0, -1.0, 1.0, 0.5).expect("init");
    let var0 = init.var_q();
    for lim in limiters {
        let mut problem = FpProblem::new(law, mu, 0.0);
        problem.limiter = lim;
        let mut solver = FpSolver::new(problem, init.clone()).expect("solver");
        let start = Instant::now();
        solver.run_until(6.0).expect("run");
        let wall = start.elapsed().as_secs_f64() * 1e3;
        let d = solver.density();
        let peak = d.data.iter().cloned().fold(0.0f64, f64::max);
        let row = Row {
            limiter: format!("{lim:?}"),
            final_var_q: d.var_q(),
            var_inflation: d.var_q() / var0,
            peak_density: peak,
            mass_error: (d.mass() - 1.0).abs(),
            min_value: d.min_value(),
        };
        eprintln!("{}: {} ms", row.limiter, fmt(wall, 1));
        table.push(vec![
            row.limiter.clone(),
            fmt(row.final_var_q, 3),
            fmt(row.var_inflation, 2),
            fmt(row.peak_density, 4),
            format!("{:.1e}", row.mass_error),
            format!("{:.1e}", row.min_value),
        ]);
        rows.push(row);
    }
    print_table(
        "Table 6 — limiter ablation at sigma² = 0 (all spreading is numerical)",
        &[
            "limiter",
            "Var[Q](t=6)",
            "inflation",
            "peak f",
            "|mass-1|",
            "min f",
        ],
        &table,
    );
    println!("\nExpected ordering: the peak density is the clean sharpness metric");
    println!("(q-variance is confounded by the converging control flow): Upwind");
    println!("lowest peak (most numerical diffusion) → Minmod → VanLeer →");
    println!("Superbee sharpest; all conserve mass to machine precision and");
    println!("stay non-negative.");
    assert!(rows[0].peak_density < rows[3].peak_density);
    assert!(rows.iter().all(|r| r.mass_error < 1e-9));
    assert!(rows.iter().all(|r| r.min_value >= -1e-12));
    write_json(name, &rows);
}
