//! Table 10 (ablation A3): fixed-step RK4 vs the closed-form arc tracer
//! on the switching system.
//!
//! Smooth-problem RK4 is 4th order, but the step that straddles a
//! crossing of the discontinuous switching surface makes an O(dt) local
//! error, so the global order on this problem is far below 4. The table
//! prints the order observed between consecutive rows. The event tracer
//! is exact up to root finding: it marches the law's closed-form arcs and
//! locates every crossing. This table quantifies the trade and justifies
//! the dt choices used elsewhere.
//!
//! Wall-clock timings go to **stderr only**: the serialized artifact
//! must be a pure function of the computation (byte-identical across
//! runs), so the JSON in `results/` carries no timing field. CI
//! diffs two back-to-back runs to pin this.

use crate::{fmt, print_table, write_json};
use fpk_congestion::LinearExp;
use fpk_fluid::events::trace_events;
use fpk_fluid::{final_state, simulate, FluidParams};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    dt: f64,
    q_error: f64,
    lambda_error: f64,
}

/// Runs the experiment: prints its tables and writes `results/<name>.json`.
pub fn run(name: &str) {
    let mu = 5.0;
    let law = LinearExp::new(1.0, 0.5, 10.0);
    let t_end = 40.0;

    // Reference: the closed-form arc trace.
    let start = Instant::now();
    let reference = trace_events(&law, mu, 2.0, 1.0, t_end).expect("reference");
    let ref_ms = start.elapsed().as_secs_f64() * 1e3;
    let (q_ref, l_ref) = reference.final_state;

    let mut rows = Vec::new();
    for &dt in &[1e-2, 3e-3, 1e-3, 3e-4, 1e-4] {
        let start = Instant::now();
        let traj = simulate(
            &[law],
            &FluidParams {
                mu,
                q0: 2.0,
                lambda0: vec![1.0],
                t_end,
                dt,
            },
        )
        .expect("rk4");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let (q, lambda) = final_state(&traj);
        let row = Row {
            dt,
            q_error: (q - q_ref).abs(),
            lambda_error: (lambda[0] - l_ref).abs(),
        };
        eprintln!("dt={dt:.0e}: {} ms", fmt(wall_ms, 2));
        rows.push(row);
    }
    // Observed order between consecutive rows: ln(e₀/e₁) / ln(dt₀/dt₁).
    let orders: Vec<(f64, f64)> = rows
        .windows(2)
        .map(|w| {
            let p = |e0: f64, e1: f64| (e0 / e1).ln() / (w[0].dt / w[1].dt).ln();
            (
                p(w[0].q_error, w[1].q_error),
                p(w[0].lambda_error, w[1].lambda_error),
            )
        })
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .enumerate()
        .map(|(k, row)| {
            let (pq, pl) = match k {
                0 => ("-".to_string(), "-".to_string()),
                _ => (fmt(orders[k - 1].0, 2), fmt(orders[k - 1].1, 2)),
            };
            vec![
                format!("{:.0e}", row.dt),
                format!("{:.2e}", row.q_error),
                format!("{:.2e}", row.lambda_error),
                pq,
                pl,
            ]
        })
        .collect();
    print_table(
        "Table 10 — fixed-step RK4 error vs the closed-form arc tracer (t = 40)",
        &["dt", "|q error|", "|lambda error|", "q order", "lambda order"],
        &table,
    );
    println!("\nReference (closed-form arc tracer): ({q_ref:.9}, {l_ref:.9}),");
    println!("with {} switchings located.", reference.switchings.len());
    eprintln!("reference computed in {ref_ms:.2} ms");
    let (lo, hi) = orders
        .iter()
        .flat_map(|&(pq, pl)| [pq, pl])
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p), hi.max(p))
        });
    let (fine, finest) = (&rows[rows.len() - 3], &rows[rows.len() - 1]);
    println!(
        "\nReading: the error follows no single order in dt. Between rows the"
    );
    println!(
        "observed order runs from {} to {}; from dt = {:.0e} to {:.0e} the q error",
        fmt(lo, 2),
        fmt(hi, 2),
        fine.dt,
        finest.dt
    );
    println!(
        "falls {:.0}x and the lambda error {:.0}x. The switching discontinuity keeps",
        fine.q_error / finest.q_error,
        fine.lambda_error / finest.lambda_error
    );
    println!("RK4 far below its smooth 4th order, so production runs use");
    println!("dt <= 1e-3 of the system time scale, and validation work uses the");
    println!("event tracer.");
    // Error must decrease with dt.
    let errs: Vec<f64> = rows.iter().map(|r| r.q_error.max(r.lambda_error)).collect();
    assert!(
        errs.windows(2).all(|w| w[1] < w[0] * 1.2),
        "errors must shrink with dt: {errs:?}"
    );
    write_json(name, &rows);
}
