//! Table 10 (ablation A3): fixed-step RK4 vs the event-driven
//! Dormand–Prince reference on the switching system.
//!
//! Smooth-problem RK4 is 4th order, but each crossing of the
//! discontinuous switching surface degrades the *local* error to O(dt),
//! making the global order ≈ 1 in dt on this problem. The event-driven
//! tracer restores full accuracy by locating every crossing. This table
//! quantifies the trade and justifies the dt choices used elsewhere.
//!
//! Wall-clock timings go to **stderr only**: the serialized artifact
//! must be a pure function of the computation (byte-identical across
//! runs), so the JSON in `results/` carries no timing field. CI
//! diffs two back-to-back runs to pin this.

use crate::{fmt, print_table, write_json};
use fpk_congestion::LinearExp;
use fpk_fluid::events::trace_events;
use fpk_fluid::{simulate, FluidParams};
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

    // Reference: event-driven trace.
    let start = Instant::now();
    let reference = trace_events(&law, mu, 2.0, 1.0, t_end).expect("reference");
    let ref_ms = start.elapsed().as_secs_f64() * 1e3;
    let (q_ref, l_ref) = reference.final_state;

    let mut rows = Vec::new();
    let mut table = Vec::new();
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
        let (qf, lf) = traj.final_state();
        let row = Row {
            dt,
            q_error: (qf - q_ref).abs(),
            lambda_error: (lf[0] - l_ref).abs(),
        };
        eprintln!("dt={dt:.0e}: {} ms", fmt(wall_ms, 2));
        table.push(vec![
            format!("{dt:.0e}"),
            format!("{:.2e}", row.q_error),
            format!("{:.2e}", row.lambda_error),
        ]);
        rows.push(row);
    }
    print_table(
        "Table 10 — fixed-step RK4 error vs the event-driven reference (t = 40)",
        &["dt", "|q error|", "|lambda error|"],
        &table,
    );
    println!("\nReference (event-driven Dormand–Prince): ({q_ref:.9}, {l_ref:.9}),");
    println!("with {} switchings located.", reference.switchings.len());
    eprintln!("reference computed in {ref_ms:.2} ms");
    println!("\nReading: the error falls roughly linearly in dt — the switching");
    println!("discontinuity caps RK4 at first order globally — so production");
    println!("runs use dt ≤ 1e-3 of the system time scale, and validation work");
    println!("uses the event tracer.");
    // Error must decrease with dt.
    let errs: Vec<f64> = rows.iter().map(|r| r.q_error.max(r.lambda_error)).collect();
    assert!(
        errs.windows(2).all(|w| w[1] < w[0] * 1.2),
        "errors must shrink with dt: {errs:?}"
    );
    write_json(name, &rows);
}
