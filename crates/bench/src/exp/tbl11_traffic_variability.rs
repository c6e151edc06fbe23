//! Table 11 (extension, the paper's closing claim): the Fokker–Planck
//! model "addresses traffic variability … that fluid approximation
//! techniques do not address".
//!
//! We make that quantitative. Fixed-mean-rate traffic (λ = 8 against
//! μ = 10) with increasing *burstiness* — Poisson, then interrupted-
//! Poisson (MMPP-2) with ever longer on/off sojourns — feeds the DES.
//! The fluid model sees only λ and predicts an empty queue for all of
//! them (λ < μ ⇒ Q → 0). The 1-D Fokker–Planck model with its σ²
//! calibrated from the traffic's asymptotic index of dispersion,
//!
//! ```text
//! σ² = λ·IDC∞ + μ,   IDC∞ = 1 + 2·λp²·π_on·π_off/(λ(r_on + r_off))
//! ```
//!
//! predicts the stationary mean queue σ²/(2(μ−λ)) — and tracks the
//! measured growth while the fluid prediction stays at zero.
//!
//! Ported to the `fpk-scenarios` runner: the burstiness axis is a sweep
//! (mean_on = 0 encodes the Poisson baseline) with 3 seeded
//! replications per cell running in parallel.

use crate::{fmt, print_table, write_json};
use fpk_congestion::LinearExp;
use fpk_scenarios::{run_sweep, Axis, Scenario, Sweep};
use fpk_sim::{Service, SimConfig, SourceSpec};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    label: String,
    mean_on: f64,
    idc: f64,
    sigma2: f64,
    fp_mean_queue: f64,
    des_mean_queue: f64,
    des_mean_queue_ci95: f64,
    fluid_mean_queue: f64,
    replications: usize,
}

const MU: f64 = 10.0;
const LAMBDA: f64 = 8.0;
const DUTY: f64 = 0.5;
const REPLICATIONS: usize = 3;

/// Runs the experiment: prints its tables and writes `results/<name>.json`.
pub fn run(name: &str) {
    let peak = LAMBDA / DUTY;
    let base = Scenario::new(
        name,
        SimConfig {
            mu: MU,
            service: Service::Exponential,
            buffer: None,
            t_end: 30_000.0,
            warmup: 3_000.0,
            sample_interval: 1.0,
            seed: 0,
        },
        Vec::new(),
    );
    // mean_on = 0 → the Poisson baseline; otherwise an on-off source
    // with the same mean rate and duty cycle but ever longer sojourns.
    let sweep = Sweep::new(base, 314).axis(Axis::new(
        "mean_on",
        vec![0.0, 0.1, 0.3, 1.0, 3.0],
        move |sc, mean_on| {
            sc.sources = if mean_on == 0.0 {
                vec![SourceSpec::Rate {
                    law: LinearExp::new(0.0, 0.5, 1e12),
                    lambda0: LAMBDA,
                    update_interval: 10.0,
                    prop_delay: 0.01,
                    poisson: true,
                }]
            } else {
                vec![SourceSpec::OnOff {
                    peak_rate: peak,
                    mean_on,
                    mean_off: mean_on * (1.0 - DUTY) / DUTY,
                    prop_delay: 0.01,
                }]
            };
        },
    ));

    let report = run_sweep(&sweep, REPLICATIONS).expect("tbl11 sweep");
    let rows: Vec<Row> = report
        .cells
        .iter()
        .map(|cell| {
            let mean_on = cell.coords[0];
            let (label, idc) = if mean_on == 0.0 {
                ("Poisson".to_string(), 1.0)
            } else {
                // MMPP-2 asymptotic index of dispersion.
                let (r_on, r_off) = (1.0 / mean_on, DUTY / (mean_on * (1.0 - DUTY)));
                let (pi_on, pi_off) = (r_off / (r_on + r_off), r_on / (r_on + r_off));
                (
                    format!("on-off {mean_on:.1}s"),
                    1.0 + 2.0 * peak * peak * pi_on * pi_off / (LAMBDA * (r_on + r_off)),
                )
            };
            let sigma2 = LAMBDA * idc + MU;
            Row {
                label,
                mean_on,
                idc,
                sigma2,
                fp_mean_queue: sigma2 / (2.0 * (MU - LAMBDA)),
                des_mean_queue: cell.stats.mean_queue.mean,
                des_mean_queue_ci95: cell.stats.mean_queue.ci95,
                fluid_mean_queue: 0.0,
                replications: cell.stats.replications,
            }
        })
        .collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                if r.mean_on == 0.0 {
                    "-".into()
                } else {
                    fmt(r.mean_on, 1)
                },
                fmt(r.idc, 2),
                fmt(r.sigma2, 1),
                fmt(r.fp_mean_queue, 2),
                format!(
                    "{} ± {}",
                    fmt(r.des_mean_queue, 2),
                    fmt(r.des_mean_queue_ci95, 2)
                ),
                "0.00".into(),
            ]
        })
        .collect();
    print_table(
        "Table 11 — burstiness → queueing: FP (σ² from IDC) vs DES vs fluid",
        &[
            "traffic",
            "mean on",
            "IDC∞",
            "σ²",
            "FP E[Q]",
            "DES E[Q] (95% CI)",
            "fluid E[Q]",
        ],
        &table,
    );
    println!("\nReading: the fluid model predicts E[Q] = 0 for every row (λ < μ).");
    println!("The DES mean queue grows ~20× from Poisson to 3-second bursts at");
    println!("the *same* mean rate; the diffusion prediction σ²/(2(μ−λ)) with σ²");
    println!("calibrated from the index of dispersion tracks that growth — the");
    println!("paper's 'traffic variability' claim, made quantitative. (The");
    println!("heavy-traffic formula overshoots at mild loads and for sojourns");
    println!("approaching the drain time, as expected of a diffusion limit.)");
    println!("DES means are over {REPLICATIONS} seeds per cell.");

    // Shape assertions: DES grows monotonically; FP tracks within 3×
    // except the burstiest row (diffusion validity fades as sojourns
    // approach the queue's drain time).
    let des: Vec<f64> = rows.iter().map(|r| r.des_mean_queue).collect();
    assert!(
        des.windows(2).all(|w| w[1] > w[0]),
        "DES queue must grow with burstiness: {des:?}"
    );
    for r in &rows[..rows.len() - 1] {
        let ratio = r.fp_mean_queue / r.des_mean_queue;
        assert!(
            (0.33..3.0).contains(&ratio),
            "FP should track DES within 3x: {r:?}"
        );
    }
    write_json(name, &rows);
}
