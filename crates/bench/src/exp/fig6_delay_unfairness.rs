//! Figure 6 (§7, E7b): unfairness under heterogeneous delays.
//!
//! Sweeps the RTT ratio between two AIMD window flows in the packet
//! simulator and the RTT-scaled fluid DDE, against the sliding-share
//! prediction share ∝ 1/τ. Also shows the contrast case: identical laws
//! with pure observation delay stay nearly fair.
//!
//! Ported to the `fpk-scenarios` runner: the RTT-ratio axis is a sweep
//! whose cells evaluate in parallel; the packet-level ratio is an
//! ensemble mean over 5 seeded replications per cell instead of one
//! shared seed for every cell.

use crate::{fmt, print_table, write_json};
use fpk_congestion::theory::sliding_share;
use fpk_congestion::{LinearExp, WindowAimd};
use fpk_fluid::delay::{simulate_delayed, window_laws_for_delays, DelayParams};
use fpk_scenarios::{run_cells, Axis, Ensemble, Scenario, Sweep};
use fpk_sim::{Service, SimConfig, SourceSpec};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    rtt_ratio: f64,
    predicted_ratio: f64,
    fluid_ratio: f64,
    packet_ratio: f64,
    packet_ratio_ci95: f64,
    pure_delay_fluid_ratio: f64,
    replications: usize,
}

const BASE_TAU: f64 = 1.0;
const REPLICATIONS: usize = 5;

/// Runs the experiment: prints its tables and writes `results/<name>.json`.
pub fn run(name: &str) {
    let mu = 5.0;

    // Packet level: AIMD windows with RTT = τ × 30 ms; the sweep axis
    // rescales the second flow's RTT.
    let mk = |tau: f64| SourceSpec::Window {
        aimd: WindowAimd::new(1.0, 0.5, 0.03 * tau, 15.0),
        w0: 2.0,
    };
    let base = Scenario::new(
        name,
        SimConfig {
            mu: 200.0,
            service: Service::Exponential,
            buffer: None,
            t_end: 300.0,
            warmup: 60.0,
            sample_interval: 0.1,
            seed: 0,
        },
        vec![mk(BASE_TAU), mk(BASE_TAU)],
    );
    let sweep = Sweep::new(base, 77).axis(Axis::new(
        "rtt_ratio",
        vec![1.0, 1.5, 2.0, 3.0, 4.0],
        move |sc, r| sc.sources = vec![mk(BASE_TAU), mk(BASE_TAU * r)],
    ));

    let ensemble = Ensemble::new(REPLICATIONS).expect("replications");
    let rows: Vec<Row> = run_cells(&sweep, move |cell| {
        let r = cell.coords[0];
        let taus = [BASE_TAU, BASE_TAU * r];

        // (a) RTT-scaled laws (window semantics) in the fluid DDE.
        let laws = window_laws_for_delays(1.0, 0.5, &taus, 10.0);
        let predicted = sliding_share(&laws, mu)?;
        let traj = simulate_delayed(
            &laws,
            &DelayParams {
                mu,
                q0: 10.0,
                lambda0: vec![2.5, 2.5],
                taus: taus.to_vec(),
                t_end: 800.0,
                steps: 160_000,
            },
        )?;
        let fluid = traj.mean_rates_tail(0.5);

        // (b) Identical laws, pure observation delay (contrast case).
        let same = [LinearExp::new(1.0, 0.5, 10.0); 2];
        let traj2 = simulate_delayed(
            &same,
            &DelayParams {
                mu,
                q0: 10.0,
                lambda0: vec![2.5, 2.5],
                taus: taus.to_vec(),
                t_end: 800.0,
                steps: 160_000,
            },
        )?;
        let pure = traj2.mean_rates_tail(0.5);

        // (c) Packet level: replicated ensemble of the cell's scenario.
        let stats = ensemble.run(&cell.scenario, cell.seed)?;
        let short = &stats.flow_throughput[0];
        let long = &stats.flow_throughput[1];
        let packet_ratio = short.mean / long.mean;
        // First-order error propagation for the ratio's CI.
        let packet_ratio_ci95 = packet_ratio
            * ((short.ci95 / short.mean).powi(2) + (long.ci95 / long.mean).powi(2)).sqrt();

        Ok(Row {
            rtt_ratio: r,
            predicted_ratio: predicted[0] / predicted[1],
            fluid_ratio: fluid[0] / fluid[1],
            packet_ratio,
            packet_ratio_ci95,
            pure_delay_fluid_ratio: pure[0] / pure[1],
            replications: REPLICATIONS,
        })
    })
    .expect("fig6 sweep");

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                fmt(row.rtt_ratio, 1),
                fmt(row.predicted_ratio, 2),
                fmt(row.fluid_ratio, 2),
                format!(
                    "{} ± {}",
                    fmt(row.packet_ratio, 2),
                    fmt(row.packet_ratio_ci95, 2)
                ),
                fmt(row.pure_delay_fluid_ratio, 3),
            ]
        })
        .collect();
    print_table(
        "Figure 6 — throughput ratio (short/long) vs RTT ratio",
        &[
            "RTT ratio",
            "theory (∝1/τ)",
            "fluid (RTT-scaled)",
            "packets (95% CI)",
            "pure-delay (contrast)",
        ],
        &table,
    );
    println!("\nClaim (§7): sources with different feedback delays may get unequal");
    println!("throughput; the longer connection loses. The RTT-scaled columns");
    println!("grow with the RTT ratio, while the pure-observation-delay contrast");
    println!("column stays ≈1 — quantifying *which* mechanism causes Jacobson's");
    println!("unfairness. Packet ratios are ensemble means over {REPLICATIONS} seeds.");
    assert!(rows.last().unwrap().packet_ratio > 1.5);
    write_json(name, &rows);
}
