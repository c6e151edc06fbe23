//! Figure 1: queue-length trajectory as a function of time.
//!
//! The paper's Figure 1 is the motivating sketch of a random queue sample
//! path under adaptive control. We regenerate it three ways at matched
//! parameters — fluid (deterministic), Langevin (Eq. 14's sample paths)
//! and packet-level — and print a decimated series for each.

use crate::{fmt, print_table, write_json};
use fpk_congestion::LinearExp;
use fpk_core::montecarlo::{simulate_ensemble_delayed, McConfig};
use fpk_fluid::{simulate, FluidParams};
use fpk_sim::{run_network, FaultConfig, FlowSpec, NetConfig, Service, SimConfig, SourceSpec};
use serde::Serialize;

#[derive(Serialize)]
struct Fig1 {
    t: Vec<f64>,
    fluid_q: Vec<f64>,
    langevin_q: Vec<f64>,
    packet_q: Vec<f64>,
    seed: u64,
}

/// Runs the experiment: prints its tables and writes `results/<name>.json`.
pub fn run(name: &str) {
    let mu = 5.0;
    let law = LinearExp::new(1.0, 0.5, 10.0);
    let t_end = 60.0;
    let seed = 20260612;

    // Fluid path.
    let fluid = simulate(
        &[law],
        &FluidParams {
            mu,
            q0: 0.0,
            lambda0: vec![1.0],
            t_end,
            dt: 1e-3,
        },
    )
    .expect("fluid");

    // The table's 0.5 s grid.
    let grid: Vec<f64> = (0..=120).map(|k| k as f64 * 0.5).collect();

    // Langevin path: one particle from a point mass. τ = dt gives one
    // lag slot, so the control reads q one step old, not the current q
    // of the no-delay SDE; moving fig1 to τ = 0 is left to the packet
    // vs diffusion comparison (ROADMAP item 3).
    let langevin = simulate_ensemble_delayed(
        &law,
        &McConfig {
            mu,
            sigma2: 0.4,
            n_particles: 1,
            dt: 1e-3,
            seed,
            threads: 1,
            init_mean: (0.0, -4.0),
            init_std: (0.0, 0.0),
        },
        1e-3,
        &grid,
    )
    .expect("langevin");

    // Packet path (packet units: scale rates ×10).
    let packet = run_network(
        &NetConfig::single_link(
            &SimConfig {
                mu: 50.0,
                service: Service::Exponential,
                buffer: None,
                t_end,
                warmup: 0.0,
                sample_interval: 0.05,
                seed,
            },
            FaultConfig::default(),
        ),
        &[FlowSpec::single_hop(SourceSpec::Rate {
            law: LinearExp::new(8.0, 0.5, 10.0),
            lambda0: 5.0,
            update_interval: 0.1,
            prop_delay: 0.01,
            poisson: true,
        })],
    )
    .expect("packets");

    // Decimate the fluid and packet paths onto the grid.
    let sample = |ts: &[f64], qs: &[f64]| -> Vec<f64> {
        grid.iter()
            .map(|&t| {
                let idx = ts.partition_point(|&x| x < t).min(ts.len() - 1);
                qs[idx]
            })
            .collect()
    };
    let fluid_q = sample(&fluid.t, &fluid.q);
    let langevin_q: Vec<f64> = langevin.iter().map(|s| s.q[0]).collect();
    let packet_q = sample(&packet.trace_t, &packet.trace_q[0]);

    let rows: Vec<Vec<String>> = grid
        .iter()
        .enumerate()
        .step_by(8)
        .map(|(k, &t)| {
            vec![
                fmt(t, 1),
                fmt(fluid_q[k], 2),
                fmt(langevin_q[k], 2),
                fmt(packet_q[k], 1),
            ]
        })
        .collect();
    print_table(
        "Figure 1 — queue length Q(t) under the JRJ controller",
        &["t", "fluid", "langevin (sigma²=0.4)", "packets"],
        &rows,
    );
    println!("\nShape check: all three rise from empty, overshoot q̂ = 10, and");
    println!("ring down toward it — the convergent spiral seen from the q-axis.");

    write_json(
        name,
        &Fig1 {
            t: grid,
            fluid_q,
            langevin_q,
            packet_q,
            seed,
        },
    );
}
