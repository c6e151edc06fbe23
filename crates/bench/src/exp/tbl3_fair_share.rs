//! Table 3 (§6, E6a): N identical JRJ sources share the bottleneck
//! equally — fluid model and packet simulator, Jain index per N.

use crate::{fmt, print_table, write_json};
use fpk_congestion::fairness::jain_index;
use fpk_congestion::LinearExp;
use fpk_fluid::{mean_rates_tail, simulate, FluidParams};
use fpk_sim::{run_network, FaultConfig, FlowSpec, NetConfig, Service, SimConfig, SourceSpec};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    n_sources: usize,
    fluid_jain: f64,
    fluid_total: f64,
    packet_jain: f64,
    packet_utilization: f64,
    seed: u64,
}

/// Runs the experiment: prints its tables and writes `results/<name>.json`.
pub fn run(name: &str) {
    let mu = 10.0;
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for n in [2usize, 3, 4, 6, 8] {
        // Fluid run from deliberately unequal starts.
        let laws = vec![LinearExp::new(1.0, 0.5, 10.0); n];
        let traj = simulate(
            &laws,
            &FluidParams {
                mu,
                q0: 0.0,
                lambda0: (0..n).map(|i| i as f64 * 0.7).collect(),
                t_end: 600.0,
                dt: 2e-3,
            },
        )
        .expect("fluid");
        let fluid_shares = mean_rates_tail(&traj, 0.25).expect("tail fraction");
        let fluid_jain = jain_index(&fluid_shares).expect("jain");
        let fluid_total: f64 = fluid_shares.iter().sum();

        // Packet run (packet units, matched probe slope per source).
        let seed = 1000 + n as u64;
        let src = FlowSpec::single_hop(SourceSpec::Rate {
            law: LinearExp::new(4.0, 0.5, 12.0),
            lambda0: 5.0,
            update_interval: 0.1,
            prop_delay: 0.01,
            poisson: true,
        });
        let out = run_network(
            &NetConfig::single_link(
                &SimConfig {
                    mu: 100.0,
                    service: Service::Exponential,
                    buffer: None,
                    t_end: 400.0,
                    warmup: 100.0,
                    sample_interval: 0.1,
                    seed,
                },
                FaultConfig::default(),
            ),
            &vec![src; n],
        )
        .expect("packets");
        let tputs: Vec<f64> = out.flows.iter().map(|f| f.throughput).collect();
        let packet_jain = jain_index(&tputs).expect("jain");
        let packet_utilization = out.total_throughput / out.capacity;

        table.push(vec![
            n.to_string(),
            fmt(fluid_jain, 5),
            fmt(fluid_total, 2),
            fmt(packet_jain, 4),
            fmt(packet_utilization, 3),
        ]);
        rows.push(Row {
            n_sources: n,
            fluid_jain,
            fluid_total,
            packet_jain,
            packet_utilization,
            seed,
        });
    }
    print_table(
        "Table 3 — equal-parameter fairness (Jain index; 1 = perfectly fair)",
        &["N", "fluid Jain", "fluid Σλ", "packet Jain", "packet util"],
        &table,
    );
    println!("\nClaim (§6): all sources sharing a resource get an equal share if");
    println!("they use the same parameters. Fluid Jain ≈ 1 to 5 decimals; the");
    println!("packet index is statistically 1 (finite-sample noise only).");
    assert!(rows.iter().all(|r| r.fluid_jain > 0.999));
    assert!(rows.iter().all(|r| r.packet_jain > 0.97));
    write_json(name, &rows);
}
