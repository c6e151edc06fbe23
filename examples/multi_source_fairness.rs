//! Section 6: fairness of the JRJ algorithm across competing sources.
//!
//! * identical parameters → equal shares (Jain index → 1);
//! * heterogeneous parameters → shares ∝ C0_i/C1_i, matching the
//!   sliding-mode theory of `fpk_congestion::theory::sliding_share`
//!   in both the fluid model and the packet simulator.
//!
//! Run with: `cargo run --release --example multi_source_fairness`

use fpk_repro::congestion::fairness::{jain_index, share_prediction_error};
use fpk_repro::congestion::theory::sliding_share;
use fpk_repro::congestion::LinearExp;
use fpk_repro::fluid::{simulate, FluidParams};
use fpk_repro::sim::{
    run_network, FaultConfig, FlowSpec, NetConfig, Service, SimConfig, SourceSpec,
};

fn main() {
    let mu = 10.0;

    println!("=== E6a: four identical JRJ sources (fluid) ===");
    let laws = vec![LinearExp::new(1.0, 0.5, 10.0); 4];
    let params = FluidParams {
        mu,
        q0: 0.0,
        lambda0: vec![0.0, 1.0, 2.0, 3.0], // deliberately unequal start
        t_end: 600.0,
        dt: 2e-3,
    };
    let traj = simulate(&laws, &params).expect("fluid");
    let shares = traj.mean_rates_tail(0.25);
    println!("  start rates (0, 1, 2, 3) → tail shares {shares:?}");
    println!(
        "  Jain index = {:.5} (1 = perfectly fair)",
        jain_index(&shares).expect("jain")
    );
    println!();

    println!("=== E6b: heterogeneous parameters (fluid vs theory) ===");
    let laws = vec![
        LinearExp::new(1.0, 0.5, 10.0), // C0/C1 = 2
        LinearExp::new(2.0, 0.5, 10.0), // C0/C1 = 4
        LinearExp::new(0.5, 0.5, 10.0), // C0/C1 = 1
    ];
    let predicted = sliding_share(&laws, mu).expect("theory");
    let params = FluidParams {
        mu,
        q0: 0.0,
        lambda0: vec![1.0; 3],
        t_end: 600.0,
        dt: 2e-3,
    };
    let traj = simulate(&laws, &params).expect("fluid");
    let measured = traj.mean_rates_tail(0.25);
    println!("  C0/C1 ratios (2, 4, 1):");
    println!("    theory   shares = {predicted:?}");
    println!("    measured shares = {measured:?}");
    println!(
        "    max normalised gap = {:.4}",
        share_prediction_error(&measured, &predicted).expect("gap")
    );
    println!();

    println!("=== The same at packet level (Poisson sources, M-like service) ===");
    let cfg = SimConfig {
        mu: 100.0,
        service: Service::Exponential,
        buffer: None,
        t_end: 400.0,
        warmup: 100.0,
        sample_interval: 0.1,
        seed: 11,
    };
    let mk = |c0: f64| {
        FlowSpec::single_hop(SourceSpec::Rate {
            law: LinearExp::new(c0, 0.5, 12.0),
            lambda0: 10.0,
            update_interval: 0.1,
            prop_delay: 0.01,
            poisson: true,
        })
    };
    // Packet-level heterogeneity: C0 of 4 vs 8 (C0/C1 ratios 8 vs 16 → 1:2).
    let out = run_network(
        &NetConfig::single_link(&cfg, FaultConfig::default()),
        &[mk(4.0), mk(8.0)],
    )
    .expect("simulation");
    let rate_laws = [
        LinearExp::new(4.0, 0.5, 12.0),
        LinearExp::new(8.0, 0.5, 12.0),
    ];
    let predicted = sliding_share(&rate_laws, out.total_throughput).expect("theory");
    println!(
        "  measured throughputs = ({:.2}, {:.2}) pkts/s",
        out.flows[0].throughput, out.flows[1].throughput
    );
    println!(
        "  theory (shares ∝ C0/C1, scaled to delivered) = ({:.2}, {:.2})",
        predicted[0], predicted[1]
    );
    println!(
        "  ratio measured {:.2} vs predicted {:.2}",
        out.flows[1].throughput / out.flows[0].throughput,
        predicted[1] / predicted[0]
    );
}
