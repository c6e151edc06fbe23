//! Section 7: what feedback delay does to a stable controller.
//!
//! Sweeps the feedback delay τ for a single JRJ source and reports the
//! limit-cycle amplitude and period (fluid DDE), then demonstrates the
//! two unfairness regimes for heterogeneous delays:
//!
//! * pure observation delay (identical laws) — oscillation, ~fair;
//! * RTT-scaled window dynamics — strongly unfair, share ∝ 1/RTT
//!   (Jacobson's measurement, reproduced at packet level too).
//!
//! Run with: `cargo run --release --example delayed_feedback`

use fpk_repro::congestion::fairness::jain_index;
use fpk_repro::congestion::theory::sliding_share;
use fpk_repro::congestion::{LinearExp, WindowAimd};
use fpk_repro::fluid::delay::{
    cycle_summary, simulate_delayed, window_laws_for_delays, DelayParams,
};
use fpk_repro::fluid::mean_rates_tail;
use fpk_repro::sim::{
    run_network, FaultConfig, FlowSpec, NetConfig, Service, SimConfig, SourceSpec,
};

fn main() {
    let mu = 5.0;
    let law = LinearExp::new(1.0, 0.5, 10.0);

    println!("=== E7a: limit-cycle amplitude vs feedback delay (fluid DDE) ===");
    println!("  tau     amplitude   period   regime");
    for tau in [0.25, 0.5, 1.0, 2.0, 3.0, 4.0] {
        let params = DelayParams {
            mu,
            q0: 10.0,
            lambda0: vec![3.0],
            taus: vec![tau],
            t_end: 300.0,
            steps: 60_000,
        };
        let traj = simulate_delayed(&[law], &params).expect("DDE");
        let summary = cycle_summary(&traj, 0.3, 0.2).expect("analysis");
        match summary.oscillation {
            Some(o) => println!(
                "  {tau:>4.2}   {:>9.3}   {:>6.2}   {:?}",
                o.amplitude, o.period, summary.regime
            ),
            None => println!("  {tau:>4.2}   (settled)            {:?}", summary.regime),
        }
    }
    println!("  → any delay sustains oscillation; amplitude grows with tau.");
    println!();

    println!("=== E7b(i): pure observation delay, identical laws ===");
    let params = DelayParams {
        mu,
        q0: 10.0,
        lambda0: vec![2.5, 2.5],
        taus: vec![0.5, 2.0],
        t_end: 800.0,
        steps: 160_000,
    };
    let traj = simulate_delayed(&[law, law], &params).expect("DDE");
    let shares = mean_rates_tail(&traj, 0.5).expect("tail fraction");
    println!(
        "  delays (0.5, 2.0): shares = ({:.3}, {:.3}), Jain = {:.4}",
        shares[0],
        shares[1],
        jain_index(&shares).expect("jain")
    );
    println!("  → oscillating but nearly fair: a time-shifted signal alone");
    println!("    barely skews the time-averaged split.");
    println!();

    println!("=== E7b(ii): RTT-scaled dynamics (window sources per Eq. 1) ===");
    let taus = [1.0, 3.0];
    let laws = window_laws_for_delays(1.0, 0.5, &taus, 10.0);
    let predicted = sliding_share(&laws, mu).expect("theory");
    println!("  theory: share_i ∝ C0_i/C1_i ∝ 1/tau_i → predicted {predicted:?}");
    let params = DelayParams {
        mu,
        q0: 10.0,
        lambda0: vec![2.5, 2.5],
        taus: taus.to_vec(),
        t_end: 800.0,
        steps: 160_000,
    };
    let traj = simulate_delayed(&laws, &params).expect("DDE");
    let shares = mean_rates_tail(&traj, 0.5).expect("tail fraction");
    println!(
        "  fluid DDE measured: ({:.3}, {:.3}) — ratio {:.2} (predicted 3.0)",
        shares[0],
        shares[1],
        shares[0] / shares[1]
    );
    println!();

    println!("=== E7b(iii): the same at packet level (AIMD windows) ===");
    let cfg = SimConfig {
        mu: 200.0,
        service: Service::Exponential,
        buffer: None,
        t_end: 300.0,
        warmup: 60.0,
        sample_interval: 0.1,
        seed: 7,
    };
    let mk = |rtt: f64| {
        FlowSpec::single_hop(SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, rtt, 15.0),
            w0: 2.0,
        })
    };
    let out = run_network(
        &NetConfig::single_link(&cfg, FaultConfig::default()),
        &[mk(0.03), mk(0.12)],
    )
    .expect("simulation");
    println!(
        "  RTTs 30ms vs 120ms: throughputs ({:.1}, {:.1}) pkts/s — short RTT wins {:.1}x",
        out.flows[0].throughput,
        out.flows[1].throughput,
        out.flows[0].throughput / out.flows[1].throughput
    );
    println!("  → the longer connection loses, exactly as Jacobson measured.");
}
