//! Finite-flow workloads: open-loop arrivals, flow-completion time and
//! slowdown — the "mice" riding the bottleneck the paper's adaptive
//! "elephants" control.
//!
//! Part 1 — one flow on an idle deterministic bottleneck: the measured
//! FCT is exactly the pipeline time `d + size/μ`, the analytic pin the
//! test tier (`tests/ideal_fct.rs`) enforces to 1e-9.
//! Part 2 — single-packet flows + Poisson arrivals + deterministic
//! service = M/D/1: mean FCT tracks Pollaczek–Khinchine as the load ρ
//! rises.
//! Part 3 — a heavy-tailed workload (bounded-Pareto sizes, Zipf route
//! popularity) shares a 2-hop tandem with one adaptive AIMD source:
//! the workload reports FCT/slowdown percentiles while the window flow
//! keeps its throughput books.
//!
//! Run with: `cargo run --release --example finite_flows`

use fpk_repro::congestion::WindowAimd;
use fpk_repro::sim::{
    run_network_workload, ArrivalProcess, FlowSizeDist, FlowSpec, Link, NetConfig, QdiscKind,
    Route, Service, SourceSpec, Topology, Workload,
};

fn net(topology: Topology, t_end: f64, warmup: f64, seed: u64) -> NetConfig {
    NetConfig {
        topology,
        faults: Vec::new(),
        t_end,
        warmup,
        sample_interval: 0.1,
        seed,
        qdisc: QdiscKind::Fifo,
        packet_bytes: None,
    }
}

fn main() {
    // ------------------------------------------------------------------
    // Part 1: the idle-network pin.
    // ------------------------------------------------------------------
    println!("=== one flow, idle deterministic bottleneck ===");
    let (mu, size, d) = (50.0, 8u64, 0.02);
    let w = Workload::new(
        ArrivalProcess::Poisson { rate: 5.0 },
        FlowSizeDist::Deterministic { packets: size },
        vec![Route::single(0)],
    )
    .with_prop_delay(d)
    .with_max_flows(1);
    let cfg = net(
        Topology::single(mu, Service::Deterministic, None),
        20.0,
        0.0,
        7,
    );
    let out = run_network_workload(&cfg, &[], &w).unwrap();
    let s = out.workload.unwrap();
    println!(
        "measured FCT {:.6} s, ideal d + S/mu = {:.6} s, slowdown {:.9}",
        s.fct.mean,
        d + size as f64 / mu,
        s.slowdown.mean
    );

    // ------------------------------------------------------------------
    // Part 2: M/D/1 — mean FCT vs Pollaczek–Khinchine.
    // ------------------------------------------------------------------
    println!("\n=== M/D/1: single-packet flows vs P-K ===");
    println!(
        "{:>5} {:>12} {:>12} {:>8}",
        "rho", "measured", "P-K", "flows"
    );
    let mu = 200.0;
    for rho in [0.2, 0.4, 0.6, 0.8] {
        let w = Workload::new(
            ArrivalProcess::Poisson { rate: rho * mu },
            FlowSizeDist::Deterministic { packets: 1 },
            vec![Route::single(0)],
        )
        .with_prop_delay(0.01);
        let cfg = net(
            Topology::single(mu, Service::Deterministic, None),
            200.0,
            20.0,
            1,
        );
        let s = run_network_workload(&cfg, &[], &w)
            .unwrap()
            .workload
            .unwrap();
        let pk = 0.01 + 1.0 / mu + rho / (2.0 * mu * (1.0 - rho));
        println!(
            "{rho:>5.1} {:>12.6} {pk:>12.6} {:>8}",
            s.fct.mean, s.arrived
        );
    }

    // ------------------------------------------------------------------
    // Part 3: heavy-tailed mice under an adaptive elephant.
    // ------------------------------------------------------------------
    println!("\n=== bounded-Pareto mice + one AIMD elephant, 2-hop tandem ===");
    let topology = Topology::uniform(
        2,
        Link {
            mu: 120.0,
            service: Service::Exponential,
            buffer: Some(40),
        },
    );
    let mice = Workload::new(
        ArrivalProcess::Poisson { rate: 8.0 },
        FlowSizeDist::BoundedPareto {
            min: 1.0,
            max: 100.0,
            alpha: 1.3,
        },
        vec![Route::full(2), Route::single(0), Route::single(1)],
    )
    .with_zipf(1.0)
    .with_prop_delay(0.005);
    let elephant = FlowSpec {
        source: SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, 0.05, 20.0),
            w0: 2.0,
        },
        route: Route::full(2),
    };
    let cfg = net(topology, 120.0, 20.0, 3);
    let out = run_network_workload(&cfg, &[elephant], &mice).unwrap();
    let s = out.workload.unwrap();
    println!(
        "mice: {} arrived, {} clean; FCT p50 {:.4} s, p99 {:.4} s; slowdown p99 {:.2}",
        s.arrived, s.completed_clean, s.fct.p50, s.fct.p99, s.slowdown.p99
    );
    println!(
        "elephant: {} delivered, throughput {:.2} pkt/s (adapts around the mice)",
        out.flows[0].delivered, out.flows[0].throughput
    );
}
