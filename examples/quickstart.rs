//! Quickstart: the three views of one adaptively controlled queue.
//!
//! A single JRJ source (linear increase C0, exponential decrease C1,
//! target q̂) feeds a bottleneck of rate μ. We look at the same system
//! through the three lenses this library provides:
//!
//! 1. the **fluid** model (deterministic ODEs — the Bolot–Shankar
//!    baseline),
//! 2. the **Fokker–Planck** joint density (the paper's contribution),
//! 3. the **discrete-event** packet simulator.
//!
//! Run with: `cargo run --release --example quickstart`

use fpk_repro::congestion::theory::ReturnMap;
use fpk_repro::congestion::LinearExp;
use fpk_repro::fluid::{simulate, FluidParams};
use fpk_repro::fpk::solver::{FpProblem, FpSolver};
use fpk_repro::fpk::Density;
use fpk_repro::sim::{
    run_network, FaultConfig, FlowSpec, NetConfig, Service, SimConfig, SourceSpec,
};

fn main() {
    let mu = 5.0;
    let law = LinearExp::new(1.0, 0.5, 10.0);
    println!("JRJ law: {law:?}, service rate mu = {mu}");
    println!();

    // ------------------------------------------------------------------
    // 1. Fluid view: the convergent spiral of Theorem 1.
    // ------------------------------------------------------------------
    let params = FluidParams {
        mu,
        q0: 2.0,
        lambda0: vec![1.0],
        t_end: 120.0,
        dt: 1e-3,
    };
    let traj = simulate(&[law], &params).expect("fluid integration");
    let (qf, lf) = traj.final_state();
    let lf = lf[0];
    println!(
        "[fluid] after t = {}: Q = {qf:.3} (target {}), lambda = {lf:.3} (mu = {mu})",
        params.t_end, law.q_hat
    );

    let map = ReturnMap::new(law, mu).expect("valid return map");
    let contraction = map.contraction(1.0).expect("cycle");
    println!("[fluid] per-revolution contraction factor at lambda = 1: {contraction:.4} (< 1 = Theorem 1)");
    println!();

    // ------------------------------------------------------------------
    // 2. Fokker–Planck view: the joint density drifts to (q̂, 0) and
    //    settles with a spread set by sigma².
    // ------------------------------------------------------------------
    let sigma2 = 0.4;
    let grid = Density::standard_grid(40.0, -6.0, 6.0, 80, 48).expect("grid");
    let init = Density::gaussian(grid, 2.0, -4.0, 1.0, 0.5).expect("initial density");
    let problem = FpProblem::new(law, mu, sigma2);
    let mut solver = FpSolver::new(problem, init).expect("solver");
    for t in [5.0, 20.0, 60.0] {
        solver.run_until(t).expect("step");
        let d = solver.density();
        println!(
            "[fokker-planck] t = {t:>4}: E[Q] = {:>6.2}  Var[Q] = {:>6.2}  E[nu] = {:>6.3}  mass = {:.6}",
            d.mean_q(),
            d.var_q(),
            d.mean_nu(),
            d.mass()
        );
    }
    println!();

    // ------------------------------------------------------------------
    // 3. Packet view: a Poisson source at per-packet granularity.
    // ------------------------------------------------------------------
    let cfg = SimConfig {
        mu: 50.0, // packets/s — scale the law to packet units
        service: Service::Exponential,
        buffer: None,
        t_end: 120.0,
        warmup: 20.0,
        sample_interval: 0.1,
        seed: 42,
    };
    let src = FlowSpec::single_hop(SourceSpec::Rate {
        law: LinearExp::new(8.0, 0.5, 10.0),
        lambda0: 10.0,
        update_interval: 0.1,
        prop_delay: 0.01,
        poisson: true,
    });
    let out = run_network(
        &NetConfig::single_link(&cfg, FaultConfig::default()),
        &[src],
    )
    .expect("simulation");
    println!(
        "[packets] mean queue = {:.2} pkts, utilisation = {:.1}%, delivered = {}",
        out.mean_queue[0],
        100.0 * out.total_throughput / out.capacity,
        out.flows[0].delivered
    );
    println!();
    println!("All three views agree on the story: the JRJ controller pins the");
    println!("queue near its target and the rate near capacity — Theorem 1 at work.");
}
