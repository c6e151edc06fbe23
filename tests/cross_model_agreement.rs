//! Cross-crate integration: the four views of the controlled queue —
//! analytic theory, fluid ODEs, Fokker–Planck PDE, Langevin Monte Carlo
//! and the packet simulator — must tell one consistent story.

use fpk_repro::congestion::theory::{sliding_share, ReturnMap};
use fpk_repro::congestion::LinearExp;
use fpk_repro::fluid::phase::section_crossings;
use fpk_repro::fluid::{final_state, mean_rates_tail, simulate, FluidParams};
use fpk_repro::fpk::montecarlo::{simulate_ensemble, McConfig};
use fpk_repro::fpk::solver::{FpProblem, FpSolver};
use fpk_repro::fpk::Density;
use fpk_repro::numerics::stats::ks_sample_vs_density;
use fpk_repro::numerics::Result;
use fpk_repro::sim::{
    run_network, FaultConfig, FlowSpec, NetConfig, NetResult, Service, SimConfig, SourceSpec,
};

/// `sources` as single-hop flows on the fault-free link `cfg` describes.
fn run_single_link(cfg: &SimConfig, sources: &[SourceSpec]) -> Result<NetResult> {
    let flows: Vec<FlowSpec> = sources.iter().cloned().map(FlowSpec::single_hop).collect();
    run_network(&NetConfig::single_link(cfg, FaultConfig::default()), &flows)
}

fn law() -> LinearExp {
    LinearExp::new(1.0, 0.5, 10.0)
}

#[test]
fn analytic_return_map_matches_integrated_fluid() {
    let mu = 5.0;
    let map = ReturnMap::new(law(), mu).unwrap();
    let analytic = map.iterate(1.5, 5).unwrap();
    let traj = simulate(
        &[law()],
        &FluidParams {
            mu,
            q0: 10.0,
            lambda0: vec![1.5],
            t_end: 80.0,
            dt: 2e-4,
        },
    )
    .unwrap();
    let mut numeric = vec![1.5];
    numeric.extend(
        section_crossings(&traj, 10.0)
            .into_iter()
            .filter(|c| !c.upward)
            .map(|c| c.lambda),
    );
    for (k, (a, n)) in analytic.iter().zip(numeric.iter()).enumerate() {
        assert!(
            (a - n).abs() < 5e-3,
            "revolution {k}: analytic {a} vs numeric {n}"
        );
    }
}

#[test]
fn fp_mean_tracks_fluid_before_switching() {
    // While the density bulk stays on one side of q̂ the PDE mean follows
    // the deterministic characteristic.
    let mu = 5.0;
    let t_end = 2.0;
    let grid = Density::standard_grid(30.0, -5.0, 6.0, 120, 88).unwrap();
    let init = Density::gaussian(grid, 6.0, -2.0, 0.6, 0.3).unwrap();
    let mut solver = FpSolver::new(FpProblem::new(law(), mu, 1e-3), init).unwrap();
    solver.run_until(t_end).unwrap();

    let fluid = simulate(
        &[law()],
        &FluidParams {
            mu,
            q0: 6.0,
            lambda0: vec![3.0], // ν = −2
            t_end,
            dt: 1e-4,
        },
    )
    .unwrap();
    let (qf, lam) = final_state(&fluid);
    let lf = lam[0];
    assert!(
        (solver.density().mean_q() - qf).abs() < 0.4,
        "FP mean q {} vs fluid {qf}",
        solver.density().mean_q()
    );
    assert!(
        (solver.density().mean_nu() - (lf - mu)).abs() < 0.3,
        "FP mean nu {} vs fluid {}",
        solver.density().mean_nu(),
        lf - mu
    );
}

#[test]
fn fp_marginal_matches_monte_carlo_transient() {
    let mu = 5.0;
    let sigma2 = 0.4;
    let grid = Density::standard_grid(40.0, -6.0, 6.0, 160, 96).unwrap();
    let init = Density::gaussian(grid, 3.0, -3.0, 1.2, 0.6).unwrap();
    let mut solver = FpSolver::new(FpProblem::new(law(), mu, sigma2), init).unwrap();
    solver.run_until(3.0).unwrap();
    let mc = simulate_ensemble(
        &law(),
        &McConfig {
            mu,
            sigma2,
            n_particles: 40_000,
            dt: 2e-3,
            seed: 9,
            threads: 4,
            init_mean: (3.0, -3.0),
            init_std: (1.2, 0.6),
        },
        &[3.0],
    )
    .unwrap();
    let d = solver.density();
    let ks = ks_sample_vs_density(&mc[0].q, &d.grid.x.centers(), &d.marginal_q()).unwrap();
    // At t = 3 the bulk is parked against the q = 0 wall; agreement there
    // is limited by the PDE's first-order scheme smearing q at this
    // (test-sized) grid: refining q shrinks the gap, while refining ν or
    // switching the limiter barely moves it. KS ≈ 0.11 at 160×96; assert
    // a safety band above that.
    assert!(ks < 0.15, "transient KS distance {ks}");
    assert!((d.mean_q() - mc[0].mean_q()).abs() < 0.5);
}

#[test]
fn sliding_share_theory_verified_by_fluid_and_packets() {
    let laws = [
        LinearExp::new(1.0, 0.5, 10.0),
        LinearExp::new(3.0, 0.5, 10.0),
    ];
    let mu = 10.0;
    let predicted = sliding_share(&laws, mu).unwrap();

    // Fluid.
    let traj = simulate(
        &laws,
        &FluidParams {
            mu,
            q0: 0.0,
            lambda0: vec![1.0, 1.0],
            t_end: 500.0,
            dt: 2e-3,
        },
    )
    .unwrap();
    let fluid = mean_rates_tail(&traj, 0.25).unwrap();
    for (f, p) in fluid.iter().zip(predicted.iter()) {
        assert!(
            (f - p).abs() / p < 0.05,
            "fluid {fluid:?} vs theory {predicted:?}"
        );
    }

    // Packets (scaled to packet units).
    let pkt_laws = [
        LinearExp::new(4.0, 0.5, 12.0),
        LinearExp::new(12.0, 0.5, 12.0),
    ];
    let sources: Vec<SourceSpec> = pkt_laws
        .iter()
        .map(|l| SourceSpec::Rate {
            law: *l,
            lambda0: 5.0,
            update_interval: 0.1,
            prop_delay: 0.01,
            poisson: true,
        })
        .collect();
    let out = run_single_link(
        &SimConfig {
            mu: 100.0,
            service: Service::Exponential,
            buffer: None,
            t_end: 300.0,
            warmup: 80.0,
            sample_interval: 0.1,
            seed: 5,
        },
        &sources,
    )
    .unwrap();
    let ratio = out.flows[1].throughput / out.flows[0].throughput;
    assert!(
        (ratio - 3.0).abs() < 0.5,
        "packet share ratio {ratio} should be ≈ 3 (C0 ratio)"
    );
}

#[test]
fn packet_queue_hovers_near_fluid_equilibrium() {
    // The DES mean queue should sit in the neighbourhood of the fluid
    // limit point q̂ when a single matched JRJ source runs long enough.
    let out = run_single_link(
        &SimConfig {
            mu: 100.0,
            service: Service::Deterministic,
            buffer: None,
            t_end: 300.0,
            warmup: 100.0,
            sample_interval: 0.1,
            seed: 13,
        },
        &[SourceSpec::Rate {
            law: LinearExp::new(16.0, 0.5, 10.0),
            lambda0: 50.0,
            update_interval: 0.05,
            prop_delay: 0.005,
            poisson: true,
        }],
    )
    .unwrap();
    assert!(
        out.mean_queue[0] > 3.0 && out.mean_queue[0] < 20.0,
        "mean queue {} should bracket q̂ = 10",
        out.mean_queue[0]
    );
    let utilization = out.total_throughput / out.capacity;
    assert!(utilization > 0.85, "utilization {utilization}");
}

#[test]
fn window_map_sawtooth_matches_packet_simulator() {
    // The closed-form Eq. 1 sawtooth should predict the DES window
    // dynamics of a single AIMD flow: compare mean window and peak.
    use fpk_repro::congestion::window_map::sawtooth;
    use fpk_repro::congestion::WindowAimd;

    let aimd = WindowAimd::new(1.0, 0.5, 0.05, 10.0);
    // Effective knee for the DES: pipe (μ·RTT) + marking threshold.
    let mu_pkts = 200.0;
    let knee = mu_pkts * aimd.rtt + aimd.q_hat;
    let st = sawtooth(&aimd, knee).unwrap();

    let out = run_single_link(
        &SimConfig {
            mu: mu_pkts,
            service: Service::Deterministic,
            buffer: None,
            t_end: 200.0,
            warmup: 50.0,
            sample_interval: 0.05,
            seed: 6,
        },
        &[SourceSpec::Window { aimd, w0: 2.0 }],
    )
    .unwrap();
    let ctl = out.trace_ctl.data();
    let tail = &ctl[ctl.len() / 2..];
    let mean_w = tail.iter().sum::<f64>() / tail.len() as f64;
    let peak_w = tail.iter().cloned().fold(f64::MIN, f64::max);
    // Map-level prediction vs packet measurement: same scale (within
    // ~35% — the DES adds queueing delay to the RTT, stretching cycles).
    assert!(
        (mean_w - st.mean_window).abs() / st.mean_window < 0.35,
        "mean window: DES {mean_w} vs map {}",
        st.mean_window
    );
    assert!(
        (peak_w - st.w_peak).abs() / st.w_peak < 0.45,
        "peak window: DES {peak_w} vs map {}",
        st.w_peak
    );
}

#[test]
fn event_tracer_validates_fixed_step_integrator() {
    use fpk_repro::fluid::events::trace_events;
    let law = law();
    let trace = trace_events(&law, 5.0, 2.0, 1.0, 30.0).unwrap();
    let rk4 = simulate(
        &[law],
        &FluidParams {
            mu: 5.0,
            q0: 2.0,
            lambda0: vec![1.0],
            t_end: 30.0,
            dt: 1e-4,
        },
    )
    .unwrap();
    let (qf, lam) = final_state(&rk4);
    let lf = lam[0];
    assert!((trace.final_state.0 - qf).abs() < 1e-2);
    assert!((trace.final_state.1 - lf).abs() < 1e-2);
}
