//! Fast smoke coverage of the two hot paths every future performance PR
//! will touch: the discrete-event simulator (`sim::run_network` on the
//! single link, one test per [`SourceSpec`] variant) and the
//! Fokker–Planck stepper (`FpSolver::run_until` mass conservation and
//! positivity).
//!
//! Every test here runs a deliberately short horizon so the whole file
//! finishes in a few seconds even unoptimised; the long-horizon
//! cross-model statistics live in `tests/cross_model_agreement.rs`
//! (slowest ones behind `cargo test -- --ignored`, see `README.md`).

use fpk_repro::congestion::decbit::DecbitPolicy;
use fpk_repro::congestion::{LinearExp, WindowAimd};
use fpk_repro::fpk::{Density, FpProblem, FpSolver};
use fpk_repro::numerics::Result;
use fpk_repro::sim::{
    run_network, FaultConfig, FlowSpec, Link, NetConfig, NetResult, QdiscKind, Route, Service,
    SimConfig, SourceSpec, Topology,
};

fn short_config(seed: u64) -> SimConfig {
    SimConfig {
        mu: 50.0,
        service: Service::Exponential,
        buffer: None,
        t_end: 10.0,
        warmup: 2.0,
        sample_interval: 0.1,
        seed,
    }
}

/// `sources` as single-hop flows on the link `cfg` describes, with
/// `fault` injected there.
fn run_faulty(cfg: &SimConfig, sources: &[SourceSpec], fault: FaultConfig) -> Result<NetResult> {
    let flows: Vec<FlowSpec> = sources.iter().cloned().map(FlowSpec::single_hop).collect();
    run_network(&NetConfig::single_link(cfg, fault), &flows)
}

/// [`run_faulty`] without faults.
fn run(cfg: &SimConfig, sources: &[SourceSpec]) -> Result<NetResult> {
    run_faulty(cfg, sources, FaultConfig::default())
}

/// Bottleneck utilisation of a single-link run: throughput over μ.
fn utilization(out: &NetResult) -> f64 {
    out.total_throughput / out.capacity
}

fn check_result(out: &NetResult, n_flows: usize, what: &str) {
    assert_eq!(out.flows.len(), n_flows, "{what}: flow count");
    assert!(out.total_throughput > 0.0, "{what}: no packets delivered");
    assert!(out.mean_queue[0] >= 0.0, "{what}: negative mean queue");
    assert!(
        (0.0..=1.5).contains(&utilization(out)),
        "{what}: utilization {} out of range",
        utilization(out)
    );
    assert!(!out.trace_q.is_empty(), "{what}: empty trace");
    assert!(
        out.trace_q.col(0).all(|q| q >= 0.0),
        "{what}: negative queue sample"
    );
}

#[test]
fn des_rate_source_smoke() {
    let out = run(
        &short_config(1),
        &[SourceSpec::Rate {
            law: LinearExp::new(8.0, 0.5, 10.0),
            lambda0: 20.0,
            update_interval: 0.1,
            prop_delay: 0.01,
            poisson: true,
        }],
    )
    .expect("rate run");
    check_result(&out, 1, "rate source");
    // The adaptive source must actually move its rate off λ0.
    let ctl = out.trace_ctl.data();
    assert!(
        ctl.iter().any(|&l| (l - 20.0).abs() > 1e-6),
        "rate never adapted"
    );
}

#[test]
fn des_rate_source_deterministic_gaps_smoke() {
    // Same variant, the `poisson: false` arm plus deterministic service.
    let mut cfg = short_config(2);
    cfg.service = Service::Deterministic;
    let out = run(
        &cfg,
        &[SourceSpec::Rate {
            law: LinearExp::new(8.0, 0.5, 10.0),
            lambda0: 20.0,
            update_interval: 0.1,
            prop_delay: 0.01,
            poisson: false,
        }],
    )
    .expect("deterministic rate run");
    check_result(&out, 1, "deterministic rate source");
}

#[test]
fn des_window_source_smoke() {
    let out = run(
        &short_config(3),
        &[SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, 0.05, 10.0),
            w0: 2.0,
        }],
    )
    .expect("window run");
    check_result(&out, 1, "window source");
    // Windows stay positive and the slow-start from w0 = 2 grows.
    let peak = out.trace_ctl.col(0).fold(f64::MIN, f64::max);
    assert!(peak > 2.0, "window never grew past w0 (peak {peak})");
}

#[test]
fn des_onoff_source_smoke() {
    let out = run(
        &short_config(4),
        &[SourceSpec::OnOff {
            peak_rate: 60.0,
            mean_on: 0.5,
            mean_off: 0.5,
            prop_delay: 0.01,
        }],
    )
    .expect("on-off run");
    check_result(&out, 1, "on-off source");
    // Mean rate ≈ peak/2 = 30 ≤ μ = 50: delivered load must be well
    // below capacity but clearly nonzero.
    assert!(utilization(&out) < 1.0, "on-off overloaded the bottleneck");
}

#[test]
fn des_decbit_source_smoke() {
    let out = run(
        &short_config(5),
        &[SourceSpec::Decbit {
            policy: DecbitPolicy::raja88(),
            rtt: 0.05,
            w0: 2.0,
            q_hat: 1.0,
        }],
    )
    .expect("decbit run");
    check_result(&out, 1, "DECbit source");
}

#[test]
fn des_mixed_sources_smoke() {
    // All four variants sharing one bottleneck in a single short run.
    let out = run(
        &short_config(6),
        &[
            SourceSpec::Rate {
                law: LinearExp::new(4.0, 0.5, 12.0),
                lambda0: 5.0,
                update_interval: 0.1,
                prop_delay: 0.01,
                poisson: true,
            },
            SourceSpec::Window {
                aimd: WindowAimd::new(1.0, 0.5, 0.05, 10.0),
                w0: 2.0,
            },
            SourceSpec::OnOff {
                peak_rate: 20.0,
                mean_on: 0.3,
                mean_off: 0.7,
                prop_delay: 0.01,
            },
            SourceSpec::Decbit {
                policy: DecbitPolicy::raja88(),
                rtt: 0.05,
                w0: 2.0,
                q_hat: 1.0,
            },
        ],
    )
    .expect("mixed run");
    check_result(&out, 4, "mixed sources");
    assert!(
        out.flows.iter().all(|f| f.throughput > 0.0),
        "every flow must deliver packets"
    );
}

/// Fault-injected variant of [`check_result`]: random link loss must be
/// visible in the drop counters while the flow still makes progress.
fn check_lossy_result(out: &NetResult, what: &str) {
    check_result(out, 1, what);
    assert!(
        out.flows[0].dropped > 0,
        "{what}: loss_prob > 0 must produce injected drops"
    );
    assert!(
        out.flows[0].delivered > 0,
        "{what}: flow must keep delivering under loss"
    );
}

#[test]
fn des_rate_source_with_loss_smoke() {
    // Rate flows simply lose the packet; the sent/dropped books must
    // reflect it and throughput stays positive.
    let out = run_faulty(
        &short_config(31),
        &[SourceSpec::Rate {
            law: LinearExp::new(8.0, 0.5, 10.0),
            lambda0: 20.0,
            update_interval: 0.1,
            prop_delay: 0.01,
            poisson: true,
        }],
        FaultConfig::Iid { loss_prob: 0.08 },
    )
    .expect("lossy rate run");
    check_lossy_result(&out, "lossy rate source");
    assert!(
        out.flows[0].sent > out.flows[0].delivered,
        "lost packets cannot be delivered"
    );
}

#[test]
fn des_window_source_with_loss_smoke() {
    // Window flows see drop-as-mark: every loss returns a marked ack, so
    // the flow stays ack-clocked and keeps making progress.
    let out = run_faulty(
        &short_config(32),
        &[SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, 0.05, 10.0),
            w0: 2.0,
        }],
        FaultConfig::Iid { loss_prob: 0.08 },
    )
    .expect("lossy window run");
    check_lossy_result(&out, "lossy window source");
    // The marked acks must actually cut the window now and then, yet the
    // window can never fall below 1 — the flow never stalls.
    let windows = out.trace_ctl.data();
    assert!(windows.iter().all(|&w| w >= 1.0), "window fell below 1");
    assert!(
        windows.iter().any(|&w| w > 2.0),
        "window never grew despite ack-clocking"
    );
}

#[test]
fn des_onoff_source_with_loss_smoke() {
    let out = run_faulty(
        &short_config(33),
        &[SourceSpec::OnOff {
            peak_rate: 60.0,
            mean_on: 0.5,
            mean_off: 0.5,
            prop_delay: 0.01,
        }],
        FaultConfig::Iid { loss_prob: 0.08 },
    )
    .expect("lossy on-off run");
    check_lossy_result(&out, "lossy on-off source");
}

#[test]
fn des_decbit_source_with_loss_smoke() {
    let out = run_faulty(
        &short_config(34),
        &[SourceSpec::Decbit {
            policy: DecbitPolicy::raja88(),
            rtt: 0.05,
            w0: 2.0,
            q_hat: 1.0,
        }],
        FaultConfig::Iid { loss_prob: 0.08 },
    )
    .expect("lossy decbit run");
    check_lossy_result(&out, "lossy DECbit source");
    let windows = out.trace_ctl.data();
    assert!(
        windows.iter().all(|&w| w >= 1.0),
        "DECbit window fell below 1 under drop-as-mark"
    );
}

#[test]
fn des_mixed_sources_with_loss_smoke() {
    // All four variants under the same lossy bottleneck: every flow must
    // record drops *and* keep delivering.
    let out = run_faulty(
        &short_config(35),
        &[
            SourceSpec::Rate {
                law: LinearExp::new(4.0, 0.5, 12.0),
                lambda0: 5.0,
                update_interval: 0.1,
                prop_delay: 0.01,
                poisson: true,
            },
            SourceSpec::Window {
                aimd: WindowAimd::new(1.0, 0.5, 0.05, 10.0),
                w0: 2.0,
            },
            SourceSpec::OnOff {
                peak_rate: 20.0,
                mean_on: 0.3,
                mean_off: 0.7,
                prop_delay: 0.01,
            },
            SourceSpec::Decbit {
                policy: DecbitPolicy::raja88(),
                rtt: 0.05,
                w0: 2.0,
                q_hat: 1.0,
            },
        ],
        FaultConfig::Iid { loss_prob: 0.08 },
    )
    .expect("lossy mixed run");
    check_result(&out, 4, "lossy mixed sources");
    for (i, f) in out.flows.iter().enumerate() {
        assert!(f.dropped > 0, "flow {i} saw no injected drops");
        assert!(f.delivered > 0, "flow {i} stalled under loss");
    }
}

#[test]
fn des_network_parking_lot_rate_sources_smoke() {
    // The scenario the pre-topology API could not express: rate-based
    // JRJ sources on a 3-hop parking lot with heterogeneous per-hop μ
    // and loss injected at one hop only. Short horizon — this is the
    // smoke twin of `examples/multihop_tandem.rs` part 4.
    let jrj = |route: Route| FlowSpec {
        source: SourceSpec::Rate {
            law: LinearExp::new(8.0, 0.5, 10.0),
            lambda0: 20.0,
            update_interval: 0.1,
            prop_delay: 0.01,
            poisson: true,
        },
        route,
    };
    // Infinite buffers so the *only* drop source is the injected loss
    // at hop 1 — that keeps the per-hop bookkeeping assertions sharp.
    let link = |mu: f64| Link {
        mu,
        service: Service::Exponential,
        buffer: None,
    };
    let net = NetConfig {
        topology: Topology {
            links: vec![link(90.0), link(60.0), link(120.0)],
        },
        faults: vec![
            FaultConfig::Iid { loss_prob: 0.0 },
            FaultConfig::Iid { loss_prob: 0.05 },
            FaultConfig::Iid { loss_prob: 0.0 },
        ],
        t_end: 15.0,
        warmup: 3.0,
        sample_interval: 0.1,
        seed: 41,
        qdisc: QdiscKind::Fifo,
        packet_bytes: None,
    };
    let flows = vec![
        jrj(Route::full(3)),
        jrj(Route::single(0)),
        jrj(Route::single(1)),
        jrj(Route::single(2)),
    ];
    let out = run_network(&net, &flows).expect("parking lot run");
    assert_eq!(out.flows.len(), 4);
    assert_eq!(out.trace_q.width(), 3, "one queue trace per hop");
    assert_eq!(out.mean_queue.len(), 3);
    assert!(
        out.flows.iter().all(|f| f.delivered > 0),
        "every flow must make progress"
    );
    assert_eq!(out.flows[0].hops, 3);
    // Loss lives only at hop 1: the hop-0 and hop-2 cross flows must
    // stay clean while the long flow and the hop-1 flow record drops.
    assert_eq!(out.flows[1].dropped, 0, "hop 0 is lossless");
    assert_eq!(out.flows[3].dropped, 0, "hop 2 is lossless");
    assert!(
        out.flows[0].dropped + out.flows[2].dropped > 0,
        "the lossy middle hop must be visible in the books"
    );
    assert!(out.utilization.iter().all(|&u| (0.0..=1.5).contains(&u)));
}

#[test]
fn fp_solver_conserves_mass_and_positivity() {
    let law = LinearExp::new(1.0, 0.5, 10.0);
    let grid = Density::standard_grid(30.0, -5.0, 5.0, 48, 32).expect("grid");
    let init = Density::gaussian(grid, 8.0, -1.0, 1.0, 0.5).expect("init");
    let mut solver = FpSolver::new(FpProblem::new(law, 5.0, 0.3), init).expect("solver");
    solver.run_until(0.5).expect("run");
    let d = solver.density();
    assert!(
        (d.mass() - 1.0).abs() < 1e-9,
        "mass drifted to {}",
        d.mass()
    );
    assert!(
        d.min_value() >= -1e-12,
        "negative density {}",
        d.min_value()
    );
    assert!(d.mean_q().is_finite() && d.mean_nu().is_finite());
}

#[test]
fn fp_solver_zero_noise_transport_stays_sane() {
    // σ² = 0: the hyperbolic limit exercises the pure advection path.
    let law = LinearExp::new(1.0, 0.5, 10.0);
    let grid = Density::standard_grid(30.0, -5.0, 5.0, 48, 32).expect("grid");
    let init = Density::gaussian(grid, 8.0, 1.0, 1.0, 0.5).expect("init");
    let mut solver = FpSolver::new(FpProblem::new(law, 5.0, 0.0), init).expect("solver");
    solver.run_until(0.3).expect("run");
    let d = solver.density();
    assert!((d.mass() - 1.0).abs() < 1e-9, "mass {}", d.mass());
    assert!(d.min_value() >= -1e-12, "negative density");
    // With ν0 = +1 the bulk must have moved to larger q.
    assert!(
        d.mean_q() > 8.0,
        "advection went the wrong way: {}",
        d.mean_q()
    );
}

#[test]
fn fp_solver_repeated_short_steps_match_single_run() {
    // run_until must compose: many short calls agree with one long call
    // up to the step-size truncation error (each call ends on a partial
    // CFL step, so agreement is first-order in dt, not exact), and mass
    // stays pinned either way.
    let law = LinearExp::new(1.0, 0.5, 10.0);
    let grid = Density::standard_grid(30.0, -5.0, 5.0, 40, 24).expect("grid");
    let init = Density::gaussian(grid, 8.0, -1.0, 1.0, 0.5).expect("init");

    let mut one = FpSolver::new(FpProblem::new(law, 5.0, 0.2), init.clone()).expect("solver");
    one.run_until(0.4).expect("run");

    let mut many = FpSolver::new(FpProblem::new(law, 5.0, 0.2), init).expect("solver");
    for k in 1..=8 {
        many.run_until(0.05 * k as f64).expect("run");
    }
    assert!(
        (one.density().mean_q() - many.density().mean_q()).abs() < 5e-3,
        "single {} vs composed {}",
        one.density().mean_q(),
        many.density().mean_q()
    );
    assert!((one.density().mass() - many.density().mass()).abs() < 1e-12);
}
