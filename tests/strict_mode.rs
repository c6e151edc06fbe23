//! `FPK_CHECK=1` strict invariant mode (DESIGN §3h) is
//! observation-only: the same configs must produce bit-identical
//! results with the invariant layer on and off.
//!
//! One `#[test]` on purpose: the test binary toggles the process
//! environment, so splitting it into several tests would race the env
//! var across the default multi-threaded test runner.

use fpk_repro::congestion::decbit::DecbitPolicy;
use fpk_repro::congestion::{LinearExp, WindowAimd};
use fpk_repro::sim::{
    run_network, run_network_workload, ArrivalProcess, Bytes, FaultConfig, FlowSizeDist, FlowSpec,
    Link, NetConfig, PacketBytes, QdiscKind, Route, RtoPolicy, Service, SourceSpec, Topology,
    Workload,
};

fn base_net(t_end: f64, seed: u64) -> NetConfig {
    NetConfig {
        topology: Topology {
            links: vec![
                Link {
                    mu: 40.0,
                    service: Service::Exponential,
                    buffer: Some(25),
                },
                Link {
                    mu: 50.0,
                    service: Service::Deterministic,
                    buffer: None,
                },
            ],
        },
        faults: vec![
            FaultConfig::Iid { loss_prob: 0.02 },
            FaultConfig::Iid { loss_prob: 0.0 },
        ],
        t_end,
        warmup: 1.0,
        sample_interval: 0.1,
        seed,
        qdisc: QdiscKind::RedMark {
            min_th: 2.5,
            max_th: 10.0,
            max_p: 1.0,
            weight: 0.25,
        },
        packet_bytes: Some(PacketBytes {
            dist: FlowSizeDist::BoundedPareto {
                min: 200.0,
                max: 1500.0,
                alpha: 1.3,
            },
            ref_bytes: Bytes(500.0),
        }),
    }
}

fn mixed_flows() -> Vec<FlowSpec> {
    [
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
    ]
    .into_iter()
    .map(|source| FlowSpec {
        source,
        route: Route { first: 0, last: 1 },
    })
    .collect()
}

fn workload() -> Workload {
    Workload::new(
        ArrivalProcess::Pareto {
            rate: 6.0,
            alpha: 1.5,
        },
        FlowSizeDist::Exponential { mean: 4.0 },
        vec![Route::single(0), Route { first: 0, last: 1 }],
    )
    .with_prop_delay(0.005)
}

/// A config exercising every dynamic fault machine at once: GE bursts
/// at the lossy hop, link flapping at the second (packets park in the
/// down hop's FIFO, exercising the `parked` conservation term), with
/// the workload retransmitting under a tight RTO so both `retransmits`
/// and `packets_gave_up` are nonzero.
fn chaos_net(seed: u64) -> NetConfig {
    let mut cfg = base_net(12.0, seed);
    cfg.faults = vec![
        FaultConfig::GilbertElliott {
            p_gb: 1.0,
            p_bg: 1.5,
            loss_good: 0.01,
            loss_bad: 0.4,
        },
        FaultConfig::LinkFlap {
            up_rate: 2.0,
            down_rate: 0.5,
        },
    ];
    cfg
}

fn degrade_net(seed: u64) -> NetConfig {
    let mut cfg = base_net(12.0, seed);
    cfg.faults = vec![
        FaultConfig::Degrade {
            factor: 0.4,
            period: 1.5,
        },
        FaultConfig::Iid { loss_prob: 0.05 },
    ];
    cfg
}

fn rto_workload() -> Workload {
    workload().with_rto(RtoPolicy {
        rto_base: 0.02,
        backoff: 2.0,
        max_retries: 2,
    })
}

/// Serialize every observable output so the on/off comparison is a
/// single string equality with a readable diff on failure.
fn run_both(strict: bool) -> Vec<String> {
    assert_eq!(
        std::env::var("FPK_CHECK").is_ok(),
        strict,
        "env toggle out of sync"
    );
    let static_run = run_network(&base_net(12.0, 424_242), &mixed_flows()).expect("static run");
    let wl_run = run_network_workload(&base_net(12.0, 77), &mixed_flows(), &workload())
        .expect("workload run");
    let chaos_static = run_network(&chaos_net(11), &mixed_flows()).expect("chaos static run");
    let chaos_wl = run_network_workload(&chaos_net(13), &mixed_flows(), &rto_workload())
        .expect("chaos workload run");
    let degrade_wl = run_network_workload(&degrade_net(17), &mixed_flows(), &rto_workload())
        .expect("degrade workload run");
    if strict {
        // The chaos configs must actually exercise the new machinery,
        // otherwise the bit-identity pin proves nothing.
        let wl = chaos_wl.workload.as_ref().expect("workload stats");
        assert!(wl.retransmits > 0, "chaos config never retransmitted");
        assert!(wl.packets_gave_up > 0, "chaos config never abandoned");
        assert_eq!(wl.packets_dropped, 0, "RTO losses must be gave_up");
        assert!(
            chaos_wl.downtime_frac[1] > 0.0,
            "flap hop recorded no downtime"
        );
    }
    vec![
        format!("{static_run:?}"),
        format!("{wl_run:?}"),
        format!("{chaos_static:?}"),
        format!("{chaos_wl:?}"),
        format!("{degrade_wl:?}"),
    ]
}

#[test]
fn strict_mode_is_observation_only() {
    // The harness may inherit FPK_CHECK from CI's strict job; normalize.
    std::env::remove_var("FPK_CHECK");
    let plain = run_both(false);

    std::env::set_var("FPK_CHECK", "1");
    let strict = run_both(true);
    std::env::remove_var("FPK_CHECK");

    let names = [
        "static-flow",
        "workload",
        "chaos static-flow",
        "chaos workload+RTO",
        "degrade workload+RTO",
    ];
    for ((p, s), name) in plain.iter().zip(&strict).zip(names) {
        assert_eq!(p, s, "strict mode changed a {name} run");
    }
}
