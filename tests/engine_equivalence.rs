//! Equivalence pins for the topology-first engine.
//!
//! `fpk_sim::network` replaced two dedicated event loops (a
//! single-bottleneck loop and a tandem loop on a private `BinaryHeap`)
//! with one hop-indexed engine. These tests pin that contract:
//!
//! 1. **Golden constants** captured from the *pre-refactor* engines: the
//!    unified engine must reproduce them bit-for-bit (same seed → same
//!    counters, same trace sums, same f64 bit patterns) on the single
//!    link ([`NetConfig::single_link`]) and on lossless window-flow
//!    tandems.
//! 2. **Fast-path equality**: opt-in features left at their neutral
//!    setting (a workload capped at zero flows, unity byte factors) must
//!    not move a bit.
//! 3. **Path goldens** for everything the pins above leave uncovered:
//!    the threshold/averaged/RED disciplines, byte mode with a
//!    non-degenerate size distribution, Gilbert–Elliott/flap/degrade
//!    faults, RTO retransmission and give-up, slot recycling, and
//!    on-off/DECbit sources on multi-hop routes. Every constant there
//!    was captured from the engine before it was split into per-event
//!    handlers, so a restructuring of the event loop is proven by these
//!    strings staying unchanged.

use fpk_repro::congestion::decbit::DecbitPolicy;
use fpk_repro::congestion::{LinearExp, WindowAimd};
use fpk_repro::sim::{
    run_network, run_network_workload, ArrivalProcess, Bytes, FaultConfig, FlowSizeDist, FlowSpec,
    Link, NetConfig, NetResult, PacketBytes, QdiscKind, Route, RtoPolicy, Service, SimConfig,
    SourceSpec, Topology, Workload,
};

/// `sources` as single-hop flows.
fn single_hop(sources: Vec<SourceSpec>) -> Vec<FlowSpec> {
    sources.into_iter().map(FlowSpec::single_hop).collect()
}

/// The lossless tandem the pre-refactor tandem engine simulated: one
/// infinite-buffer link per μ, no faults, one trace sample at each end
/// of the horizon (sampling draws no randomness, so the sample period
/// cannot move a counter).
fn tandem(mu: &[f64], service: Service, t_end: f64, warmup: f64, seed: u64) -> NetConfig {
    NetConfig {
        topology: Topology {
            links: mu
                .iter()
                .map(|&mu| Link {
                    mu,
                    service,
                    buffer: None,
                })
                .collect(),
        },
        faults: Vec::new(),
        t_end,
        warmup,
        sample_interval: t_end,
        seed,
        qdisc: QdiscKind::Fifo,
        packet_bytes: None,
    }
}

/// A window-AIMD flow crossing hops `first..=last`.
fn window_flow(aimd: WindowAimd, first: usize, last: usize) -> FlowSpec {
    FlowSpec {
        source: SourceSpec::Window { aimd, w0: 2.0 },
        route: Route { first, last },
    }
}

fn mixed_sources() -> Vec<SourceSpec> {
    vec![
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
}

/// Pre-refactor golden: mixed sources + finite buffer + 5% loss on one
/// exponential bottleneck, seed 2024 (captured from commit 20877db).
#[test]
fn single_link_goldens_mixed_sources_with_loss() {
    let cfg = SimConfig {
        mu: 50.0,
        service: Service::Exponential,
        buffer: Some(30),
        t_end: 40.0,
        warmup: 8.0,
        sample_interval: 0.1,
        seed: 2024,
    };
    let out = run_network(
        &NetConfig::single_link(&cfg, FaultConfig::Iid { loss_prob: 0.05 }),
        &single_hop(mixed_sources()),
    )
    .unwrap();
    let books: Vec<(u64, u64, u64)> = out
        .flows
        .iter()
        .map(|f| (f.sent, f.delivered, f.dropped))
        .collect();
    assert_eq!(
        books,
        vec![
            (754, 710, 40),
            (515, 475, 39),
            (185, 175, 10),
            (163, 152, 11)
        ],
        "per-flow counters moved off the pre-refactor engine"
    );
    assert_eq!(out.trace_q.len(), 401);
    let qsum: f64 = out.trace_q.col(0).sum();
    assert_eq!(qsum.to_bits(), 0x40ab_6a00_0000_0000, "trace_q sum");
    assert_eq!(
        out.mean_queue[0].to_bits(),
        0x4022_5f15_c7a0_39b0,
        "mean_queue"
    );
    assert_eq!(
        out.total_throughput.to_bits(),
        0x4047_a000_0000_0000,
        "total_throughput"
    );
    let ctl_last: Vec<u64> = out
        .trace_ctl
        .last()
        .unwrap()
        .1
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(
        ctl_last,
        vec![
            0x4034_8602_4b4b_b77b,
            0x4012_0000_0000_0000,
            0x0000_0000_0000_0000,
            0x3ff0_0000_0000_0000,
        ],
        "final control-state sample"
    );
}

/// Pre-refactor golden: a lone AIMD window flow on a deterministic
/// server, no faults, seed 7.
#[test]
fn single_link_goldens_deterministic_window() {
    let cfg = SimConfig {
        mu: 80.0,
        service: Service::Deterministic,
        buffer: None,
        t_end: 30.0,
        warmup: 5.0,
        sample_interval: 0.1,
        seed: 7,
    };
    let src = SourceSpec::Window {
        aimd: WindowAimd::new(1.0, 0.5, 0.05, 12.0),
        w0: 2.0,
    };
    let out = run_network(
        &NetConfig::single_link(&cfg, FaultConfig::default()),
        &single_hop(vec![src]),
    )
    .unwrap();
    let f = &out.flows[0];
    assert_eq!((f.sent, f.delivered, f.dropped), (1871, 1861, 0));
    assert_eq!(out.trace_q.len(), 301);
    let qsum: f64 = out.trace_q.col(0).sum();
    assert_eq!(qsum.to_bits(), 0x40a0_b400_0000_0000);
    assert_eq!(out.mean_queue[0].to_bits(), 0x401d_06a7_ef9d_b2c6);
}

/// Pre-refactor golden: 3-queue heterogeneous tandem (exponential
/// service), one long flow + per-hop cross traffic, seed 99. The old
/// `tandem.rs` private event loop produced exactly these counters.
#[test]
fn tandem_goldens_exponential_parking_lot() {
    let mk = |first, last| window_flow(WindowAimd::new(1.0, 0.5, 0.05, 10.0), first, last);
    let out = run_network(
        &tandem(&[100.0, 80.0, 120.0], Service::Exponential, 120.0, 24.0, 99),
        &[mk(0, 2), mk(0, 0), mk(1, 1), mk(2, 2)],
    )
    .unwrap();
    let delivered: Vec<u64> = out.flows.iter().map(|f| f.delivered).collect();
    assert_eq!(delivered, vec![823, 7738, 6256, 9317]);
    let mq_bits: Vec<u64> = out.mean_queue.iter().map(|q| q.to_bits()).collect();
    assert_eq!(
        mq_bits,
        vec![
            0x4015_663f_a8ed_061f,
            0x4017_4221_7736_1815,
            0x4014_118c_c0b5_68c8,
        ]
    );
}

/// Pre-refactor golden: deterministic-service tandem, seed 5.
#[test]
fn tandem_goldens_deterministic_service() {
    let mk = |first, last| window_flow(WindowAimd::new(1.0, 0.5, 0.05, 10.0), first, last);
    let out = run_network(
        &tandem(&[60.0, 60.0], Service::Deterministic, 90.0, 18.0, 5),
        &[mk(0, 1), mk(1, 1)],
    )
    .unwrap();
    let delivered: Vec<u64> = out.flows.iter().map(|f| f.delivered).collect();
    assert_eq!(delivered, vec![1301, 2774]);
    let mq_bits: Vec<u64> = out.mean_queue.iter().map(|q| q.to_bits()).collect();
    assert_eq!(mq_bits, vec![0x3fd7_2f68_4bda_1184, 0x401a_3777_7777_75eb]);
}

/// Static flows through the workload machinery: `run_network_workload`
/// with an admission cap of zero must be bit-identical to plain
/// `run_network` — the workload code path schedules nothing, draws no
/// RNG, and perturbs no trace, so pre-workload goldens keep holding
/// for every scenario that doesn't opt in. (The same mixed-source +
/// loss setup as the golden test above, so this pin transitively
/// covers the pre-refactor constants too.)
#[test]
fn workload_with_zero_cap_matches_run_network() {
    let net = NetConfig {
        topology: Topology::single(50.0, Service::Exponential, Some(30)),
        faults: vec![FaultConfig::Iid { loss_prob: 0.05 }],
        t_end: 40.0,
        warmup: 8.0,
        sample_interval: 0.1,
        seed: 2024,
        qdisc: QdiscKind::Fifo,
        packet_bytes: None,
    };
    let flows = single_hop(mixed_sources());
    let plain = run_network(&net, &flows).unwrap();

    let off = Workload::new(
        ArrivalProcess::Poisson { rate: 100.0 },
        FlowSizeDist::Exponential { mean: 10.0 },
        vec![Route::single(0)],
    )
    .with_max_flows(0);
    let capped = run_network_workload(&net, &flows, &off).unwrap();

    assert_eq!(plain.trace_q, capped.trace_q);
    assert_eq!(plain.trace_ctl, capped.trace_ctl);
    assert_eq!(
        plain.mean_queue[0].to_bits(),
        capped.mean_queue[0].to_bits()
    );
    assert_eq!(
        plain.total_throughput.to_bits(),
        capped.total_throughput.to_bits()
    );
    for (a, b) in plain.flows.iter().zip(&capped.flows) {
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
    }
    assert!(plain.workload.is_none());
    let s = capped
        .workload
        .expect("workload stats present even when capped off");
    assert_eq!((s.arrived, s.packets_sent, s.slot_high_water), (0, 0, 0));
    assert_eq!(s.fct.count, 0);
}

/// The queue-discipline refactor's fast-path pin: byte mode with a
/// unity size factor (`Deterministic{N}` bytes over an N-byte
/// reference) and the explicit `Fifo` discipline must be bit-identical
/// to the historical unit-packet engine on the golden mixed-source
/// configuration. The factor `(N as f64 / N as f64) as f32` is exactly
/// `1.0f32`; `svc * 1.0` is a bitwise no-op; and a deterministic byte
/// distribution draws no RNG — so every time, every counter, and every
/// trace bit must match the pre-refactor goldens that the unit-packet
/// tests above keep pinning.
#[test]
fn byte_mode_with_unity_factor_matches_unit_fast_path() {
    let mk = |packet_bytes: Option<PacketBytes>| NetConfig {
        topology: Topology::single(50.0, Service::Exponential, Some(30)),
        faults: vec![FaultConfig::Iid { loss_prob: 0.05 }],
        t_end: 40.0,
        warmup: 8.0,
        sample_interval: 0.1,
        seed: 2024,
        qdisc: QdiscKind::Fifo,
        packet_bytes,
    };
    let flows = single_hop(mixed_sources());
    let unit = run_network(&mk(None), &flows).unwrap();
    let bytes = run_network(
        &mk(Some(PacketBytes {
            dist: FlowSizeDist::Deterministic { packets: 1500 },
            ref_bytes: Bytes(1500.0),
        })),
        &flows,
    )
    .unwrap();

    assert_eq!(unit.trace_q, bytes.trace_q);
    assert_eq!(unit.trace_ctl, bytes.trace_ctl);
    assert_eq!(unit.mean_queue[0].to_bits(), bytes.mean_queue[0].to_bits());
    assert_eq!(
        unit.total_throughput.to_bits(),
        bytes.total_throughput.to_bits()
    );
    let books: Vec<(u64, u64, u64)> = bytes
        .flows
        .iter()
        .map(|f| (f.sent, f.delivered, f.dropped))
        .collect();
    // The same constants `single_link_goldens_mixed_sources_with_loss`
    // pins — the byte path reproduces the pre-refactor engine, not just
    // today's unit path.
    assert_eq!(
        books,
        vec![
            (754, 710, 40),
            (515, 475, 39),
            (185, 175, 10),
            (163, 152, 11)
        ],
        "byte mode with unity factor moved off the golden counters"
    );
}

/// Every output a golden below pins, one line per entity, floats as
/// `f64::to_bits` so a one-ulp move fails: per-flow counters; per-hop
/// mean queue, utilisation, downtime fraction, recovery time and trace
/// sum; the control-trace sum; and, for workload runs, every
/// `WorkloadStats` field.
fn fingerprint(out: &NetResult) -> String {
    let b = |x: f64| format!("{:#018x}", x.to_bits());
    let mut s = String::new();
    for (i, f) in out.flows.iter().enumerate() {
        s += &format!("flow{i} {} {} {}\n", f.sent, f.delivered, f.dropped);
    }
    for h in 0..out.mean_queue.len() {
        let qsum: f64 = out.trace_q.col(h).sum();
        s += &format!(
            "hop{h} {} {} {} {} {}\n",
            b(out.mean_queue[h]),
            b(out.utilization[h]),
            b(out.downtime_frac[h]),
            b(out.recovery_time[h]),
            b(qsum)
        );
    }
    let ctl: f64 = out.trace_ctl.data().iter().sum();
    s += &format!("trace {} {}\n", out.trace_q.len(), b(ctl));
    if let Some(w) = &out.workload {
        s += &format!(
            "wl {} {} {} {} {} {} {} {} {} {} {} {}\n",
            w.arrived,
            w.completed,
            w.completed_clean,
            w.active_at_end,
            w.packets_sent,
            w.packets_delivered,
            w.packets_dropped,
            w.retransmits,
            w.packets_gave_up,
            w.flows_gave_up,
            w.peak_active,
            w.slot_high_water
        );
        s += &format!("goodput {} {}\n", b(w.goodput), b(w.retx_overhead));
        for (name, d) in [("fct", &w.fct), ("slowdown", &w.slowdown)] {
            s += &format!(
                "{name} {} {} {} {} {} {}\n",
                d.count,
                b(d.mean),
                b(d.p50),
                b(d.p99),
                b(d.min),
                b(d.max)
            );
        }
    }
    s
}

/// A 2-hop exponential tandem (finite buffers) with `faults`, the given
/// discipline and byte sizing, full traces, seed 31.
fn two_hop(
    faults: Vec<FaultConfig>,
    qdisc: QdiscKind,
    packet_bytes: Option<PacketBytes>,
) -> NetConfig {
    NetConfig {
        topology: Topology {
            links: vec![
                Link {
                    mu: 60.0,
                    service: Service::Exponential,
                    buffer: Some(25),
                },
                Link {
                    mu: 45.0,
                    service: Service::Exponential,
                    buffer: Some(20),
                },
            ],
        },
        faults,
        t_end: 30.0,
        warmup: 6.0,
        sample_interval: 0.1,
        seed: 31,
        qdisc,
        packet_bytes,
    }
}

/// The four source kinds, each on its own route over the 2-hop tandem.
fn two_hop_flows() -> Vec<FlowSpec> {
    let routes = [
        Route { first: 0, last: 1 },
        Route::single(0),
        Route { first: 0, last: 1 },
        Route::single(1),
    ];
    mixed_sources()
        .into_iter()
        .zip(routes)
        .map(|(source, route)| FlowSpec { source, route })
        .collect()
}

/// A Poisson finite-flow workload over both routes of the 2-hop tandem.
fn two_hop_workload(sizes: FlowSizeDist) -> Workload {
    Workload::new(
        ArrivalProcess::Poisson { rate: 3.0 },
        sizes,
        vec![Route { first: 0, last: 1 }, Route::single(1)],
    )
    .with_prop_delay(0.005)
}

const RED: QdiscKind = QdiscKind::RedMark {
    min_th: 2.0,
    max_th: 10.0,
    max_p: 0.2,
    weight: 0.1,
};

/// Non-degenerate byte sizing: exponential packet sizes around 1000 B.
fn exp_bytes() -> Option<PacketBytes> {
    Some(PacketBytes {
        dist: FlowSizeDist::Exponential { mean: 1000.0 },
        ref_bytes: Bytes(1000.0),
    })
}

/// Parent-engine golden: the hop-level disciplines (unit packets).
#[test]
fn qdisc_goldens_threshold_averaged_red() {
    let flows = two_hop_flows();
    let threshold = run_network(
        &two_hop(
            Vec::new(),
            QdiscKind::ThresholdMark { threshold: 4.0 },
            None,
        ),
        &flows,
    )
    .unwrap();
    assert_eq!(
        fingerprint(&threshold),
        "flow0 582 562 18\n\
         flow1 583 582 0\n\
         flow2 142 139 8\n\
         flow3 375 375 2\n\
         hop0 0x400e72727a4ffec8 0x3fece93e93e93e94 0x0000000000000000 0x0000000000000000 0x4091cc0000000000\n\
         hop1 0x4021c9562e1047c5 0x3fefe1a8c536fe1b 0x0000000000000000 0x0000000000000000 0x40a3f40000000000\n\
         trace 301 0x40c19ba108008db5\n"
    );
    let averaged = run_network(
        &two_hop(Vec::new(), QdiscKind::AveragedMark { threshold: 2.0 }, None),
        &flows,
    )
    .unwrap();
    assert_eq!(
        fingerprint(&averaged),
        "flow0 692 678 12\n\
         flow1 411 411 0\n\
         flow2 192 187 1\n\
         flow3 169 167 2\n\
         hop0 0x400ed287295dc030 0x3fecf49f49f49f4a 0x0000000000000000 0x0000000000000000 0x40904c0000000000\n\
         hop1 0x402075f379ea344d 0x3fee93e93e93e93f 0x0000000000000000 0x0000000000000000 0x40a14e0000000000\n\
         trace 301 0x40c23a6f86dcf50b\n"
    );
    let red = run_network(&two_hop(Vec::new(), RED, None), &flows).unwrap();
    assert_eq!(
        fingerprint(&red),
        "flow0 20 23 2\n\
         flow1 1204 1204 0\n\
         flow2 146 80 62\n\
         flow3 1218 986 228\n\
         hop0 0x40145cb70492c341 0x3fee71c71c71c71d 0x0000000000000000 0x0000000000000000 0x4098040000000000\n\
         hop1 0x40316d2f3be76998 0x3ff0222222222222 0x0000000000000000 0x0000000000000000 0x40b2fa0000000000\n\
         trace 301 0x40bf1ad23abe7315\n"
    );
}

/// Parent-engine golden: byte mode with exponential packet sizes,
/// under FIFO and RED.
#[test]
fn byte_mode_goldens_fifo_and_red() {
    let flows = two_hop_flows();
    let fifo = run_network(&two_hop(Vec::new(), QdiscKind::Fifo, exp_bytes()), &flows).unwrap();
    assert_eq!(
        fingerprint(&fifo),
        "flow0 405 400 7\n\
         flow1 901 898 1\n\
         flow2 135 124 10\n\
         flow3 397 398 0\n\
         hop0 0x401f126c1b30c26b 0x3fefc16c16c16c16 0x0000000000000000 0x0000000000000000 0x40a1780000000000\n\
         hop1 0x4015c75e3d771e23 0x3feb518a6dfc3518 0x0000000000000000 0x0000000000000000 0x4098680000000000\n\
         trace 301 0x40bfce1dcf26a54b\n"
    );
    let red = run_network(&two_hop(Vec::new(), RED, exp_bytes()), &flows).unwrap();
    assert_eq!(
        fingerprint(&red),
        "flow0 32 28 6\n\
         flow1 1091 1088 0\n\
         flow2 174 94 86\n\
         flow3 1394 1057 333\n\
         hop0 0x4014df576f84f0db 0x3fecc71c71c71c72 0x0000000000000000 0x0000000000000000 0x4098980000000000\n\
         hop1 0x40310e8d76d22845 0x3ff1777777777777 0x0000000000000000 0x0000000000000000 0x40b2b90000000000\n\
         trace 301 0x40bef88ea42b07e4\n"
    );
}

/// Parent-engine golden: one dynamic fault per run, with a workload so
/// the fault paths see finite flows too.
#[test]
fn fault_goldens_gilbert_elliott_flap_degrade() {
    let flows = two_hop_flows();
    let wl = two_hop_workload(FlowSizeDist::Exponential { mean: 8.0 });
    let ge = FaultConfig::GilbertElliott {
        p_gb: 0.5,
        p_bg: 2.0,
        loss_good: 0.01,
        loss_bad: 0.3,
    };
    let flap = FaultConfig::LinkFlap {
        up_rate: 4.0,
        down_rate: 0.5,
    };
    let degrade = FaultConfig::Degrade {
        factor: 0.4,
        period: 2.5,
    };
    let none = FaultConfig::default();
    let out =
        run_network_workload(&two_hop(vec![ge, none], QdiscKind::Fifo, None), &flows, &wl).unwrap();
    assert_eq!(
        fingerprint(&out),
        "flow0 326 275 48\n\
         flow1 776 732 44\n\
         flow2 131 117 14\n\
         flow3 188 186 2\n\
         hop0 0x401be1b8c7295118 0x3fedcccccccccccd 0x0000000000000000 0x3fc4db74b61b6d7c 0x409f340000000000\n\
         hop1 0x4021cf8a6063d5e1 0x3fed4629b7f0d462 0x0000000000000000 0x0000000000000000 0x40a25c0000000000\n\
         trace 301 0x40b7b45ab92e7fc7\n\
         wl 82 79 51 3 697 479 202 0 0 0 6 6\n\
         goodput 0x402feeeeeeeeeeef 0x0000000000000000\n\
         fct 39 0x3fd5cd3c5772de00 0x3fd39b825f364c00 0x3fe82e1af2567270 0x3fb7d827910c9800 0x3fe82e1af2567270\n\
         slowdown 39 0x400e041e103e6fb6 0x4004eb16f147863f 0x40260e6cac8dc3a0 0x3fe58bcd6439a51c 0x40260e6cac8dc3a0\n"
    );
    let out = run_network_workload(
        &two_hop(vec![none, flap], QdiscKind::Fifo, None),
        &flows,
        &wl,
    )
    .unwrap();
    assert_eq!(
        fingerprint(&out),
        "flow0 209 198 13\n\
         flow1 721 723 1\n\
         flow2 192 171 17\n\
         flow3 166 158 8\n\
         hop0 0x402071a434e2d0e1 0x3fee1c71c71c71c7 0x0000000000000000 0x0000000000000000 0x40a29c0000000000\n\
         hop1 0x402447dfbe263605 0x3feb240795ceb240 0x3fbbae77a6829d83 0x3fe984646169b46a 0x40a7880000000000\n\
         trace 301 0x40b1bd205368fb6a\n\
         wl 102 102 70 0 738 515 223 0 0 0 6 6\n\
         goodput 0x40312aaaaaaaaaab 0x0000000000000000\n\
         fct 60 0x3fdacf0df004356e 0x3fd762a3f1ac9ce0 0x3ff27c47f80bbf40 0x3fa0526106ff7880 0x3ff27c47f80bbf40\n\
         slowdown 60 0x40154ed53fdcb147 0x400d4176458279f1 0x4031fb5eed21d4ff 0x3fdc77ded0abba5c 0x4031fb5eed21d4ff\n"
    );
    let out = run_network_workload(
        &two_hop(vec![degrade, flap], QdiscKind::Fifo, exp_bytes()),
        &flows,
        &wl,
    )
    .unwrap();
    assert_eq!(
        fingerprint(&out),
        "flow0 188 159 25\n\
         flow1 539 541 3\n\
         flow2 103 87 13\n\
         flow3 206 204 2\n\
         hop0 0x4023eefc60b5490c 0x3fe5cccccccccccd 0x0000000000000000 0x3fd2125106fcb596 0x40a7e40000000000\n\
         hop1 0x402131b44fbdf185 0x3fe795ceb240795c 0x3fc5e56f914560cc 0x3fe5585e4e4e8f85 0x40a6020000000000\n\
         trace 301 0x40b058505a57165d\n\
         wl 82 81 50 1 680 439 229 0 0 0 5 5\n\
         goodput 0x402d444444444444 0x0000000000000000\n\
         fct 37 0x3fd8a424fb053b2c 0x3fd77fa601ba7360 0x3feacbcbb3fb71e0 0x3f8c36d33e3bd800 0x3feacbcbb3fb71e0\n\
         slowdown 37 0x400f8649a2840b5d 0x4007a424ce23a289 0x402fe67f486f71e4 0x3fdeae09b16b059c 0x402fe67f486f71e4\n"
    );
}

/// Parent-engine golden: an RTO policy under heavy loss, so packets
/// both retransmit and give up, with and without slot recycling.
#[test]
fn workload_goldens_rto_and_slot_recycling() {
    let lossy = vec![
        FaultConfig::Iid { loss_prob: 0.25 },
        FaultConfig::Iid { loss_prob: 0.1 },
    ];
    let rto = RtoPolicy {
        rto_base: 0.05,
        backoff: 2.0,
        max_retries: 2,
    };
    let wl = two_hop_workload(FlowSizeDist::BoundedPareto {
        min: 1.0,
        max: 60.0,
        alpha: 1.2,
    })
    .with_rto(rto);
    let out =
        run_network_workload(&two_hop(lossy.clone(), QdiscKind::Fifo, None), &[], &wl).unwrap();
    let s = out.workload.as_ref().unwrap();
    assert!(s.retransmits > 0 && s.packets_gave_up > 0 && s.flows_gave_up > 0);
    assert_eq!(
        fingerprint(&out),
        "hop0 0x3fed80190254b7b1 0x3fbf777777777777 0x0000000000000000 0x0000000000000000 0x4072f00000000000\n\
         hop1 0x3ffadef1c3c4f4e5 0x3fd05b05b05b05b0 0x0000000000000000 0x0000000000000000 0x4080080000000000\n\
         trace 301 0x8000000000000000\n\
         wl 102 102 93 0 433 390 0 203 43 9 9 9\n\
         goodput 0x402a000000000000 0x3fde012eb4ea1fed\n\
         fct 71 0x3fc46ad8623fa12b 0x3fb8f559edfdbd80 0x3fecdf7f4659c1e0 0x3f76f869ec5a0800 0x3fecdf7f4659c1e0\n\
         slowdown 71 0x4000ca203d0841c3 0x3ff71bd0554ee73f 0x40243f1268876d4a 0x3fca5e7998770692 0x40243f1268876d4a\n"
    );
    let flows = two_hop_flows();
    let recycled =
        run_network_workload(&two_hop(lossy.clone(), RED, exp_bytes()), &flows, &wl).unwrap();
    assert_eq!(
        fingerprint(&recycled),
        "flow0 46 25 22\n\
         flow1 767 586 182\n\
         flow2 243 117 120\n\
         flow3 1091 798 291\n\
         hop0 0x40056b544f372717 0x3fe5e93e93e93e94 0x0000000000000000 0x0000000000000000 0x4087600000000000\n\
         hop1 0x403070e3a0454726 0x3fefd27d27d27d28 0x0000000000000000 0x0000000000000000 0x40b1cf0000000000\n\
         trace 301 0x40b7bc5b00093d12\n\
         wl 73 71 50 2 282 180 0 287 99 21 5 5\n\
         goodput 0x4018000000000000 0x3ff0489fc5e694e1\n\
         fct 30 0x3fdcef1ed98305b7 0x3fdd49c151d7df40 0x3ff0d44effee8fe0 0x3fbf2dfaa9d60400 0x3ff0d44effee8fe0\n\
         slowdown 30 0x402153808daaf0fe 0x401d5c0225706f6b 0x4036994ca494b0fe 0x3ffec8ee32276daf 0x4036994ca494b0fe\n"
    );
    let kept = run_network_workload(
        &two_hop(lossy, RED, exp_bytes()),
        &flows,
        &wl.clone().without_recycling(),
    )
    .unwrap();
    assert_eq!(
        fingerprint(&kept),
        "flow0 46 25 22\n\
         flow1 767 586 182\n\
         flow2 243 117 120\n\
         flow3 1091 798 291\n\
         hop0 0x40056b544f372717 0x3fe5e93e93e93e94 0x0000000000000000 0x0000000000000000 0x4087600000000000\n\
         hop1 0x403070e3a0454726 0x3fefd27d27d27d28 0x0000000000000000 0x0000000000000000 0x40b1cf0000000000\n\
         trace 301 0x40b7bc5b00093d12\n\
         wl 73 71 50 2 282 180 0 287 99 21 5 73\n\
         goodput 0x4018000000000000 0x3ff0489fc5e694e1\n\
         fct 30 0x3fdcef1ed98305b7 0x3fdd49c151d7df40 0x3ff0d44effee8fe0 0x3fbf2dfaa9d60400 0x3ff0d44effee8fe0\n\
         slowdown 30 0x402153808daaf0fe 0x401d5c0225706f6b 0x4036994ca494b0fe 0x3ffec8ee32276daf 0x4036994ca494b0fe\n"
    );
    let (r, k) = (recycled.workload.unwrap(), kept.workload.unwrap());
    assert!(r.slot_high_water < k.slot_high_water);
}

/// Parent-engine golden: on-off and DECbit sources on a 3-hop tandem
/// with deterministic and exponential hops, no workload.
#[test]
fn source_goldens_on_off_and_decbit() {
    let mut cfg = tandem(&[40.0, 30.0, 50.0], Service::Exponential, 40.0, 8.0, 17);
    cfg.topology.links[1].service = Service::Deterministic;
    cfg.topology.links[1].buffer = Some(15);
    cfg.sample_interval = 0.1;
    let on_off = SourceSpec::OnOff {
        peak_rate: 35.0,
        mean_on: 0.4,
        mean_off: 0.6,
        prop_delay: 0.01,
    };
    let decbit = SourceSpec::Decbit {
        policy: DecbitPolicy::raja88(),
        rtt: 0.04,
        w0: 3.0,
        q_hat: 1.0,
    };
    let flows = vec![
        FlowSpec {
            source: on_off.clone(),
            route: Route { first: 0, last: 2 },
        },
        FlowSpec {
            source: decbit.clone(),
            route: Route { first: 0, last: 1 },
        },
        FlowSpec {
            source: decbit,
            route: Route { first: 1, last: 2 },
        },
        FlowSpec {
            source: on_off,
            route: Route::single(1),
        },
    ];
    let out = run_network(&cfg, &flows).unwrap();
    assert_eq!(
        fingerprint(&out),
        "flow0 446 361 84\n\
         flow1 130 117 12\n\
         flow2 135 114 20\n\
         flow3 376 292 84\n\
         hop0 0x3ff6c6a0b41e994e 0x3fdcc00000000000 0x0000000000000000 0x0000000000000000 0x4083f00000000000\n\
         hop1 0x4020ab8d4da9e17a 0x3fed777777777777 0x0000000000000000 0x0000000000000000 0x40ab3c0000000000\n\
         hop2 0x3fd7cd3fbe7553d2 0x3fd3000000000000 0x0000000000000000 0x0000000000000000 0x4066200000000000\n\
         trace 401 0x4098921d3b7cb4ba\n"
    );
}
