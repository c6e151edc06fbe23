//! Analytic pins for the finite-flow workload layer.
//!
//! The workload layer (DESIGN §3f) injects open-loop finite flows into
//! the same event loop the adaptive sources run on; these tests pin its
//! numbers to closed-form queueing theory rather than to goldens:
//!
//! * an isolated flow on an idle deterministic bottleneck completes in
//!   exactly `prop_delay + size/μ` (and the multi-hop pipeline formula
//!   `hops·d + Σ_h 1/μ_h + (size−1)/μ_min`), to 1e-9;
//! * single-packet flows with Poisson arrivals on a deterministic
//!   server are an M/D/1 queue: the ensemble mean FCT must sit within
//!   its own 95% CI of the Pollaczek–Khinchine prediction
//!   `d + 1/μ + ρ/(2μ(1−ρ))` at ρ ≤ 0.5;
//! * conservation holds ungated by warm-up (every arrived flow
//!   completes or is still active; no packet is double-counted) and no
//!   flow ever beats its ideal FCT (slowdown ≥ 1), even under finite
//!   buffers and random loss;
//! * a ~1.5×10⁵-flow workload sweep is bit-identical across executor
//!   widths and to a serial collect-then-aggregate reference (the
//!   `montecarlo.rs` determinism policy extends to workload runs);
//! * slot recycling changes *only* the arena high-water mark: a 10⁵
//!   short-flow run needs O(concurrently-active) flow state, and every
//!   other output bit matches the no-recycling reference.

use fpk_repro::numerics::Result;
use fpk_repro::scenarios::{
    aggregate, run_sweep_on, Axis, Ensemble, EnsembleStats, Scenario, Sweep,
};
use fpk_repro::sim::{
    ideal_fct, ideal_fct_sized, run_network_workload, ArrivalProcess, Bytes, FaultConfig,
    FlowSizeDist, Link, NetConfig, PacketBytes, QdiscKind, Route, Service, SimConfig, Topology,
    Workload,
};

/// A workload-only `NetConfig` (no static flows, no faults).
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

/// One flow on an idle deterministic bottleneck: FCT is exactly
/// `d + size/μ` — the paced burst must not add queueing of its own.
#[test]
fn idle_single_hop_fct_is_exact() {
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
    // A zero-static-flow run records trace samples, and its control
    // trace (stride = zero flows) comes back empty.
    let out = run_network_workload(&cfg, &[], &w).unwrap();
    assert!(!out.trace_q.is_empty());
    assert!(out.trace_ctl.data().is_empty());
    let stats = out.workload.expect("workload stats");
    assert_eq!(stats.arrived, 1);
    assert_eq!(stats.completed_clean, 1);
    assert_eq!(stats.fct.count, 1);
    let ideal = d + size as f64 / mu;
    assert!(
        (stats.fct.mean - ideal).abs() <= 1e-9,
        "idle FCT {} != d + S/mu = {ideal}",
        stats.fct.mean
    );
    assert!((stats.slowdown.mean - 1.0).abs() <= 1e-9);
}

/// One flow across a 3-hop heterogeneous deterministic tandem: FCT is
/// the store-and-forward pipeline time `hops·d + Σ_h 1/μ_h +
/// (size−1)/μ_min`, hand-computed *and* as [`ideal_fct`] reports it.
#[test]
fn idle_multi_hop_fct_matches_pipeline_formula() {
    let (mus, size, d) = ([10.0, 5.0, 20.0], 6u64, 0.01);
    let links: Vec<Link> = mus
        .iter()
        .map(|&mu| Link {
            mu,
            service: Service::Deterministic,
            buffer: None,
        })
        .collect();
    let topology = Topology { links };
    let route = Route::full(3);
    let w = Workload::new(
        ArrivalProcess::Poisson { rate: 5.0 },
        FlowSizeDist::Deterministic { packets: size },
        vec![route],
    )
    .with_prop_delay(d)
    .with_max_flows(1);
    let cfg = net(topology.clone(), 30.0, 0.0, 11);
    let out = run_network_workload(&cfg, &[], &w).unwrap();
    let stats = out.workload.expect("workload stats");
    assert_eq!(stats.fct.count, 1);
    let by_hand = 3.0 * d + mus.iter().map(|&mu| 1.0 / mu).sum::<f64>() + (size - 1) as f64 / 5.0;
    assert!(
        (stats.fct.mean - by_hand).abs() <= 1e-9,
        "pipeline FCT {} != {by_hand}",
        stats.fct.mean
    );
    let helper = ideal_fct(&topology, route, size, d);
    assert!(
        (helper - by_hand).abs() <= 1e-12,
        "ideal_fct drifted off the formula"
    );
}

/// Byte-granular packets on the same idle heterogeneous tandem: a
/// constant per-packet size of 3 bytes against a 2-byte reference makes
/// every packet cost exactly 1.5 nominal service times, so the FCT is
/// the pipeline formula with every service term scaled by 1.5 — which
/// is precisely what [`ideal_fct_sized`] reports. Because the factor is
/// deterministic, the ideal is exact too and the slowdown stays 1.
#[test]
fn idle_multi_hop_fct_with_byte_sizes_is_exact() {
    let (mus, size, d) = ([10.0, 5.0, 20.0], 6u64, 0.01);
    let f = 1.5; // 3 bytes / 2-byte reference
    let links: Vec<Link> = mus
        .iter()
        .map(|&mu| Link {
            mu,
            service: Service::Deterministic,
            buffer: None,
        })
        .collect();
    let topology = Topology { links };
    let route = Route::full(3);
    let w = Workload::new(
        ArrivalProcess::Poisson { rate: 5.0 },
        FlowSizeDist::Deterministic { packets: size },
        vec![route],
    )
    .with_prop_delay(d)
    .with_max_flows(1);
    let mut cfg = net(topology.clone(), 30.0, 0.0, 11);
    cfg.packet_bytes = Some(PacketBytes {
        dist: FlowSizeDist::Deterministic { packets: 3 },
        ref_bytes: Bytes(2.0),
    });
    let out = run_network_workload(&cfg, &[], &w).unwrap();
    let stats = out.workload.expect("workload stats");
    assert_eq!(stats.fct.count, 1);
    let by_hand = 3.0 * d + mus.iter().map(|&mu| f / mu).sum::<f64>() + f * (size - 1) as f64 / 5.0;
    assert!(
        (stats.fct.mean - by_hand).abs() <= 1e-9,
        "byte-sized pipeline FCT {} != {by_hand}",
        stats.fct.mean
    );
    let helper = ideal_fct_sized(&topology, route, size, d, f);
    assert!(
        (helper - by_hand).abs() <= 1e-12,
        "ideal_fct_sized drifted off the formula"
    );
    assert!(
        (stats.slowdown.mean - 1.0).abs() <= 1e-9,
        "deterministic byte factor must keep slowdown at 1, got {}",
        stats.slowdown.mean
    );
}

/// Single-packet flows + Poisson arrivals + deterministic server =
/// M/D/1. Over an 8-seed ensemble the mean FCT must sit within its own
/// 95% CI of Pollaczek–Khinchine, `d + 1/μ + ρ/(2μ(1−ρ))`, at both
/// tested loads (the diffusion-free regime, ρ ≤ 0.5).
#[test]
fn md1_mean_fct_within_ci_of_pollaczek_khinchine() {
    let (mu, d) = (20.0, 0.01);
    for rho in [0.3, 0.5] {
        let w = Workload::new(
            ArrivalProcess::Poisson { rate: rho * mu },
            FlowSizeDist::Deterministic { packets: 1 },
            vec![Route::single(0)],
        )
        .with_prop_delay(d);
        let cell_seed = 0x4d44_3151; // "MD1Q"
        let mut means = Vec::new();
        for r in 0..8 {
            let cfg = net(
                Topology::single(mu, Service::Deterministic, None),
                300.0,
                30.0,
                Ensemble::replication_seed(cell_seed, r),
            );
            let out = run_network_workload(&cfg, &[], &w).unwrap();
            let stats = out.workload.expect("workload stats");
            assert!(stats.fct.count > 1000, "too few FCT samples at rho={rho}");
            means.push(stats.fct.mean);
        }
        let stat = fpk_repro::scenarios::Stat::from_samples(&means);
        let predicted = d + 1.0 / mu + rho / (2.0 * mu * (1.0 - rho));
        assert!(
            (stat.mean - predicted).abs() <= stat.ci95,
            "rho={rho}: ensemble FCT {} ± {} vs P-K {predicted}",
            stat.mean,
            stat.ci95
        );
    }
}

/// Conservation and the slowdown floor under the adversarial setup:
/// finite buffers, random loss, heavy-tailed sizes, Zipf routes on a
/// 2-hop tandem. Every arrived flow is completed or still active;
/// terminal packet outcomes never exceed injections; and no clean flow
/// beats its ideal FCT. (Deterministic service: with stochastic service
/// the "ideal" is a mean, and a lucky draw can legitimately beat it —
/// the floor is only an invariant when service times are exact.)
#[test]
fn conservation_and_slowdown_floor_under_drops() {
    let topology = Topology::uniform(
        2,
        Link {
            mu: 40.0,
            service: Service::Deterministic,
            buffer: Some(5),
        },
    );
    let w = Workload::new(
        ArrivalProcess::Pareto {
            rate: 12.0,
            alpha: 1.8,
        },
        FlowSizeDist::BoundedPareto {
            min: 1.0,
            max: 40.0,
            alpha: 1.2,
        },
        vec![Route::full(2), Route::single(0), Route::single(1)],
    )
    .with_zipf(1.0)
    .with_prop_delay(0.005);
    let mut cfg = net(topology, 60.0, 10.0, 23);
    cfg.faults = vec![FaultConfig::Iid { loss_prob: 0.05 }; 2];
    let out = run_network_workload(&cfg, &[], &w).unwrap();
    let s = out.workload.expect("workload stats");
    assert!(
        s.arrived > 300,
        "want a substantial population, got {}",
        s.arrived
    );
    assert_eq!(
        s.arrived,
        s.completed + s.active_at_end,
        "every arrived flow must complete or be active at t_end"
    );
    assert!(s.completed_clean <= s.completed);
    assert!(
        s.fct.count <= s.completed_clean,
        "FCT samples are warm clean completions only"
    );
    assert!(
        s.packets_delivered + s.packets_dropped <= s.packets_sent,
        "terminal outcomes exceed injected packets"
    );
    assert!(
        s.packets_dropped > 0,
        "adversarial run should actually drop"
    );
    // Slowdown = FCT / ideal_fct per flow: physics says ≥ 1 always.
    assert!(
        s.slowdown.min >= 1.0 - 1e-9,
        "a flow beat its idle-network FCT: slowdown.min = {}",
        s.slowdown.min
    );
    assert!(s.fct.min <= s.fct.p50 && s.fct.p50 <= s.fct.p99 && s.fct.p99 <= s.fct.max);
}

/// Byte mode with a unity size factor is the unit-packet engine, bit
/// for bit: `Deterministic{5}` bytes against a 5-byte reference makes
/// every per-packet factor exactly `1.0f32`, the service product
/// `svc * 1.0` is bitwise exact, and the extra RNG draws the byte path
/// would normally add are absent for a deterministic distribution — so
/// the M/D/1 run must reproduce the unit-packet run exactly.
#[test]
fn md1_with_unity_byte_factor_is_bit_identical_to_unit_packets() {
    let (mu, d, rho) = (20.0, 0.01, 0.5);
    let w = Workload::new(
        ArrivalProcess::Poisson { rate: rho * mu },
        FlowSizeDist::Deterministic { packets: 1 },
        vec![Route::single(0)],
    )
    .with_prop_delay(d);
    let cfg = net(
        Topology::single(mu, Service::Deterministic, None),
        300.0,
        30.0,
        0x4d44_3151,
    );
    let mut cfg_bytes = cfg.clone();
    cfg_bytes.packet_bytes = Some(PacketBytes {
        dist: FlowSizeDist::Deterministic { packets: 5 },
        ref_bytes: Bytes(5.0),
    });
    let unit = run_network_workload(&cfg, &[], &w).unwrap();
    let bytes = run_network_workload(&cfg_bytes, &[], &w).unwrap();
    let us = unit.workload.expect("unit stats");
    let bs = bytes.workload.expect("byte stats");
    assert!(us.fct.count > 1000, "too few samples for a meaningful pin");
    assert_eq!(us, bs, "unity byte factor diverged from unit packets");
    assert_eq!(
        unit.mean_queue[0].to_bits(),
        bytes.mean_queue[0].to_bits(),
        "unity byte factor perturbed the queue trajectory"
    );
}

/// The sweep base used by the executor bit-identity pin: workload-only
/// cells whose ρ and burstiness axes rescale the arrival process.
fn workload_sweep() -> Sweep {
    let base = Scenario::new(
        "wl_determinism",
        SimConfig {
            mu: 5000.0,
            service: Service::Deterministic,
            buffer: Some(200),
            t_end: 25.0,
            warmup: 5.0,
            sample_interval: 0.1,
            seed: 0,
        },
        Vec::new(),
    )
    .with_workload(Workload::new(
        ArrivalProcess::Poisson { rate: 1.0 },
        FlowSizeDist::Deterministic { packets: 2 },
        vec![Route::single(0)],
    ));
    Sweep::new(base, 90210)
        .axis(Axis::load_rho(vec![0.2, 0.4]))
        .axis(Axis::arrival_burstiness(vec![1.0, 1.5]))
}

/// Test-only serial reference for the streaming sweep executor: every
/// `(cell, replication)` pair through `Scenario::run_seeded` in order,
/// the summaries collected, then `aggregate` per cell.
fn serial_reference(sweep: &Sweep, replications: usize) -> Result<Vec<EnsembleStats>> {
    sweep
        .cells()
        .iter()
        .map(|cell| {
            let runs = (0..replications)
                .map(|r| {
                    let seed = Ensemble::replication_seed(cell.seed, r);
                    cell.scenario.run_seeded(seed)
                })
                .collect::<Result<Vec<_>>>()?;
            aggregate(&runs)
        })
        .collect()
}

/// ~1.5×10⁵ flows across a 4-cell × 2-replication workload sweep must
/// serialize bit-identically from the executor at widths 1 and 3, and
/// its per-cell statistics must match the serial collect-then-aggregate
/// reference (no `FPK_THREADS` env involvement — the widths are passed
/// explicitly).
#[test]
fn workload_sweep_bit_identical_across_executors() {
    let sweep = workload_sweep();
    let a = run_sweep_on(&sweep, 2, 1).unwrap();
    // The grid really is at the promised scale, and every cell carries
    // workload statistics.
    let total_arrived: f64 = a
        .cells
        .iter()
        .map(|c| {
            let wl = c.stats.workload.as_ref().expect("workload ensemble");
            wl.arrived.mean * c.stats.replications as f64
        })
        .sum();
    assert!(
        total_arrived >= 1e5,
        "sweep should drive ≥ 1e5 flows, got {total_arrived}"
    );
    let streamed: Vec<String> = a
        .cells
        .iter()
        .map(|c| serde_json::to_string(&c.stats).unwrap())
        .collect();
    let reference: Vec<String> = serial_reference(&sweep, 2)
        .unwrap()
        .iter()
        .map(|st| serde_json::to_string(st).unwrap())
        .collect();
    assert_eq!(
        streamed, reference,
        "streaming vs serial reference diverged"
    );
    let a = serde_json::to_string(&a).unwrap();
    let b = serde_json::to_string(&run_sweep_on(&sweep, 2, 3).unwrap()).unwrap();
    assert_eq!(a, b, "width 1 vs 3 diverged");
}

/// 10⁵ short flows through one bottleneck: with slot recycling the
/// arena holds O(concurrently-active) flow slots (high-water mark ==
/// peak_active); without it, one slot per arrival. Every other output —
/// counters, FCT bits, queue trace moments — is identical, because slot
/// numbering never feeds times or the RNG.
#[test]
fn recycling_pins_arena_to_active_flows() {
    let mk = |recycle: bool| {
        let mut w = Workload::new(
            ArrivalProcess::Poisson { rate: 2000.0 },
            FlowSizeDist::Deterministic { packets: 2 },
            vec![Route::single(0)],
        );
        if !recycle {
            w = w.without_recycling();
        }
        let cfg = net(
            Topology::single(5000.0, Service::Deterministic, None),
            50.0,
            5.0,
            42,
        );
        run_network_workload(&cfg, &[], &w).unwrap()
    };
    let rec = mk(true);
    let noref = mk(false);
    let rs = rec.workload.clone().expect("stats");
    let ns = noref.workload.clone().expect("stats");
    assert!(rs.arrived >= 99_000, "want ~1e5 flows, got {}", rs.arrived);
    assert_eq!(
        ns.slot_high_water, ns.arrived,
        "no recycling: slot per arrival"
    );
    assert_eq!(
        rs.slot_high_water, rs.peak_active,
        "recycling: slots == peak active"
    );
    assert!(
        rs.slot_high_water < rs.arrived / 100,
        "free list failed to bound state: {} slots for {} flows",
        rs.slot_high_water,
        rs.arrived
    );
    // Identical everything else: align the one legitimately different
    // field, then compare whole stats structs and the queue moments.
    let mut ns_aligned = ns;
    ns_aligned.slot_high_water = rs.slot_high_water;
    assert_eq!(rs, ns_aligned, "recycling changed an observable output");
    assert_eq!(
        rec.mean_queue[0].to_bits(),
        noref.mean_queue[0].to_bits(),
        "recycling perturbed the queue trajectory"
    );
}
