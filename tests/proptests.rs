//! Property-based tests over the library's core invariants.
//!
//! These sweep randomised parameters through the analytic theory, the
//! Fokker–Planck kernels and the fluid integrators, checking the
//! invariants the paper's claims rest on:
//!
//! * Theorem 1: the return map contracts for *every* admissible
//!   parameter combination;
//! * sliding-mode shares always sum to μ, are positive, and are ordered
//!   like C0/C1;
//! * finite-volume advection conserves mass and preserves positivity for
//!   arbitrary velocity fields and profiles;
//! * the DDE integrator degenerates to the ODE integrator as τ → 0;
//! * the scenario layer's seed-derivation contract (DESIGN §3b):
//!   reordering axis *values* only moves seeds between the cells whose
//!   positions changed, and growing the replication count R never
//!   perturbs the first R−1 replication seeds;
//! * the DES engine's hot-path contracts (DESIGN §"engine hot path"):
//!   the hand-rolled indexed event queue pops any random stream in the
//!   exact `(t, seq)` order of a reference `BinaryHeap`, and
//!   `run_network_summary` on a reused arena reproduces the summary of
//!   a fresh run bit for bit;
//! * the workload samplers (DESIGN §3f): interarrival and flow-size
//!   draws average to their analytic means at any fixed seed, Zipf
//!   route weights normalise and order by popularity, and cumulative-
//!   weight sampling reproduces the weights exactly in the
//!   infinite-sample (uniform grid) limit;
//! * the RED discipline (DESIGN §3g): the marking probability stays in
//!   `[0, max_p]` along *every* EWMA trajectory, is monotone in the
//!   average, and the EWMA itself never escapes the hull of its
//!   inputs.

use fpk_repro::congestion::theory::{sliding_share, ReturnMap};
use fpk_repro::congestion::{LinearExp, WindowAimd};
use fpk_repro::fluid::{simulate, FluidParams};
use fpk_repro::fpk::fv::{advect_sweep, CnFactor, Limiter};
use fpk_repro::numerics::dde::DdeProblem;
use fpk_repro::scenarios::{Axis, Ensemble, Scenario, Sweep};
use fpk_repro::sim::event::{Event, EventKind, EventQueue};
use fpk_repro::sim::workload::sample_cumulative;
use fpk_repro::sim::{
    red_mark_probability, zipf_weights, ArrivalProcess, FlowSizeDist, HopQdiscState, QDisc,
    QdiscParams, RedMark,
};
use fpk_repro::sim::{
    run_network, summarize_network, FaultConfig, FlowSpec, Link, NetConfig, QdiscKind, Route,
    RtoPolicy, Service, SimConfig, SourceSpec, Topology,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BinaryHeap;

/// A scenario whose contents never run — the seed-contract tests only
/// inspect the grid expansion, not simulation output.
fn grid_scenario() -> Scenario {
    Scenario::new(
        "seed_contract",
        SimConfig {
            mu: 50.0,
            service: Service::Exponential,
            buffer: None,
            t_end: 10.0,
            warmup: 2.0,
            sample_interval: 0.1,
            seed: 0,
        },
        Vec::new(),
    )
}

/// Map each cell's first-axis coordinate to its derived seed.
fn coord_seed_pairs(base_seed: u64, values: &[f64]) -> Vec<(f64, u64)> {
    Sweep::new(grid_scenario(), base_seed)
        .axis(Axis::label_only("v", values.to_vec()))
        .cells()
        .into_iter()
        .map(|c| (c.coords[0], c.seed))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn theorem1_contracts_for_all_parameters(
        c0 in 0.05f64..5.0,
        c1 in 0.05f64..5.0,
        q_hat in 0.5f64..50.0,
        mu in 0.5f64..20.0,
        frac in 0.01f64..0.99,
    ) {
        let law = LinearExp::new(c0, c1, q_hat);
        let map = ReturnMap::new(law, mu).unwrap();
        let lambda0 = frac * mu;
        let contraction = map.contraction(lambda0).unwrap();
        prop_assert!(contraction > 0.0 && contraction < 1.0,
            "contraction {contraction} for c0={c0} c1={c1} q̂={q_hat} mu={mu} λ0={lambda0}");
        // Iterating never overshoots past mu.
        let rates = map.iterate(lambda0, 5).unwrap();
        for r in rates {
            prop_assert!(r < mu && r >= lambda0 - 1e-12);
        }
    }

    #[test]
    fn sliding_shares_sum_to_mu_and_order_by_ratio(
        ratios in prop::collection::vec((0.05f64..5.0, 0.05f64..5.0), 1..8),
        mu in 0.5f64..50.0,
    ) {
        let laws: Vec<LinearExp> = ratios.iter()
            .map(|&(c0, c1)| LinearExp::new(c0, c1, 10.0))
            .collect();
        let shares = sliding_share(&laws, mu).unwrap();
        let total: f64 = shares.iter().sum();
        prop_assert!((total - mu).abs() < 1e-9 * mu.max(1.0));
        prop_assert!(shares.iter().all(|&s| s > 0.0));
        // Ordering matches C0/C1 ordering.
        for i in 0..laws.len() {
            for j in 0..laws.len() {
                let ri = laws[i].c0 / laws[i].c1;
                let rj = laws[j].c0 / laws[j].c1;
                if ri > rj {
                    prop_assert!(shares[i] >= shares[j] - 1e-12);
                }
            }
        }
    }

    #[test]
    fn advection_conserves_mass_and_positivity(
        profile in prop::collection::vec(0.0f64..10.0, 8..64),
        vel_seed in prop::collection::vec(-3.0f64..3.0, 9..65),
        courant in 0.05f64..0.95,
        lim in prop::sample::select(vec![
            Limiter::Upwind, Limiter::Minmod, Limiter::VanLeer, Limiter::Superbee
        ]),
    ) {
        let n = profile.len();
        let mut f = profile.clone();
        // Build an (n+1)-face velocity field from the seed vector.
        let vel: Vec<f64> = (0..=n).map(|k| vel_seed[k % vel_seed.len()]).collect();
        // Sharp CFL for arbitrary (possibly diverging) fields: bound the
        // per-cell outflow through both faces (see fv::advect_sweep docs).
        let max_outflow = (0..n)
            .map(|j| vel[j + 1].max(0.0) - vel[j].min(0.0))
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let dx = 1.0;
        let dt = courant * dx / max_outflow;
        let mut flux = vec![0.0; n + 1];
        let mass0: f64 = f.iter().sum();
        for _ in 0..20 {
            advect_sweep(&mut f, &vel, dx, dt, lim, &mut flux);
        }
        let mass1: f64 = f.iter().sum();
        prop_assert!((mass1 - mass0).abs() <= 1e-9 * mass0.max(1.0),
            "mass {mass0} -> {mass1}");
        prop_assert!(f.iter().all(|&v| v >= -1e-9), "negative density appeared");
    }

    #[test]
    fn crank_nicolson_conserves_mass_any_r(
        profile in prop::collection::vec(0.0f64..5.0, 8..48),
        d in 0.01f64..10.0,
        dt in 0.01f64..10.0,
    ) {
        let n = profile.len();
        let mut f = profile.clone();
        let mass0: f64 = f.iter().sum();
        // r = ½·d·dt/dx² with dx = 1.
        CnFactor::new(n, 0.5 * d * dt).unwrap().solve(&mut f);
        let mass1: f64 = f.iter().sum();
        prop_assert!((mass1 - mass0).abs() <= 1e-9 * mass0.max(1.0));
        prop_assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn swapping_axis_values_only_swaps_the_affected_seeds(
        base_seed_raw in 0usize..usize::MAX,
        n in 2usize..12,
        i in 0usize..12,
        j in 0usize..12,
    ) {
        // Axis values are distinct by construction so coordinates
        // identify cells; swap positions i and j and check that every
        // *unmoved* value keeps exactly the seed it had, while the
        // swapped pair exchange theirs (cell seeds are a pure function
        // of (base_seed, index), per DESIGN §3b).
        let base_seed = base_seed_raw as u64;
        let (i, j) = (i % n, j % n);
        let values: Vec<f64> = (0..n).map(|k| k as f64).collect();
        let mut swapped = values.clone();
        swapped.swap(i, j);
        let before = coord_seed_pairs(base_seed, &values);
        let after = coord_seed_pairs(base_seed, &swapped);
        let seed_of = |pairs: &[(f64, u64)], v: f64| {
            pairs.iter().find(|(c, _)| *c == v).map(|(_, s)| *s).unwrap()
        };
        for (k, &v) in values.iter().enumerate() {
            if k == i || k == j {
                continue;
            }
            prop_assert_eq!(
                seed_of(&before, v),
                seed_of(&after, v),
                "unmoved value {} must keep its seed", v
            );
        }
        if i != j {
            prop_assert_eq!(seed_of(&before, values[i]), seed_of(&after, values[j]));
            prop_assert_eq!(seed_of(&before, values[j]), seed_of(&after, values[i]));
        }
    }

    #[test]
    fn growing_replications_never_perturbs_earlier_seeds(
        cell_seed_raw in 0usize..usize::MAX,
        r_small in 1usize..20,
        extra in 1usize..20,
    ) {
        // DESIGN §3b: replication r of a cell is a pure function of
        // (cell_seed, r), so raising R only appends new seeds.
        let cell_seed = cell_seed_raw as u64;
        let r_big = r_small + extra;
        let small: Vec<u64> = (0..r_small)
            .map(|r| Ensemble::replication_seed(cell_seed, r))
            .collect();
        let big: Vec<u64> = (0..r_big)
            .map(|r| Ensemble::replication_seed(cell_seed, r))
            .collect();
        prop_assert_eq!(&small[..], &big[..r_small]);
        // And the appended seeds are genuinely new streams.
        let mut all = big.clone();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), r_big, "replication seeds must be distinct");
    }

    #[test]
    fn fluid_queue_never_negative(
        c0 in 0.1f64..3.0,
        c1 in 0.1f64..3.0,
        q_hat in 0.5f64..20.0,
        mu in 1.0f64..10.0,
        q0 in 0.0f64..30.0,
        lambda0 in 0.0f64..15.0,
    ) {
        let law = LinearExp::new(c0, c1, q_hat);
        let traj = simulate(&[law], &FluidParams {
            mu, q0, lambda0: vec![lambda0], t_end: 30.0, dt: 1e-3,
        }).unwrap();
        prop_assert!(traj.data().iter().all(|&v| v >= 0.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_event_queue_matches_reference_heap(
        ops in prop::collection::vec((0.0f64..100.0, 0usize..4), 1..400),
    ) {
        // Random interleavings of pushes, pops and merged-lane
        // schedules, with times quantised to quarter units so
        // equal-time ties are frequent: the 4-ary indexed heap plus its
        // side-lane merge must emit the exact `(t, seq)` sequence of a
        // reference `BinaryHeap<Event>` holding *all* events and using
        // the documented reference `Ord`.
        let mut fast = EventQueue::new();
        let mut reference: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq = 0u64;
        // The lane contract allows one pending event per lane; the
        // sample lane (lane 0) is modelled here exactly as the engine
        // uses it.
        let mut sample_pending = false;
        for &(t_raw, op) in &ops {
            let t = (t_raw * 4.0).round() * 0.25;
            match op {
                2 => {
                    let a = fast.pop();
                    if matches!(a, Some(Event { kind: EventKind::Sample, .. })) {
                        sample_pending = false;
                    }
                    prop_assert_eq!(a, reference.pop());
                }
                3 if !sample_pending => {
                    fast.schedule_sample(t);
                    reference.push(Event { t, seq, kind: EventKind::Sample });
                    seq += 1;
                    sample_pending = true;
                }
                _ => {
                    let kind = EventKind::Arrival { flow: op, hop: 0, marked: false, size: 1.0, attempt: 0 };
                    fast.push(t, kind);
                    reference.push(Event { t, seq, kind });
                    seq += 1;
                }
            }
        }
        loop {
            let a = fast.pop();
            let b = reference.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

proptest! {
    // Fewer cases: every case is a pair of full DES runs.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn summary_on_a_reused_arena_matches_a_fresh_run(
        seed_raw in 0usize..10_000,
        mu in 30.0f64..120.0,
        hops in 1usize..4,
        w0 in 1.0f64..4.0,
    ) {
        // DESIGN §"engine hot path": `run_network_summary` on a reused
        // arena must reproduce `summarize_network` of a fresh run bit
        // for bit.
        let seed = seed_raw as u64;
        let flows = vec![
            FlowSpec {
                source: SourceSpec::Window {
                    aimd: WindowAimd::new(1.0, 0.5, 0.05, 8.0),
                    w0,
                },
                route: Route::full(hops),
            },
            FlowSpec {
                source: SourceSpec::Rate {
                    law: LinearExp::new(6.0, 0.5, 8.0),
                    lambda0: 0.3 * mu,
                    update_interval: 0.1,
                    prop_delay: 0.01,
                    poisson: true,
                },
                route: Route::single(0),
            },
        ];
        let cfg = NetConfig {
            topology: Topology::uniform(
                hops,
                Link {
                    mu,
                    service: Service::Exponential,
                    buffer: Some(30),
                },
            ),
            faults: Vec::new(),
            t_end: 6.0,
            warmup: 1.0,
            sample_interval: 0.1,
            seed,
            qdisc: QdiscKind::Fifo,
            packet_bytes: None,
        };
        let full = run_network(&cfg, &flows).unwrap();
        prop_assert_eq!(full.trace_q.len(), 61);
        let reference = summarize_network(&full, 0.5).unwrap();
        // Dirty the arena with another seed so reuse is exercised.
        let mut arena = fpk_repro::sim::NetArena::new();
        let summary = |arena: &mut _, cfg: &NetConfig| {
            fpk_repro::sim::run_network_summary(arena, cfg, &flows, None, 0.5).unwrap()
        };
        summary(&mut arena, &NetConfig { seed: seed ^ 1, ..cfg.clone() });
        let fast = summary(&mut arena, &cfg);
        prop_assert_eq!(&fast.throughputs, &reference.throughputs);
        prop_assert_eq!(fast.jain.to_bits(), reference.jain.to_bits());
        prop_assert_eq!(fast.mean_queue.to_bits(), reference.mean_queue.to_bits());
        prop_assert_eq!(fast.utilization.to_bits(), reference.utilization.to_bits());
        prop_assert_eq!(fast.total_dropped, reference.total_dropped);
        prop_assert_eq!(&fast.ctl_std, &reference.ctl_std);
        let osc = |s: &fpk_repro::sim::RunSummary| {
            s.queue_oscillation
                .as_ref()
                .map(|o| (o.amplitude.to_bits(), o.period.to_bits(), o.cycles))
        };
        prop_assert_eq!(osc(&fast), osc(&reference));
    }
}

proptest! {
    // Fewer cases: each DDE solve is comparatively expensive.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dde_with_tiny_lag_matches_ode(
        rate in 0.2f64..2.0,
        y0 in 0.5f64..3.0,
    ) {
        // y' = -rate·y(t−τ) with τ → 0 approaches y' = -rate·y.
        let phi = move |_t: f64, out: &mut [f64]| out[0] = y0;
        let problem = DdeProblem {
            lags: &[1e-4],
            t0: 0.0,
            t1: 2.0,
            phi: &phi,
            dim: 1,
        };
        let mut rhs = |_t: f64, _y: &[f64], delayed: &[Vec<f64>], d: &mut [f64]| {
            d[0] = -rate * delayed[0][0];
        };
        let traj = problem.solve(&mut rhs, 2000).unwrap();
        let yf = traj.last().unwrap().1[0];
        let exact = y0 * (-rate * 2.0f64).exp();
        prop_assert!((yf - exact).abs() < 2e-3 * y0,
            "yf {yf} vs exact {exact} (rate {rate}, y0 {y0})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn poisson_interarrivals_average_to_one_over_rate(
        rate in 0.5f64..50.0,
        seed_raw in 0usize..10_000,
    ) {
        // DESIGN §3f: one f64 draw per gap, exponential with mean
        // 1/rate. 8k samples put the standard error near 1.1% of the
        // mean; 5% is a comfortable deterministic bound at any seed.
        let p = ArrivalProcess::Poisson { rate };
        let mut rng = StdRng::seed_from_u64(seed_raw as u64);
        let n = 8_000;
        let mean = (0..n).map(|_| p.sample_interarrival(&mut rng)).sum::<f64>() / f64::from(n);
        prop_assert!(
            (mean - 1.0 / rate).abs() < 0.05 / rate,
            "Poisson mean gap {mean} vs 1/rate {}", 1.0 / rate
        );
    }

    #[test]
    fn pareto_interarrivals_keep_the_rate(
        rate in 0.5f64..20.0,
        alpha in 2.2f64..4.0,
        seed_raw in 0usize..10_000,
    ) {
        // The Pareto process is parameterised so its *mean* gap stays
        // 1/rate while alpha sets the burstiness. Finite variance only
        // for alpha > 2, so the mean-convergence check stays there.
        let p = ArrivalProcess::Pareto { rate, alpha };
        let mut rng = StdRng::seed_from_u64(seed_raw as u64);
        let n = 30_000;
        let mean = (0..n).map(|_| p.sample_interarrival(&mut rng)).sum::<f64>() / f64::from(n);
        prop_assert!(
            (mean - 1.0 / rate).abs() < 0.10 / rate,
            "Pareto(alpha={alpha}) mean gap {mean} vs 1/rate {}", 1.0 / rate
        );
    }

    #[test]
    fn bounded_pareto_samples_average_to_the_analytic_mean(
        min in 1.0f64..5.0,
        ratio in 5.0f64..100.0,
        alpha in 1.1f64..2.5,
        seed_raw in 0usize..10_000,
    ) {
        // `FlowSizeDist::mean()` is the continuous bounded-Pareto mean;
        // `sample()` rounds to whole packets (≥ 1), which biases each
        // draw by at most half a packet. The tail is capped at
        // max/min ≤ 100 so 16k samples tame the variance.
        let dist = FlowSizeDist::BoundedPareto { min, max: min * ratio, alpha };
        let analytic = dist.mean();
        let mut rng = StdRng::seed_from_u64(seed_raw as u64);
        let n = 16_000u32;
        let mean = (0..n).map(|_| dist.sample(&mut rng) as f64).sum::<f64>() / f64::from(n);
        prop_assert!(
            (mean - analytic).abs() < 0.10 * analytic + 0.5,
            "bounded-Pareto sample mean {mean} vs analytic {analytic} \
             (min={min} ratio={ratio} alpha={alpha})"
        );
    }

    #[test]
    fn zipf_weights_normalise_and_order_by_popularity(
        n in 1usize..200,
        s in 0.0f64..3.0,
    ) {
        let w = zipf_weights(n, s);
        prop_assert_eq!(w.len(), n);
        let total: f64 = w.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
        prop_assert!(w.iter().all(|&x| x > 0.0));
        // Popularity is non-increasing in rank (strictly for s > 0).
        prop_assert!(w.windows(2).all(|p| p[0] >= p[1] - 1e-15));
        if s == 0.0 {
            prop_assert!(w.iter().all(|&x| (x - 1.0 / n as f64).abs() < 1e-12));
        }
    }

    #[test]
    fn cumulative_sampling_reproduces_the_weights(
        n in 1usize..40,
        s in 0.0f64..2.5,
    ) {
        // Sweep a fine uniform grid of u through the cumulative-weight
        // table: the index must be monotone in u, and each index's
        // hit fraction equals its weight to grid resolution — the
        // reorder-stability contract (DESIGN §3b applied to routes:
        // a route's draw depends only on its cumulative interval, so
        // identical weights → identical choices whatever produced them).
        let w = zipf_weights(n, s);
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &x in &w {
            acc += x;
            cum.push(acc);
        }
        let grid = 20_000usize;
        let mut hits = vec![0usize; n];
        let mut prev = 0;
        for g in 0..grid {
            let u = (g as f64 + 0.5) / grid as f64;
            let i = sample_cumulative(&cum, u);
            prop_assert!(i >= prev, "index not monotone in u");
            prev = i;
            hits[i] += 1;
        }
        for (i, &h) in hits.iter().enumerate() {
            let frac = h as f64 / grid as f64;
            prop_assert!(
                (frac - w[i]).abs() <= 1.0 / grid as f64 + 1e-9,
                "route {i}: hit fraction {frac} vs weight {}", w[i]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn red_probability_bounded_and_monotone(
        min_th in 0.0f64..20.0,
        span in 0.1f64..50.0,
        max_p in 0.0f64..1.0,
        avg_lo in 0.0f64..100.0,
        step in 0.0f64..10.0,
    ) {
        let max_th = min_th + span;
        let p_lo = red_mark_probability(min_th, max_th, max_p, avg_lo);
        let p_hi = red_mark_probability(min_th, max_th, max_p, avg_lo + step);
        for p in [p_lo, p_hi] {
            prop_assert!((0.0..=max_p).contains(&p), "p {p} outside [0, {max_p}]");
        }
        prop_assert!(p_hi >= p_lo, "marking probability must be monotone in avg");
        prop_assert_eq!(red_mark_probability(min_th, max_th, max_p, min_th), 0.0);
        // At avg == max_th the linear ramp reaches max_p up to one
        // rounding of the (max_p · Δ) / Δ product pair.
        let at_max = red_mark_probability(min_th, max_th, max_p, max_th);
        prop_assert!(
            (at_max - max_p).abs() <= 1e-12 * max_p.max(1e-12),
            "ramp top {at_max} vs max_p {max_p}"
        );
    }

    #[test]
    fn red_ewma_trajectory_keeps_probability_in_range(
        weight in 0.001f64..1.0,
        max_p in 0.01f64..1.0,
        seed_raw in 0usize..10_000,
        qs in proptest::collection::vec(0usize..200, 1..120),
    ) {
        // Drive the real RedMark discipline along a random queue-length
        // trajectory: the EWMA must stay inside the hull of its inputs
        // (so it can never overshoot the worst queue it saw) and the
        // implied marking probability stays in [0, max_p] at every step.
        let params = QdiscParams::resolve(QdiscKind::RedMark {
            min_th: 2.5,
            max_th: 10.0,
            max_p,
            weight,
        });
        let mut state = [HopQdiscState::default()];
        let mut rng = StdRng::seed_from_u64(seed_raw as u64);
        let mut hull_max = 0.0f64;
        for (i, &q) in qs.iter().enumerate() {
            let t = i as f64 * 0.01;
            let _ = RedMark::mark(&params, &mut state, 0, t, q as u64, false, 1.0, &mut rng);
            hull_max = hull_max.max(q as f64);
            prop_assert!(
                state[0].red_avg >= 0.0 && state[0].red_avg <= hull_max + 1e-12,
                "EWMA {} escaped [0, {hull_max}]", state[0].red_avg
            );
            let p = red_mark_probability(params.min_th, params.max_th, params.max_p, state[0].red_avg);
            prop_assert!(
                (0.0..=max_p).contains(&p),
                "step {i}: p {p} outside [0, {max_p}]"
            );
        }
    }
}

proptest! {
    // Fewer cases: every case runs full DES horizons.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn degenerate_gilbert_elliott_matches_iid_statistics(
        seed_raw in 0usize..10_000,
        p in 0.05f64..0.30,
        rate in 0.5f64..2.0,
    ) {
        // DESIGN §3i: a Gilbert–Elliott fault with equal sojourn rates
        // and equal per-state loss is statistically an i.i.d. loss of
        // the same probability — the state machine flips, but the loss
        // drawn on every arrival is the same constant. The realisations
        // differ (GE consumes fault-lane draws from the shared stream),
        // so the pin is statistical: both arms' pooled drop fraction
        // must sit within binomial error of `p`, on a paced source with
        // deterministic service so `hop.loss` is the only packet-path
        // uniform.
        let seed = seed_raw as u64;
        let flows = vec![FlowSpec {
            source: SourceSpec::Rate {
                law: LinearExp::new(6.0, 0.5, 8.0),
                lambda0: 50.0,
                update_interval: 1e9, // never adapt: constant 50 pkt/s
                prop_delay: 0.01,
                poisson: false,
            },
            route: Route::single(0),
        }];
        let mk = |fault: FaultConfig| NetConfig {
            topology: Topology::uniform(1, Link {
                mu: 100.0,
                service: Service::Deterministic,
                buffer: None,
            }),
            faults: vec![fault],
            t_end: 40.0,
            warmup: 1.0,
            sample_interval: 0.5,
            seed,
            qdisc: QdiscKind::Fifo,
            packet_bytes: None,
        };
        let iid = run_network(&mk(FaultConfig::Iid { loss_prob: p }), &flows).unwrap();
        let ge = run_network(
            &mk(FaultConfig::GilbertElliott {
                p_gb: rate,
                p_bg: rate,
                loss_good: p,
                loss_bad: p,
            }),
            &flows,
        )
        .unwrap();
        for (name, r) in [("iid", &iid), ("ge", &ge)] {
            let (sent, dropped) = (r.flows[0].sent, r.flows[0].dropped);
            prop_assert!(sent > 1000, "{name}: paced source must emit the horizon");
            let frac = dropped as f64 / sent as f64;
            let tol = 4.0 * (p * (1.0 - p) / sent as f64).sqrt();
            prop_assert!(
                (frac - p).abs() <= tol,
                "{name}: drop fraction {frac} outside {p} ± {tol}"
            );
        }
    }

    #[test]
    fn linkflap_downtime_converges_to_stationary_fraction(
        seed_raw in 0usize..10_000,
        down_rate in 0.2f64..0.5,
        up_rate in 1.0f64..3.0,
    ) {
        // DESIGN §3i: the up/down renewal process spends a long-run
        // fraction down_rate / (up_rate + down_rate) of its time down.
        // Over ~60+ cycles and 3 seeds the measured post-warmup
        // downtime fraction must land within a generous CI of that.
        let expected = down_rate / (up_rate + down_rate);
        let flows = vec![FlowSpec {
            source: SourceSpec::Rate {
                law: LinearExp::new(6.0, 0.5, 8.0),
                lambda0: 1.0,
                update_interval: 1e9,
                prop_delay: 0.01,
                poisson: false,
            },
            route: Route::single(0),
        }];
        let mut mean = 0.0;
        const SEEDS: usize = 3;
        for k in 0..SEEDS {
            let cfg = NetConfig {
                topology: Topology::uniform(1, Link {
                    mu: 100.0,
                    service: Service::Deterministic,
                    buffer: None,
                }),
                faults: vec![FaultConfig::LinkFlap { up_rate, down_rate }],
                t_end: 400.0,
                warmup: 1.0,
                sample_interval: 1.0,
                seed: seed_raw as u64 + k as u64,
                qdisc: QdiscKind::Fifo,
                packet_bytes: None,
            };
            let r = run_network(&cfg, &flows).unwrap();
            prop_assert_eq!(r.downtime_frac.len(), 1);
            prop_assert!((0.0..=1.0).contains(&r.downtime_frac[0]));
            mean += r.downtime_frac[0] / SEEDS as f64;
        }
        let tol = 0.30 * expected + 0.02;
        prop_assert!(
            (mean - expected).abs() <= tol,
            "downtime fraction {mean} outside {expected} ± {tol}"
        );
    }
}

proptest! {
    #[test]
    fn rto_backoff_is_monotone_bounded_and_deterministic(
        rto_base in 1e-3f64..1.0,
        backoff in 1.0f64..4.0,
        max_retries_raw in 1usize..256,
    ) {
        // DESIGN §3i: the retransmission wait is a pure function of the
        // attempt number — rto_base on the first retry, growing
        // geometrically, finite over the whole 1..=255 budget, and
        // identical on every evaluation (the policy draws no RNG).
        let max_retries = max_retries_raw as u32;
        let policy = RtoPolicy { rto_base, backoff, max_retries };
        policy.validate().unwrap();
        prop_assert_eq!(policy.wait_before(1).to_bits(), rto_base.to_bits());
        let mut prev = 0.0f64;
        for attempt in 1..=max_retries {
            let w = policy.wait_before(attempt);
            prop_assert_eq!(w.to_bits(), policy.wait_before(attempt).to_bits());
            prop_assert!(w.is_finite() && w > 0.0, "attempt {attempt}: wait {w}");
            prop_assert!(w >= prev, "attempt {attempt}: {w} < {prev} not monotone");
            let closed_form = rto_base * backoff.powi(attempt as i32 - 1);
            prop_assert!(
                (w - closed_form).abs() <= 1e-12 * closed_form.max(1.0),
                "attempt {attempt}: {w} != closed form {closed_form}"
            );
            prev = w;
        }
        prop_assert!(policy.wait_before(255) <= rto_base * backoff.powi(254) * (1.0 + 1e-12));
    }
}
