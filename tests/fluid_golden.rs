//! Bit-exact pins for the fluid model: the fixed-step RK4 integrator of
//! `fluid::simulate`, the delayed-feedback DDE of
//! `fluid::delay::simulate_delayed` and the event-driven Dormand–Prince
//! tracer `fluid::events::trace_events`.
//!
//! The RK4 constants were captured from the separate single-source and
//! N-source RK4 loops that `simulate` replaced, so each one proves that a
//! run through the merged integrator reproduces the old loop bit for bit;
//! the event-trace constants from the tracer that recorded every
//! Dormand–Prince step and kept its switchings as a list of structs.
//! A fingerprint is the sample count plus one 64-bit FNV-1a hash over the
//! `f64::to_bits` of every `t`, every `q` and every λ (row-major: source
//! `i` at sample `k`, then source `i + 1`), so a one-ulp move anywhere
//! fails.

use fpk_repro::congestion::{LinearExp, LinearLinear};
use fpk_repro::fluid::delay::{simulate_delayed, DelayParams};
use fpk_repro::fluid::events::trace_events;
use fpk_repro::fluid::{queue, simulate, state, FluidParams};
use fpk_repro::numerics::Series;

/// 64-bit FNV-1a over the little-endian bytes of every value's bits.
fn fnv1a(data: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fingerprint(traj: &Series) -> String {
    let lambda = (0..traj.len()).flat_map(|k| state(traj.row(k)).1.iter().copied());
    format!(
        "n={} t={:016x} q={:016x} l={:016x}",
        traj.len(),
        fnv1a(traj.t().iter().copied()),
        fnv1a(queue(traj)),
        fnv1a(lambda)
    )
}

#[test]
fn one_source_quickstart_is_pinned() {
    // The quickstart example's fluid run.
    let traj = simulate(
        &[LinearExp::new(1.0, 0.5, 10.0)],
        &FluidParams {
            mu: 5.0,
            q0: 2.0,
            lambda0: vec![1.0],
            t_end: 120.0,
            dt: 1e-3,
        },
    )
    .unwrap();
    assert_eq!(
        fingerprint(&traj),
        "n=120001 t=c33fcb18d84c2ae1 q=edf8b8a5d8d36781 l=4718081c6bdd8237"
    );
}

#[test]
fn one_linear_linear_source_is_pinned() {
    // Table 5's τ = 0 linear/linear row: a closed orbit, never settling.
    let traj = simulate(
        &[LinearLinear::new(1.0, 1.0, 10.0)],
        &FluidParams {
            mu: 5.0,
            q0: 10.0,
            lambda0: vec![4.0],
            t_end: 300.0,
            dt: 2e-3,
        },
    )
    .unwrap();
    assert_eq!(
        fingerprint(&traj),
        "n=150001 t=900c3e3d3d7d2ade q=523e32db09aa2321 l=1ab39c696ac482c9"
    );
}

#[test]
fn four_heterogeneous_sources_are_pinned() {
    // Table 4's four-source bundle.
    let laws: Vec<LinearExp> = [(0.5, 0.5), (1.0, 0.5), (1.5, 0.5), (2.0, 0.5)]
        .iter()
        .map(|&(c0, c1)| LinearExp::new(c0, c1, 10.0))
        .collect();
    let traj = simulate(
        &laws,
        &FluidParams {
            mu: 10.0,
            q0: 0.0,
            lambda0: vec![1.0; 4],
            t_end: 600.0,
            dt: 2e-3,
        },
    )
    .unwrap();
    assert_eq!(traj.width(), 1 + 4);
    assert_eq!(
        fingerprint(&traj),
        "n=300001 t=e5bbf08c9612818e q=475ebb0b352ee840 l=964dfc05a5e8ad0e"
    );
}

#[test]
fn delayed_one_source_is_pinned() {
    // Table 5's τ = 1 linear/exponential row.
    let traj = simulate_delayed(
        &[LinearExp::new(1.0, 0.5, 10.0)],
        &DelayParams {
            mu: 5.0,
            q0: 10.0,
            lambda0: vec![4.0],
            taus: vec![1.0],
            t_end: 300.0,
            steps: 60_000,
        },
    )
    .unwrap();
    assert_eq!(
        fingerprint(&traj),
        "n=60001 t=9892c814e71757da q=5f2371d87a4d92cd l=4163ac7327bddc4d"
    );
}

#[test]
fn event_traces_are_pinned() {
    // Table 10's reference run (its only Dormand–Prince caller), then a
    // run that drains the queue, so the empty-queue arc is pinned too.
    for (law, q0, lambda0, pin) in [
        (LinearExp::new(1.0, 0.5, 10.0), 2.0, 1.0,
         "n=17 t=14573fd8b582f4b8 q=e80e9a52ca105aca l=2ad6a90cb81a9fca end=(40244253d9bcef2b, 40148303b30e736a)"),
        (LinearExp::new(0.2, 0.5, 0.5), 0.5, 0.0,
         "n=8 t=035feee3d188f344 q=053d649ca2dd1490 l=e3bbc86b78967700 end=(3fdaafc04a835189, 401554ae0fbf616a)"),
    ] {
        let trace = trace_events(&law, 5.0, q0, lambda0, 40.0).unwrap();
        let (q, lambda) = trace.final_state;
        let end = format!("end=({:016x}, {:016x})", q.to_bits(), lambda.to_bits());
        assert_eq!(format!("{} {end}", fingerprint(&trace.switchings)), pin);
    }
}
