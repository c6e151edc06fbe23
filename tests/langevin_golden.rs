//! Bit-exact pins for the Langevin engine: delayed-feedback sample
//! paths, the limit-cycle amplitude reduction over them, and a Markov
//! (τ = 0) ensemble.
//!
//! The constants were captured from the separate delayed-path driver and
//! the float-clock ensemble that `simulate_ensemble_delayed` replaced,
//! so each one proves that the one engine reproduces the old runs bit
//! for bit. A fingerprint is a sample count plus one 64-bit FNV-1a hash
//! over the `f64::to_bits` of every value, so a one-ulp move anywhere
//! fails.

use fpk_repro::congestion::LinearExp;
use fpk_repro::fpk::montecarlo::{
    ensemble_cycle_amplitude, simulate_ensemble, simulate_ensemble_delayed, McConfig,
};

/// 64-bit FNV-1a over the little-endian bytes of every value's bits.
fn fnv1a(data: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn law() -> LinearExp {
    LinearExp::new(1.0, 0.5, 10.0)
}

/// Point-mass paths at (10, −2), one stream (`seed + k`) per path.
fn paths(n: usize, sigma2: f64, seed: u64) -> McConfig {
    McConfig {
        mu: 5.0,
        sigma2,
        n_particles: n,
        dt: 1e-3,
        seed,
        threads: n,
        init_mean: (10.0, -2.0),
        init_std: (0.0, 0.0),
    }
}

/// Every `every`-th step of 1e-3 up to step `last`.
fn record_times(every: usize, last: usize) -> Vec<f64> {
    (0..=last / every)
        .map(|j| (j * every) as f64 * 1e-3)
        .collect()
}

#[test]
fn delayed_path_is_pinned() {
    // τ = 0.5 over 20 s at dt = 1e-3, q and ν recorded every 10th step.
    let snaps =
        simulate_ensemble_delayed(&law(), &paths(1, 0.3, 11), 0.5, &record_times(10, 20_000))
            .unwrap();
    let q: Vec<f64> = snaps.iter().map(|s| s.q[0]).collect();
    let nu: Vec<f64> = snaps.iter().map(|s| s.nu[0]).collect();
    let got = format!("n={} q={:016x} nu={:016x}", q.len(), fnv1a(&q), fnv1a(&nu));
    assert_eq!(got, "n=2001 q=09b4e0750f01308c nu=ac0aa5e07a20aad2");
}

#[test]
fn cycle_amplitude_is_pinned() {
    // Three paths at τ = 1 (streams seed, seed + 1, seed + 2), every
    // 20th step over 30 s.
    let snaps =
        simulate_ensemble_delayed(&law(), &paths(3, 0.1, 55), 1.0, &record_times(20, 30_000))
            .unwrap();
    let (mean, std) = ensemble_cycle_amplitude(&snaps).unwrap();
    let got = format!("{:016x} {:016x}", mean.to_bits(), std.to_bits());
    assert_eq!(got, "40324ab4371e441f 3fd23083b3be8d1c");
}

#[test]
fn markov_ensemble_is_pinned() {
    // 2,000 particles on 3 streams, 1,500 whole steps of 2e-3 to t = 3.
    let snaps = simulate_ensemble(
        &law(),
        &McConfig {
            mu: 5.0,
            sigma2: 0.4,
            n_particles: 2_000,
            dt: 2e-3,
            seed: 42,
            threads: 3,
            init_mean: (3.0, -3.0),
            init_std: (1.2, 0.6),
        },
        &[3.0],
    )
    .unwrap();
    let got = format!(
        "n={} q={:016x} nu={:016x}",
        snaps[0].q.len(),
        fnv1a(&snaps[0].q),
        fnv1a(&snaps[0].nu)
    );
    assert_eq!(got, "n=2000 q=2c845236aac46df8 nu=dcc449f3536fbc82");
}
