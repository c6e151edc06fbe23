//! Statistical-equivalence gate for the Langevin ensemble's Gaussian
//! sampler.
//!
//! `simulate_ensemble` draws its noise from a ziggurat sampler, so its
//! sample paths are not bitwise those of the historical Box–Muller
//! sampler. What must not change is the law of the ensemble. This test
//! keeps a reference Euler–Maruyama loop driven by the historical
//! Box–Muller sampler, with the same sticky wall, reflection and λ-floor
//! as `simulate_ensemble`, and pins the two ensembles together: moments
//! of q and ν within 4 standard errors, and the two-sample KS statistic
//! of q below its α = 0.001 critical value.

use fpk_repro::congestion::{LinearExp, RateControl};
use fpk_repro::fpk::montecarlo::{simulate_ensemble, McConfig};
use fpk_repro::numerics::stats::ks_statistic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TIMES: [f64; 2] = [0.5, 1.0];

/// The historical sampler: one Box–Muller normal, sine half discarded.
fn box_muller<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// Single-stream Euler–Maruyama ensemble with `simulate_ensemble`'s
/// boundary logic; returns `(q, ν)` samples at each snapshot time.
fn reference_ensemble<L: RateControl>(
    law: &L,
    cfg: &McConfig,
    times: &[f64],
) -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sigma = cfg.sigma2.sqrt();
    let n = cfg.n_particles;
    let mut qs = vec![0.0f64; n];
    let mut nus = vec![0.0f64; n];
    for p in 0..n {
        qs[p] = (cfg.init_mean.0 + cfg.init_std.0 * box_muller(&mut rng)).max(0.0);
        nus[p] = (cfg.init_mean.1 + cfg.init_std.1 * box_muller(&mut rng)).max(-cfg.mu);
    }
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(times.len());
    for &time in times {
        while t < time - 1e-12 {
            let dt = cfg.dt.min(time - t);
            let sq_dt = dt.sqrt();
            for p in 0..n {
                let (q, nu) = (qs[p], nus[p]);
                let q_det = (q + nu * dt).max(0.0);
                let mut q_new = q_det + sigma * sq_dt * box_muller(&mut rng);
                if q_new < 0.0 {
                    q_new = -q_new;
                }
                let mut nu_new = nu + law.g(q, nu + cfg.mu) * dt;
                if nu_new < -cfg.mu {
                    nu_new = -cfg.mu;
                }
                qs[p] = q_new;
                nus[p] = nu_new;
            }
            t += dt;
        }
        out.push((qs.clone(), nus.clone()));
    }
    out
}

/// Sample mean and variance with their standard errors.
struct Moments {
    mean: f64,
    var: f64,
    se_mean: f64,
    se_var: f64,
}

fn moments(x: &[f64]) -> Moments {
    let n = x.len() as f64;
    let mean = x.iter().sum::<f64>() / n;
    let var = x.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    let m4 = x.iter().map(|v| (v - mean).powi(4)).sum::<f64>() / n;
    Moments {
        mean,
        var,
        se_mean: (var / n).sqrt(),
        se_var: ((m4 - var * var) / n).sqrt(),
    }
}

/// Means and variances of two samples agree within 4 combined SEs.
fn assert_moments_agree(label: &str, a: &[f64], b: &[f64]) {
    let (ma, mb) = (moments(a), moments(b));
    let se_mean = ma.se_mean.hypot(mb.se_mean);
    let se_var = ma.se_var.hypot(mb.se_var);
    assert!(
        (ma.mean - mb.mean).abs() < 4.0 * se_mean,
        "{label}: mean {} vs reference {} (SE {se_mean})",
        ma.mean,
        mb.mean
    );
    assert!(
        (ma.var - mb.var).abs() < 4.0 * se_var,
        "{label}: variance {} vs reference {} (SE {se_var})",
        ma.var,
        mb.var
    );
}

#[test]
fn ziggurat_ensemble_matches_box_muller_reference() {
    // Table 2's law, noise and initial mean: the ensemble drains towards
    // the empty queue, so the sticky wall and the reflection both act.
    // The initial spread is narrower than Table 2's, so that the q
    // variance is mostly noise and a 10% error in its strength shows.
    let law = LinearExp::new(1.0, 0.5, 10.0);
    let cfg = McConfig {
        mu: 5.0,
        sigma2: 0.4,
        n_particles: 10_000,
        dt: 2e-3,
        seed: 2024,
        threads: 2,
        init_mean: (3.0, -3.0),
        init_std: (0.2, 0.1),
    };
    let zig = simulate_ensemble(&law, &cfg, &TIMES).unwrap();
    let reference = reference_ensemble(
        &law,
        &McConfig {
            seed: 77,
            ..cfg.clone()
        },
        &TIMES,
    );

    let n = cfg.n_particles as f64;
    let ks_crit = 1.95 * (2.0 / n).sqrt();
    for (snap, (ref_q, ref_nu)) in zig.iter().zip(&reference) {
        assert!(
            snap.q.iter().any(|&q| q < 0.05),
            "t = {}: the wall is never approached",
            snap.t
        );
        assert_moments_agree(&format!("q at t = {}", snap.t), &snap.q, ref_q);
        assert_moments_agree(&format!("nu at t = {}", snap.t), &snap.nu, ref_nu);
        let ks = ks_statistic(&snap.q, ref_q).unwrap();
        assert!(
            ks < ks_crit,
            "t = {}: two-sample KS {ks} above the alpha = 0.001 critical value {ks_crit}",
            snap.t
        );
    }
}
