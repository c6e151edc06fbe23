//! Stochastic sample paths with **delayed feedback** (Section 7, with
//! noise).
//!
//! Under a feedback lag τ the pair (Q(t), ν(t)) is no longer Markov — its
//! evolution depends on the trajectory segment Q([t−τ, t]) — so no
//! two-variable Fokker–Planck equation exists; the paper, too, switches
//! to characteristic-based arguments for Section 7. This module follows
//! the same route stochastically: Euler–Maruyama paths where the control
//! reads a history buffer, giving the noisy analogue of the fluid DDE
//! limit cycles and the ensemble spread around them.

use crate::montecarlo::Ziggurat;
use fpk_congestion::RateControl;
use fpk_numerics::{NumericsError, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for a delayed stochastic path simulation.
#[derive(Debug, Clone)]
pub struct DelayedMcConfig {
    /// Service rate μ.
    pub mu: f64,
    /// Noise strength σ².
    pub sigma2: f64,
    /// Feedback delay τ > 0 (the control sees Q(t − τ)).
    pub tau: f64,
    /// Time step (must divide τ reasonably; the history buffer holds
    /// `ceil(τ/dt)` samples).
    pub dt: f64,
    /// Total simulated time.
    pub t_end: f64,
    /// RNG seed.
    pub seed: u64,
    /// Initial (q, ν).
    pub init: (f64, f64),
}

/// One recorded sample path.
#[derive(Debug, Clone)]
pub struct DelayedPath {
    /// Sample times (every `record_every`-th step).
    pub t: Vec<f64>,
    /// Queue length.
    pub q: Vec<f64>,
    /// Growth rate.
    pub nu: Vec<f64>,
}

/// Simulate one delayed sample path, recording every `record_every`-th
/// step (1 = every step).
///
/// # Errors
/// [`NumericsError::InvalidParameter`], naming the field, for a
/// non-positive or non-finite τ, dt, t_end or μ, a negative or
/// non-finite σ², or `record_every == 0`.
pub fn simulate_delayed_path<L: RateControl>(
    law: &L,
    cfg: &DelayedMcConfig,
    record_every: usize,
) -> Result<DelayedPath> {
    let positive = |x: f64| x > 0.0 && x.is_finite();
    for (ok, context) in [
        (
            positive(cfg.tau),
            "DelayedMcConfig: tau must be finite and > 0",
        ),
        (
            positive(cfg.dt),
            "DelayedMcConfig: dt must be finite and > 0",
        ),
        (
            positive(cfg.t_end),
            "DelayedMcConfig: t_end must be finite and > 0",
        ),
        (
            positive(cfg.mu),
            "DelayedMcConfig: mu must be finite and > 0",
        ),
        (
            cfg.sigma2 >= 0.0 && cfg.sigma2.is_finite(),
            "DelayedMcConfig: sigma2 must be finite and >= 0",
        ),
        (
            record_every > 0,
            "simulate_delayed_path: record_every must be > 0",
        ),
    ] {
        if !ok {
            return Err(NumericsError::InvalidParameter { context });
        }
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let zig = Ziggurat::new();
    let lag_steps = (cfg.tau / cfg.dt).ceil() as usize;
    let n_steps = (cfg.t_end / cfg.dt).ceil() as usize;
    let sigma = cfg.sigma2.sqrt();
    let sq_dt = cfg.dt.sqrt();

    // Ring buffer of past queue values; pre-filled with the initial value
    // (constant history, matching the fluid DDE setup).
    let mut history = vec![cfg.init.0; lag_steps];
    let mut head = 0usize;

    let (mut q, mut nu) = cfg.init;
    q = q.max(0.0);
    nu = nu.max(-cfg.mu);

    let cap = n_steps / record_every + 2;
    let mut path = DelayedPath {
        t: Vec::with_capacity(cap),
        q: Vec::with_capacity(cap),
        nu: Vec::with_capacity(cap),
    };
    path.t.push(0.0);
    path.q.push(q);
    path.nu.push(nu);

    for step in 0..n_steps {
        // Oldest entry = Q(t − τ).
        let q_stale = history[head];
        // Sticky wall for the drift (paper convention), reflecting for
        // the noise — matching the PDE boundary treatment.
        let q_det = (q + nu * cfg.dt).max(0.0);
        let mut q_new = q_det + sigma * sq_dt * zig.sample(&mut rng);
        if q_new < 0.0 {
            q_new = -q_new;
        }
        let g = law.g(q_stale, nu + cfg.mu);
        let mut nu_new = nu + g * cfg.dt;
        if nu_new < -cfg.mu {
            nu_new = -cfg.mu;
        }
        // Rotate the history: overwrite the oldest slot with the current
        // (pre-step) queue value.
        history[head] = q;
        head = (head + 1) % lag_steps;

        q = q_new;
        nu = nu_new;
        if (step + 1) % record_every == 0 {
            path.t.push((step + 1) as f64 * cfg.dt);
            path.q.push(q);
            path.nu.push(nu);
        }
    }
    Ok(path)
}

/// Limit-cycle statistics over an ensemble of independent delayed paths.
///
/// Stochastic jitter litters a noisy path with micro-extrema, so
/// peak-detection amplitude estimates collapse to the noise envelope;
/// instead each path's tail "amplitude" is its central-95% spread
/// (p97.5 − p2.5 of the final half), which tracks the macro limit cycle
/// and degrades gracefully to the stationary noise band as τ → 0.
/// Returns `(mean, std)` across paths.
///
/// # Errors
/// Propagates path-simulation errors; rejects `n_paths == 0`.
pub fn ensemble_cycle_amplitude<L: RateControl>(
    law: &L,
    cfg: &DelayedMcConfig,
    n_paths: usize,
    record_every: usize,
) -> Result<(f64, f64)> {
    if n_paths == 0 {
        return Err(NumericsError::InvalidParameter {
            context: "ensemble_cycle_amplitude: need n_paths > 0",
        });
    }
    let mut amps = Vec::with_capacity(n_paths);
    for k in 0..n_paths {
        let mut c = cfg.clone();
        c.seed = cfg.seed.wrapping_add(k as u64);
        let path = simulate_delayed_path(law, &c, record_every)?;
        let tail = &path.q[path.q.len() / 2..];
        let mut sorted = tail.to_vec();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = sorted[(0.025 * sorted.len() as f64) as usize];
        let hi = sorted[((0.975 * sorted.len() as f64) as usize).min(sorted.len() - 1)];
        amps.push(hi - lo);
    }
    let mean = fpk_numerics::stats::mean(&amps);
    let std = fpk_numerics::stats::variance(&amps).sqrt();
    Ok((mean, std))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpk_congestion::LinearExp;

    fn law() -> LinearExp {
        LinearExp::new(1.0, 0.5, 10.0)
    }

    fn cfg(tau: f64, sigma2: f64) -> DelayedMcConfig {
        DelayedMcConfig {
            mu: 5.0,
            sigma2,
            tau,
            dt: 1e-3,
            t_end: 300.0,
            seed: 11,
            init: (10.0, -2.0),
        }
    }

    #[test]
    fn path_respects_bounds() {
        let path = simulate_delayed_path(&law(), &cfg(2.0, 0.5), 10).unwrap();
        assert!(path.q.iter().all(|&q| q >= 0.0));
        assert!(path.nu.iter().all(|&nu| nu >= -5.0));
        assert!(path.t.len() > 1000);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = simulate_delayed_path(&law(), &cfg(1.0, 0.2), 5).unwrap();
        let b = simulate_delayed_path(&law(), &cfg(1.0, 0.2), 5).unwrap();
        assert_eq!(a.q, b.q);
    }

    #[test]
    fn noiseless_delayed_path_matches_fluid_dde_regime() {
        // σ = 0, τ = 2: should show a sustained limit cycle like the
        // fluid DDE (amplitude > 1 in the tail).
        let path = simulate_delayed_path(&law(), &cfg(2.0, 0.0), 10).unwrap();
        let osc = fpk_numerics::signal::analyze_oscillation(&path.t, &path.q, 0.4)
            .unwrap()
            .expect("delayed path should oscillate");
        assert!(osc.amplitude > 1.0, "amplitude {}", osc.amplitude);
    }

    #[test]
    fn amplitude_grows_with_delay_stochastically() {
        let (a_small, _) = ensemble_cycle_amplitude(&law(), &cfg(0.5, 0.1), 4, 20).unwrap();
        let (a_large, _) = ensemble_cycle_amplitude(&law(), &cfg(3.0, 0.1), 4, 20).unwrap();
        assert!(
            a_large > a_small,
            "amplitude should grow with τ: {a_small} -> {a_large}"
        );
    }

    #[test]
    fn rejects_bad_config() {
        let mut c = cfg(1.0, 0.1);
        c.tau = 0.0;
        assert!(simulate_delayed_path(&law(), &c, 1).is_err());
        let c2 = cfg(1.0, 0.1);
        assert!(simulate_delayed_path(&law(), &c2, 0).is_err());
        let mut c3 = cfg(1.0, 0.1);
        c3.sigma2 = -0.1;
        assert!(simulate_delayed_path(&law(), &c3, 1).is_err());
    }

    #[test]
    fn non_finite_parameters_rejected_by_name() {
        let cases: [(&str, fn(&mut DelayedMcConfig)); 6] = [
            ("tau", |c| c.tau = f64::INFINITY),
            ("t_end", |c| c.t_end = f64::INFINITY),
            ("dt", |c| c.dt = f64::INFINITY),
            ("mu", |c| c.mu = f64::INFINITY),
            ("sigma2", |c| c.sigma2 = f64::NAN),
            ("sigma2", |c| c.sigma2 = f64::INFINITY),
        ];
        for (field, spoil) in cases {
            let mut bad = cfg(1.0, 0.1);
            bad.t_end = 2.0;
            spoil(&mut bad);
            match simulate_delayed_path(&law(), &bad, 1) {
                Err(NumericsError::InvalidParameter { context }) => {
                    assert!(context.contains(field), "{field}: {context}");
                }
                other => panic!("{field}: expected InvalidParameter, got {other:?}"),
            }
        }
    }

    #[test]
    fn ensemble_amplitude_empty_guard() {
        assert!(ensemble_cycle_amplitude(&law(), &cfg(1.0, 0.1), 0, 1).is_err());
    }
}
