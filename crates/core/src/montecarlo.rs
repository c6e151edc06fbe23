//! Langevin Monte-Carlo simulation of the process whose density obeys
//! Eq. 14, and of its delayed-feedback variant (Section 7):
//!
//! ```text
//! dQ = ν dt + σ dW              (reflected at Q = 0)
//! dν = g(Q(t − τ), ν + μ) dt     (clamped so λ = ν + μ ≥ 0)
//! ```
//!
//! Euler–Maruyama with reflection at the empty-queue boundary is the
//! sample-path twin of the PDE with its zero-flux boundary; at τ = 0
//! ([`simulate_ensemble`]) histograms of a particle ensemble must agree
//! with the solver's marginals (experiment E4 — the KS distance is the
//! reported metric). Under a feedback lag τ > 0
//! ([`simulate_ensemble_delayed`]) the pair (Q, ν) is no longer Markov,
//! so no two-variable Fokker–Planck equation exists; the paper switches
//! to characteristic arguments for Section 7 and this module follows it
//! on sample paths, the noisy analogue of the fluid DDE's limit cycles
//! ([`ensemble_cycle_amplitude`]). Both are one engine: the control law
//! reads q from a per-particle ring of `ceil(τ/dt)` past values, or the
//! current q when τ = 0.
//!
//! Time runs on an integer step clock: every step is exactly `dt`, and a
//! snapshot time `t` is reached after `round(t/dt)` steps, so snapshot
//! times must lie on the dt grid. The ensemble runs in parallel with
//! `std::thread::scope`, one deterministic RNG stream (`seed + chunk`)
//! per chunk, so results are bit-reproducible for a fixed (seed, thread
//! count) pair and statistically identical across thread counts.
//!
//! Gaussian noise comes from a 128-layer ziggurat (`Ziggurat`, Marsaglia
//! & Tsang 2000 in Doornik's ZIGNOR layout) over the vendored
//! xoshiro256++: one 64-bit word per normal on the ~99% fast path, exact
//! wedge rejection and Marsaglia's exponential tail otherwise. The tables
//! are built once per call and shared by reference across the workers.
//! It replaced a Box–Muller sampler, so sample paths are not bitwise
//! those of older builds; `tests/mc_sampler_equivalence.rs` pins the
//! ensemble to a Box–Muller reference in moments and two-sample KS.

use fpk_congestion::RateControl;
use fpk_numerics::{NumericsError, Result};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Configuration of a Monte-Carlo ensemble run.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Service rate μ.
    pub mu: f64,
    /// Noise strength σ² (matching the PDE's diffusion coefficient).
    pub sigma2: f64,
    /// Number of particles.
    pub n_particles: usize,
    /// Euler–Maruyama step.
    pub dt: f64,
    /// Base RNG seed; each worker chunk derives `seed + chunk_index`.
    pub seed: u64,
    /// Number of worker threads (1 = sequential).
    pub threads: usize,
    /// Initial mean (q, ν) of the ensemble.
    pub init_mean: (f64, f64),
    /// Initial standard deviation (q, ν) of the (Gaussian) ensemble. A
    /// zero component is a point mass at its mean and draws nothing.
    pub init_std: (f64, f64),
}

impl McConfig {
    /// Check the configuration, the feedback lag `tau` and the snapshot
    /// times, and return each snapshot's whole number of steps.
    fn validate(&self, tau: f64, snapshot_times: &[f64]) -> Result<Vec<u64>> {
        let on_grid = |t: &f64| {
            let steps = t / self.dt;
            (steps - steps.round()).abs() <= 1e-6
        };
        // Each check is phrased positively so NaN fails it too.
        for (ok, context) in [
            (
                self.mu > 0.0 && self.mu.is_finite(),
                "McConfig: mu must be finite and > 0",
            ),
            (
                self.sigma2 >= 0.0 && self.sigma2.is_finite(),
                "McConfig: sigma2 must be finite and >= 0",
            ),
            (
                self.dt > 0.0 && self.dt.is_finite(),
                "McConfig: dt must be finite and > 0",
            ),
            (
                self.n_particles > 0 && self.threads > 0,
                "McConfig: need n_particles > 0 and threads > 0",
            ),
            (
                self.init_mean.0.is_finite() && self.init_mean.1.is_finite(),
                "McConfig: init_mean must be finite",
            ),
            (
                [self.init_std.0, self.init_std.1]
                    .iter()
                    .all(|s| *s >= 0.0 && s.is_finite()),
                "McConfig: init_std must be finite and >= 0",
            ),
            (
                tau >= 0.0 && tau.is_finite(),
                "simulate_ensemble: tau must be finite and >= 0",
            ),
            (
                snapshot_times.first().is_some_and(|&t0| t0 >= 0.0)
                    && snapshot_times.iter().all(|t| t.is_finite())
                    && snapshot_times.windows(2).all(|w| w[1] > w[0]),
                "simulate_ensemble: snapshot_times must be finite, non-negative and increasing",
            ),
            (
                snapshot_times.iter().all(on_grid),
                "simulate_ensemble: snapshot_times must be whole multiples of dt",
            ),
        ] {
            if !ok {
                return Err(NumericsError::InvalidParameter { context });
            }
        }
        Ok(snapshot_times
            .iter()
            .map(|t| (t / self.dt).round() as u64)
            .collect())
    }
}

/// Ensemble state at one snapshot time.
#[derive(Debug, Clone)]
pub struct McSnapshot {
    /// Snapshot time.
    pub t: f64,
    /// Queue-length samples (one per particle).
    pub q: Vec<f64>,
    /// Growth-rate samples (one per particle).
    pub nu: Vec<f64>,
}

impl McSnapshot {
    /// Sample mean of q.
    #[must_use]
    pub fn mean_q(&self) -> f64 {
        fpk_numerics::stats::mean(&self.q)
    }

    /// Sample mean of ν.
    #[must_use]
    pub fn mean_nu(&self) -> f64 {
        fpk_numerics::stats::mean(&self.nu)
    }

    /// Sample variance of q.
    #[must_use]
    pub fn var_q(&self) -> f64 {
        fpk_numerics::stats::variance(&self.q)
    }
}

/// Simulate the Markov (τ = 0) ensemble, recording snapshots at the
/// requested times: [`simulate_ensemble_delayed`] with no feedback lag.
///
/// # Errors
/// As [`simulate_ensemble_delayed`].
pub fn simulate_ensemble<L: RateControl + Sync>(
    law: &L,
    cfg: &McConfig,
    snapshot_times: &[f64],
) -> Result<Vec<McSnapshot>> {
    simulate_ensemble_delayed(law, cfg, 0.0, snapshot_times)
}

/// Simulate the ensemble with the control reading q(t − τ), recording
/// snapshots at the requested times (finite, non-negative, strictly
/// increasing whole multiples of `dt`).
///
/// Each particle keeps a ring of `ceil(τ/dt)` past queue values,
/// pre-filled with its initial q (a constant history, as in the fluid
/// DDE); with τ = 0 the control reads the current q.
///
/// # Errors
/// [`NumericsError::InvalidParameter`], naming the field, for an invalid
/// configuration, a negative or non-finite `tau`, or empty, unsorted,
/// non-finite or off-grid `snapshot_times`.
pub fn simulate_ensemble_delayed<L: RateControl + Sync>(
    law: &L,
    cfg: &McConfig,
    tau: f64,
    snapshot_times: &[f64],
) -> Result<Vec<McSnapshot>> {
    let snapshot_steps = cfg.validate(tau, snapshot_times)?;
    let lag = (tau / cfg.dt).ceil() as usize;
    let n = cfg.n_particles;
    let chunk = n.div_ceil(cfg.threads.min(n));
    // One stream per non-empty chunk: `threads` chunks of `chunk` may
    // overshoot `n` (10 particles on 8 threads fill only 5 chunks of 2).
    let streams = n.div_ceil(chunk);
    let zig = Ziggurat::new();
    let stepper = Stepper {
        law,
        zig: &zig,
        mu: cfg.mu,
        dt: cfg.dt,
        noise: cfg.sigma2.sqrt() * cfg.dt.sqrt(),
    };

    // Pre-allocate snapshot stores.
    let mut snaps: Vec<McSnapshot> = snapshot_times
        .iter()
        .map(|&t| McSnapshot {
            t,
            q: vec![0.0; n],
            nu: vec![0.0; n],
        })
        .collect();

    // Split the per-snapshot buffers into per-chunk windows so worker
    // threads write disjoint slices.
    let mut snap_views: Vec<Vec<(&mut [f64], &mut [f64])>> = Vec::with_capacity(streams);
    {
        // Decompose each snapshot's q/nu into `streams` chunks.
        let mut remaining: Vec<(&mut [f64], &mut [f64])> = snaps
            .iter_mut()
            .map(|s| (s.q.as_mut_slice(), s.nu.as_mut_slice()))
            .collect();
        for c in 0..streams {
            let size = chunk.min(n - c * chunk);
            let mut this_chunk = Vec::with_capacity(remaining.len());
            let mut rest = Vec::with_capacity(remaining.len());
            for (q, nu) in remaining {
                let (q_head, q_tail) = q.split_at_mut(size);
                let (nu_head, nu_tail) = nu.split_at_mut(size);
                this_chunk.push((q_head, nu_head));
                rest.push((q_tail, nu_tail));
            }
            snap_views.push(this_chunk);
            remaining = rest;
        }
    }

    std::thread::scope(|scope| {
        for (c, mut views) in snap_views.into_iter().enumerate() {
            let stepper = &stepper;
            let snapshot_steps = &snapshot_steps;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(c as u64));
                let count = views.first().map_or(0, |(q, _)| q.len());
                let mut qs = vec![0.0f64; count];
                let mut nus = vec![0.0f64; count];
                // A zero spread is a point mass and draws nothing.
                let mut draw = |mean: f64, std: f64| {
                    if std == 0.0 {
                        mean
                    } else {
                        mean + std * stepper.zig.sample(&mut rng)
                    }
                };
                for p in 0..count {
                    qs[p] = draw(cfg.init_mean.0, cfg.init_std.0).max(0.0);
                    nus[p] = draw(cfg.init_mean.1, cfg.init_std.1).max(-cfg.mu);
                }
                // Slot-major ring of past queue values, `lag` slots of
                // `count`; slot `head` holds every particle's q(t − τ).
                let mut ring: Vec<f64> = qs.repeat(lag);
                let mut head = 0usize;
                let mut done = 0u64;
                for (si, &target) in snapshot_steps.iter().enumerate() {
                    while done < target {
                        if lag == 0 {
                            stepper.step::<false>(&mut rng, &mut qs, &mut nus, &mut []);
                        } else {
                            let slot = &mut ring[head * count..(head + 1) * count];
                            stepper.step::<true>(&mut rng, &mut qs, &mut nus, slot);
                            head = (head + 1) % lag;
                        }
                        done += 1;
                    }
                    let (q_out, nu_out) = &mut views[si];
                    q_out.copy_from_slice(&qs);
                    nu_out.copy_from_slice(&nus);
                }
            });
        }
    });
    Ok(snaps)
}

/// The Euler–Maruyama step shared by every ensemble run.
struct Stepper<'a, L> {
    law: &'a L,
    zig: &'a Ziggurat,
    mu: f64,
    dt: f64,
    /// σ·√dt, the standard deviation of one step's noise.
    noise: f64,
}

impl<L: RateControl> Stepper<'_, L> {
    /// Advance every particle of a chunk by one step. With `LAGGED` the
    /// control reads `lagged[p]`, q(t − τ), which is then overwritten by
    /// the pre-step q; otherwise it reads the current q and `lagged` is
    /// unused. Kept out of line so each variant is one tight loop.
    #[inline(never)]
    fn step<const LAGGED: bool>(
        &self,
        rng: &mut StdRng,
        qs: &mut [f64],
        nus: &mut [f64],
        lagged: &mut [f64],
    ) {
        for p in 0..qs.len() {
            let q = qs[p];
            let nu = nus[p];
            let q_ctl = if LAGGED {
                std::mem::replace(&mut lagged[p], q)
            } else {
                q
            };
            // Empty-queue convention: the *drift* cannot push the queue
            // below empty (sticky wall, matching the PDE's blocked
            // advective flux); only the noise reflects (zero-flux
            // diffusion).
            let q_det = (q + nu * self.dt).max(0.0);
            let mut q_new = q_det + self.noise * self.zig.sample(rng);
            if q_new < 0.0 {
                q_new = -q_new;
            }
            let g = self.law.g(q_ctl, nu + self.mu);
            let mut nu_new = nu + g * self.dt;
            if nu_new < -self.mu {
                nu_new = -self.mu; // λ >= 0
            }
            qs[p] = q_new;
            nus[p] = nu_new;
        }
    }
}

/// Limit-cycle amplitude over the snapshots of one (delayed) ensemble:
/// `(mean, std)` across particles of each particle's tail amplitude.
///
/// Stochastic jitter litters a noisy path with micro-extrema, so
/// peak-detection amplitude estimates collapse to the noise envelope;
/// instead a particle's "amplitude" is its central-95% spread (p97.5 −
/// p2.5) over the final half of the snapshots, which tracks the macro
/// limit cycle and degrades gracefully to the stationary noise band as
/// τ → 0.
///
/// # Errors
/// [`NumericsError::InvalidParameter`] for no snapshots.
pub fn ensemble_cycle_amplitude(snaps: &[McSnapshot]) -> Result<(f64, f64)> {
    let Some(first) = snaps.first() else {
        return Err(NumericsError::InvalidParameter {
            context: "ensemble_cycle_amplitude: need at least one snapshot",
        });
    };
    let tail = &snaps[snaps.len() / 2..];
    let amps: Vec<f64> = (0..first.q.len())
        .map(|p| {
            let mut sorted: Vec<f64> = tail.iter().map(|s| s.q[p]).collect();
            sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("queue samples are finite"));
            let lo = sorted[(0.025 * sorted.len() as f64) as usize];
            let hi = sorted[((0.975 * sorted.len() as f64) as usize).min(sorted.len() - 1)];
            hi - lo
        })
        .collect();
    let mean = fpk_numerics::stats::mean(&amps);
    let std = fpk_numerics::stats::variance(&amps).sqrt();
    Ok((mean, std))
}

/// Number of ziggurat layers; the low 7 bits of a word pick one.
const ZIG_LAYERS: usize = 128;
/// Right edge of the base layer's rectangle (Doornik's ZIGNOR constant).
const ZIG_R: f64 = 3.442_619_855_899;
/// Common area of every layer, the base layer's tail included.
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

/// Ziggurat sampler for the standard normal (Marsaglia & Tsang 2000,
/// 128 layers in Doornik's ZIGNOR layout), with its precomputed tables.
///
/// Layer `i ≥ 1` is the rectangle of width `x[i]` between the heights
/// `f(x[i])` and `f(x[i + 1])` of `f(x) = exp(−x²/2)`; layer 0 is the
/// strip under `f(R)` plus the tail beyond `R`, and its `x[0] = V/f(R)`
/// is the width of a rectangle of the same area. Build one per run and
/// share it by reference: the tables are read-only.
struct Ziggurat {
    /// Layer widths, `x[0] = V/f(R)`, `x[1] = R`, falling to `x[128] = 0`.
    x: [f64; ZIG_LAYERS + 1],
    /// `x[i + 1] / x[i]`: the share of layer `i` that lies under `f`.
    ratio: [f64; ZIG_LAYERS],
}

impl Ziggurat {
    /// Build the tables (128 `exp`/`ln` evaluations).
    fn new() -> Self {
        let mut x = [0.0; ZIG_LAYERS + 1];
        let mut f = (-0.5 * ZIG_R * ZIG_R).exp();
        x[0] = ZIG_V / f;
        x[1] = ZIG_R;
        // Each layer has area V: x[i-1]·(f(x[i]) − f(x[i-1])) = V.
        for i in 2..ZIG_LAYERS {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + f).ln()).sqrt();
            f = (-0.5 * x[i] * x[i]).exp();
        }
        let mut ratio = [0.0; ZIG_LAYERS];
        for i in 0..ZIG_LAYERS {
            ratio[i] = x[i + 1] / x[i];
        }
        Ziggurat { x, ratio }
    }

    /// One standard-normal draw. The fast path uses a single RNG word:
    /// its low 7 bits pick the layer and bits 11..63 give a signed
    /// uniform, so the two fields share no bits.
    #[inline]
    fn sample<R: RngCore>(&self, rng: &mut R) -> f64 {
        loop {
            let bits = rng.next_u64();
            let i = (bits & (ZIG_LAYERS as u64 - 1)) as usize;
            let u = (bits >> 11) as f64 * f64::EPSILON - 1.0; // [-1, 1)
            if u.abs() < self.ratio[i] {
                return u * self.x[i];
            }
            if let Some(z) = self.edge(i, u, rng) {
                return z;
            }
        }
    }

    /// The ~1% of draws outside a layer's inner rectangle: the exact
    /// wedge test for layers `i ≥ 1`, the tail for layer 0. `None` means
    /// rejected; the caller draws afresh.
    #[cold]
    fn edge<R: RngCore>(&self, i: usize, u: f64, rng: &mut R) -> Option<f64> {
        if i == 0 {
            return Some(normal_tail(rng, u < 0.0));
        }
        let x = u * self.x[i];
        // f(x) relative to the layer's bottom (f0 ≤ 1) and top (f1 ≥ 1)
        // edges; a uniform height in between lies under f iff it is < 1.
        let f0 = (-0.5 * (self.x[i] * self.x[i] - x * x)).exp();
        let f1 = (-0.5 * (self.x[i + 1] * self.x[i + 1] - x * x)).exp();
        (f1 + rng.gen::<f64>() * (f0 - f1) < 1.0).then_some(x)
    }
}

/// Marsaglia's exact sampler for the normal tail beyond `ZIG_R`.
fn normal_tail<R: RngCore>(rng: &mut R, negative: bool) -> f64 {
    loop {
        // 1 − U lies in (0, 1], so both logarithms are finite.
        let x = (1.0 - rng.gen::<f64>()).ln() / ZIG_R;
        let y = (1.0 - rng.gen::<f64>()).ln();
        if -2.0 * y >= x * x {
            return if negative { x - ZIG_R } else { ZIG_R - x };
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fpk_congestion::LinearExp;

    fn cfg() -> McConfig {
        McConfig {
            mu: 5.0,
            sigma2: 0.3,
            n_particles: 20_000,
            dt: 2e-3,
            seed: 42,
            threads: 4,
            init_mean: (8.0, -1.0),
            init_std: (1.0, 0.5),
        }
    }

    /// One point-mass path per stream, as the Section 7 experiments run.
    pub(crate) fn delayed_cfg(paths: usize, sigma2: f64) -> McConfig {
        McConfig {
            mu: 5.0,
            sigma2,
            n_particles: paths,
            dt: 1e-3,
            seed: 11,
            threads: paths,
            init_mean: (10.0, -2.0),
            init_std: (0.0, 0.0),
        }
    }

    /// Every `every`-th step of `dt` from 0 to `t_end`.
    pub(crate) fn every_nth_step(every: usize, dt: f64, t_end: f64) -> Vec<f64> {
        let n = (t_end / dt).round() as usize / every;
        (0..=n).map(|j| (j * every) as f64 * dt).collect()
    }

    #[test]
    fn non_finite_parameters_rejected_by_name() {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let cases: [(&str, fn(&mut McConfig)); 9] = [
            ("mu", |c| c.mu = f64::INFINITY),
            ("sigma2", |c| c.sigma2 = f64::NAN),
            ("sigma2", |c| c.sigma2 = f64::INFINITY),
            ("dt", |c| c.dt = f64::INFINITY),
            ("dt", |c| c.dt = f64::NAN),
            ("init_mean", |c| c.init_mean.0 = f64::NAN),
            ("init_mean", |c| c.init_mean.1 = f64::NEG_INFINITY),
            ("init_std", |c| c.init_std.0 = f64::INFINITY),
            ("init_std", |c| c.init_std.1 = f64::NAN),
        ];
        for (field, spoil) in cases {
            let mut bad = McConfig {
                n_particles: 100,
                threads: 1,
                ..cfg()
            };
            spoil(&mut bad);
            match simulate_ensemble(&law, &bad, &[0.1]) {
                Err(NumericsError::InvalidParameter { context }) => {
                    assert!(context.contains(field), "{field}: {context}");
                }
                other => panic!("{field}: expected InvalidParameter, got {other:?}"),
            }
        }
        let small = McConfig {
            n_particles: 100,
            threads: 1,
            ..cfg()
        };
        for times in [
            [f64::NAN, 1.0],
            [0.1, f64::NAN],
            [0.1, f64::INFINITY],
            // 0.1005 lies a quarter step off the 2e-3 grid.
            [0.1, 0.1005],
        ] {
            match simulate_ensemble(&law, &small, &times) {
                Err(NumericsError::InvalidParameter { context }) => {
                    assert!(context.contains("snapshot_times"), "{times:?}: {context}");
                }
                other => panic!("{times:?}: expected InvalidParameter, got {other:?}"),
            }
        }
    }

    #[test]
    fn snapshots_have_all_particles() {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let snaps = simulate_ensemble(&law, &cfg(), &[0.5, 1.0]).unwrap();
        assert_eq!(snaps.len(), 2);
        for s in &snaps {
            assert_eq!(s.q.len(), 20_000);
            assert!(
                s.q.iter().all(|&q| q >= 0.0),
                "queue must stay non-negative"
            );
            assert!(
                s.nu.iter().all(|&nu| nu >= -5.0),
                "λ must stay non-negative"
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let mut c = cfg();
        c.n_particles = 2000;
        let a = simulate_ensemble(&law, &c, &[1.0]).unwrap();
        let b = simulate_ensemble(&law, &c, &[1.0]).unwrap();
        assert_eq!(a[0].q, b[0].q);
        assert_eq!(a[0].nu, b[0].nu);
    }

    #[test]
    fn different_thread_counts_agree_statistically() {
        // Chunk boundaries shift with the thread count, so individual
        // particles differ; ensemble statistics must not.
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let mut c1 = cfg();
        c1.n_particles = 20_000;
        c1.threads = 2;
        let mut c2 = c1.clone();
        c2.threads = 5;
        let a = simulate_ensemble(&law, &c1, &[1.0]).unwrap();
        let b = simulate_ensemble(&law, &c2, &[1.0]).unwrap();
        assert!((a[0].mean_q() - b[0].mean_q()).abs() < 0.05);
        assert!((a[0].var_q() - b[0].var_q()).abs() < 0.1);
    }

    #[test]
    fn mean_tracks_fluid_for_small_noise() {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let mut c = cfg();
        c.sigma2 = 1e-4;
        c.init_std = (0.05, 0.02);
        let snaps = simulate_ensemble(&law, &c, &[2.0]).unwrap();
        // Fluid reference from (8, λ=4): increase phase, q(t) dips:
        // q(2) = 8 + (4-5)*2 + 0.5*1*4 = 8 - 2 + 2 = 8; λ(2) = 6 → ν = 1.
        let s = &snaps[0];
        assert!((s.mean_q() - 8.0).abs() < 0.1, "mean q {}", s.mean_q());
        assert!((s.mean_nu() - 1.0).abs() < 0.1, "mean ν {}", s.mean_nu());
    }

    #[test]
    fn variance_grows_with_sigma() {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let mut lo = cfg();
        lo.sigma2 = 0.05;
        let mut hi = cfg();
        hi.sigma2 = 1.0;
        let a = simulate_ensemble(&law, &lo, &[3.0]).unwrap();
        let b = simulate_ensemble(&law, &hi, &[3.0]).unwrap();
        assert!(
            b[0].var_q() > a[0].var_q(),
            "var {} vs {}",
            a[0].var_q(),
            b[0].var_q()
        );
    }

    #[test]
    fn rejects_bad_config() {
        let law = LinearExp::standard();
        let mut c = cfg();
        c.n_particles = 0;
        assert!(simulate_ensemble(&law, &c, &[1.0]).is_err());
        let mut c2 = cfg();
        c2.dt = 0.0;
        assert!(simulate_ensemble(&law, &c2, &[1.0]).is_err());
        assert!(simulate_ensemble(&law, &cfg(), &[]).is_err());
        assert!(simulate_ensemble(&law, &cfg(), &[1.0, 0.5]).is_err());
    }

    #[test]
    fn uneven_chunking_keeps_every_particle() {
        // `threads` chunks of `n.div_ceil(threads)` overshoot n here
        // (10 on 8 threads fills 5 chunks of 2; 5 on 4 fills 3).
        let law = LinearExp::new(1.0, 0.5, 10.0);
        for (n, threads) in [(10, 8), (5, 4)] {
            let mut c = cfg();
            c.n_particles = n;
            c.threads = threads;
            let snaps = simulate_ensemble(&law, &c, &[0.5]).unwrap();
            let s = &snaps[0];
            assert_eq!(s.q.len(), n);
            // Unwritten slots would keep their zero fill.
            assert!(s.nu.iter().all(|&nu| nu != 0.0), "missing particle {s:?}");
            assert!(s.q.iter().all(|&q| q >= 0.0), "negative queue {s:?}");
        }
    }

    #[test]
    fn ziggurat_matches_standard_normal() {
        const N: usize = 1_000_000;
        // 2·Φ(−3): the two-sided normal mass beyond |x| = 3.
        const P_BEYOND_3: f64 = 0.002_699_796;
        // E[Z | Z > 0] = √(2/π), and the half-normal's standard deviation.
        const HALF_MEAN: f64 = 0.797_884_560_802_865_4;
        const HALF_STD: f64 = 0.602_810_274_989_372_4;
        let zig = Ziggurat::new();
        let mut rng = StdRng::seed_from_u64(7);
        let (mut s1, mut s2, mut s4) = (0.0, 0.0, 0.0);
        let (mut pos_sum, mut neg_sum) = (0.0, 0.0);
        let (mut n_pos, mut beyond_3) = (0usize, 0usize);
        let (mut tail_pos, mut tail_neg) = (0usize, 0usize);
        for _ in 0..N {
            let z = zig.sample(&mut rng);
            s1 += z;
            s2 += z * z;
            s4 += z * z * z * z;
            if z > 0.0 {
                n_pos += 1;
                pos_sum += z;
            } else {
                neg_sum -= z;
            }
            beyond_3 += usize::from(z.abs() > 3.0);
            tail_pos += usize::from(z > ZIG_R);
            tail_neg += usize::from(z < -ZIG_R);
        }
        let n = N as f64;
        let (mean, m2, m4) = (s1 / n, s2 / n, s4 / n);
        let var = m2 - mean * mean;
        assert!(mean.abs() < 4.0 / n.sqrt(), "mean {mean}");
        assert!((var - 1.0).abs() < 4.0 * (2.0 / n).sqrt(), "variance {var}");
        let kurt = m4 / (m2 * m2);
        assert!(
            (kurt - 3.0).abs() < 4.0 * (24.0 / n).sqrt(),
            "kurtosis {kurt}"
        );
        let p3 = beyond_3 as f64 / n;
        let se3 = (P_BEYOND_3 * (1.0 - P_BEYOND_3) / n).sqrt();
        assert!((p3 - P_BEYOND_3).abs() < 4.0 * se3, "P(|x| > 3) = {p3}");
        // The layer-0 tail branch runs, on both sides.
        assert!(tail_pos > 0 && tail_neg > 0, "tail {tail_pos}/{tail_neg}");
        // Symmetry: as many draws on each side, with mirrored means.
        let n_neg = N - n_pos;
        let frac_pos = n_pos as f64 / n;
        assert!(
            (frac_pos - 0.5).abs() < 4.0 * 0.5 / n.sqrt(),
            "P(x > 0) = {frac_pos}"
        );
        let (pos_mean, neg_mean) = (pos_sum / n_pos as f64, neg_sum / n_neg as f64);
        let se_half = HALF_STD / (n / 2.0).sqrt();
        assert!(
            (pos_mean - HALF_MEAN).abs() < 4.0 * se_half,
            "E[x | x > 0] {pos_mean}"
        );
        assert!(
            (neg_mean - HALF_MEAN).abs() < 4.0 * se_half,
            "E[-x | x < 0] {neg_mean}"
        );
    }
}
