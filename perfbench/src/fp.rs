//! The `fp_vs_mc` workload: the Table 2 pipeline at a smaller size. The
//! Eq. 14 density is advanced to each snapshot time on the 200×120
//! standard grid, a Langevin ensemble is simulated to the same times, and
//! each MC snapshot's q-sample is KS-tested against the FP q-marginal.

use crate::checks;
use crate::trace::Tracer;
use crate::{names, Bench, Layers, Outcome};
use fpk_congestion::LinearExp;
use fpk_core::montecarlo::{simulate_ensemble, McConfig};
use fpk_core::solver::{FpProblem, FpSolver};
use fpk_core::Density;
use fpk_numerics::stats::ks_sample_vs_density;
use fpk_scenarios::{derive_seed, write_json};
use serde::Serialize;
use std::time::Instant;

const MU: f64 = 5.0;
const SIGMA2: f64 = 0.4;
const TIMES: [f64; 2] = [1.0, 3.0];
const N_PARTICLES: usize = 6_000;
const MC_DT: f64 = 1e-3;
const GRID: (usize, usize) = (200, 120);

#[derive(Serialize)]
struct Row {
    t: f64,
    pde_mean_q: f64,
    mc_mean_q: f64,
    pde_var_q: f64,
    mc_var_q: f64,
    ks_distance: f64,
}

/// Uniform in [0, 1) from a seed stream.
fn unit(seed: u64, index: u64) -> f64 {
    (derive_seed(seed, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// Euler–Maruyama steps from 0 to the last snapshot.
fn mc_steps() -> u64 {
    let mut t = 0.0;
    TIMES
        .iter()
        .map(|&ts| {
            let (n, end) = steps_between(t, ts, MC_DT);
            t = end;
            n
        })
        .sum()
}

/// Steps `run_until`-style loops take from `t0` to `t_end` with step cap
/// `dt_max` (same arithmetic as `FpSolver::run_until` and the MC loop).
fn steps_between(t0: f64, t_end: f64, dt_max: f64) -> (u64, f64) {
    let (mut t, mut n) = (t0, 0);
    while t < t_end - 1e-12 {
        t += dt_max.min(t_end - t);
        n += 1;
    }
    (n, t)
}

pub struct FpVsMc {
    law: LinearExp,
    init_mean: (f64, f64),
    mc_seed: u64,
    workers: usize,
    solver: Option<FpSolver<LinearExp>>,
    mass0: f64,
    /// FP steps and worst relative mass drift of the latest run.
    steps: u64,
    mass_drift: f64,
}

impl FpVsMc {
    /// Set-up: derive the initial condition from the seed and build the
    /// solver.
    pub fn new(seed: u64, workers: usize) -> Self {
        let mut w = Self {
            law: LinearExp::new(1.0, 0.5, 10.0),
            init_mean: (3.0 + unit(seed, 0), -3.0 + 0.5 * unit(seed, 1)),
            mc_seed: derive_seed(seed, 2),
            workers,
            solver: None,
            mass0: 0.0,
            steps: 0,
            mass_drift: 0.0,
        };
        w.build_solver();
        w
    }

    fn build_solver(&mut self) {
        if self.solver.is_some() {
            return;
        }
        let grid = Density::standard_grid(40.0, -6.0, 6.0, GRID.0, GRID.1).expect("grid");
        let init = Density::gaussian(grid, self.init_mean.0, self.init_mean.1, 1.2, 0.6)
            .expect("initial density");
        self.mass0 = init.mass();
        let problem = FpProblem::new(self.law, MU, SIGMA2);
        self.solver = Some(FpSolver::new(problem, init).expect("solver"));
    }

    fn mc_config(&self, threads: usize) -> McConfig {
        McConfig {
            mu: MU,
            sigma2: SIGMA2,
            n_particles: N_PARTICLES,
            dt: MC_DT,
            seed: self.mc_seed,
            threads,
            init_mean: self.init_mean,
            init_std: (1.2, 0.6),
        }
    }
}

impl Bench for FpVsMc {
    /// Rebuild the solver a run consumed.
    fn prepare(&mut self) {
        self.build_solver();
    }

    /// One closed batch: MC ensemble, then per snapshot the FP solve and
    /// the KS test, the checks, and the artifact write.
    fn run(&mut self, tracer: &mut Tracer) -> Outcome {
        let root = tracer.enter(names::ROOT, None);
        let mut out = Outcome::default();
        let mut solver = self.solver.take().expect("prepare() builds the solver");
        let mc = tracer.span(names::MC, root, || {
            simulate_ensemble(&self.law, &self.mc_config(self.workers), &TIMES)
        });
        let snaps = match mc {
            Ok(s) => s,
            Err(e) => {
                out.fail_all(2 * TIMES.len() as u64, format!("simulate_ensemble: {e}"));
                tracer.exit(root);
                return out;
            }
        };
        let centers = solver.density().grid.x.centers();
        let dt_max = solver.max_dt();
        self.steps = 0;
        self.mass_drift = 0.0;
        let mut rows = Vec::with_capacity(TIMES.len());
        for (&t, snap) in TIMES.iter().zip(&snaps) {
            let (steps, t_expect) = steps_between(solver.time(), t, dt_max);
            let solved = tracer.span(names::SOLVER, root, || solver.run_until(t));
            self.steps += steps;
            let d = solver.density();
            let (mass, min_value) = (d.mass(), d.min_value());
            self.mass_drift = self.mass_drift.max((mass - self.mass0).abs() / self.mass0);
            let marginal = d.marginal_q();
            let ks = tracer.span(names::KS, root, || {
                ks_sample_vs_density(&snap.q, &centers, &marginal)
            });
            tracer.span(names::CHECK, root, || {
                out.op(solved
                    .map_err(|e| format!("run_until({t}): {e}"))
                    .and_then(|()| {
                        if solver.time() == t_expect {
                            Ok(())
                        } else {
                            Err(format!("fp stopped at {} not {t_expect}", solver.time()))
                        }
                    })
                    .and_then(|()| checks::fp_snapshot(t, self.mass0, mass, min_value)));
                out.op(ks
                    .map_err(|e| format!("ks at t={t}: {e}"))
                    .and_then(|ks| {
                        checks::mc_snapshot(t, &snap.q, &snap.nu, MU, N_PARTICLES, ks).map(|()| ks)
                    })
                    .map(|ks| {
                        rows.push(Row {
                            t,
                            pde_mean_q: d.mean_q(),
                            mc_mean_q: snap.mean_q(),
                            pde_var_q: d.var_q(),
                            mc_var_q: snap.var_q(),
                            ks_distance: ks,
                        });
                    }));
            });
        }
        tracer.span(names::ARTIFACT_WRITE, root, || {
            write_json("perfbench_fp_vs_mc", &rows)
        });
        out.counts.solver_cell_steps = self.steps * (GRID.0 * GRID.1) as u64;
        out.counts.mc_particle_steps = mc_steps() * N_PARTICLES as u64;
        tracer.exit(root);
        out
    }

    /// Per-layer numbers of the latest traced run, plus a 1-worker MC run
    /// for the parallel speed-up.
    fn layers(&mut self, tracer: &Tracer, out: &mut Outcome) -> Layers {
        let mc_busy = tracer.busy(names::MC);
        let solo_s = if self.workers > 1 {
            let t = Instant::now();
            if let Err(e) = simulate_ensemble(&self.law, &self.mc_config(1), &TIMES) {
                out.fail_all(0, format!("1-worker simulate_ensemble: {e}"));
            }
            t.elapsed().as_secs_f64()
        } else {
            mc_busy
        };
        let solver_busy = tracer.busy(names::SOLVER);
        let cell_steps = out.counts.solver_cell_steps as f64;
        let particle_steps = out.counts.mc_particle_steps as f64;
        let artifact = fpk_scenarios::results_dir().join("perfbench_fp_vs_mc.json");
        let mut l = Layers::new();
        l.insert("solver.busy_s", solver_busy);
        l.insert("solver.steps", self.steps as f64);
        l.insert("solver.cell_steps", cell_steps);
        l.insert("solver.cell_steps_per_s", cell_steps / solver_busy);
        l.insert("solver.mass_drift", self.mass_drift);
        l.insert("mc.busy_s", mc_busy);
        l.insert("mc.particle_steps", particle_steps);
        l.insert("mc.particle_steps_per_s", particle_steps / mc_busy);
        l.insert("mc.speedup", solo_s / mc_busy);
        l.insert(
            "mc.snapshot_bytes",
            (TIMES.len() * N_PARTICLES * 2 * std::mem::size_of::<f64>()) as f64,
        );
        l.insert("ks.busy_s", tracer.busy(names::KS));
        l.insert("ks.samples", (TIMES.len() * N_PARTICLES) as f64);
        l.insert("artifact.write_s", tracer.busy(names::ARTIFACT_WRITE));
        l.insert(
            "artifact.bytes",
            std::fs::metadata(artifact).map_or(0.0, |m| m.len() as f64),
        );
        l
    }
}
