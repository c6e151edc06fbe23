//! Criterion benchmarks of the Fokker–Planck stepper: cost per step by
//! limiter (ablation A1's wall-clock column), by grid size (A2), and by
//! diffusion scheme, all on the serial `step` path; and the slab-parallel
//! `run_until_on` solve of Table 2 by worker count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpk_congestion::LinearExp;
use fpk_core::solver::{DiffusionScheme, FpProblem, FpSolver};
use fpk_core::{Density, Limiter};
use std::hint::black_box;

fn solver_with(
    limiter: Limiter,
    scheme: DiffusionScheme,
    nq: usize,
    nnu: usize,
) -> FpSolver<LinearExp> {
    let law = LinearExp::new(1.0, 0.5, 10.0);
    let mut problem = FpProblem::new(law, 5.0, 0.4);
    problem.limiter = limiter;
    problem.diffusion = scheme;
    let grid = Density::standard_grid(40.0, -6.0, 6.0, nq, nnu).expect("grid");
    let init = Density::gaussian(grid, 8.0, -1.0, 1.5, 0.8).expect("init");
    FpSolver::new(problem, init).expect("solver")
}

fn bench_limiters(c: &mut Criterion) {
    let mut group = c.benchmark_group("fp_step_by_limiter");
    for limiter in [
        Limiter::Upwind,
        Limiter::Minmod,
        Limiter::VanLeer,
        Limiter::Superbee,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{limiter:?}")),
            &limiter,
            |b, &lim| {
                let mut s = solver_with(lim, DiffusionScheme::CrankNicolson, 120, 72);
                let dt = s.max_dt();
                b.iter(|| {
                    s.step(black_box(dt)).expect("step");
                });
            },
        );
    }
    group.finish();
}

fn bench_grid_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fp_step_by_grid");
    for &(nq, nnu) in &[(60usize, 36usize), (120, 72), (240, 144)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{nq}x{nnu}")),
            &(nq, nnu),
            |b, &(nq, nnu)| {
                let mut s = solver_with(Limiter::VanLeer, DiffusionScheme::CrankNicolson, nq, nnu);
                let dt = s.max_dt();
                b.iter(|| {
                    s.step(black_box(dt)).expect("step");
                });
            },
        );
    }
    group.finish();
}

fn bench_diffusion_schemes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fp_step_by_diffusion");
    for scheme in [DiffusionScheme::Explicit, DiffusionScheme::CrankNicolson] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{scheme:?}")),
            &scheme,
            |b, &sch| {
                let mut s = solver_with(Limiter::VanLeer, sch, 120, 72);
                let dt = s.max_dt();
                b.iter(|| {
                    s.step(black_box(dt)).expect("step");
                });
            },
        );
    }
    group.finish();
}

/// Table 2's first FP solve (200×120 grid, t 0 → 1) on one and two slab
/// workers. Each iteration builds a fresh solver from the same problem
/// and initial density; that setup is about 1% of the solve. One
/// iteration is one sample, so the group asks for 20 samples even in
/// quick mode: five do not separate two workers from one on a noisy
/// 2-vCPU host.
fn bench_run_until_by_workers(c: &mut Criterion) {
    let law = LinearExp::new(1.0, 0.5, 10.0);
    let problem = FpProblem::new(law, 5.0, 0.4);
    let grid = Density::standard_grid(40.0, -6.0, 6.0, 200, 120).expect("grid");
    let init = Density::gaussian(grid, 3.0, -3.0, 1.2, 0.6).expect("init");
    let mut group = c.benchmark_group("fp_run_until_by_workers");
    group.sample_size(20);
    for workers in [1usize, 2] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let mut s = FpSolver::new(problem.clone(), init.clone()).expect("solver");
                    s.run_until_on(black_box(1.0), workers).expect("run");
                    s
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_limiters, bench_grid_sizes, bench_diffusion_schemes, bench_run_until_by_workers
}
criterion_main!(benches);
