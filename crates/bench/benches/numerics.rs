//! Criterion benchmarks of the numerical kernels: tridiagonal solves
//! (the Crank–Nicolson hot path), spline fitting/evaluation, the
//! adaptive ODE integrator and the advection sweep.
//!
//! The `thomas_solve` and `dopri5_oscillator` groups override the
//! quick-mode sample cap (`sample_size(30)`): five samples cannot tell a
//! "no slower" change from noise (`thomas_solve/128` once had its max
//! 3.6× its min).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpk_core::fv::{advect_sweep, Limiter};
use fpk_numerics::interp::CubicSpline;
use fpk_numerics::linalg::solve_tridiagonal;
use fpk_numerics::ode::{Dopri5, Dopri5Options};
use std::hint::black_box;

fn bench_tridiagonal(c: &mut Criterion) {
    let mut group = c.benchmark_group("thomas_solve");
    group.sample_size(30);
    for n in [128usize, 1024, 8192] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let sub = vec![-0.5; n];
            let diag = vec![2.0; n];
            let sup = vec![-0.5; n];
            let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let mut d = rhs.clone();
            let mut scratch = vec![0.0; n];
            b.iter(|| {
                d.copy_from_slice(&rhs);
                solve_tridiagonal(&sub, &diag, &sup, black_box(&mut d), &mut scratch)
                    .expect("solve");
            });
        });
    }
    group.finish();
}

fn bench_spline(c: &mut Criterion) {
    c.bench_function("spline_fit_200", |b| {
        let xs: Vec<f64> = (0..200).map(|i| i as f64 * 0.05).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
        b.iter(|| CubicSpline::fit(black_box(&xs), black_box(&ys)).expect("fit"));
    });
    c.bench_function("spline_eval_1000", |b| {
        let xs: Vec<f64> = (0..200).map(|i| i as f64 * 0.05).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
        let sp = CubicSpline::fit(&xs, &ys).expect("fit");
        b.iter(|| {
            let mut acc = 0.0;
            for k in 0..1000 {
                acc += sp.eval(black_box(k as f64 * 0.00999));
            }
            acc
        });
    });
}

fn bench_dopri5(c: &mut Criterion) {
    let mut group = c.benchmark_group("dopri5_oscillator");
    group.sample_size(30);
    group.bench_function("100s", |b| {
        let solver = Dopri5::new(Dopri5Options {
            rtol: 1e-8,
            atol: 1e-10,
            ..Default::default()
        });
        let mut f = |_t: f64, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = -y[0];
        };
        b.iter(|| {
            solver
                .integrate(&mut f, 0.0, 100.0, black_box(&[1.0, 0.0]))
                .expect("ode")
        });
    });
    group.finish();
}

fn bench_advect(c: &mut Criterion) {
    c.bench_function("advect_sweep_1024", |b| {
        let n = 1024;
        let mut f: Vec<f64> = (0..n)
            .map(|i| (-((i as f64 - 512.0) / 40.0).powi(2)).exp())
            .collect();
        let vel = vec![1.0; n + 1];
        let mut flux = vec![0.0; n + 1];
        b.iter(|| {
            advect_sweep(
                black_box(&mut f),
                &vel,
                1.0,
                0.5,
                Limiter::VanLeer,
                &mut flux,
            );
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_tridiagonal, bench_spline, bench_dopri5, bench_advect
}
criterion_main!(benches);
