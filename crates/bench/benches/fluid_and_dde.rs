//! Criterion benchmarks of the fluid integrators: the RK4 model with one
//! source and its scaling in N sources, the delayed-feedback DDE, and the
//! analytic return map.
//!
//! The `fluid_multi_by_n` and `fluid_dde` groups override the quick-mode
//! sample cap (`sample_size(30)`) so a "no slower" check has thirty
//! samples a side.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpk_congestion::theory::ReturnMap;
use fpk_congestion::LinearExp;
use fpk_fluid::delay::{simulate_delayed, DelayParams};
use fpk_fluid::{simulate, FluidParams};
use std::hint::black_box;

fn law() -> LinearExp {
    LinearExp::new(1.0, 0.5, 10.0)
}

fn bench_single(c: &mut Criterion) {
    c.bench_function("fluid_single_10s", |b| {
        let params = FluidParams {
            mu: 5.0,
            q0: 2.0,
            lambda0: vec![1.0],
            t_end: 10.0,
            dt: 1e-3,
        };
        b.iter(|| simulate(&[law()], black_box(&params)).expect("fluid"));
    });
}

fn bench_multi_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fluid_multi_by_n");
    group.sample_size(30);
    for n in [2usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let laws = vec![law(); n];
            let params = FluidParams {
                mu: 10.0,
                q0: 0.0,
                lambda0: vec![1.0; n],
                t_end: 10.0,
                dt: 1e-3,
            };
            b.iter(|| simulate(&laws, black_box(&params)).expect("fluid"));
        });
    }
    group.finish();
}

fn bench_dde(c: &mut Criterion) {
    let mut group = c.benchmark_group("fluid_dde");
    group.sample_size(30);
    group.bench_function("10s", |b| {
        let params = DelayParams {
            mu: 5.0,
            q0: 10.0,
            lambda0: vec![3.0],
            taus: vec![1.0],
            t_end: 10.0,
            steps: 2_000,
        };
        b.iter(|| simulate_delayed(&[law()], black_box(&params)).expect("dde"));
    });
    group.finish();
}

fn bench_return_map(c: &mut Criterion) {
    c.bench_function("return_map_cycle", |b| {
        let map = ReturnMap::new(law(), 5.0).expect("map");
        b.iter(|| map.cycle(black_box(2.0)).expect("cycle"));
    });
    c.bench_function("return_map_100_revolutions", |b| {
        let map = ReturnMap::new(law(), 5.0).expect("map");
        b.iter(|| map.iterate(black_box(0.5), 100).expect("iterate"));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_single, bench_multi_scaling, bench_dde, bench_return_map
}
criterion_main!(benches);
