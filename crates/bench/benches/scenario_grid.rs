//! Criterion benchmark of the `fpk-scenarios` runner across three grid
//! sizes, pitting one worker against the machine's worker count:
//!
//! * `serial/<size>` — [`run_sweep_on`] at width 1: the calling thread
//!   runs every cell itself, with one `NetArena`.
//! * `parallel/<size>` — [`run_sweep_on`] at the machine's worker count:
//!   cells striped over scoped worker threads, one `NetArena` each.
//!
//! Both rows aggregate each cell streamingly; the parallel row pays one
//! thread spawn per extra worker per sweep.
//!
//! The three sizes share one base workload (a short rate-controlled
//! run, 5 replications per cell — the experiment bins' ensemble width)
//! and differ only in grid size, so the pair of rows isolates the
//! parallel speedup as the grid scales: `small` is a 6-cell table grid,
//! `medium` a 24-cell table grid, `large` a 1000-cell stress-tier
//! slice. The two rows produce bit-identical reports at every size
//! (tested in `fpk-scenarios`); the ratio tracks the executor bug this
//! layout was built to catch — parallel losing to serial on per-call
//! overhead.
//!
//! The executor margins are a few percent on a single-core box, so the
//! group overrides the quick-mode sample cap (`sample_size(41)`) — five
//! samples per id cannot resolve them and the baseline gate would be
//! noise.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpk_congestion::LinearExp;
use fpk_scenarios::{run_sweep_on, thread_count, Axis, Scenario, Sweep};
use fpk_sim::{Service, SimConfig, SourceSpec};
use std::hint::black_box;

/// Replications per cell, matching the experiment binaries' ensembles.
const REPLICATIONS: usize = 5;

fn base() -> Scenario {
    Scenario::new(
        "bench_grid",
        SimConfig {
            mu: 100.0,
            service: Service::Exponential,
            buffer: None,
            t_end: 2.0,
            warmup: 0.25,
            sample_interval: 0.1,
            seed: 0,
        },
        vec![SourceSpec::Rate {
            law: LinearExp::new(8.0, 0.5, 10.0),
            lambda0: 20.0,
            update_interval: 0.1,
            prop_delay: 0.01,
            poisson: true,
        }],
    )
}

/// The benched grids: `(size label, sweep)`.
fn grids() -> Vec<(&'static str, Sweep)> {
    vec![
        (
            "small",
            Sweep::new(base(), 7)
                .axis(Axis::mu(vec![60.0, 100.0, 140.0]))
                .axis(Axis::flow_count(vec![1.0, 2.0])),
        ),
        (
            "medium",
            Sweep::new(base(), 7)
                .axis(Axis::mu((0..12).map(|i| 40.0 + 10.0 * i as f64).collect()))
                .axis(Axis::flow_count(vec![1.0, 2.0])),
        ),
        (
            "large",
            Sweep::new(base(), 7)
                .axis(Axis::label_only("k", (0..1000).map(|i| i as f64).collect())),
        ),
    ]
}

fn bench_scenario_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_grid");
    group.sample_size(41);
    let parallel = thread_count();
    for (size, sweep) in grids() {
        group.bench_with_input(BenchmarkId::new("serial", size), &sweep, |b, sweep| {
            b.iter(|| run_sweep_on(black_box(sweep), REPLICATIONS, 1).expect("sweep"));
        });
        group.bench_with_input(BenchmarkId::new("parallel", size), &sweep, |b, sweep| {
            b.iter(|| run_sweep_on(black_box(sweep), REPLICATIONS, parallel).expect("sweep"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scenario_grid);
criterion_main!(benches);
