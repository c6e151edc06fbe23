//! Criterion benchmark of the sweep-artifact round trip:
//! `artifact_roundtrip/288_cells` writes a report shaped like the
//! `flow_churn` workload's (288 finite-flow cells over fault × RTO ×
//! label axes, 2 replications, every `Stat` filled with full-precision
//! floats; ~1 MB of pretty JSON) through `write_json` and loads it back
//! with `load_sweep_report`, as a resumed shard checkpoint would.

use criterion::{criterion_group, criterion_main, Criterion};
use fpk_scenarios::{
    load_sweep_report, write_json, AxisReport, CellReport, EnsembleStats, Stat, SweepReport,
    WorkloadEnsemble,
};
use std::hint::black_box;

/// Deterministic full-precision values: splitmix64 bits mapped into
/// [0, scale).
struct Values(u64);

impl Values {
    fn next(&mut self, scale: f64) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        scale * (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn stat(&mut self, scale: f64) -> Stat {
        Stat {
            mean: self.next(scale),
            std_dev: self.next(scale / 10.0),
            ci95: self.next(scale / 5.0),
            n: 2,
        }
    }
}

fn report() -> SweepReport {
    let mut v = Values(7);
    let axes = vec![
        AxisReport {
            name: "fault".into(),
            values: vec![0.0, 2.0, 3.0],
        },
        AxisReport {
            name: "rto".into(),
            values: vec![0.0, 2.0, 6.0],
        },
        AxisReport {
            name: "label".into(),
            values: (0..32).map(f64::from).collect(),
        },
    ];
    let cells = (0..288)
        .map(|index| CellReport {
            name: format!(
                "bench_artifact[fault={},rto={},label={}]",
                index / 96,
                index / 32 % 3,
                index % 32
            ),
            index,
            coords: vec![
                (index / 96) as f64,
                (index / 32 % 3) as f64,
                (index % 32) as f64,
            ],
            seed: 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1),
            stats: EnsembleStats {
                replications: 2,
                jain: v.stat(1.0),
                mean_queue: v.stat(10.0),
                utilization: v.stat(1.0),
                total_throughput: v.stat(50.0),
                total_dropped: v.stat(5.0),
                flow_throughput: Vec::new(),
                flow_ctl_std: Vec::new(),
                oscillation_amplitude: Some(v.stat(20.0)),
                downtime_frac: v.stat(0.1),
                recovery_time: v.stat(1.0),
                workload: Some(WorkloadEnsemble {
                    arrived: v.stat(800.0),
                    completed: v.stat(800.0),
                    fct_mean: v.stat(0.2),
                    fct_p50: v.stat(0.1),
                    fct_p99: v.stat(1.0),
                    slowdown_mean: v.stat(5.0),
                    slowdown_p99: v.stat(40.0),
                    peak_active: v.stat(15.0),
                    packets_dropped: v.stat(3.0),
                    goodput: v.stat(40.0),
                    retx_overhead: v.stat(0.05),
                    packets_gave_up: v.stat(1.0),
                    flows_gave_up: v.stat(1.0),
                }),
            },
        })
        .collect();
    SweepReport {
        name: "bench_artifact_roundtrip".into(),
        base_seed: 1,
        replications: 2,
        axes,
        cells,
    }
}

fn bench_artifact(c: &mut Criterion) {
    let dir = std::env::temp_dir().join("fpk_bench_artifact");
    std::env::set_var("FPK_RESULTS_DIR", &dir);
    let report = report();
    let mut group = c.benchmark_group("artifact_roundtrip");
    group.bench_function("288_cells", |b| {
        b.iter(|| {
            let path = write_json(&report.name, black_box(&report));
            load_sweep_report(&path)
        });
    });
    group.finish();
    let _ = std::fs::remove_file(dir.join("bench_artifact_roundtrip.json"));
    let _ = std::fs::remove_dir(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_artifact
}
criterion_main!(benches);
