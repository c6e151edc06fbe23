//! Figure (extension): flow-completion time vs offered load for finite-
//! flow workloads — the paper's control laws keep *queues* in check;
//! this figure asks what the transported *transfers* experience.
//!
//! A single deterministic bottleneck (μ = 50 pkt/s) carries an open-
//! loop population of finite flows with mean size 4 packets. Two axes:
//! the offered load ρ (the arrival rate is set to ρ·μ/E\[size\]) and the
//! flow-size distribution at fixed mean — deterministic, exponential,
//! bounded-Pareto (heavy-tailed, α = 0.6). Three seeded replications
//! per cell report mean FCT, p99 FCT, and mean slowdown.
//!
//! The deterministic-size rows have a closed form: the paced burst
//! keeps a flow's packets contiguous in the FIFO, so each flow is one
//! M/D/1 customer with service b/μ and Pollaczek–Khinchine applies:
//!
//! ```text
//! E[FCT] = d + b/μ + ρ·b/(2μ(1−ρ))
//! ```
//!
//! The table prints that prediction next to the measurement; the shape
//! assertions pin (a) FCT growing monotonically in ρ for every size
//! distribution and (b) the deterministic rows tracking P-K.

use crate::{fmt, print_table, write_json};
use fpk_scenarios::{run_sweep, Axis, Scenario, Sweep};
use fpk_sim::{ArrivalProcess, FlowSizeDist, Route, Service, SimConfig, Workload};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    rho: f64,
    size_dist: String,
    fct_mean: f64,
    fct_mean_ci95: f64,
    fct_p99: f64,
    slowdown_mean: f64,
    pk_fct: Option<f64>,
    flows_per_run: f64,
    replications: usize,
}

const MU: f64 = 50.0;
const MEAN_SIZE: f64 = 4.0;
const PROP_DELAY: f64 = 0.01;
const REPLICATIONS: usize = 3;

/// Runs the experiment: prints its tables and writes `results/<name>.json`.
pub fn run(name: &str) {
    let base = Scenario::new(
        name,
        SimConfig {
            mu: MU,
            service: Service::Deterministic,
            buffer: None,
            t_end: 400.0,
            warmup: 50.0,
            sample_interval: 0.5,
            seed: 0,
        },
        Vec::new(),
    )
    .with_workload(
        Workload::new(
            ArrivalProcess::Poisson { rate: 1.0 }, // overwritten by the ρ axis
            FlowSizeDist::Deterministic {
                packets: MEAN_SIZE as u64,
            },
            vec![Route::single(0)],
        )
        .with_prop_delay(PROP_DELAY),
    );
    let sweep = Sweep::new(base, 2718)
        .axis(Axis::load_rho(vec![0.3, 0.5, 0.7, 0.85]))
        .axis(Axis::flow_size_dist(vec![0.0, 1.0, 2.0]));

    let report = run_sweep(&sweep, REPLICATIONS).expect("fct sweep");
    let rows: Vec<Row> = report
        .cells
        .iter()
        .map(|cell| {
            let (rho, dist_code) = (cell.coords[0], cell.coords[1]);
            let size_dist = match dist_code as i64 {
                0 => "deterministic",
                1 => "exponential",
                _ => "bounded-Pareto",
            }
            .to_string();
            let wl = cell
                .stats
                .workload
                .as_ref()
                .expect("workload cells carry FCT stats");
            // Deterministic sizes: the flow is one M/D/1 customer of
            // service MEAN_SIZE/μ (contiguous burst), P-K applies.
            let pk_fct = (dist_code as i64 == 0)
                .then(|| PROP_DELAY + MEAN_SIZE / MU + rho * MEAN_SIZE / (2.0 * MU * (1.0 - rho)));
            Row {
                rho,
                size_dist,
                fct_mean: wl.fct_mean.mean,
                fct_mean_ci95: wl.fct_mean.ci95,
                fct_p99: wl.fct_p99.mean,
                slowdown_mean: wl.slowdown_mean.mean,
                pk_fct,
                flows_per_run: wl.arrived.mean,
                replications: cell.stats.replications,
            }
        })
        .collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                fmt(r.rho, 2),
                r.size_dist.clone(),
                format!("{} ± {}", fmt(r.fct_mean, 4), fmt(r.fct_mean_ci95, 4)),
                fmt(r.fct_p99, 4),
                fmt(r.slowdown_mean, 2),
                r.pk_fct.map_or_else(|| "-".into(), |v| fmt(v, 4)),
                fmt(r.flows_per_run, 0),
            ]
        })
        .collect();
    print_table(
        "FCT vs load — finite flows on a deterministic bottleneck",
        &[
            "rho",
            "size dist",
            "E[FCT] s (95% CI)",
            "p99 FCT s",
            "E[slowdown]",
            "P-K E[FCT]",
            "flows/run",
        ],
        &table,
    );
    println!("\nReading: mean FCT rises with offered load for every size");
    println!("distribution, and variable sizes pay several-fold at the tail");
    println!("(p99). Deterministic-size rows track Pollaczek–Khinchine — the");
    println!("burst-contiguity argument makes each flow one M/D/1 customer —");
    println!("which pins the workload layer to closed-form queueing theory all");
    println!("the way up the load axis. Slowdown is FCT relative to an idle");
    println!("network, so its growth is pure queueing delay.");
    println!("Means are over {REPLICATIONS} seeds per cell.");

    // Shape assertions (tests run this bin's logic via the same axes).
    for dist in ["deterministic", "exponential", "bounded-Pareto"] {
        let mut fcts: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.size_dist == dist)
            .map(|r| (r.rho, r.fct_mean))
            .collect();
        fcts.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!(
            fcts.windows(2).all(|w| w[1].1 > w[0].1),
            "{dist}: FCT must grow with load: {fcts:?}"
        );
    }
    for r in rows.iter().filter(|r| r.pk_fct.is_some()) {
        let pk = r.pk_fct.unwrap();
        assert!(
            (r.fct_mean - pk).abs() <= 0.10 * pk,
            "deterministic row strayed >10% from P-K: {r:?}"
        );
    }
    assert!(
        rows.iter().all(|r| r.slowdown_mean >= 1.0 - 1e-9),
        "slowdown below the physical floor"
    );
    write_json(name, &rows);
}
