//! Figure (extension): queue-discipline comparison — what the hop's
//! marking rule does to the transfers riding behind adaptive elephants.
//!
//! Two window-AIMD elephants with a deliberately lax per-flow threshold
//! (q̂ = 30) cross a 2-hop tandem (μ = 100 pkt/s per hop). Under the
//! default FIFO discipline the elephants' own law is the only brake, so
//! they hold a standing queue near q̂ at the first hop. The hop-level
//! disciplines — instantaneous threshold marking (K = 5), DECbit
//! regeneration-cycle averaging (K = 2.5), and RED (2.5/10, `max_p` 1,
//! EWMA weight 0.25) — override that policy and mark early,
//! collapsing the standing queue.
//!
//! The probe population measures what that buys: an open-loop finite-
//! flow workload (2-packet flows, Poisson arrivals) shares the full
//! route, its offered load swept over ρ ∈ {0.5, 0.7, 0.85} of the
//! bottleneck. Each probe's p99 flow-completion time is queueing delay
//! plus a fixed pipeline term, so the p99-FCT column is a direct proxy
//! for the p99 queue delay each discipline leaves behind. Five seeded
//! replications per cell report mean ± 95% CI.
//!
//! Shape assertions: at ρ ≥ 0.8 every hop-level discipline must cut
//! p99 FCT *measurably* (≥ 10%) below the FIFO baseline, and mean FCT
//! must grow with ρ under every discipline.

use crate::{fmt, print_table, write_json};
use fpk_scenarios::{run_sweep, Axis, Scenario, Sweep};
use fpk_sim::{
    ArrivalProcess, FlowSizeDist, Link, Route, Service, SimConfig, SourceSpec, Topology, Workload,
};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    rho: f64,
    qdisc: String,
    fct_mean: f64,
    fct_mean_ci95: f64,
    fct_p99: f64,
    fct_p99_ci95: f64,
    slowdown_mean: f64,
    flows_per_run: f64,
    replications: usize,
}

const MU: f64 = 100.0;
const HOPS: usize = 2;
const PROBE_SIZE: u64 = 2;
const PROP_DELAY: f64 = 0.005;
const REPLICATIONS: usize = 5;

fn qdisc_name(code: f64) -> &'static str {
    match code as i64 {
        0 => "fifo",
        1 => "threshold",
        2 => "averaged",
        _ => "red",
    }
}

/// Runs the experiment: prints its tables and writes `results/<name>.json`.
pub fn run(name: &str) {
    let elephant = SourceSpec::Window {
        aimd: fpk_congestion::WindowAimd::new(1.0, 0.5, 0.05, 30.0),
        w0: 2.0,
    };
    let base = Scenario::new(
        name,
        SimConfig {
            mu: MU,
            service: Service::Deterministic,
            buffer: None,
            t_end: 150.0,
            warmup: 30.0,
            sample_interval: 0.5,
            seed: 0,
        },
        vec![elephant.clone(), elephant],
    )
    .with_topology(Topology::uniform(
        HOPS,
        Link {
            mu: MU,
            service: Service::Deterministic,
            buffer: None,
        },
    ))
    .with_routes(vec![Route::full(HOPS); 2])
    .with_workload(
        Workload::new(
            ArrivalProcess::Poisson { rate: 1.0 }, // overwritten by the ρ axis
            FlowSizeDist::Deterministic {
                packets: PROBE_SIZE,
            },
            vec![Route::full(HOPS)],
        )
        .with_prop_delay(PROP_DELAY),
    );
    let sweep = Sweep::new(base, 31415)
        .axis(Axis::load_rho(vec![0.5, 0.7, 0.85]))
        .axis(Axis::qdisc(vec![0.0, 1.0, 2.0, 3.0]));

    let report = run_sweep(&sweep, REPLICATIONS).expect("marking sweep");
    let rows: Vec<Row> = report
        .cells
        .iter()
        .map(|cell| {
            let (rho, code) = (cell.coords[0], cell.coords[1]);
            let wl = cell
                .stats
                .workload
                .as_ref()
                .expect("workload cells carry FCT stats");
            Row {
                rho,
                qdisc: qdisc_name(code).to_string(),
                fct_mean: wl.fct_mean.mean,
                fct_mean_ci95: wl.fct_mean.ci95,
                fct_p99: wl.fct_p99.mean,
                fct_p99_ci95: wl.fct_p99.ci95,
                slowdown_mean: wl.slowdown_mean.mean,
                flows_per_run: wl.arrived.mean,
                replications: cell.stats.replications,
            }
        })
        .collect();

    // Pivot for display: one row per ρ, the p99-FCT column per
    // discipline (the flat per-cell rows go to the JSON artefact).
    let p99 = |rho: f64, name: &str| {
        rows.iter()
            .find(|r| r.rho == rho && r.qdisc == name)
            .expect("grid covers every (rho, qdisc) pair")
    };
    let table: Vec<Vec<String>> = [0.5, 0.7, 0.85]
        .iter()
        .map(|&rho| {
            let mut cells = vec![fmt(rho, 2)];
            for name in ["fifo", "threshold", "averaged", "red"] {
                let r = p99(rho, name);
                cells.push(format!(
                    "{} ± {}",
                    fmt(r.fct_p99, 3),
                    fmt(r.fct_p99_ci95, 3)
                ));
            }
            cells
        })
        .collect();
    print_table(
        "p99 probe FCT (s) by queue discipline — 2-hop tandem behind lax elephants",
        &[
            "rho",
            "FIFO (per-flow q̂=30)",
            "threshold (K=5)",
            "averaged (K=2.5)",
            "RED (2.5/10, max_p 1)",
        ],
        &table,
    );
    println!("\nReading: under FIFO the elephants' lax per-flow threshold is the");
    println!("only brake, so probes queue behind a deep standing buffer and");
    println!("their p99 completion time carries all of it. Hop-level marking");
    println!("overrides that policy: instantaneous-threshold, DECbit-averaged,");
    println!("and RED marking all collapse the standing queue, cutting the");
    println!("probes' tail delay roughly in half at every load. The DECbit");
    println!("averager filters the window sawtooth rather than reacting to it,");
    println!("so it keeps the lowest tail; RED's probabilistic ramp sits between");
    println!("the deterministic rules. Means are over {REPLICATIONS} seeds per cell.");

    // Shape assertions.
    for name in ["fifo", "threshold", "averaged", "red"] {
        let mut fcts: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.qdisc == name)
            .map(|r| (r.rho, r.fct_mean))
            .collect();
        fcts.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!(
            fcts.windows(2).all(|w| w[1].1 > w[0].1),
            "{name}: mean FCT must grow with load: {fcts:?}"
        );
    }
    let fifo_tail = p99(0.85, "fifo").fct_p99;
    for name in ["threshold", "averaged", "red"] {
        let tail = p99(0.85, name).fct_p99;
        assert!(
            tail <= 0.90 * fifo_tail,
            "{name} must cut p99 FCT >= 10% below FIFO at rho=0.85: {tail} vs {fifo_tail}"
        );
    }
    assert!(
        rows.iter().all(|r| r.slowdown_mean >= 1.0 - 1e-9),
        "slowdown below the physical floor"
    );
    write_json(name, &rows);
}
