//! Figure 8 (introduction, after Zhang [Zha 89] / Jacobson [Jac 88]):
//! connections traversing more hops get a poorer share of an
//! intermediate resource than connections with fewer hops.
//!
//! A long AIMD flow crosses a K-queue tandem against single-hop
//! cross-traffic at every hop; we sweep K and report the long flow's
//! throughput relative to the cross flows.
//!
//! Ported to the `fpk-scenarios` runner on the topology-first engine:
//! the hop-count axis rebuilds the topology + flow set per cell, and the
//! DES column is a multi-seed ensemble mean ± 95% CI like the other
//! ported tables (tbl4/tbl5/tbl9/tbl11, fig6).

use crate::{fmt, print_table, write_json};
use fpk_congestion::WindowAimd;
use fpk_scenarios::{run_sweep, Axis, Scenario, Sweep};
use fpk_sim::{Link, Route, Service, SimConfig, SourceSpec, Topology};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    hops: usize,
    long_throughput: f64,
    long_throughput_ci95: f64,
    mean_cross_throughput: f64,
    long_share_of_hop: f64,
    rtt_ratio: f64,
    replications: usize,
}

const REPLICATIONS: usize = 5;

/// Runs the experiment: prints its tables and writes `results/<name>.json`.
pub fn run(name: &str) {
    let base = Scenario::new(
        name,
        SimConfig {
            mu: 100.0,
            service: Service::Exponential,
            buffer: None,
            t_end: 400.0,
            warmup: 80.0,
            sample_interval: 0.5,
            seed: 0,
        },
        Vec::new(),
    );
    // One axis: hop count K. Each cell is a K-link tandem with one long
    // flow (hops 0..K-1) and K single-hop cross flows — the flow set
    // depends on K, so a custom closure rebuilds topology, sources and
    // routes together.
    let sweep =
        Sweep::new(base, 404).axis(Axis::new("hops", vec![1.0, 2.0, 3.0, 4.0, 5.0], |sc, v| {
            let k = v.round() as usize;
            let aimd = WindowAimd::new(1.0, 0.5, 0.05, 10.0);
            let window = SourceSpec::Window { aimd, w0: 2.0 };
            sc.set_topology(Topology::uniform(
                k,
                Link {
                    mu: 100.0,
                    service: Service::Exponential,
                    buffer: None,
                },
            ));
            let mut sources = vec![window.clone()];
            let mut routes = vec![Route::full(k)];
            for hop in 0..k {
                sources.push(window.clone());
                routes.push(Route::single(hop));
            }
            sc.sources = sources;
            sc.routes = Some(routes);
        }));

    let report = run_sweep(&sweep, REPLICATIONS).expect("fig8 sweep");
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for cell in &report.cells {
        let k = cell.coords[0].round() as usize;
        let long = cell.stats.flow_throughput[0].mean;
        let long_ci = cell.stats.flow_throughput[0].ci95;
        let cross: Vec<f64> = cell.stats.flow_throughput[1..]
            .iter()
            .map(|s| s.mean)
            .collect();
        let mean_cross = cross.iter().sum::<f64>() / cross.len() as f64;
        let row = Row {
            hops: k,
            long_throughput: long,
            long_throughput_ci95: long_ci,
            mean_cross_throughput: mean_cross,
            long_share_of_hop: long / (long + mean_cross),
            rtt_ratio: k as f64, // the long flow's RTT scales with K
            replications: cell.stats.replications,
        };
        table.push(vec![
            k.to_string(),
            format!("{} ± {}", fmt(long, 1), fmt(long_ci, 1)),
            fmt(mean_cross, 1),
            fmt(row.long_share_of_hop, 3),
        ]);
        rows.push(row);
    }
    print_table(
        "Figure 8 — long flow vs per-hop cross traffic on a K-hop tandem",
        &[
            "hops K",
            "long tput (95% CI)",
            "mean cross tput",
            "long share of a hop",
        ],
        &table,
    );
    println!("\nClaim (intro, after Zhang/Jacobson): connections with more hops");
    println!("receive a poorer share. The long flow's per-hop share must fall");
    println!("monotonically from 0.5 (K = 1, symmetric) as K grows — both its");
    println!("RTT and its compound marking probability scale with K.");
    println!("Means are over {REPLICATIONS} seeds per cell.");
    let shares: Vec<f64> = rows.iter().map(|r| r.long_share_of_hop).collect();
    assert!(
        (shares[0] - 0.5).abs() < 0.1,
        "K=1 must be symmetric: {shares:?}"
    );
    assert!(
        shares.windows(2).all(|w| w[1] < w[0] + 0.02),
        "share must fall with K: {shares:?}"
    );
    assert!(
        *shares.last().unwrap() < 0.3,
        "5-hop flow must be clearly penalised"
    );
    write_json(name, &rows);
}
