//! Post-processing of simulation results: fairness summaries and
//! oscillation analysis of a run's queue and control traces.

use crate::network::{run_network_core, FlowSpec, NetArena, NetConfig, NetResult};
use crate::workload::{Workload, WorkloadStats};
use fpk_numerics::signal::{analyze_oscillation, Oscillation};
use fpk_numerics::{NumericsError, Result};
use serde::Serialize;

/// A compact per-run summary used by the experiment harnesses.
#[derive(Debug, Clone, Serialize)]
pub struct RunSummary {
    /// Per-flow throughputs (packets/s).
    pub throughputs: Vec<f64>,
    /// Jain fairness index of the throughputs.
    pub jain: f64,
    /// Time-averaged queue length.
    pub mean_queue: f64,
    /// Bottleneck utilisation.
    pub utilization: f64,
    /// Oscillation statistics of the queue trace tail (`None` if the
    /// queue settled or the trace was too short).
    pub queue_oscillation: Option<Oscillation>,
    /// Total packets dropped across flows.
    pub total_dropped: u64,
    /// Standard deviation of each flow's control signal (rate λ, window,
    /// or on/off phase) over the analysed trace tail — the
    /// control-variability number the DECbit experiments report.
    pub ctl_std: Vec<f64>,
    /// Finite-flow outcome (FCT/slowdown summaries, conservation
    /// counters), `Some` iff the run carried a
    /// [`Workload`].
    pub workload: Option<WorkloadStats>,
    /// Worst per-hop downtime fraction (see
    /// [`NetResult::downtime_frac`]; exact 0.0 for fault-free runs).
    pub downtime_frac: f64,
    /// Mean post-fault recovery time over the hops that sampled one
    /// (see [`NetResult::recovery_time`]; 0.0 when none did).
    pub recovery_time: f64,
}

/// Summarise a network result into a [`RunSummary`]: Jain index over
/// end-to-end throughputs, hop-averaged mean queue, utilisation of
/// aggregate capacity, and oscillation analysis of the final
/// `tail_fraction` of the *bottleneck* hop's trace (largest
/// time-averaged queue, ties to the lowest index). For a 1-link
/// topology these are the bottleneck's own mean queue, `throughput / μ`
/// and queue trace.
///
/// # Errors
/// [`NumericsError::InvalidParameter`] when the trace is shorter than
/// three samples or `tail_fraction` is NaN or outside `(0, 1]`;
/// propagates fairness-metric errors.
pub fn summarize_network(result: &NetResult, tail_fraction: f64) -> Result<RunSummary> {
    if result.trace_q.len() < 3 {
        return Err(NumericsError::InvalidParameter {
            context: "summarize: trace too short",
        });
    }
    let throughputs: Vec<f64> = result.flows.iter().map(|f| f.throughput).collect();
    let jain = jain_or_unit(&throughputs)?;
    let bottleneck = result.bottleneck_hop();
    let queue_oscillation = analyze_oscillation(&result.trace_q, bottleneck, tail_fraction)?;
    // The control signals' spread over the same tail window.
    let ctl = &result.trace_ctl;
    let start = ctl.tail_start(tail_fraction, 3)?;
    let ctl_std = (0..ctl.width())
        .map(|i| ctl.tail_var(i, start).sqrt())
        .collect();
    // Graceful degradation: the worst per-hop downtime fraction and the
    // mean recovery time over the hops that sampled one.
    let downtime_frac = result.downtime_frac.iter().copied().fold(0.0, f64::max);
    let sampled: Vec<f64> = result
        .recovery_time
        .iter()
        .copied()
        .filter(|&r| r > 0.0)
        .collect();
    let recovery_time = if sampled.is_empty() {
        0.0
    } else {
        fpk_numerics::stats::mean(&sampled)
    };
    Ok(RunSummary {
        jain,
        mean_queue: fpk_numerics::stats::mean(&result.mean_queue),
        utilization: net_utilization(result),
        queue_oscillation,
        total_dropped: result.flows.iter().map(|f| f.dropped).sum(),
        ctl_std,
        throughputs,
        workload: result.workload.clone(),
        downtime_frac,
        recovery_time,
    })
}

/// Jain index of the static flows' throughputs, defined as the
/// degenerate 1.0 for a workload-only run with no static flows (the
/// index is a static-flow fairness number; finite flows report FCT
/// percentiles instead).
fn jain_or_unit(throughputs: &[f64]) -> Result<f64> {
    if throughputs.is_empty() {
        Ok(1.0)
    } else {
        fpk_congestion::fairness::jain_index(throughputs)
    }
}

/// Utilisation summary of a network run. Static runs keep the historic
/// definition (delivered end-to-end throughput over aggregate capacity
/// — bit-identical to the pre-workload engine); runs carrying a
/// workload use the mean per-hop utilisation, which counts workload
/// packets (finite flows have no per-flow `throughput`, so the
/// throughput-based ratio would read ~0 under pure workload traffic).
fn net_utilization(result: &NetResult) -> f64 {
    if result.workload.is_some() {
        fpk_numerics::stats::mean(&result.utilization)
    } else {
        result.total_throughput / result.capacity
    }
}

/// Run a network simulation (with a finite-flow [`Workload`] when
/// `workload` is `Some`) and summarise it in one step, reusing `arena`.
///
/// This is the sweep path: [`summarize_network`] reads the result, and
/// the trace buffers then move back into the arena, so a
/// replication loop holding one arena allocates **no trace storage**
/// after its first run. The output is bit-identical to
/// `summarize_network(&run_network(..)?, ..)` on the same seed.
///
/// # Errors
/// Propagates [`crate::run_network`] / [`crate::run_network_workload`]
/// validation errors and the [`summarize_network`] contract (trace
/// shorter than three samples, bad `tail_fraction`).
pub fn run_network_summary(
    arena: &mut NetArena,
    config: &NetConfig,
    flows: &[FlowSpec],
    workload: Option<&Workload>,
    tail_fraction: f64,
) -> Result<RunSummary> {
    let out = run_network_core(arena, config, flows, workload)?;
    let summary = summarize_network(&out, tail_fraction);
    arena.recycle(out);
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{FaultConfig, Service, SimConfig};
    use crate::network::run_network;
    use crate::source::SourceSpec;
    use fpk_congestion::LinearExp;
    use fpk_numerics::Series;

    /// Two adaptive rate sources on one exponential bottleneck.
    fn quick_result() -> NetResult {
        let cfg = SimConfig {
            mu: 50.0,
            service: Service::Exponential,
            buffer: None,
            t_end: 60.0,
            warmup: 10.0,
            sample_interval: 0.05,
            seed: 3,
        };
        let src = SourceSpec::Rate {
            law: LinearExp::new(2.0, 0.5, 8.0),
            lambda0: 10.0,
            update_interval: 0.1,
            prop_delay: 0.01,
            poisson: true,
        };
        let flows = vec![FlowSpec::single_hop(src.clone()), FlowSpec::single_hop(src)];
        run_network(
            &NetConfig::single_link(&cfg, FaultConfig::default()),
            &flows,
        )
        .unwrap()
    }

    #[test]
    fn summary_fields_consistent() {
        let r = quick_result();
        let s = summarize_network(&r, 0.5).unwrap();
        assert_eq!(s.throughputs.len(), 2);
        assert!(s.jain > 0.5 && s.jain <= 1.0);
        assert!(s.mean_queue >= 0.0);
        assert!(s.utilization > 0.0);
        assert_eq!(s.ctl_std.len(), 2);
        assert!(
            s.ctl_std.iter().all(|v| v.is_finite() && *v > 0.0),
            "adaptive rates must vary over the tail: {:?}",
            s.ctl_std
        );
    }

    #[test]
    fn summarize_rejects_short_trace() {
        let mut r = quick_result();
        r.trace_q = Series::new(1);
        r.trace_q.push(0.0, [0.0]);
        r.trace_q.push(0.05, [1.0]);
        assert!(summarize_network(&r, 0.5).is_err());
    }

    #[test]
    fn summarize_rejects_nan_tail_fraction() {
        let r = quick_result();
        assert!(summarize_network(&r, f64::NAN).is_err());
    }

    /// Bit-level fingerprint of a summary: `{:?}` prints every `f64` in
    /// its shortest round-trip form, so equal strings mean equal bits.
    fn bits(s: &RunSummary) -> String {
        format!("{s:?}")
    }

    /// A lossy single bottleneck shared by a rate and a window flow.
    fn mixed_single_link() -> (NetConfig, Vec<FlowSpec>) {
        use crate::network::Topology;
        let cfg = NetConfig {
            topology: Topology::single(50.0, Service::Exponential, Some(40)),
            faults: vec![FaultConfig::Iid { loss_prob: 0.02 }],
            t_end: 30.0,
            warmup: 6.0,
            sample_interval: 0.1,
            seed: 42,
            qdisc: crate::qdisc::QdiscKind::Fifo,
            packet_bytes: None,
        };
        let flows: Vec<FlowSpec> = vec![
            FlowSpec::single_hop(SourceSpec::Rate {
                law: LinearExp::new(4.0, 0.5, 10.0),
                lambda0: 15.0,
                update_interval: 0.1,
                prop_delay: 0.01,
                poisson: true,
            }),
            FlowSpec::single_hop(SourceSpec::Window {
                aimd: fpk_congestion::WindowAimd::new(1.0, 0.5, 0.05, 10.0),
                w0: 2.0,
            }),
        ];
        (cfg, flows)
    }

    #[test]
    fn run_network_summary_matches_full_trace_path() {
        // A summary on a reused arena must not move a single bit
        // relative to a fresh run_network + summarize_network.
        let (cfg, flows) = mixed_single_link();
        let reference = summarize_network(&run_network(&cfg, &flows).unwrap(), 0.5).unwrap();
        let mut arena = NetArena::new();
        // Dirty the arena first so reuse is exercised, then summarise.
        run_network_summary(&mut arena, &cfg, &flows, None, 0.5).unwrap();
        let fast = run_network_summary(&mut arena, &cfg, &flows, None, 0.5).unwrap();
        assert_eq!(bits(&fast), bits(&reference));
    }

    #[test]
    fn run_network_summary_reuses_trace_buffers() {
        // The property the sweep path exists for: after its first run an
        // arena allocates no trace storage, static flows or workload.
        use crate::network::{run_network_workload, Route};
        use crate::workload::{ArrivalProcess, FlowSizeDist};
        let (cfg, flows) = mixed_single_link();
        let workload = Workload::new(
            ArrivalProcess::Poisson { rate: 4.0 },
            FlowSizeDist::Exponential { mean: 5.0 },
            vec![Route::single(0)],
        );
        let buffers = |a: &NetArena| {
            let (q, ctl) = (&a.trace.queues, &a.trace.ctl);
            [
                (q.t().as_ptr(), q.capacity().0),
                (q.data().as_ptr(), q.capacity().1),
                (ctl.t().as_ptr(), ctl.capacity().0),
                (ctl.data().as_ptr(), ctl.capacity().1),
            ]
        };
        for wl in [None, Some(&workload)] {
            let reference = match wl {
                Some(w) => run_network_workload(&cfg, &flows, w),
                None => run_network(&cfg, &flows),
            };
            let reference = summarize_network(&reference.unwrap(), 0.5).unwrap();
            let mut arena = NetArena::new();
            let first = run_network_summary(&mut arena, &cfg, &flows, wl, 0.5).unwrap();
            let before = buffers(&arena);
            let repeat = run_network_summary(&mut arena, &cfg, &flows, wl, 0.5).unwrap();
            assert_eq!(buffers(&arena), before, "workload: {}", wl.is_some());
            assert!(before.iter().all(|&(_, cap)| cap > 0));
            assert_eq!(repeat.workload.is_some(), wl.is_some());
            assert_eq!(bits(&first), bits(&reference));
            assert_eq!(bits(&repeat), bits(&reference));
        }
    }

    #[test]
    fn summarize_rejects_out_of_range_tail_fraction() {
        let r = quick_result();
        assert!(summarize_network(&r, 0.0).is_err());
        assert!(summarize_network(&r, -0.3).is_err());
        assert!(summarize_network(&r, 1.5).is_err());
        // The boundary 1.0 (analyse the whole trace) is legal.
        assert!(summarize_network(&r, 1.0).is_ok());
    }
}
