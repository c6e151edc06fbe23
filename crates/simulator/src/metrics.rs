//! Post-processing of simulation results: fairness summaries and
//! oscillation analysis of queue traces, from a full-trace
//! [`NetResult`] or straight from a run's [`NetArena`].

use crate::network::{run_network_core, FlowSpec, NetArena, NetConfig, NetResult, TraceMode};
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

/// Graceful-degradation summary pair from a network result: the worst
/// per-hop downtime fraction and the mean recovery time over hops that
/// sampled one. One definition shared by [`summarize_network`] and the
/// arena fast path so the two cannot drift apart.
fn fault_recovery_summary(result: &NetResult) -> (f64, f64) {
    let downtime = result.downtime_frac.iter().copied().fold(0.0, f64::max);
    let sampled: Vec<f64> = result
        .recovery_time
        .iter()
        .copied()
        .filter(|&r| r > 0.0)
        .collect();
    let recovery = if sampled.is_empty() {
        0.0
    } else {
        fpk_numerics::stats::mean(&sampled)
    };
    (downtime, recovery)
}

/// Shared contract checks of the two summary entry points. Validated
/// here rather than letting the values fall through to
/// `analyze_oscillation`: a NaN or out-of-range fraction is a caller bug
/// and must be reported against the summary API's contract.
fn validate_tail(tail_fraction: f64, trace_len: usize) -> Result<()> {
    if tail_fraction.is_nan() || !(0.0..=1.0).contains(&tail_fraction) || tail_fraction == 0.0 {
        return Err(NumericsError::InvalidParameter {
            context: "summarize: tail_fraction must lie in (0, 1]",
        });
    }
    if trace_len < 3 {
        return Err(NumericsError::InvalidParameter {
            context: "summarize: trace too short",
        });
    }
    Ok(())
}

/// Start index of the control-trace tail window: the oscillation
/// analysis' fraction cut with its keep-at-least-3-samples clamp. The
/// one definition serves both trace layouts so the Full-trace and
/// arena summary paths cannot drift apart.
fn ctl_tail_start(n_samples: usize, tail_fraction: f64) -> usize {
    let start = ((1.0 - tail_fraction) * n_samples as f64) as usize;
    start.min(n_samples.saturating_sub(3))
}

/// Per-flow control-signal standard deviation over the trace tail —
/// the same tail window as the oscillation analysis.
fn tail_ctl_std(trace_ctl: &[Vec<f64>], n_flows: usize, tail_fraction: f64) -> Vec<f64> {
    let tail = &trace_ctl[ctl_tail_start(trace_ctl.len(), tail_fraction)..];
    (0..n_flows)
        .map(|i| {
            let xs: Vec<f64> = tail.iter().map(|c| c[i]).collect();
            fpk_numerics::stats::variance(&xs).sqrt()
        })
        .collect()
}

/// [`tail_ctl_std`] over the arena's *flattened* control trace
/// (`flat[sample * n_flows + flow]`). Shares [`ctl_tail_start`] with
/// the nested version so the two paths produce bit-identical output.
fn tail_ctl_std_flat(flat: &[f64], n_flows: usize, tail_fraction: f64) -> Vec<f64> {
    let n_samples = flat.len().checked_div(n_flows).unwrap_or(0);
    let s0 = ctl_tail_start(n_samples, tail_fraction);
    (0..n_flows)
        .map(|i| {
            let xs: Vec<f64> = (s0..n_samples).map(|s| flat[s * n_flows + i]).collect();
            fpk_numerics::stats::variance(&xs).sqrt()
        })
        .collect()
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
    validate_tail(tail_fraction, result.trace_t.len())?;
    let throughputs: Vec<f64> = result.flows.iter().map(|f| f.throughput).collect();
    let jain = jain_or_unit(&throughputs)?;
    let bottleneck = result.bottleneck_hop();
    let queue_oscillation =
        analyze_oscillation(&result.trace_t, &result.trace_q[bottleneck], tail_fraction)?;
    let ctl_std = tail_ctl_std(&result.trace_ctl, result.flows.len(), tail_fraction);
    let (downtime_frac, recovery_time) = fault_recovery_summary(result);
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

/// Run a network simulation and summarise it in one step, recording
/// traces into `arena`'s reusable buffers instead of the result
/// ([`TraceMode::Summary`], forced regardless of `config.trace`).
///
/// This is the sweep fast path: a replication loop holding one arena
/// performs **no per-run trace allocation** — and the output is
/// bit-identical to `summarize_network(&run_network(..)?, ..)` on the
/// same seed, because the dynamics are trace-mode-independent and the
/// summary arithmetic is shared.
///
/// # Errors
/// Propagates `run_network` validation errors and the
/// [`summarize_network`] contract (trace shorter than three samples,
/// bad `tail_fraction`).
pub fn run_network_summary(
    arena: &mut NetArena,
    config: &NetConfig,
    flows: &[FlowSpec],
    tail_fraction: f64,
) -> Result<RunSummary> {
    let out = run_network_core(arena, config, flows, None, TraceMode::Summary)?;
    arena_summary(arena, out, tail_fraction)
}

/// [`run_network_summary`] for a run carrying a finite-flow
/// [`Workload`]: the workload analogue of the sweep fast path, with the
/// FCT/slowdown summaries landing in [`RunSummary::workload`].
///
/// # Errors
/// Propagates [`crate::run_network_workload`] validation errors and the
/// [`summarize_network`] contract (trace shorter than three samples, bad
/// `tail_fraction`).
pub fn run_network_workload_summary(
    arena: &mut NetArena,
    config: &NetConfig,
    flows: &[FlowSpec],
    workload: &Workload,
    tail_fraction: f64,
) -> Result<RunSummary> {
    let out = run_network_core(arena, config, flows, Some(workload), TraceMode::Summary)?;
    arena_summary(arena, out, tail_fraction)
}

/// Summary arithmetic shared by the two arena fast paths. Identical
/// field-for-field to [`summarize_network`] modulo the flattened
/// control-trace layout, so the Full-trace and arena paths cannot
/// drift apart.
fn arena_summary(arena: &NetArena, out: NetResult, tail_fraction: f64) -> Result<RunSummary> {
    let tr = &arena.trace;
    validate_tail(tail_fraction, tr.times.len())?;
    let throughputs: Vec<f64> = out.flows.iter().map(|f| f.throughput).collect();
    let jain = jain_or_unit(&throughputs)?;
    let bottleneck = out.bottleneck_hop();
    let queue_oscillation = analyze_oscillation(&tr.times, &tr.queues[bottleneck], tail_fraction)?;
    let ctl_std = tail_ctl_std_flat(&tr.ctl, out.flows.len(), tail_fraction);
    let (downtime_frac, recovery_time) = fault_recovery_summary(&out);
    Ok(RunSummary {
        jain,
        mean_queue: fpk_numerics::stats::mean(&out.mean_queue),
        utilization: net_utilization(&out),
        queue_oscillation,
        total_dropped: out.flows.iter().map(|f| f.dropped).sum(),
        ctl_std,
        throughputs,
        workload: out.workload,
        downtime_frac,
        recovery_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{FaultConfig, Service, SimConfig};
    use crate::network::run_network;
    use crate::source::SourceSpec;
    use fpk_congestion::LinearExp;

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
        r.trace_t.truncate(2);
        r.trace_q[0].truncate(2);
        assert!(summarize_network(&r, 0.5).is_err());
    }

    #[test]
    fn summarize_rejects_nan_tail_fraction() {
        let r = quick_result();
        assert!(summarize_network(&r, f64::NAN).is_err());
    }

    #[test]
    fn run_network_summary_matches_full_trace_path() {
        // The arena fast path must not move a single bit relative to
        // run_network (Full traces) + summarize_network.
        use crate::network::Topology;
        let cfg = NetConfig {
            topology: Topology::single(50.0, Service::Exponential, Some(40)),
            faults: vec![FaultConfig::Iid { loss_prob: 0.02 }],
            t_end: 30.0,
            warmup: 6.0,
            sample_interval: 0.1,
            seed: 42,
            trace: crate::network::TraceMode::Full,
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
        let reference = summarize_network(&run_network(&cfg, &flows).unwrap(), 0.5).unwrap();
        let mut arena = NetArena::new();
        // Dirty the arena first so reuse is exercised, then summarise.
        run_network_summary(&mut arena, &cfg, &flows, 0.5).unwrap();
        let fast = run_network_summary(&mut arena, &cfg, &flows, 0.5).unwrap();
        assert_eq!(fast.throughputs, reference.throughputs);
        assert_eq!(fast.jain.to_bits(), reference.jain.to_bits());
        assert_eq!(fast.mean_queue.to_bits(), reference.mean_queue.to_bits());
        assert_eq!(fast.utilization.to_bits(), reference.utilization.to_bits());
        assert_eq!(fast.total_dropped, reference.total_dropped);
        assert_eq!(fast.ctl_std, reference.ctl_std);
        let osc = |s: &RunSummary| {
            s.queue_oscillation
                .as_ref()
                .map(|o| (o.amplitude.to_bits(), o.period.to_bits()))
        };
        assert_eq!(osc(&fast), osc(&reference));
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
