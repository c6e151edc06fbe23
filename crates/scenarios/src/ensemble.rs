//! [`Ensemble`] — R replications of a scenario aggregated into
//! mean / standard deviation / 95% confidence intervals per
//! [`RunSummary`] field.
//!
//! Replication seeds are derived from the cell seed with the same
//! splitmix construction as cell seeds from the base seed, so the r-th
//! replication of a cell is a pure function of
//! `(base_seed, cell_index, r)` — adding replications never perturbs the
//! ones already run.

use crate::sweep::derive_seed;
use fpk_numerics::stats::RunningStats;
use fpk_numerics::{NumericsError, Result};
use fpk_sim::RunSummary;
use serde::{Deserialize, Serialize};

use crate::scenario::Scenario;

/// Mean / spread / confidence summary of one scalar across replications.
/// The all-zero default is what checkpoints written before a `Stat` field
/// existed load as.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Stat {
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample standard deviation (0 with < 2 samples).
    pub std_dev: f64,
    /// Half-width of the normal-approximation 95% CI for the mean.
    pub ci95: f64,
    /// Number of samples aggregated.
    pub n: u64,
}

impl Stat {
    /// Aggregate a slice of samples.
    #[must_use]
    pub fn from_samples(xs: &[f64]) -> Self {
        let mut rs = RunningStats::new();
        for &x in xs {
            rs.push(x);
        }
        Self::from_running(&rs)
    }

    /// Convert an accumulator.
    #[must_use]
    pub fn from_running(rs: &RunningStats) -> Self {
        Self {
            mean: rs.mean(),
            std_dev: rs.std_dev(),
            ci95: rs.ci95_halfwidth(),
            n: rs.count(),
        }
    }
}

/// Replication-aggregated statistics of one scenario cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnsembleStats {
    /// Number of replications aggregated.
    pub replications: usize,
    /// Jain fairness index of per-flow throughputs.
    pub jain: Stat,
    /// Time-averaged queue length.
    pub mean_queue: Stat,
    /// Bottleneck utilisation.
    pub utilization: Stat,
    /// Aggregate delivered throughput (sum over flows, packets/s).
    pub total_throughput: Stat,
    /// Total packets dropped across flows.
    pub total_dropped: Stat,
    /// Per-flow throughput statistics, in flow order.
    pub flow_throughput: Vec<Stat>,
    /// Per-flow control-signal standard deviation statistics (empty for
    /// tandem scenarios, which record no control trace).
    pub flow_ctl_std: Vec<Stat>,
    /// Queue-oscillation amplitude over the replications whose trace
    /// tail oscillated (`None` when no replication did).
    pub oscillation_amplitude: Option<Stat>,
    /// Worst per-hop downtime fraction (link-flap outage share of the
    /// post-warmup window; 0 without dynamic faults).
    #[serde(default)]
    pub downtime_frac: Stat,
    /// Mean post-fault recovery time across hops that recorded one.
    #[serde(default)]
    pub recovery_time: Stat,
    /// Finite-flow workload statistics, `Some` iff the replications
    /// carried a workload (presence must agree across replications).
    pub workload: Option<WorkloadEnsemble>,
}

/// Replication-aggregated finite-flow statistics: each field is the
/// [`Stat`] of one per-run [`fpk_sim::WorkloadStats`] scalar across the
/// ensemble (e.g. `fct_p99` is the mean-of-per-run-p99s, not the p99 of
/// the pooled samples — per-run first, then across runs, like every
/// other ensemble field).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadEnsemble {
    /// Flows admitted within the horizon.
    pub arrived: Stat,
    /// Flows that accounted every packet.
    pub completed: Stat,
    /// Per-run mean flow completion time (s). This and the other four
    /// FCT/slowdown fields aggregate only replications with at least one
    /// clean post-warm-up completion; their `n` counts those.
    pub fct_mean: Stat,
    /// Per-run median FCT (s).
    pub fct_p50: Stat,
    /// Per-run 99th-percentile FCT (s).
    pub fct_p99: Stat,
    /// Per-run mean slowdown (FCT / ideal FCT).
    pub slowdown_mean: Stat,
    /// Per-run 99th-percentile slowdown.
    pub slowdown_p99: Stat,
    /// Per-run peak concurrently-active flow count.
    pub peak_active: Stat,
    /// Per-run count of workload packets terminally dropped (always 0
    /// under a retry policy — terminal losses become `packets_gave_up`).
    #[serde(default)]
    pub packets_dropped: Stat,
    /// Per-run goodput (first-copy deliveries per second of horizon).
    #[serde(default)]
    pub goodput: Stat,
    /// Per-run retransmission overhead (retransmits / packets sent).
    #[serde(default)]
    pub retx_overhead: Stat,
    /// Per-run count of packets abandoned after exhausting retries.
    #[serde(default)]
    pub packets_gave_up: Stat,
    /// Per-run count of flows with at least one abandoned packet.
    #[serde(default)]
    pub flows_gave_up: Stat,
}

/// Replication policy: how many seeds per cell.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Ensemble {
    /// Number of replications R (seeds per cell); must be ≥ 1.
    pub replications: usize,
}

impl Ensemble {
    /// An ensemble of `replications` seeds per cell.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] when `replications == 0`.
    pub fn new(replications: usize) -> Result<Self> {
        if replications == 0 {
            return Err(NumericsError::InvalidParameter {
                context: "Ensemble: need at least one replication",
            });
        }
        Ok(Self { replications })
    }

    /// Seed of replication `r` of a cell with seed `cell_seed`.
    #[must_use]
    pub fn replication_seed(cell_seed: u64, r: usize) -> u64 {
        derive_seed(cell_seed, r as u64)
    }

    /// Run all replications of `scenario` sequentially and aggregate.
    /// (The sweep runner parallelises across `(cell, replication)` jobs
    /// instead; this entry point serves single-cell callers.)
    ///
    /// # Errors
    /// Propagates the first failing replication.
    pub fn run(&self, scenario: &Scenario, cell_seed: u64) -> Result<EnsembleStats> {
        let summaries: Vec<RunSummary> = (0..self.replications)
            .map(|r| scenario.run_seeded(Self::replication_seed(cell_seed, r)))
            .collect::<Result<_>>()?;
        aggregate(&summaries)
    }
}

/// Streaming per-cell aggregation: fold [`RunSummary`]s one at a time
/// into [`RunningStats`] accumulators instead of materialising a
/// `Vec<RunSummary>` per cell. A sweep worker pushes each replication
/// as it finishes, so a 10⁵-cell × R grid holds O(cells) reports but
/// only O(1) replication state — never O(cells × R) summaries.
///
/// Bit-identity contract: pushing replications in order `0..R` performs
/// exactly the same sequence of [`RunningStats::push`] calls per field
/// as [`aggregate`] on the collected slice did, so the resulting
/// [`EnsembleStats`] is bit-identical to the collect-then-aggregate
/// path (which now delegates here).
#[derive(Default)]
pub struct CellAccum {
    replications: usize,
    jain: RunningStats,
    mean_queue: RunningStats,
    utilization: RunningStats,
    total_throughput: RunningStats,
    total_dropped: RunningStats,
    /// Sized by the first pushed summary; later disagreement errors.
    flow_throughput: Vec<RunningStats>,
    flow_ctl_std: Vec<RunningStats>,
    /// Only replications whose trace tail oscillated push here.
    oscillation: RunningStats,
    downtime_frac: RunningStats,
    recovery_time: RunningStats,
    /// Workload accumulators, allocated iff the first summary carried
    /// workload stats; later presence disagreement errors.
    wl: Option<WlAccum>,
}

/// The [`RunningStats`] behind one [`WorkloadEnsemble`].
#[derive(Default)]
struct WlAccum {
    arrived: RunningStats,
    completed: RunningStats,
    fct_mean: RunningStats,
    fct_p50: RunningStats,
    fct_p99: RunningStats,
    slowdown_mean: RunningStats,
    slowdown_p99: RunningStats,
    peak_active: RunningStats,
    packets_dropped: RunningStats,
    goodput: RunningStats,
    retx_overhead: RunningStats,
    packets_gave_up: RunningStats,
    flows_gave_up: RunningStats,
}

impl WlAccum {
    fn push(&mut self, w: &fpk_sim::WorkloadStats) {
        self.arrived.push(w.arrived as f64);
        self.completed.push(w.completed as f64);
        // A replication without a clean post-warm-up completion has no
        // FCT sample; its all-zero summary would drag the means down
        // (a slowdown below 1), so it is skipped and `n` counts the
        // replications that contributed.
        if w.fct.count > 0 {
            self.fct_mean.push(w.fct.mean);
            self.fct_p50.push(w.fct.p50);
            self.fct_p99.push(w.fct.p99);
            self.slowdown_mean.push(w.slowdown.mean);
            self.slowdown_p99.push(w.slowdown.p99);
        }
        self.peak_active.push(w.peak_active as f64);
        self.packets_dropped.push(w.packets_dropped as f64);
        self.goodput.push(w.goodput);
        self.retx_overhead.push(w.retx_overhead);
        self.packets_gave_up.push(w.packets_gave_up as f64);
        self.flows_gave_up.push(w.flows_gave_up as f64);
    }

    fn finish(&self) -> WorkloadEnsemble {
        WorkloadEnsemble {
            arrived: Stat::from_running(&self.arrived),
            completed: Stat::from_running(&self.completed),
            fct_mean: Stat::from_running(&self.fct_mean),
            fct_p50: Stat::from_running(&self.fct_p50),
            fct_p99: Stat::from_running(&self.fct_p99),
            slowdown_mean: Stat::from_running(&self.slowdown_mean),
            slowdown_p99: Stat::from_running(&self.slowdown_p99),
            peak_active: Stat::from_running(&self.peak_active),
            packets_dropped: Stat::from_running(&self.packets_dropped),
            goodput: Stat::from_running(&self.goodput),
            retx_overhead: Stat::from_running(&self.retx_overhead),
            packets_gave_up: Stat::from_running(&self.packets_gave_up),
            flows_gave_up: Stat::from_running(&self.flows_gave_up),
        }
    }
}

impl CellAccum {
    /// A fresh accumulator (no replications yet).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of summaries folded in so far.
    #[must_use]
    pub fn replications(&self) -> usize {
        self.replications
    }

    /// Fold one replication summary.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] when the summary disagrees
    /// with earlier ones on the flow count.
    pub fn push(&mut self, s: &RunSummary) -> Result<()> {
        if self.replications == 0 {
            self.flow_throughput = vec![RunningStats::new(); s.throughputs.len()];
            self.flow_ctl_std = vec![RunningStats::new(); s.ctl_std.len()];
            self.wl = s.workload.as_ref().map(|_| WlAccum::default());
        } else if s.throughputs.len() != self.flow_throughput.len()
            || s.ctl_std.len() != self.flow_ctl_std.len()
        {
            return Err(NumericsError::InvalidParameter {
                context: "aggregate: replications disagree on flow count",
            });
        } else if s.workload.is_some() != self.wl.is_some() {
            return Err(NumericsError::InvalidParameter {
                context: "aggregate: replications disagree on workload presence",
            });
        }
        self.replications += 1;
        self.jain.push(s.jain);
        self.mean_queue.push(s.mean_queue);
        self.utilization.push(s.utilization);
        self.total_throughput.push(s.throughputs.iter().sum());
        self.total_dropped.push(s.total_dropped as f64);
        for (rs, &x) in self.flow_throughput.iter_mut().zip(&s.throughputs) {
            rs.push(x);
        }
        for (rs, &x) in self.flow_ctl_std.iter_mut().zip(&s.ctl_std) {
            rs.push(x);
        }
        if let Some(o) = &s.queue_oscillation {
            self.oscillation.push(o.amplitude);
        }
        self.downtime_frac.push(s.downtime_frac);
        self.recovery_time.push(s.recovery_time);
        if let (Some(acc), Some(w)) = (&mut self.wl, &s.workload) {
            acc.push(w);
        }
        Ok(())
    }

    /// Convert the accumulated state into per-field statistics.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] when nothing was pushed.
    pub fn finish(&self) -> Result<EnsembleStats> {
        if self.replications == 0 {
            return Err(NumericsError::InvalidParameter {
                context: "aggregate: need at least one replication summary",
            });
        }
        Ok(EnsembleStats {
            replications: self.replications,
            jain: Stat::from_running(&self.jain),
            mean_queue: Stat::from_running(&self.mean_queue),
            utilization: Stat::from_running(&self.utilization),
            total_throughput: Stat::from_running(&self.total_throughput),
            total_dropped: Stat::from_running(&self.total_dropped),
            flow_throughput: self
                .flow_throughput
                .iter()
                .map(Stat::from_running)
                .collect(),
            flow_ctl_std: self.flow_ctl_std.iter().map(Stat::from_running).collect(),
            oscillation_amplitude: if self.oscillation.count() == 0 {
                None
            } else {
                Some(Stat::from_running(&self.oscillation))
            },
            downtime_frac: Stat::from_running(&self.downtime_frac),
            recovery_time: Stat::from_running(&self.recovery_time),
            workload: self.wl.as_ref().map(WlAccum::finish),
        })
    }
}

/// Aggregate replication summaries into per-field statistics.
/// (Collect-then-aggregate view of [`CellAccum`]; the sweep runner
/// streams through the accumulator directly and never builds the
/// slice.)
///
/// # Errors
/// [`NumericsError::InvalidParameter`] when `summaries` is empty or the
/// replications disagree on the flow count.
pub fn aggregate(summaries: &[RunSummary]) -> Result<EnsembleStats> {
    let mut accum = CellAccum::new();
    for s in summaries {
        accum.push(s)?;
    }
    accum.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpk_congestion::LinearExp;
    use fpk_sim::{Service, SimConfig, SourceSpec};

    fn scenario() -> Scenario {
        Scenario::new(
            "ens",
            SimConfig {
                mu: 50.0,
                service: Service::Exponential,
                buffer: None,
                t_end: 15.0,
                warmup: 3.0,
                sample_interval: 0.1,
                seed: 0,
            },
            vec![
                SourceSpec::Rate {
                    law: LinearExp::new(8.0, 0.5, 10.0),
                    lambda0: 20.0,
                    update_interval: 0.1,
                    prop_delay: 0.01,
                    poisson: true,
                };
                2
            ],
        )
    }

    #[test]
    fn rejects_zero_replications() {
        assert!(Ensemble::new(0).is_err());
    }

    #[test]
    fn replications_average_and_bound() {
        let ens = Ensemble::new(5).unwrap();
        let stats = ens.run(&scenario(), 99).unwrap();
        assert_eq!(stats.replications, 5);
        assert_eq!(stats.flow_throughput.len(), 2);
        assert_eq!(stats.utilization.n, 5);
        assert!(stats.utilization.mean > 0.0);
        assert!(stats.utilization.std_dev > 0.0, "distinct seeds must vary");
        assert!(stats.utilization.ci95 > 0.0);
        // The mean of per-flow means must reassemble the total.
        let flows: f64 = stats.flow_throughput.iter().map(|s| s.mean).sum();
        assert!((flows - stats.total_throughput.mean).abs() < 1e-9);
    }

    #[test]
    fn replication_prefix_is_stable() {
        // Growing R must not change the seeds of earlier replications.
        let s3: Vec<u64> = (0..3).map(|r| Ensemble::replication_seed(7, r)).collect();
        let s5: Vec<u64> = (0..5).map(|r| Ensemble::replication_seed(7, r)).collect();
        assert_eq!(s3, s5[..3]);
    }

    #[test]
    fn streaming_accumulator_matches_collected_aggregate_bitwise() {
        // The sweep runner folds summaries through CellAccum one at a
        // time; the result must be bit-identical to aggregating the
        // collected slice (same RunningStats push order per field).
        let sc = scenario();
        let summaries: Vec<RunSummary> = (0..4)
            .map(|r| sc.run_seeded(Ensemble::replication_seed(5, r)).unwrap())
            .collect();
        let collected = aggregate(&summaries).unwrap();
        let mut accum = CellAccum::new();
        for s in &summaries {
            accum.push(s).unwrap();
        }
        let streamed = accum.finish().unwrap();
        assert_eq!(
            serde_json::to_string(&collected).unwrap(),
            serde_json::to_string(&streamed).unwrap()
        );
        assert_eq!(accum.replications(), 4);
    }

    #[test]
    fn accum_rejects_empty_and_mismatched_pushes() {
        assert!(CellAccum::new().finish().is_err());
        let sc = scenario();
        let mut one = sc.run_seeded(1).unwrap();
        let two = sc.run_seeded(2).unwrap();
        one.throughputs.pop();
        let mut accum = CellAccum::new();
        accum.push(&two).unwrap();
        assert!(accum.push(&one).is_err(), "flow-count mismatch must fail");
    }

    #[test]
    fn workload_fct_skips_replications_without_completions() {
        let sc = scenario();
        let mut empty = sc.run_seeded(1).unwrap();
        empty.workload = Some(fpk_sim::WorkloadStats::default());
        let mut done = sc.run_seeded(2).unwrap();
        let sample = fpk_sim::DistSummary {
            count: 3,
            mean: 1.5,
            p50: 1.4,
            p99: 1.9,
            min: 1.1,
            max: 1.9,
        };
        done.workload = Some(fpk_sim::WorkloadStats {
            arrived: 3,
            completed: 3,
            completed_clean: 3,
            fct: sample,
            slowdown: sample,
            ..fpk_sim::WorkloadStats::default()
        });
        let mut accum = CellAccum::new();
        accum.push(&empty).unwrap();
        accum.push(&done).unwrap();
        let wl = accum.finish().unwrap().workload.unwrap();
        assert!(wl.slowdown_mean.mean >= 1.0, "{:?}", wl.slowdown_mean);
        assert_eq!(wl.slowdown_mean.n, 1);
        assert_eq!(wl.fct_p99.n, 1);
        assert_eq!(
            wl.arrived.n, 2,
            "per-run counters still see every replication"
        );
    }

    #[test]
    fn aggregate_rejects_bad_input() {
        assert!(aggregate(&[]).is_err());
        let ens = Ensemble::new(1).unwrap();
        let a = ens.run(&scenario(), 1).unwrap();
        let _ = a;
        let mut one = scenario().run_seeded(1).unwrap();
        let two = scenario().run_seeded(2).unwrap();
        one.throughputs.pop();
        assert!(aggregate(&[one, two]).is_err());
    }
}
