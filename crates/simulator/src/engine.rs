//! Configuration types of the classic single-bottleneck view of the
//! simulator — one FIFO queue fed by adaptive sources — plus the
//! per-hop fault model every topology shares.
//!
//! Packet timeline for a flow with one-way propagation delay `p`:
//!
//! ```text
//! send at t ──p──▶ arrival at queue ──wait+service──▶ departure ──p──▶ ack
//! ```
//!
//! Rate sources additionally run a control loop: the bottleneck queue is
//! observed every `update_interval`, the (stale) value arrives one
//! propagation delay later, and the JRJ law is integrated over the
//! interval (`source::rate_update`). Window sources are driven purely by
//! acks carrying DECbit-style marks (queue above q̂ at packet arrival).
//!
//! The event loop lives in [`crate::network`]: a [`SimConfig`] becomes
//! a 1-link topology through [`NetConfig::single_link`], and each source
//! a [`FlowSpec::single_hop`] flow on it.
//!
//! [`NetConfig::single_link`]: crate::network::NetConfig::single_link
//! [`FlowSpec::single_hop`]: crate::network::FlowSpec::single_hop

use fpk_numerics::{NumericsError, Result};
use serde::Serialize;

/// Bottleneck service-time distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Service {
    /// Constant service time 1/μ.
    Deterministic,
    /// Exponential service times with rate μ (M/·/1-style variability).
    Exponential,
}

/// Single-bottleneck simulation configuration: the link (μ, service,
/// buffer) plus run control. Run it through
/// [`NetConfig::single_link`](crate::network::NetConfig::single_link).
#[derive(Debug, Clone, Serialize)]
pub struct SimConfig {
    /// Bottleneck service rate μ (packets/s).
    pub mu: f64,
    /// Service-time distribution.
    pub service: Service,
    /// Optional buffer limit (packets in system); `None` = infinite.
    pub buffer: Option<u64>,
    /// Simulated horizon (seconds).
    pub t_end: f64,
    /// Statistics (throughput, mean queue) ignore `[0, warmup)`.
    pub warmup: f64,
    /// Queue/rate trace sampling period.
    pub sample_interval: f64,
    /// RNG seed (the run is fully deterministic given the seed).
    pub seed: u64,
}

/// Fault-injection model for one hop (DESIGN §3i), in the spirit of the
/// `--drop-chance` options network stacks ship for robustness testing —
/// extended from static loss to dynamic per-hop fault *processes*.
///
/// [`FaultConfig::Iid`] is the historical time-invariant model and the
/// `Default`. The dynamic variants each advance a small deterministic
/// state machine on the hop's dedicated event side-lane; hops whose
/// fault is absent or `Iid` consume **zero** extra RNG draws, so
/// fault-free runs stay bit-identical to the pre-enum engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FaultConfig {
    /// Time-invariant random loss. Window flows receive a marked ack
    /// for the loss (drop-as-signal); rate flows simply lose the
    /// packet.
    Iid {
        /// Probability that a packet is lost on arrival at the hop.
        loss_prob: f64,
    },
    /// Gilbert–Elliott bursty loss: a two-state continuous-time chain
    /// with exponential sojourns, applying `loss_good` in the good
    /// state and `loss_bad` in the bad state. With `p_gb == p_bg` and
    /// `loss_good == loss_bad` the loss statistics degenerate to
    /// [`FaultConfig::Iid`].
    GilbertElliott {
        /// Transition rate good → bad (per second).
        p_gb: f64,
        /// Transition rate bad → good (per second).
        p_bg: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
    /// Link up/down flapping: exponential up-times at `down_rate`
    /// (rate of *going* down) alternate with exponential down-times at
    /// `up_rate` (rate of coming back up). A down hop stalls its
    /// server non-preemptively — the packet in service completes,
    /// arrivals park in the queue (subject to the buffer) until the
    /// link recovers. Long-run downtime fraction is
    /// `down_rate / (up_rate + down_rate)`.
    LinkFlap {
        /// Rate at which a downed link comes back up (per second).
        up_rate: f64,
        /// Rate at which an up link goes down (per second).
        down_rate: f64,
    },
    /// Periodic capacity degradation: every `period` seconds the hop's
    /// service rate toggles between μ and `factor`·μ. Fully
    /// deterministic — consumes no RNG draws at all.
    Degrade {
        /// Multiplier in (0, 1] applied to μ while degraded.
        factor: f64,
        /// Time between capacity toggles (seconds).
        period: f64,
    },
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::Iid { loss_prob: 0.0 }
    }
}

impl FaultConfig {
    /// Static random loss — shorthand for the historical model.
    #[must_use]
    pub const fn iid(loss_prob: f64) -> Self {
        Self::Iid { loss_prob }
    }

    /// Whether this fault drives a per-hop event chain (and therefore
    /// needs a dedicated side lane in the event queue).
    #[must_use]
    pub const fn is_dynamic(&self) -> bool {
        !matches!(self, Self::Iid { .. })
    }

    /// Validate the variant's probabilities and rates. NaN fails every
    /// range check below, so non-finite garbage is rejected uniformly.
    ///
    /// # Errors
    /// A named [`NumericsError::InvalidParameter`] for the offending
    /// variant: loss probabilities outside [0, 1), non-positive or
    /// non-finite transition/flap rates, `Degrade` factor outside
    /// (0, 1] or a non-positive period.
    pub fn validate(&self) -> Result<()> {
        let bad = |context: &'static str| Err(NumericsError::InvalidParameter { context });
        match *self {
            Self::Iid { loss_prob } => {
                if !(0.0..1.0).contains(&loss_prob) {
                    return bad("FaultConfig::Iid: loss_prob must lie in [0, 1)");
                }
            }
            Self::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                if !(p_gb.is_finite() && p_gb > 0.0 && p_bg.is_finite() && p_bg > 0.0) {
                    return bad(
                        "FaultConfig::GilbertElliott: transition rates must be positive and finite",
                    );
                }
                if !((0.0..1.0).contains(&loss_good) && (0.0..1.0).contains(&loss_bad)) {
                    return bad(
                        "FaultConfig::GilbertElliott: loss probabilities must lie in [0, 1)",
                    );
                }
            }
            Self::LinkFlap { up_rate, down_rate } => {
                if !(up_rate.is_finite()
                    && up_rate > 0.0
                    && down_rate.is_finite()
                    && down_rate > 0.0)
                {
                    return bad("FaultConfig::LinkFlap: flap rates must be positive and finite");
                }
            }
            Self::Degrade { factor, period } => {
                if !(factor.is_finite() && factor > 0.0 && factor <= 1.0) {
                    return bad("FaultConfig::Degrade: factor must lie in (0, 1]");
                }
                if !(period.is_finite() && period > 0.0) {
                    return bad("FaultConfig::Degrade: period must be positive and finite");
                }
            }
        }
        Ok(())
    }
}

/// Single-link runs for the unit tests below: the sources become
/// [`FlowSpec::single_hop`] flows on [`NetConfig::single_link`].
///
/// [`FlowSpec::single_hop`]: crate::network::FlowSpec::single_hop
/// [`NetConfig::single_link`]: crate::network::NetConfig::single_link
#[cfg(test)]
mod harness {
    use super::{FaultConfig, SimConfig};
    use crate::network::{run_network, FlowSpec, NetConfig, NetResult};
    use crate::source::SourceSpec;
    use fpk_numerics::Result;

    pub fn run_faulty(
        cfg: &SimConfig,
        sources: &[SourceSpec],
        fault: FaultConfig,
    ) -> Result<NetResult> {
        let flows: Vec<FlowSpec> = sources.iter().cloned().map(FlowSpec::single_hop).collect();
        run_network(&NetConfig::single_link(cfg, fault), &flows)
    }

    pub fn run(cfg: &SimConfig, sources: &[SourceSpec]) -> Result<NetResult> {
        run_faulty(cfg, sources, FaultConfig::default())
    }

    /// Bottleneck utilisation: delivered throughput over μ.
    pub fn utilization(out: &NetResult) -> f64 {
        out.total_throughput / out.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::harness::{run, run_faulty, utilization};
    use super::*;
    use crate::source::SourceSpec;
    use fpk_congestion::{LinearExp, WindowAimd};

    fn rate_source(lambda0: f64, prop: f64) -> SourceSpec {
        SourceSpec::Rate {
            law: LinearExp::new(1.0, 0.5, 10.0),
            lambda0,
            update_interval: 0.1,
            prop_delay: prop,
            poisson: true,
        }
    }

    fn base_config() -> SimConfig {
        SimConfig {
            mu: 50.0,
            service: Service::Exponential,
            buffer: None,
            t_end: 200.0,
            warmup: 50.0,
            sample_interval: 0.1,
            seed: 7,
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = base_config();
        let src = vec![rate_source(20.0, 0.01)];
        let a = run(&cfg, &src).unwrap();
        let b = run(&cfg, &src).unwrap();
        assert_eq!(a.trace_q, b.trace_q);
        assert_eq!(a.flows[0].delivered, b.flows[0].delivered);
    }

    #[test]
    fn single_rate_source_fills_the_pipe() {
        // One JRJ source should drive utilisation close to capacity while
        // holding the queue near q̂. The probe slope must be matched to
        // the pipe (C0 = 1 pkt/s² against μ = 50 pkt/s recovers too
        // slowly after each back-off and idles the server — itself a
        // faithful JRJ property).
        let cfg = base_config();
        let src = SourceSpec::Rate {
            law: LinearExp::new(8.0, 0.5, 10.0),
            lambda0: 20.0,
            update_interval: 0.1,
            prop_delay: 0.01,
            poisson: true,
        };
        let out = run(&cfg, &[src]).unwrap();
        assert!(
            utilization(&out) > 0.8 && utilization(&out) < 1.05,
            "utilization {}",
            utilization(&out)
        );
        assert!(
            out.mean_queue[0] > 2.0 && out.mean_queue[0] < 25.0,
            "mean queue {} should hover near q̂ = 10",
            out.mean_queue[0]
        );
    }

    #[test]
    fn fixed_rate_source_matches_mm1() {
        // Disable adaptation (C0 = 0, threshold huge): a pure Poisson
        // source at λ against an exponential server is M/M/1 with
        // E[N] = ρ/(1−ρ).
        let mut cfg = base_config();
        cfg.t_end = 4000.0;
        cfg.warmup = 400.0;
        cfg.mu = 10.0;
        let src = SourceSpec::Rate {
            law: LinearExp::new(0.0, 0.5, 1e12),
            lambda0: 5.0,
            update_interval: 1.0,
            prop_delay: 0.01,
            poisson: true,
        };
        let out = run(&cfg, &[src]).unwrap();
        let rho: f64 = 0.5;
        let expected = rho / (1.0 - rho); // 1.0
        assert!(
            (out.mean_queue[0] - expected).abs() < 0.15,
            "M/M/1 mean {} vs expected {expected}",
            out.mean_queue[0]
        );
        assert!((out.total_throughput - 5.0).abs() < 0.2);
    }

    #[test]
    fn two_equal_rate_sources_share_fairly() {
        let cfg = base_config();
        let srcs = vec![rate_source(10.0, 0.01), rate_source(30.0, 0.01)];
        let out = run(&cfg, &srcs).unwrap();
        let a = out.flows[0].throughput;
        let b = out.flows[1].throughput;
        let ratio = a / b;
        assert!(
            (0.85..1.18).contains(&ratio),
            "throughputs {a} vs {b} should equalise (ratio {ratio})"
        );
    }

    #[test]
    fn finite_buffer_drops_and_bounds_queue() {
        let mut cfg = base_config();
        cfg.buffer = Some(15);
        // Overdriven fixed-rate source to force drops.
        let src = SourceSpec::Rate {
            law: LinearExp::new(0.0, 0.5, 1e12),
            lambda0: 100.0,
            update_interval: 1.0,
            prop_delay: 0.01,
            poisson: true,
        };
        let out = run(&cfg, &[src]).unwrap();
        assert!(out.flows[0].dropped > 0, "expected drops");
        assert!(out.trace_q.col(0).all(|q| q <= 15.0));
        // Server saturated → throughput ≈ μ.
        assert!((out.total_throughput - cfg.mu).abs() < 0.05 * cfg.mu);
    }

    #[test]
    fn window_source_sustains_throughput() {
        let mut cfg = base_config();
        cfg.mu = 100.0;
        let src = SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, 0.1, 10.0),
            w0: 2.0,
        };
        let out = run(&cfg, &[src]).unwrap();
        assert!(
            utilization(&out) > 0.5,
            "window source should fill a good part of the pipe, got {}",
            utilization(&out)
        );
        assert!(out.flows[0].delivered > 0);
    }

    #[test]
    fn window_rtt_unfairness_longer_rtt_loses() {
        // Two identical AIMD sources, RTTs 30ms vs 120ms: the short-RTT
        // flow should collect clearly more throughput (Jacobson's
        // observation; E7b at packet level).
        let mut cfg = base_config();
        cfg.mu = 200.0;
        cfg.t_end = 300.0;
        cfg.warmup = 60.0;
        let mk = |rtt: f64| SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, rtt, 15.0),
            w0: 2.0,
        };
        let out = run(&cfg, &[mk(0.03), mk(0.12)]).unwrap();
        let short = out.flows[0].throughput;
        let long = out.flows[1].throughput;
        assert!(
            short > 1.5 * long,
            "short-RTT flow should dominate: {short} vs {long}"
        );
    }

    #[test]
    fn rejects_bad_config() {
        let mut cfg = base_config();
        cfg.mu = 0.0;
        assert!(run(&cfg, &[rate_source(1.0, 0.01)]).is_err());
        let mut cfg2 = base_config();
        cfg2.warmup = cfg2.t_end;
        assert!(run(&cfg2, &[rate_source(1.0, 0.01)]).is_err());
        assert!(run(&base_config(), &[]).is_err());
    }

    #[test]
    fn initial_burst_respects_warmup_gate() {
        // Identical runs except for the warm-up cut; the cut falls before
        // the first packet even reaches the queue (arrival at prop_delay
        // = 50 ms), so the *only* counter it may change is `sent`: the
        // t = 0 burst must be excluded, exactly like every ack-clocked
        // send is. Regression for the burst bypassing the warmup gate.
        let mk_cfg = |warmup: f64| SimConfig {
            mu: 50.0,
            service: Service::Deterministic,
            buffer: None,
            t_end: 20.0,
            warmup,
            sample_interval: 0.1,
            seed: 11,
        };
        let src = SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, 0.1, 10.0),
            w0: 8.0,
        };
        let all = run(&mk_cfg(0.0), std::slice::from_ref(&src)).unwrap();
        let gated = run(&mk_cfg(0.01), std::slice::from_ref(&src)).unwrap();
        // Dynamics are seed-identical; delivered/dropped see no event in
        // [0, 0.01), so only the burst may differ.
        assert_eq!(all.flows[0].delivered, gated.flows[0].delivered);
        assert_eq!(all.flows[0].dropped, gated.flows[0].dropped);
        assert_eq!(
            all.flows[0].sent - gated.flows[0].sent,
            8,
            "warmup must exclude exactly the initial burst of ⌊w0⌋ packets"
        );
    }

    #[test]
    fn sent_accounting_consistent_post_warmup() {
        // With warmup = 0 every counter sees every packet, so the books
        // must balance: sent = delivered + dropped + (still in flight at
        // t_end), and the in-flight remainder is bounded by the peak
        // window. Holds for both plain and lossy runs.
        let cfg = SimConfig {
            mu: 100.0,
            service: Service::Exponential,
            buffer: Some(20),
            t_end: 60.0,
            warmup: 0.0,
            sample_interval: 0.1,
            seed: 5,
        };
        let src = SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, 0.05, 12.0),
            w0: 4.0,
        };
        for loss_prob in [0.0, 0.05] {
            let out = run_faulty(
                &cfg,
                std::slice::from_ref(&src),
                FaultConfig::Iid { loss_prob },
            )
            .unwrap();
            let f = &out.flows[0];
            let accounted = f.delivered + f.dropped;
            let peak_window = out.trace_ctl.col(0).fold(f64::MIN, f64::max).ceil() as u64;
            assert!(
                f.sent >= accounted,
                "sent {} < delivered {} + dropped {}",
                f.sent,
                f.delivered,
                f.dropped
            );
            assert!(
                f.sent - accounted <= peak_window + 1,
                "unaccounted in-flight {} exceeds peak window {}",
                f.sent - accounted,
                peak_window
            );
        }
    }

    #[test]
    fn sample_count_exact_at_horizon() {
        // 100 s at 0.1 s spacing: exactly 1001 samples (k = 0..=1000),
        // each at an exact multiple of the interval. Repeated `t += Δ`
        // scheduling drifted by ~1e-13/step and could miss the final
        // sample; multiples cannot.
        let cfg = SimConfig {
            mu: 20.0,
            service: Service::Exponential,
            buffer: None,
            t_end: 100.0,
            warmup: 10.0,
            sample_interval: 0.1,
            seed: 9,
        };
        let out = run(&cfg, &[rate_source(5.0, 0.01)]).unwrap();
        assert_eq!(out.trace_q.len(), 1001, "expected exactly 1001 samples");
        for (k, &t) in out.trace_q.t().iter().enumerate() {
            let expect = (k as f64 * 0.1).min(cfg.t_end);
            assert!(
                (t - expect).abs() < 1e-9,
                "sample {k} at {t}, expected {expect}"
            );
        }
    }

    #[test]
    fn trace_is_sampled_on_schedule() {
        let mut cfg = base_config();
        cfg.t_end = 10.0;
        cfg.warmup = 1.0;
        cfg.sample_interval = 0.5;
        let out = run(&cfg, &[rate_source(5.0, 0.01)]).unwrap();
        assert!(out.trace_q.len() >= 20 && out.trace_q.len() <= 22);
        for w in out.trace_q.t().windows(2) {
            assert!((w[1] - w[0] - 0.5).abs() < 1e-9);
        }
        assert_eq!(out.trace_ctl.t(), out.trace_q.t());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::harness::{run, run_faulty};
    use super::*;
    use crate::source::SourceSpec;
    use fpk_congestion::WindowAimd;

    fn cfg() -> SimConfig {
        SimConfig {
            mu: 100.0,
            service: Service::Exponential,
            buffer: None,
            t_end: 120.0,
            warmup: 30.0,
            sample_interval: 0.1,
            seed: 21,
        }
    }

    fn window_src() -> SourceSpec {
        SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, 0.05, 15.0),
            w0: 2.0,
        }
    }

    #[test]
    fn loss_injection_counts_drops() {
        let out = run_faulty(
            &cfg(),
            &[window_src()],
            FaultConfig::Iid { loss_prob: 0.05 },
        )
        .unwrap();
        assert!(out.flows[0].dropped > 0, "expected injected drops");
        // Roughly 5% of sent packets should be lost.
        let frac = out.flows[0].dropped as f64 / out.flows[0].sent.max(1) as f64;
        assert!((0.01..0.15).contains(&frac), "loss fraction {frac}");
    }

    #[test]
    fn loss_reduces_window_flow_throughput() {
        let clean = run(&cfg(), &[window_src()]).unwrap();
        let lossy = run_faulty(
            &cfg(),
            &[window_src()],
            FaultConfig::Iid { loss_prob: 0.08 },
        )
        .unwrap();
        assert!(
            lossy.flows[0].throughput < 0.8 * clean.flows[0].throughput,
            "loss should depress throughput: {} vs {}",
            lossy.flows[0].throughput,
            clean.flows[0].throughput
        );
    }

    #[test]
    fn zero_loss_matches_plain_run() {
        let a = run(&cfg(), &[window_src()]).unwrap();
        let b = run_faulty(&cfg(), &[window_src()], FaultConfig::Iid { loss_prob: 0.0 }).unwrap();
        assert_eq!(a.flows[0].delivered, b.flows[0].delivered);
    }

    #[test]
    fn rejects_invalid_loss_prob() {
        assert!(run_faulty(&cfg(), &[window_src()], FaultConfig::Iid { loss_prob: 1.0 }).is_err());
        assert!(run_faulty(
            &cfg(),
            &[window_src()],
            FaultConfig::Iid { loss_prob: -0.1 }
        )
        .is_err());
    }

    #[test]
    fn rejects_invalid_dynamic_fault_parameters() {
        let ge =
            |p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64| FaultConfig::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            };
        assert!(ge(0.5, 2.0, 0.0, 0.25).validate().is_ok());
        assert!(
            ge(0.0, 2.0, 0.0, 0.25).validate().is_err(),
            "p_gb must be positive"
        );
        assert!(
            ge(0.5, f64::NAN, 0.0, 0.25).validate().is_err(),
            "rates must be finite"
        );
        assert!(
            ge(0.5, 2.0, 1.0, 0.25).validate().is_err(),
            "loss_good in [0, 1)"
        );
        assert!(
            ge(0.5, 2.0, 0.0, -0.1).validate().is_err(),
            "loss_bad in [0, 1)"
        );

        let flap = |up_rate: f64, down_rate: f64| FaultConfig::LinkFlap { up_rate, down_rate };
        assert!(flap(1.0, 0.1).validate().is_ok());
        assert!(
            flap(0.0, 0.1).validate().is_err(),
            "up_rate must be positive"
        );
        assert!(
            flap(1.0, f64::INFINITY).validate().is_err(),
            "rates must be finite"
        );

        let degrade = |factor: f64, period: f64| FaultConfig::Degrade { factor, period };
        assert!(degrade(0.5, 5.0).validate().is_ok());
        assert!(
            degrade(0.0, 5.0).validate().is_err(),
            "factor must be in (0, 1]"
        );
        assert!(
            degrade(1.5, 5.0).validate().is_err(),
            "factor must be in (0, 1]"
        );
        assert!(
            degrade(0.5, 0.0).validate().is_err(),
            "period must be positive"
        );
    }
}

#[cfg(test)]
mod decbit_tests {
    use super::harness::{run, utilization};
    use super::*;
    use crate::source::SourceSpec;
    use fpk_congestion::decbit::DecbitPolicy;

    fn cfg() -> SimConfig {
        SimConfig {
            mu: 100.0,
            service: Service::Exponential,
            buffer: None,
            t_end: 200.0,
            warmup: 50.0,
            sample_interval: 0.1,
            seed: 33,
        }
    }

    fn decbit_src(q_hat: f64) -> SourceSpec {
        SourceSpec::Decbit {
            policy: DecbitPolicy::raja88(),
            rtt: 0.05,
            w0: 2.0,
            q_hat,
        }
    }

    #[test]
    fn decbit_source_sustains_throughput() {
        let out = run(&cfg(), &[decbit_src(3.0)]).unwrap();
        assert!(
            utilization(&out) > 0.5,
            "DECbit source should use the pipe, got {}",
            utilization(&out)
        );
        assert!(out.flows[0].delivered > 1000);
    }

    #[test]
    fn decbit_window_stays_bounded() {
        let out = run(&cfg(), &[decbit_src(3.0)]).unwrap();
        let max_w = out.trace_ctl.col(0).fold(f64::MIN, f64::max);
        assert!(max_w < 60.0, "window should not blow up: {max_w}");
        assert!(max_w >= 1.0);
    }

    #[test]
    fn decbit_keeps_mean_queue_near_threshold_scale() {
        // RaJa tuned DECbit to operate near the knee (averaged queue ≈ 1–2).
        let out = run(&cfg(), &[decbit_src(1.0)]).unwrap();
        assert!(
            out.mean_queue[0] < 15.0,
            "averaged marking should keep the queue modest: {}",
            out.mean_queue[0]
        );
    }

    #[test]
    fn two_decbit_sources_share_fairly() {
        let out = run(&cfg(), &[decbit_src(3.0), decbit_src(3.0)]).unwrap();
        let a = out.flows[0].throughput;
        let b = out.flows[1].throughput;
        let ratio = a.min(b) / a.max(b);
        assert!(ratio > 0.6, "DECbit flows should share: {a} vs {b}");
    }

    #[test]
    fn averaged_marking_smooths_vs_instantaneous() {
        // Same window dynamics driven by instantaneous marks (Window
        // source with the DECbit-ish parameters) vs averaged marks:
        // averaged marking reacts to sustained congestion only, so the
        // *control* signal flaps less. Compare window trace variability.
        let inst = SourceSpec::Window {
            aimd: fpk_congestion::WindowAimd::new(1.0, 0.875, 0.05, 3.0),
            w0: 2.0,
        };
        let out_inst = run(&cfg(), &[inst]).unwrap();
        let out_avg = run(&cfg(), &[decbit_src(3.0)]).unwrap();
        let var = |xs: &[f64]| fpk_numerics::stats::variance(&xs[xs.len() / 2..]);
        // Not asserting a strict ordering (different decision cadences),
        // but both must be finite and the DECbit one non-degenerate.
        assert!(var(out_inst.trace_ctl.data()).is_finite());
        assert!(var(out_avg.trace_ctl.data()) > 0.0);
    }
}

#[cfg(test)]
mod onoff_tests {
    use super::harness::run;
    use super::*;
    use crate::source::SourceSpec;

    fn cfg(t_end: f64) -> SimConfig {
        SimConfig {
            mu: 10.0,
            service: Service::Exponential,
            buffer: None,
            t_end,
            warmup: t_end * 0.2,
            sample_interval: 0.1,
            seed: 44,
        }
    }

    /// On-off source with mean rate `lambda` and given duty cycle.
    fn onoff(lambda: f64, duty: f64, mean_on: f64) -> SourceSpec {
        let mean_off = mean_on * (1.0 - duty) / duty;
        SourceSpec::OnOff {
            peak_rate: lambda / duty,
            mean_on,
            mean_off,
            prop_delay: 0.01,
        }
    }

    #[test]
    fn mean_rate_matches_specification() {
        // λ = 5 at 50% duty: delivered throughput ≈ 5 (stable queue).
        let out = run(&cfg(2000.0), &[onoff(5.0, 0.5, 1.0)]).unwrap();
        assert!(
            (out.total_throughput - 5.0).abs() < 0.3,
            "throughput {} should be ≈ 5",
            out.total_throughput
        );
    }

    #[test]
    fn burstier_traffic_builds_longer_queues() {
        // Same mean rate, same duty cycle, longer sojourns (burstier at
        // every timescale) → larger mean queue. Poisson is the baseline.
        let poisson = SourceSpec::Rate {
            law: fpk_congestion::LinearExp::new(0.0, 0.5, 1e12),
            lambda0: 8.0,
            update_interval: 1.0,
            prop_delay: 0.01,
            poisson: true,
        };
        let out_p = run(&cfg(3000.0), &[poisson]).unwrap();
        let out_short = run(&cfg(3000.0), &[onoff(8.0, 0.5, 0.2)]).unwrap();
        let out_long = run(&cfg(3000.0), &[onoff(8.0, 0.5, 2.0)]).unwrap();
        assert!(
            out_short.mean_queue[0] > out_p.mean_queue[0],
            "on-off ({}) should beat Poisson ({})",
            out_short.mean_queue[0],
            out_p.mean_queue[0]
        );
        assert!(
            out_long.mean_queue[0] > 1.5 * out_short.mean_queue[0],
            "longer sojourns should be burstier: {} vs {}",
            out_long.mean_queue[0],
            out_short.mean_queue[0]
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let a = run(&cfg(200.0), &[onoff(5.0, 0.3, 0.5)]).unwrap();
        let b = run(&cfg(200.0), &[onoff(5.0, 0.3, 0.5)]).unwrap();
        assert_eq!(a.flows[0].delivered, b.flows[0].delivered);
    }

    #[test]
    fn trace_records_phase() {
        let out = run(&cfg(200.0), &[onoff(5.0, 0.5, 1.0)]).unwrap();
        let phases = out.trace_ctl.data();
        assert!(phases.contains(&1.0), "should see ON samples");
        assert!(phases.contains(&0.0), "should see OFF samples");
    }
}
