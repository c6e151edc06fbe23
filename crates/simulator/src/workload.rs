//! Finite-flow workloads: open-loop arrival processes, flow-size
//! distributions, and Zipf-weighted route popularity.
//!
//! Every `FlowSpec` lives for the whole horizon; a [`Workload`] instead
//! describes a *population* of users whose transfers arrive (Poisson or
//! heavy-tailed Pareto interarrivals), move a finite number of packets
//! (deterministic / exponential / bounded-Pareto sizes), and depart —
//! the DEC-TR-592 destination-locality picture, with route popularity
//! following a Zipf law over the declared route set.
//!
//! The engine ([`crate::run_network_workload`]) admits each flow on a
//! `FlowArrival` event, injects its packets as a paced burst at the
//! route's first hop, and retires the per-flow slot on `FlowComplete`
//! once every packet is accounted (delivered or dropped). Completion
//! times are summarised as FCT (flow completion time, arrival to last
//! delivery) and slowdown (FCT over the idle-network [`ideal_fct`]).
//!
//! Sampler draw order is part of the determinism contract (DESIGN §3f):
//! one flow arrival draws size, then route, then the next interarrival
//! gap — each exactly one `f64` draw except deterministic sizes, which
//! draw nothing.

use crate::network::{Route, Topology};
use crate::units::Bytes;
use fpk_numerics::{NumericsError, Result};
use rand::Rng;
use serde::Serialize;

/// Interarrival-time process of a [`Workload`] (flow arrivals, open
/// loop: arrivals never react to congestion).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential interarrival gaps with the given
    /// mean rate (flows per second).
    Poisson {
        /// Mean arrival rate λ (flows/s); must be positive.
        rate: f64,
    },
    /// Heavy-tailed arrivals: Pareto interarrival gaps with tail
    /// exponent `alpha` (> 1 so the mean exists), scaled so the mean
    /// rate is `rate`. Smaller `alpha` means burstier arrivals.
    Pareto {
        /// Mean arrival rate λ (flows/s); must be positive.
        rate: f64,
        /// Tail exponent α > 1; the gap variance is infinite for α ≤ 2.
        alpha: f64,
    },
}

impl ArrivalProcess {
    /// The mean arrival rate (flows per second).
    #[must_use]
    pub fn rate(&self) -> f64 {
        match self {
            Self::Poisson { rate } | Self::Pareto { rate, .. } => *rate,
        }
    }

    /// Replace the mean rate, keeping the process kind (and `alpha`).
    pub fn set_rate(&mut self, new_rate: f64) {
        match self {
            Self::Poisson { rate } | Self::Pareto { rate, .. } => *rate = new_rate,
        }
    }

    /// Draw one interarrival gap (seconds). Exactly one `f64` draw.
    pub fn sample_interarrival<R: Rng>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: arrival.gap_u — shared interarrival uniform (Poisson and Pareto)
        match self {
            Self::Poisson { rate } => -u.ln() / rate,
            Self::Pareto { rate, alpha } => {
                // Pareto(x_m, α) via inverse CDF x_m · U^(−1/α), with
                // x_m = (α−1)/(α·rate) so the mean gap is 1/rate.
                let x_m = (alpha - 1.0) / (alpha * rate);
                x_m * u.powf(-1.0 / alpha)
            }
        }
    }

    fn validate(&self) -> Result<()> {
        let ok = match self {
            Self::Poisson { rate } => rate.is_finite() && *rate > 0.0,
            Self::Pareto { rate, alpha } => {
                rate.is_finite() && *rate > 0.0 && alpha.is_finite() && *alpha > 1.0
            }
        };
        if ok {
            Ok(())
        } else {
            Err(NumericsError::InvalidParameter {
                context: "Workload: arrival rate must be positive (Pareto alpha > 1)",
            })
        }
    }
}

/// Flow-size distribution of a [`Workload`], in whole packets (samples
/// are rounded and clamped to ≥ 1 packet).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FlowSizeDist {
    /// Every flow moves exactly `packets` packets.
    Deterministic {
        /// Flow size in packets (≥ 1).
        packets: u64,
    },
    /// Exponentially distributed sizes with the given mean (packets).
    Exponential {
        /// Mean size in packets; must be positive.
        mean: f64,
    },
    /// Bounded Pareto on `[min, max]` with tail exponent `alpha` — the
    /// classic mice-and-elephants shape: most flows near `min`, rare
    /// flows up to `max`.
    BoundedPareto {
        /// Smallest size (packets); must be ≥ 1.
        min: f64,
        /// Largest size (packets); must exceed `min`.
        max: f64,
        /// Tail exponent α > 0, α ≠ 1.
        alpha: f64,
    },
}

impl FlowSizeDist {
    /// Analytic mean of the *continuous* distribution (the discretised
    /// sampler's mean differs by the rounding, < half a packet).
    #[must_use]
    pub fn mean(&self) -> f64 {
        match self {
            Self::Deterministic { packets } => *packets as f64,
            Self::Exponential { mean } => *mean,
            Self::BoundedPareto { min, max, alpha } => {
                let ratio = (min / max).powf(*alpha);
                (alpha / (alpha - 1.0))
                    * (min.powf(*alpha) / (1.0 - ratio))
                    * (min.powf(1.0 - alpha) - max.powf(1.0 - alpha))
            }
        }
    }

    /// Draw one flow size in packets (≥ 1). Exactly one `f64` draw for
    /// the stochastic variants, none for `Deterministic`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        match self {
            Self::Deterministic { packets } => (*packets).max(1),
            Self::Exponential { mean } => {
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // draw: size.exp_u — exponential flow-size uniform
                (-u.ln() * mean).round().max(1.0) as u64
            }
            Self::BoundedPareto { min, max, alpha } => {
                let u: f64 = rng.gen::<f64>().min(1.0 - f64::EPSILON); // draw: size.pareto_u — bounded-Pareto flow-size uniform
                                                                       // Inverse CDF of the bounded Pareto.
                let ratio = (min / max).powf(*alpha);
                let x = min / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
                x.round().clamp(1.0, max.round()) as u64
            }
        }
    }

    /// A bounded Pareto with the given `min` and `alpha` whose
    /// continuous mean equals `target_mean`, found by bisection on
    /// `max` (the mean is monotone increasing in `max`).
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] when `target_mean ≤ min`,
    /// parameters are non-finite, or no `max ≤ 1e12` reaches the
    /// target (α ≤ 1 has unbounded mean growth, α far above 1 saturates
    /// near `min·α/(α−1)`).
    pub fn bounded_pareto_with_mean(min: f64, alpha: f64, target_mean: f64) -> Result<Self> {
        let invalid = NumericsError::InvalidParameter {
            context: "bounded_pareto_with_mean: need finite min >= 1, alpha > 0 (!= 1), \
                      and a reachable target_mean > min",
        };
        if !(min.is_finite()
            && min >= 1.0
            && alpha.is_finite()
            && alpha > 0.0
            && (alpha - 1.0).abs() > 1e-9
            && target_mean.is_finite()
            && target_mean > min)
        {
            return Err(invalid);
        }
        let mean_at = |max: f64| Self::BoundedPareto { min, max, alpha }.mean();
        let (mut lo, mut hi) = (min * (1.0 + 1e-9), 1e12);
        if mean_at(hi) < target_mean {
            return Err(invalid);
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if mean_at(mid) < target_mean {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(Self::BoundedPareto {
            min,
            max: hi,
            alpha,
        })
    }

    fn validate(&self) -> Result<()> {
        let ok = match self {
            Self::Deterministic { packets } => *packets >= 1,
            Self::Exponential { mean } => mean.is_finite() && *mean > 0.0,
            Self::BoundedPareto { min, max, alpha } => {
                min.is_finite()
                    && max.is_finite()
                    && alpha.is_finite()
                    && *min >= 1.0
                    && max > min
                    && *alpha > 0.0
                    && (alpha - 1.0).abs() > 1e-9
            }
        };
        if ok {
            Ok(())
        } else {
            Err(NumericsError::InvalidParameter {
                context: "Workload: flow sizes must be >= 1 packet with finite parameters",
            })
        }
    }
}

/// Zipf popularity weights over `n` ranks with exponent `s`, normalised
/// to sum to 1: `w_i ∝ 1/(i+1)^s`. `s = 0` is uniform; larger `s`
/// concentrates traffic on the first routes (DEC-TR-592's destination
/// locality).
#[must_use]
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    let raw: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-s)).collect();
    let total: f64 = raw.iter().sum();
    raw.iter().map(|w| w / total).collect()
}

/// Index into cumulative weights `cum` (ascending, last ≈ 1.0) selected
/// by a uniform draw `u ∈ [0, 1)`: the first entry with `cum[i] > u`.
#[must_use]
pub fn sample_cumulative(cum: &[f64], u: f64) -> usize {
    cum.partition_point(|&c| c <= u).min(cum.len() - 1)
}

/// Per-packet retransmission policy for workload flows: a lost packet
/// is re-sent from the flow's source after a timeout that backs off
/// exponentially, up to a bounded number of retries.
///
/// The k-th retransmission of a packet (attempt index `k ∈ 1..=
/// max_retries`) re-enters the network `rto_base · backoff^(k-1)` after
/// the drop is observed, plus the flow's propagation delay. A packet
/// dropped on its final permitted attempt is *given up*: it counts
/// toward the flow's accounted packets (so the flow still completes,
/// "with drops") and increments `packets_gave_up`. Retransmissions
/// consume **zero** RNG draws — the retry schedule is a deterministic
/// function of the drop time — so enabling RTO never perturbs the
/// draw-order contract of DESIGN §3f (see DESIGN §3i).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RtoPolicy {
    /// Timeout before the first retransmission (seconds, > 0).
    pub rto_base: f64,
    /// Multiplicative backoff per successive retry (≥ 1).
    pub backoff: f64,
    /// Maximum retransmissions per packet (≥ 1; attempt indices run
    /// `0..=max_retries`, so a packet is sent at most
    /// `max_retries + 1` times).
    pub max_retries: u32,
}

impl RtoPolicy {
    /// Timeout preceding retransmission attempt `attempt` (1-based):
    /// `rto_base · backoff^(attempt-1)`.
    #[must_use]
    pub fn wait_before(&self, attempt: u32) -> f64 {
        self.rto_base * self.backoff.powi(attempt.saturating_sub(1) as i32)
    }

    /// Validate the policy parameters.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] for a non-positive or
    /// non-finite `rto_base`, a `backoff < 1` or non-finite backoff, or
    /// `max_retries` outside `1..=255` (attempt indices ride the packet
    /// as a `u8`).
    pub fn validate(&self) -> Result<()> {
        if !(self.rto_base.is_finite() && self.rto_base > 0.0) {
            return Err(NumericsError::InvalidParameter {
                context: "RtoPolicy: rto_base must be positive and finite",
            });
        }
        if !(self.backoff.is_finite() && self.backoff >= 1.0) {
            return Err(NumericsError::InvalidParameter {
                context: "RtoPolicy: backoff must be finite and >= 1",
            });
        }
        if self.max_retries == 0 || self.max_retries > 255 {
            return Err(NumericsError::InvalidParameter {
                context: "RtoPolicy: max_retries must lie in 1..=255",
            });
        }
        Ok(())
    }
}

/// An open-loop population of finite flows over a [`Topology`]: when a
/// flow arrives it draws a size and a route, dumps its packets into the
/// network as a paced burst, and departs once every packet is accounted.
///
/// Finite flows are open-loop senders that do not adapt to marks. By
/// default they do not retransmit drops either (a flow with any dropped
/// packet completes "with drops" and records no FCT), so the workload
/// is a pure background-load generator the adaptive `FlowSpec` sources
/// react to. An optional [`RtoPolicy`] makes each flow re-send lost
/// packets after an exponentially backed-off timeout, bounding loss to
/// packets that exhaust their retry budget ("gave up").
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Workload {
    /// Flow interarrival process.
    pub arrivals: ArrivalProcess,
    /// Flow-size distribution (packets per flow).
    pub sizes: FlowSizeDist,
    /// Candidate routes, most popular first. Route `i` is chosen with
    /// Zipf weight `∝ 1/(i+1)^zipf_s`.
    pub routes: Vec<Route>,
    /// Zipf exponent over `routes` (0 = uniform popularity).
    pub zipf_s: f64,
    /// Per-hop one-way propagation delay of every workload flow.
    pub prop_delay: f64,
    /// Stop admitting after this many flows (`None` = unlimited;
    /// `Some(0)` turns the workload off without perturbing the RNG
    /// stream — the zero-cap equality pin in
    /// `tests/engine_equivalence.rs` relies on this).
    pub max_flows: Option<u64>,
    /// Recycle per-flow slots through the arena free list (default).
    /// `false` keeps one slot per arrived flow — the no-recycling
    /// reference the arena stress test compares against.
    pub recycle_slots: bool,
    /// Optional per-packet retransmission policy (`None` = packets are
    /// sent once and drops are final, the historical behaviour).
    pub rto: Option<RtoPolicy>,
}

impl Workload {
    /// A workload with uniform route popularity, zero propagation
    /// delay, no admission cap, and slot recycling on.
    #[must_use]
    pub fn new(arrivals: ArrivalProcess, sizes: FlowSizeDist, routes: Vec<Route>) -> Self {
        Self {
            arrivals,
            sizes,
            routes,
            zipf_s: 0.0,
            prop_delay: 0.0,
            max_flows: None,
            recycle_slots: true,
            rto: None,
        }
    }

    /// Set the Zipf route-popularity exponent.
    #[must_use]
    pub fn with_zipf(mut self, s: f64) -> Self {
        self.zipf_s = s;
        self
    }

    /// Set the per-hop propagation delay.
    #[must_use]
    pub fn with_prop_delay(mut self, d: f64) -> Self {
        self.prop_delay = d;
        self
    }

    /// Cap the number of admitted flows.
    #[must_use]
    pub fn with_max_flows(mut self, n: u64) -> Self {
        self.max_flows = Some(n);
        self
    }

    /// Disable slot recycling (every arrived flow keeps its slot).
    #[must_use]
    pub fn without_recycling(mut self) -> Self {
        self.recycle_slots = false;
        self
    }

    /// Enable per-packet RTO retransmission (see [`RtoPolicy`]).
    #[must_use]
    pub fn with_rto(mut self, rto: RtoPolicy) -> Self {
        self.rto = Some(rto);
        self
    }

    /// Normalised Zipf popularity of each route, in declaration order.
    #[must_use]
    pub fn route_weights(&self) -> Vec<f64> {
        zipf_weights(self.routes.len(), self.zipf_s)
    }

    /// Validate against the topology the workload will run on.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] for an empty route set,
    /// out-of-range routes, bad distribution parameters, or a
    /// non-finite `zipf_s` / negative `prop_delay`.
    pub fn validate(&self, topology: &Topology) -> Result<()> {
        self.arrivals.validate()?;
        self.sizes.validate()?;
        if self.routes.is_empty() {
            return Err(NumericsError::InvalidParameter {
                context: "Workload: need at least one route",
            });
        }
        let k = topology.len();
        if self.routes.iter().any(|r| r.first > r.last || r.last >= k) {
            return Err(NumericsError::InvalidParameter {
                context: "Workload: route out of topology range",
            });
        }
        if !(self.zipf_s.is_finite() && self.prop_delay.is_finite() && self.prop_delay >= 0.0) {
            return Err(NumericsError::InvalidParameter {
                context: "Workload: zipf_s must be finite and prop_delay >= 0",
            });
        }
        if let Some(rto) = &self.rto {
            rto.validate()?;
        }
        Ok(())
    }
}

/// Idle-network completion time of a `size`-packet flow on `route`: the
/// per-hop propagation plus the pipeline formula for a packet batch
/// through tandem deterministic servers,
/// `hops·d + Σ_h 1/μ_h + (size−1)/μ_min`.
///
/// For a single hop this is exactly `d + size/μ` — what the engine
/// produces on an idle deterministic-service bottleneck (pinned by
/// `tests/ideal_fct.rs`). Slowdown is defined as FCT over this value
/// even when link service is exponential, in which case it normalises
/// by the mean-service pipeline bound and can dip below 1.
#[must_use]
pub fn ideal_fct(topology: &Topology, route: Route, size: u64, prop_delay: f64) -> f64 {
    ideal_fct_sized(topology, route, size, prop_delay, 1.0)
}

/// [`ideal_fct`] generalised to byte-granular packets: every per-packet
/// service is scaled by `size_factor` (a packet's byte size over the
/// run's reference bytes, see [`PacketBytes`]), so the pipeline formula
/// becomes `hops·d + Σ_h f/μ_h + (size−1)·f/μ_min`.
///
/// For `size_factor = 1.0` this is bit-identical to [`ideal_fct`] (the
/// unit factor multiplies exactly). Byte-mode runs use the workload's
/// *mean* factor (`dist.mean() / ref_bytes`) as the slowdown
/// denominator — with a stochastic byte distribution the realised
/// per-packet factors differ, so slowdown can dip below 1 exactly as
/// it already can under exponential link service.
#[must_use]
pub fn ideal_fct_sized(
    topology: &Topology,
    route: Route,
    size: u64,
    prop_delay: f64,
    size_factor: f64,
) -> f64 {
    let mut sum_service = 0.0;
    let mut mu_min = f64::INFINITY;
    for link in &topology.links[route.first..=route.last] {
        sum_service += size_factor / link.mu;
        mu_min = mu_min.min(link.mu);
    }
    route.hops() as f64 * prop_delay
        + sum_service
        + size_factor * (size.saturating_sub(1)) as f64 / mu_min
}

/// Byte-granular packet sizing for a run (see
/// [`NetConfig::packet_bytes`](crate::NetConfig::packet_bytes)).
///
/// Every packet entering the network draws its byte size from `dist`
/// (one `f64` draw at the packet's creation site, none for
/// [`FlowSizeDist::Deterministic`]) and is served in
/// `(bytes / ref_bytes) · base_service` — `ref_bytes` is the packet
/// size at which a link's `μ` packets/s calibration holds, so a
/// `Deterministic { packets: N }` dist with `ref_bytes = N` is
/// bit-identical to unit-packet mode (factor exactly 1.0, zero extra
/// draws; pinned by `tests/engine_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PacketBytes {
    /// Per-packet byte-size distribution (the `packets` fields of
    /// [`FlowSizeDist`] are read as **bytes** here).
    pub dist: FlowSizeDist,
    /// Reference packet size in bytes (must be positive and finite);
    /// a packet of exactly `ref_bytes` takes one nominal service time.
    pub ref_bytes: Bytes,
}

impl PacketBytes {
    /// Mean service-time scale factor, `E[bytes] / ref_bytes` — the
    /// factor the slowdown denominator uses.
    #[must_use]
    pub fn mean_factor(&self) -> f64 {
        self.dist.mean() / self.ref_bytes.get()
    }

    /// Validate the distribution and the reference size.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] for a bad distribution or a
    /// non-positive / non-finite `ref_bytes`.
    pub fn validate(&self) -> Result<()> {
        self.dist.validate()?;
        if !(self.ref_bytes.get().is_finite() && self.ref_bytes.get() > 0.0) {
            return Err(NumericsError::InvalidParameter {
                context: "PacketBytes: ref_bytes must be positive and finite",
            });
        }
        Ok(())
    }
}

/// Count / mean / percentile summary of one per-flow metric (FCT or
/// slowdown). All-zero when `count == 0` — always check `count` before
/// reading the moments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct DistSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl DistSummary {
    /// Summarise an ascending-sorted sample slice.
    #[must_use]
    pub fn from_sorted(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Self::default();
        }
        let n = xs.len();
        let pct = |q: f64| {
            // Nearest-rank: the ⌈q·n⌉-th order statistic.
            let rank = (q * n as f64).ceil().max(1.0) as usize;
            xs[rank.min(n) - 1]
        };
        Self {
            count: n as u64,
            mean: xs.iter().sum::<f64>() / n as f64,
            p50: pct(0.50),
            p99: pct(0.99),
            min: xs[0],
            max: xs[n - 1],
        }
    }
}

/// Per-run workload outcome, attached to `NetResult` / `RunSummary`
/// when the run carried a [`Workload`].
///
/// Conservation contract (pinned by `tests/ideal_fct.rs`):
/// `arrived == completed + active_at_end` and
/// `packets_delivered + packets_dropped + packets_gave_up ≤
/// packets_sent` (the remainder is still in flight — or awaiting a
/// retransmission timer — at the horizon). With an [`RtoPolicy`],
/// `packets_sent` counts only *first* transmissions; re-sends are
/// tallied separately in `retransmits`, so goodput/throughput ratios
/// stay per-unique-packet. Flow counters are *not* gated on warm-up —
/// conservation must be exact — but FCT/slowdown samples are recorded
/// only for flows arriving after `warmup`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct WorkloadStats {
    /// Flows admitted within the horizon.
    pub arrived: u64,
    /// Flows whose every packet was accounted (delivered or dropped).
    pub completed: u64,
    /// Completed flows with zero drops — the ones whose FCT counts.
    pub completed_clean: u64,
    /// Flows still holding unaccounted packets at `t_end`.
    pub active_at_end: u64,
    /// Packets injected by workload flows.
    pub packets_sent: u64,
    /// Workload packets that completed service at their last hop.
    pub packets_delivered: u64,
    /// Workload packets lost to faults or full buffers with no retry
    /// pending (without an [`RtoPolicy`] every drop is final and lands
    /// here; with one, only drops are counted whose packet later gives
    /// up — see `packets_gave_up` — or whose drop *is* the give-up).
    pub packets_dropped: u64,
    /// Retransmission attempts injected under an [`RtoPolicy`] (0
    /// without one). Not included in `packets_sent`.
    pub retransmits: u64,
    /// Packets abandoned after exhausting their RTO retry budget (0
    /// without an [`RtoPolicy`]).
    pub packets_gave_up: u64,
    /// Completed flows that abandoned at least one packet (subset of
    /// `completed − completed_clean`).
    pub flows_gave_up: u64,
    /// Unique-packet delivery rate `packets_delivered / t_end`
    /// (packets/s) — the graceful-degradation "goodput" the fault
    /// figures compare against raw throughput.
    pub goodput: f64,
    /// Retransmission overhead `retransmits / max(packets_sent, 1)` —
    /// extra network work per unique packet.
    pub retx_overhead: f64,
    /// High-water mark of concurrently active flows.
    pub peak_active: u64,
    /// Per-flow slots allocated: equals `peak_active` with recycling,
    /// `arrived` without (the free-list memory pin).
    pub slot_high_water: u64,
    /// Flow-completion-time summary (seconds), clean completions
    /// arriving after warm-up only.
    pub fct: DistSummary,
    /// Slowdown summary (FCT / [`ideal_fct`]), same population.
    pub slowdown: DistSummary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_of(mut f: impl FnMut(&mut StdRng) -> f64, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| f(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn poisson_interarrival_mean_matches_rate() {
        let p = ArrivalProcess::Poisson { rate: 8.0 };
        let m = mean_of(|rng| p.sample_interarrival(rng), 40_000, 11);
        assert!((m - 0.125).abs() < 0.01 * 0.125 * 5.0, "mean gap {m}");
    }

    #[test]
    fn pareto_interarrival_mean_matches_rate() {
        let p = ArrivalProcess::Pareto {
            rate: 4.0,
            alpha: 2.5,
        };
        let m = mean_of(|rng| p.sample_interarrival(rng), 200_000, 12);
        assert!((m - 0.25).abs() < 0.02, "mean gap {m}");
    }

    #[test]
    fn pareto_is_burstier_than_poisson_at_equal_rate() {
        // Squared coefficient of variation: exponential gaps have
        // CV² = 1; Pareto with α = 2.2 has CV² = 1/(α(α−2)) ≈ 2.27.
        let cv2 = |p: ArrivalProcess, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let xs: Vec<f64> = (0..200_000)
                .map(|_| p.sample_interarrival(&mut rng))
                .collect();
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
            v / (m * m)
        };
        let poisson = cv2(ArrivalProcess::Poisson { rate: 5.0 }, 3);
        let pareto = cv2(
            ArrivalProcess::Pareto {
                rate: 5.0,
                alpha: 2.2,
            },
            3,
        );
        assert!(
            (poisson - 1.0).abs() < 0.1,
            "exponential CV² ≈ 1: {poisson}"
        );
        assert!(
            pareto > 1.5 * poisson,
            "heavy tail must be burstier: {pareto}"
        );
    }

    #[test]
    fn size_dists_hit_their_means() {
        let det = FlowSizeDist::Deterministic { packets: 7 };
        assert_eq!(det.mean(), 7.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(det.sample(&mut rng), 7);

        let expo = FlowSizeDist::Exponential { mean: 20.0 };
        let m = mean_of(|rng| expo.sample(rng) as f64, 40_000, 21);
        assert!((m - 20.0).abs() < 1.0, "exponential sizes mean {m}");

        let bp = FlowSizeDist::BoundedPareto {
            min: 1.0,
            max: 1000.0,
            alpha: 1.3,
        };
        let analytic = bp.mean();
        let m = mean_of(|rng| bp.sample(rng) as f64, 400_000, 22);
        // Rounding to whole packets shifts the mean by < 0.5.
        assert!(
            (m - analytic).abs() < 0.05 * analytic + 0.5,
            "bounded-Pareto mean {m} vs analytic {analytic}"
        );
    }

    #[test]
    fn bounded_pareto_with_mean_bisects_to_target() {
        // α < 1: the mean grows without bound in `max`, so any target
        // is reachable — the mice-and-elephants configuration.
        let d = FlowSizeDist::bounded_pareto_with_mean(1.0, 0.6, 12.0).unwrap();
        assert!((d.mean() - 12.0).abs() < 1e-6);
        let FlowSizeDist::BoundedPareto { min, max, .. } = d else {
            panic!("wrong variant");
        };
        assert_eq!(min, 1.0);
        assert!(max > 12.0, "the tail bound must exceed the mean: {max}");
        // α > 1 saturates at α·min/(α−1) as max → ∞ (3 here), so a
        // modest target still works …
        let d = FlowSizeDist::bounded_pareto_with_mean(1.0, 1.5, 2.5).unwrap();
        assert!((d.mean() - 2.5).abs() < 1e-6);
        // … but unreachable targets are rejected, not silently clamped.
        assert!(FlowSizeDist::bounded_pareto_with_mean(1.0, 1.5, 12.0).is_err());
        assert!(FlowSizeDist::bounded_pareto_with_mean(1.0, 5.0, 100.0).is_err());
        assert!(FlowSizeDist::bounded_pareto_with_mean(1.0, 1.5, 0.5).is_err());
    }

    #[test]
    fn zipf_weights_normalise_and_rank() {
        for (n, s) in [(1usize, 1.0), (5, 0.0), (8, 0.9), (16, 2.0)] {
            let w = zipf_weights(n, s);
            assert_eq!(w.len(), n);
            let total: f64 = w.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "n={n} s={s} sum={total}");
            for i in 1..n {
                assert!(w[i] <= w[i - 1] + 1e-15, "weights must be non-increasing");
            }
        }
        let uniform = zipf_weights(4, 0.0);
        assert!(uniform.iter().all(|&w| (w - 0.25).abs() < 1e-12));
    }

    #[test]
    fn cumulative_sampling_matches_weights() {
        let w = zipf_weights(3, 1.0);
        let mut cum = Vec::new();
        let mut acc = 0.0;
        for x in &w {
            acc += x;
            cum.push(acc);
        }
        assert_eq!(sample_cumulative(&cum, 0.0), 0);
        assert_eq!(sample_cumulative(&cum, w[0] + 1e-12), 1);
        assert_eq!(sample_cumulative(&cum, 0.999_999), 2);
        // A draw at (or past) the rounded top clamps to the last route.
        assert_eq!(sample_cumulative(&cum, 1.0), 2);
    }

    #[test]
    fn ideal_fct_pipeline_formula() {
        use crate::engine::Service;
        use crate::network::Link;
        let topo = Topology {
            links: vec![
                Link {
                    mu: 10.0,
                    service: Service::Deterministic,
                    buffer: None,
                },
                Link {
                    mu: 5.0,
                    service: Service::Deterministic,
                    buffer: None,
                },
            ],
        };
        // Single hop: d + S/μ exactly.
        let one = ideal_fct(&topo, Route::single(0), 4, 0.01);
        assert!((one - (0.01 + 0.4)).abs() < 1e-12);
        // Tandem: 2d + (1/10 + 1/5) + (S−1)/5.
        let two = ideal_fct(&topo, Route::full(2), 4, 0.01);
        assert!((two - (0.02 + 0.3 + 0.6)).abs() < 1e-12);
        // A 1-packet flow has no batch term.
        let single = ideal_fct(&topo, Route::single(1), 1, 0.0);
        assert!((single - 0.2).abs() < 1e-12);
    }

    #[test]
    fn dist_summary_percentiles_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = DistSummary::from_sorted(&xs);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(DistSummary::from_sorted(&[]), DistSummary::default());
        let one = DistSummary::from_sorted(&[3.5]);
        assert_eq!((one.p50, one.p99), (3.5, 3.5));
    }

    #[test]
    fn validate_rejects_bad_workloads() {
        use crate::engine::Service;
        let topo = Topology::single(10.0, Service::Deterministic, None);
        let ok = Workload::new(
            ArrivalProcess::Poisson { rate: 1.0 },
            FlowSizeDist::Deterministic { packets: 1 },
            vec![Route::single(0)],
        );
        assert!(ok.validate(&topo).is_ok());
        let mut w = ok.clone();
        w.routes = vec![Route::single(1)];
        assert!(w.validate(&topo).is_err(), "route out of range");
        let mut w = ok.clone();
        w.routes.clear();
        assert!(w.validate(&topo).is_err(), "empty route set");
        let mut w = ok.clone();
        w.arrivals = ArrivalProcess::Poisson { rate: 0.0 };
        assert!(w.validate(&topo).is_err(), "zero rate");
        let mut w = ok.clone();
        w.arrivals = ArrivalProcess::Pareto {
            rate: 1.0,
            alpha: 1.0,
        };
        assert!(w.validate(&topo).is_err(), "Pareto alpha must exceed 1");
        let mut w = ok.clone();
        w.sizes = FlowSizeDist::Exponential { mean: -2.0 };
        assert!(w.validate(&topo).is_err(), "negative mean size");
        let mut w = ok;
        w.prop_delay = -0.1;
        assert!(w.validate(&topo).is_err(), "negative delay");
    }

    #[test]
    fn validate_rejects_bad_rto_policies() {
        use crate::engine::Service;
        let topo = Topology::single(10.0, Service::Deterministic, None);
        let pol = |rto_base: f64, backoff: f64, max_retries: u32| RtoPolicy {
            rto_base,
            backoff,
            max_retries,
        };
        let with = |p: RtoPolicy| {
            Workload::new(
                ArrivalProcess::Poisson { rate: 1.0 },
                FlowSizeDist::Deterministic { packets: 1 },
                vec![Route::single(0)],
            )
            .with_rto(p)
        };
        assert!(with(pol(0.05, 2.0, 6)).validate(&topo).is_ok());
        assert!(
            pol(0.05, 1.0, 1).validate().is_ok(),
            "constant RTO is legal"
        );
        assert!(
            with(pol(0.0, 2.0, 6)).validate(&topo).is_err(),
            "zero rto_base"
        );
        assert!(
            pol(f64::NAN, 2.0, 6).validate().is_err(),
            "non-finite rto_base"
        );
        assert!(pol(0.05, 0.5, 6).validate().is_err(), "backoff below 1");
        assert!(
            pol(0.05, f64::INFINITY, 6).validate().is_err(),
            "non-finite backoff"
        );
        assert!(pol(0.05, 2.0, 0).validate().is_err(), "zero retries");
        assert!(
            pol(0.05, 2.0, 256).validate().is_err(),
            "budget above u8 attempts"
        );
    }
}
