//! The topology-general discrete-event engine: an ordered chain of FIFO
//! links crossed by flows on contiguous routes.
//!
//! This is the one event loop behind every public entry point of the
//! crate. The classic single bottleneck is the 1-link case
//! ([`NetConfig::single_link`] + [`FlowSpec::single_hop`]); K queues in
//! series, parking-lot cross traffic, per-hop heterogeneous service,
//! per-hop fault injection, DECbit marking at any congested hop, and
//! mixed rate/window multi-hop flows are all expressible through the
//! same API.
//!
//! Packet timeline for a flow routed over hops `first..=last` with
//! per-hop one-way delay `d` (= [`SourceSpec::prop_delay`]):
//!
//! ```text
//! send at t ──d──▶ hop first ──d──▶ hop first+1 … hop last ──(hops·d)──▶ ack
//! ```
//!
//! Congestion marks OR together along the route: a packet that saw *any*
//! congested hop returns a marked ack, so a long flow's mark probability
//! compounds with hop count — the hop-count-unfairness mechanism of
//! Zhang [Zha 89] and Jacobson [Jac 88] the paper's introduction cites.
//! Rate sources observe the most congested queue on their route (the
//! path bottleneck), one path delay stale.
//!
//! Inside, a run is one `Sim` state struct: the run's read-only inputs,
//! the RNG and event queue, and one sub-struct per entity, moved in by
//! value from the [`NetArena`] — `Hops` (link constants, queue state,
//! FIFO rings, discipline scratch, fault machines), `Sources` (the
//! static flows' control state, hot fields, send lanes and counters),
//! `Wl` (finite-flow slots, free list, counters, FCT samples), `Trace`
//! and the `FPK_CHECK` draw tallies (`Audit`). The loop pops an event
//! and calls that kind's `on_*` handler. The packet paths several
//! handlers share are one helper each: `Sources::emit` injects a packet
//! at its route head, `Hops::start_service` puts a hop's head of line
//! into service, and `Sim::drop_packet` handles a loss or overflow.

use crate::engine::{FaultConfig, Service, SimConfig};
use crate::event::{EventKind, EventQueue};
use crate::qdisc::{
    AveragedMark, Fifo, HopQdiscState, QDisc, QdiscKind, QdiscParams, RedMark, ThresholdMark,
};
use crate::source::{rate_update, window_on_ack, SourceSpec, SourceState};
use crate::workload::{
    ideal_fct_sized, sample_cumulative, DistSummary, FlowSizeDist, PacketBytes, RtoPolicy,
    Workload, WorkloadStats,
};
use fpk_numerics::{NumericsError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::VecDeque;
use std::marker::PhantomData;

/// One link of a topology: a FIFO queue with its own service process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Link {
    /// Service rate μ (packets/s).
    pub mu: f64,
    /// Service-time distribution.
    pub service: Service,
    /// Optional buffer limit (packets in system); `None` = infinite.
    pub buffer: Option<u64>,
}

/// An ordered chain of links, indexed `0..len()`. Flows cross contiguous
/// spans of it ([`Route`]), so a single link is the classic bottleneck,
/// K equal links a tandem, and per-hop cross traffic a parking lot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Topology {
    /// The links in path order.
    pub links: Vec<Link>,
}

impl Topology {
    /// A one-link topology (the classic single bottleneck).
    #[must_use]
    pub fn single(mu: f64, service: Service, buffer: Option<u64>) -> Self {
        Self {
            links: vec![Link {
                mu,
                service,
                buffer,
            }],
        }
    }

    /// `k` identical links in series.
    #[must_use]
    pub fn uniform(k: usize, link: Link) -> Self {
        Self {
            links: vec![link; k],
        }
    }

    /// Number of links.
    #[must_use]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the topology has no links (invalid for running).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

/// A contiguous span of hops a flow crosses, inclusive on both ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Route {
    /// First hop index (0-based).
    pub first: usize,
    /// Last hop index (inclusive); must be ≥ `first`.
    pub last: usize,
}

impl Route {
    /// A route crossing exactly one hop.
    #[must_use]
    pub fn single(hop: usize) -> Self {
        Self {
            first: hop,
            last: hop,
        }
    }

    /// The full path of a `k`-link topology (`0..=k-1`).
    #[must_use]
    pub fn full(k: usize) -> Self {
        Self {
            first: 0,
            last: k.saturating_sub(1),
        }
    }

    /// Number of hops crossed.
    #[must_use]
    pub fn hops(&self) -> usize {
        self.last - self.first + 1
    }
}

/// A flow: any [`SourceSpec`] plus the route it crosses. The source's
/// propagation delay ([`SourceSpec::prop_delay`]) is the *per-hop*
/// one-way delay, so a window flow's effective round trip grows with its
/// hop count (`aimd.rtt` = 2 × per-hop delay — the historical tandem
/// interpretation).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FlowSpec {
    /// Traffic source driving the flow.
    pub source: SourceSpec,
    /// The hops the flow crosses.
    pub route: Route,
}

impl FlowSpec {
    /// A flow crossing the single hop 0 (the 1-link topology case).
    #[must_use]
    pub fn single_hop(source: SourceSpec) -> Self {
        Self {
            source,
            route: Route::single(0),
        }
    }
}

/// Network simulation configuration: the topology plus run control.
#[derive(Debug, Clone, Serialize)]
pub struct NetConfig {
    /// The ordered links.
    pub topology: Topology,
    /// Per-hop fault injection (i.i.d. loss, bursty Gilbert–Elliott
    /// loss, link flapping, or capacity degradation — see
    /// [`FaultConfig`]). Empty = fault-free everywhere; otherwise one
    /// entry per link.
    pub faults: Vec<FaultConfig>,
    /// Simulated horizon (seconds).
    pub t_end: f64,
    /// Statistics (throughput, mean queues) ignore `[0, warmup)`.
    pub warmup: f64,
    /// Queue/control trace sampling period.
    pub sample_interval: f64,
    /// RNG seed (the run is fully deterministic given the seed).
    pub seed: u64,
    /// Queue discipline at every hop. [`QdiscKind::Fifo`] (the default)
    /// keeps the historical per-flow marking policy; the others impose
    /// a hop-level policy that overrides each flow's own `q̂`/DECbit
    /// settings (see [`crate::qdisc`]).
    pub qdisc: QdiscKind,
    /// Optional byte-granular packet sizing: `Some` makes every packet
    /// draw a byte size and take `bytes / ref_bytes` nominal service
    /// times; `None` (the default) is classic unit-packet service.
    pub packet_bytes: Option<PacketBytes>,
}

impl NetConfig {
    /// The classic single bottleneck: the one link `config` describes
    /// (μ, service, buffer) with `fault` injected at it, FIFO marking
    /// and unit packets. Pair it with
    /// [`FlowSpec::single_hop`] flows.
    #[must_use]
    pub fn single_link(config: &SimConfig, fault: FaultConfig) -> Self {
        Self {
            topology: Topology::single(config.mu, config.service, config.buffer),
            faults: vec![fault],
            t_end: config.t_end,
            warmup: config.warmup,
            sample_interval: config.sample_interval,
            seed: config.seed,
            qdisc: QdiscKind::Fifo,
            packet_bytes: None,
        }
    }

    fn validate(&self, flows: &[FlowSpec], workload: Option<&Workload>) -> Result<()> {
        if self.topology.is_empty() {
            return Err(NumericsError::InvalidParameter {
                context: "NetConfig: need at least one link",
            });
        }
        for l in &self.topology.links {
            if !(l.mu > 0.0 && l.mu.is_finite()) {
                return Err(NumericsError::InvalidParameter {
                    context: "NetConfig: link mu must be positive and finite",
                });
            }
        }
        if !(self.t_end > 0.0 && self.t_end.is_finite()) {
            return Err(NumericsError::InvalidParameter {
                context: "NetConfig: t_end must be positive and finite",
            });
        }
        if !(self.sample_interval > 0.0 && self.sample_interval.is_finite()) {
            return Err(NumericsError::InvalidParameter {
                context: "NetConfig: sample_interval must be positive and finite",
            });
        }
        if !(0.0..self.t_end).contains(&self.warmup) {
            return Err(NumericsError::InvalidParameter {
                context: "NetConfig: warmup must lie in [0, t_end)",
            });
        }
        if !self.faults.is_empty() && self.faults.len() != self.topology.len() {
            return Err(NumericsError::InvalidParameter {
                context: "NetConfig: faults must be empty or one per link",
            });
        }
        for f in &self.faults {
            f.validate()?;
        }
        if flows.is_empty() && workload.is_none() {
            return Err(NumericsError::InvalidParameter {
                context: "run_network: need at least one flow",
            });
        }
        if let Some(w) = workload {
            w.validate(&self.topology)?;
        }
        match self.qdisc {
            QdiscKind::Fifo => {}
            QdiscKind::ThresholdMark { threshold } | QdiscKind::AveragedMark { threshold } => {
                if !(threshold.is_finite() && threshold >= 0.0) {
                    return Err(NumericsError::InvalidParameter {
                        context: "NetConfig: qdisc threshold must be finite and >= 0",
                    });
                }
            }
            QdiscKind::RedMark {
                min_th,
                max_th,
                max_p,
                weight,
            } => {
                if !(min_th >= 0.0 && min_th < max_th && max_th.is_finite()) {
                    return Err(NumericsError::InvalidParameter {
                        context: "NetConfig: RedMark needs 0 <= min_th < max_th < inf",
                    });
                }
                if !(0.0..=1.0).contains(&max_p) {
                    return Err(NumericsError::InvalidParameter {
                        context: "NetConfig: RedMark max_p must lie in [0, 1]",
                    });
                }
                if !(weight > 0.0 && weight <= 1.0) {
                    return Err(NumericsError::InvalidParameter {
                        context: "NetConfig: RedMark weight must lie in (0, 1]",
                    });
                }
            }
        }
        if let Some(pb) = &self.packet_bytes {
            pb.validate()?;
        }
        // FIFO entries pack the flow index into 31 bits (bit 31 carries
        // the congestion mark).
        if flows.len() >= (1 << 31) {
            return Err(NumericsError::InvalidParameter {
                context: "run_network: at most 2^31 - 1 flows",
            });
        }
        // Every scheduled event time is built from these parameters;
        // non-finite or negative values would poison the event clock
        // (the hot-path finiteness check is debug-only).
        for f in flows {
            // `prop_delay()` is the per-hop delay (half the RTT of a
            // window/DECbit flow), so one check covers every kind.
            let d = f.source.prop_delay();
            let timing_ok = d.is_finite()
                && d >= 0.0
                && match &f.source {
                    SourceSpec::Rate {
                        lambda0,
                        update_interval,
                        ..
                    } => {
                        update_interval.is_finite() && *update_interval > 0.0 && lambda0.is_finite()
                    }
                    SourceSpec::Window { w0, .. } | SourceSpec::Decbit { w0, .. } => w0.is_finite(),
                    SourceSpec::OnOff {
                        peak_rate,
                        mean_on,
                        mean_off,
                        ..
                    } => peak_rate.is_finite() && mean_on.is_finite() && mean_off.is_finite(),
                };
            if !timing_ok {
                return Err(NumericsError::InvalidParameter {
                    context: "run_network: flow timing parameters must be finite \
                              (delays/RTTs >= 0, update intervals > 0)",
                });
            }
        }
        let k = self.topology.len();
        if flows
            .iter()
            .any(|f| f.route.first > f.route.last || f.route.last >= k)
        {
            return Err(NumericsError::InvalidParameter {
                context: "run_network: flow route out of range",
            });
        }
        Ok(())
    }
}

/// Per-flow counters (collected after warm-up).
#[derive(Debug, Clone, Default, Serialize)]
pub struct NetFlowStats {
    /// Packets handed to the network.
    pub sent: u64,
    /// Packets that completed service at the flow's last hop.
    pub delivered: u64,
    /// Packets dropped (injected loss or a full buffer) at any hop.
    pub dropped: u64,
    /// Delivered / measurement window (packets per second).
    pub throughput: f64,
    /// Number of hops the flow crosses.
    pub hops: usize,
}

/// Result of one network run.
///
/// The three trace fields hold `⌊t_end/sample_interval⌋ + 1` samples,
/// preallocated at exact capacity. Their buffers move out of the
/// [`NetArena`] without a copy; [`crate::metrics::run_network_summary`]
/// moves them back after summarising, so a replication loop allocates
/// no trace storage after its first run.
#[derive(Debug, Clone, Serialize)]
pub struct NetResult {
    /// Trace sample times.
    pub trace_t: Vec<f64>,
    /// Queue length of each hop at each sample: `trace_q[hop][k]`.
    pub trace_q: Vec<Vec<f64>>,
    /// Per-flow control state at each sample (λ for rate sources, window
    /// for window sources), row-major: flow `i` at sample `k` is
    /// `trace_ctl[k * flows.len() + i]`.
    pub trace_ctl: Vec<f64>,
    /// Per-flow counters.
    pub flows: Vec<NetFlowStats>,
    /// Time-averaged queue length per hop after warm-up.
    pub mean_queue: Vec<f64>,
    /// Aggregate delivered (end-to-end) throughput after warm-up
    /// (packets/s, sum of per-flow throughputs).
    pub total_throughput: f64,
    /// Per-hop utilisation: packets served at the hop after warm-up per
    /// second, divided by the hop's μ.
    pub utilization: Vec<f64>,
    /// Aggregate capacity Σ μ over the links (for a 1-link topology this
    /// is exactly the bottleneck μ).
    pub capacity: f64,
    /// Per-hop fraction of the post-warm-up window the hop's link was
    /// down ([`FaultConfig::LinkFlap`] outages; exact 0.0 elsewhere).
    pub downtime_frac: Vec<f64>,
    /// Per-hop mean post-fault recovery time: from a fault clearing
    /// until the queue re-enters its pre-fault steady-state band
    /// (mean queue + 1). 0.0 for hops with no sampled recovery.
    pub recovery_time: Vec<f64>,
    /// Finite-flow outcome, `Some` iff the run carried a [`Workload`]
    /// (see [`run_network_workload`]). Workload packets count toward
    /// per-hop `utilization`/`mean_queue` but not `flows` /
    /// `total_throughput`, which stay static-flow quantities.
    pub workload: Option<WorkloadStats>,
}

impl NetResult {
    /// Index of the most congested hop (largest time-averaged queue,
    /// ties to the lowest index) — the hop whose trace the metrics layer
    /// analyses for oscillation.
    #[must_use]
    pub fn bottleneck_hop(&self) -> usize {
        let mut best = 0;
        for (h, &q) in self.mean_queue.iter().enumerate() {
            if q > self.mean_queue[best] {
                best = h;
            }
        }
        best
    }
}

/// Reusable per-run scratch state, one field per entity of the event
/// loop: the event queue, the hops, the sources, the finite-flow
/// workload and the trace buffers.
///
/// One arena serves any number of sequential runs of any shape — every
/// buffer is cleared (capacity kept) and re-sized at the start of each
/// run. A replication loop ([`crate::metrics::run_network_summary`]
/// driven by a sweep worker) therefore reuses the event queue, the hop
/// FIFOs, the source and workload slots and, since that function hands
/// each result's traces back, the trace buffers. Each run still
/// allocates the [`NetResult`]'s per-flow and per-hop vectors and the
/// summary built from them, and a `Scenario` run also clones its
/// `NetConfig` and builds its flow list: 18–28 small heap allocations
/// per `Scenario::run_seeded_in` on a warm arena, counted with a
/// counting global allocator.
/// Output is bit-identical to a fresh-allocation run by construction:
/// nothing read by the simulation survives the reset.
#[derive(Debug, Default)]
pub struct NetArena {
    ev: EventQueue,
    hops: Hops,
    src: Sources,
    wl: Wl,
    pub(crate) trace: Trace,
}

impl NetArena {
    /// Fresh, empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Move a result's trace buffers back into the arena, so the next run reuses their capacity.
    pub(crate) fn recycle(&mut self, result: NetResult) {
        self.trace.times = result.trace_t;
        self.trace.queues = result.trace_q;
        self.trace.ctl = result.trace_ctl;
    }
}

/// Clear the first `k` buffers of `v` (keeping their capacity) and add
/// or drop buffers so exactly `k` remain.
fn reset_each<T: Default>(v: &mut Vec<T>, k: usize, clear: fn(&mut T)) {
    v.truncate(k);
    v.iter_mut().for_each(clear);
    v.resize_with(k, T::default);
}

/// Read-only per-flow hot fields, extracted once per run from the fat
/// [`SourceSpec`] so each event pays one bounds check and one cache
/// line.
#[derive(Debug, Clone, Copy)]
struct FlowHot {
    route: Route,
    prop_delay: f64,
    q_hat: f64,
    /// Window-like (window/DECbit): gets acks, reacts to drops.
    acked: bool,
    decbit: bool,
}

impl FlowHot {
    /// One-way return delay from `hop` back to the flow's source (the
    /// packet crossed `hop - first + 1` propagation segments to get
    /// there). For a 1-hop route this is exactly `prop_delay`.
    #[inline]
    fn back_delay(&self, hop: usize) -> f64 {
        (hop - self.route.first + 1) as f64 * self.prop_delay
    }
}

/// Read-only per-hop hot fields, extracted once per run from [`Link`].
/// (The per-hop loss probability lives in [`FaultState`] — it can move
/// at runtime under a dynamic [`FaultConfig`].)
#[derive(Debug, Clone, Copy)]
struct HopHot {
    buffer: Option<u64>,
    mu: f64,
    expo: bool,
}

/// Runtime state of one hop's fault process (DESIGN §3i). The hot path
/// reads `loss` / `mu` / `det_service` / `down` on every packet; for a
/// fault-free or [`FaultConfig::Iid`] hop these are constants equal to
/// the pre-fault values, so the packet path is bit-identical to the
/// static-loss engine. The remaining fields drive the recovery-time
/// and downtime metrics and are touched only on fault transitions.
#[derive(Debug, Clone, Copy, Default)]
struct FaultState {
    /// Current per-arrival loss probability at this hop.
    loss: f64,
    /// Current service rate (μ, possibly degraded).
    mu: f64,
    /// `1.0 / mu` for the current μ.
    det_service: f64,
    /// Gilbert–Elliott chain is in the bad state.
    bad: bool,
    /// Link is down ([`FaultConfig::LinkFlap`]): server stalled,
    /// arrivals park in the queue.
    down: bool,
    /// Capacity currently degraded ([`FaultConfig::Degrade`]).
    degraded: bool,
    /// Instant the current outage began (valid while `down`).
    down_since: f64,
    /// Accumulated post-warm-up outage time (closed outages).
    downtime: f64,
    /// Steady-state queue band recorded at first fault onset: the
    /// pre-fault mean queue + 1. Recovery is declared when the queue
    /// re-enters this band after a fault clears.
    band: f64,
    /// A fault cleared and the queue has not yet re-entered `band`.
    recovering: bool,
    /// Instant of the most recent fault clear (valid while
    /// `recovering`).
    t_up: f64,
    /// A fault onset has been observed (fixes `band` once).
    faulted_once: bool,
    /// Sum of recovery times sampled at this hop.
    recovery_sum: f64,
    /// Number of recovery samples.
    recovery_n: u64,
}

impl FaultState {
    /// A fault begins (`faulted`) or clears at `t`. The first onset
    /// snapshots the pre-fault mean queue into the recovery band (later
    /// onsets reuse it, so fault-era queues cannot contaminate it), and
    /// every onset cancels a recovery in progress. A clear starts the
    /// recovery clock, which [`Self::sample_recovery`] stops.
    #[inline]
    fn transition(&mut self, faulted: bool, hs: &HopState, t: f64, warmup: f64) {
        if !faulted {
            if self.faulted_once {
                self.recovering = true;
                self.t_up = t;
            }
            return;
        }
        if !self.faulted_once {
            self.faulted_once = true;
            let a = hs.area + hs.q_len as f64 * (t - hs.last_change).max(0.0);
            self.band = if t > warmup { a / (t - warmup) } else { 0.0 } + 1.0;
        }
        self.recovering = false;
    }

    /// Post-fault recovery sample (§3i): the first departure that brings
    /// the queue back inside the pre-fault band closes the recovery
    /// clock. Always false without faults — one predicted branch.
    #[inline]
    fn sample_recovery(&mut self, t: f64, q_now: u64) {
        if self.recovering && (q_now as f64) <= self.band {
            self.recovery_sum += t - self.t_up;
            self.recovery_n += 1;
            self.recovering = false;
        }
    }
}

/// Per-hop dynamic state, packed into one struct so an event touches a
/// single cache line instead of five parallel arrays.
#[derive(Debug, Clone, Copy, Default)]
struct HopState {
    /// Packets in system (queue + the one in service).
    q_len: u64,
    /// Packets that completed service after warm-up.
    served: u64,
    /// Time-weighted queue accumulation after warm-up.
    area: f64,
    /// Instant of the last `q_len` change (clamped to warm-up).
    last_change: f64,
    /// Whether a departure is scheduled for this hop.
    busy: bool,
}

impl HopState {
    /// Close the queue-area integral at `t`, ahead of a `q_len` change;
    /// before warm-up only the clamped change instant moves.
    #[inline]
    fn advance(&mut self, t: f64, warmup: f64) {
        if t >= warmup {
            self.area += self.q_len as f64 * (t - self.last_change);
            self.last_change = t;
        } else {
            self.last_change = t.max(warmup);
        }
    }
}

/// Per-slot state of one finite workload flow. A slot is live from its
/// `FlowArrival` until the `FlowComplete` fired by its last accounted
/// packet; with recycling the slot then returns to the free list.
#[derive(Debug, Clone, Copy, Default)]
struct DynFlow {
    /// Flow size in packets.
    size: u64,
    /// Packets accounted so far (delivered + dropped); the flow
    /// completes when this reaches `size`.
    accounted: u64,
    /// Packets that exited the last hop.
    delivered: u64,
    /// Arrival instant (FCT reference point).
    arrival_t: f64,
    /// Idle-network FCT (slowdown denominator).
    ideal: f64,
    /// At least one packet exhausted its RTO retry budget.
    gave_up: bool,
}

/// Running workload counters (ungated by warm-up: conservation must be
/// exact over the whole run).
#[derive(Debug, Default)]
struct WlCounters {
    arrived: u64,
    completed: u64,
    completed_clean: u64,
    packets_sent: u64,
    packets_delivered: u64,
    packets_dropped: u64,
    retransmits: u64,
    packets_gave_up: u64,
    flows_gave_up: u64,
    active: u64,
    peak_active: u64,
}

/// Per-hop buffers: link constants, queue state, fault machines (§3i).
#[derive(Debug, Default)]
struct Hops {
    link: Vec<HopHot>,
    state: Vec<HopState>,
    fault: Vec<FaultState>,
    /// Fault-machine lane per hop (`usize::MAX`: static hop, no lane).
    lane_fault: Vec<usize>,
    /// Per-hop FIFO of `flow | (marked << 31)` words, head in service.
    fifos: Vec<VecDeque<u32>>,
    /// Per-hop FIFO of packet size factors, parallel to `fifos`; only
    /// touched by byte-mode instantiations (`packet_bytes: Some`).
    fifo_bytes: Vec<VecDeque<f32>>,
    /// Per-hop FIFO of retransmission-attempt indices, parallel to
    /// `fifos`; only touched when the run's workload carries an
    /// [`RtoPolicy`] (so the attempt count survives multi-hop routes).
    fifo_attempt: Vec<VecDeque<u8>>,
    /// Per-hop queue-discipline scratch (DECbit averager, RED EWMA).
    qdisc: Vec<HopQdiscState>,
}

impl Hops {
    /// Size every buffer for `config`'s topology. Fault-free and `Iid`
    /// hops keep the static loss and the link's μ, so their packet path
    /// is the static-loss engine's; dynamic faults start up and good.
    fn reset(&mut self, config: &NetConfig) {
        let k = config.topology.len();
        self.link.clear();
        self.link
            .extend(config.topology.links.iter().map(|l| HopHot {
                buffer: l.buffer,
                mu: l.mu,
                expo: l.service == Service::Exponential,
            }));
        self.state.clear();
        self.state.resize(
            k,
            HopState {
                last_change: config.warmup,
                ..HopState::default()
            },
        );
        self.fault.clear();
        self.fault
            .extend(self.link.iter().enumerate().map(|(h, l)| {
                let loss = match fault_at(&config.faults, h) {
                    FaultConfig::Iid { loss_prob } => loss_prob,
                    FaultConfig::GilbertElliott { loss_good, .. } => loss_good,
                    FaultConfig::LinkFlap { .. } | FaultConfig::Degrade { .. } => 0.0,
                };
                FaultState {
                    loss,
                    mu: l.mu,
                    det_service: 1.0 / l.mu,
                    ..FaultState::default()
                }
            }));
        self.lane_fault.clear();
        reset_each(&mut self.fifos, k, VecDeque::clear);
        reset_each(&mut self.fifo_bytes, k, VecDeque::clear);
        reset_each(&mut self.fifo_attempt, k, VecDeque::clear);
        self.qdisc.clear();
        self.qdisc.resize_with(k, HopQdiscState::default);
    }

    /// Per-hop mean queue, utilisation, downtime fraction and recovery
    /// time, closing the area integrals and open outages at `t_end`.
    fn finish(&self, config: &NetConfig) -> [Vec<f64>; 4] {
        let window = config.t_end - config.warmup;
        let mut out: [Vec<f64>; 4] = Default::default();
        for (hop, (hs, fs)) in self.state.iter().zip(&self.fault).enumerate() {
            let mut a = hs.area;
            if config.t_end > hs.last_change {
                a += hs.q_len as f64 * (config.t_end - hs.last_change);
            }
            out[0].push(a / window);
            out[1].push(hs.served as f64 / window / config.topology.links[hop].mu);
            // Fault-free hops report exact 0.0.
            let mut dt = fs.downtime;
            if fs.down {
                dt += (config.t_end - fs.down_since.max(config.warmup)).max(0.0);
            }
            out[2].push(dt / window);
            out[3].push(if fs.recovery_n > 0 {
                fs.recovery_sum / fs.recovery_n as f64
            } else {
                0.0
            });
        }
        out
    }
}

/// The static flows' runtime side (their specs are [`Sim::flows`]).
#[derive(Debug, Default)]
struct Sources {
    states: Vec<SourceState>,
    /// Hot fields per flow; grows past the static flows as workload
    /// flows claim slots (flow index = static count + slot).
    hot: Vec<FlowHot>,
    /// `SendPacket` lane per static flow (`usize::MAX`: window flow).
    lane_send: Vec<usize>,
    stats: Vec<NetFlowStats>,
    /// Byte-granular packet sizing (`Some` exactly in byte mode).
    pb: Option<PacketBytes>,
}

impl Sources {
    /// Initial states, hot fields (exactly the spec accessors' values)
    /// and zeroed counters for `flows`.
    fn reset(&mut self, flows: &[FlowSpec], pb: Option<PacketBytes>) {
        self.states.clear();
        self.states
            .extend(flows.iter().map(|f| f.source.initial_state()));
        self.hot.clear();
        self.hot.extend(flows.iter().map(|f| FlowHot {
            route: f.route,
            prop_delay: f.source.prop_delay(),
            q_hat: f.source.q_hat(),
            acked: matches!(
                f.source,
                SourceSpec::Window { .. } | SourceSpec::Decbit { .. }
            ),
            decbit: matches!(f.source, SourceSpec::Decbit { .. }),
        }));
        self.lane_send.clear();
        self.stats = flows
            .iter()
            .map(|f| NetFlowStats {
                hops: f.route.hops(),
                ..NetFlowStats::default()
            })
            .collect();
        self.pb = pb;
    }
}

/// The finite-flow workload's runtime side.
#[derive(Debug, Default)]
struct Wl {
    /// Per-slot finite-flow state (slot `s` is flow `n_static + s`).
    slots: Vec<DynFlow>,
    /// Free list of retired slots, reused LIFO so a 10⁵-flow run holds
    /// O(active flows) per-flow state.
    free: Vec<u32>,
    counters: WlCounters,
    /// Cumulative Zipf route-popularity table.
    route_cum: Vec<f64>,
    /// Clean post-warm-up flow completion times (sorted at finalize).
    fcts: Vec<f64>,
    /// Matching slowdown samples (FCT / ideal FCT).
    slowdowns: Vec<f64>,
    /// Retransmission policy; `Some` also turns on the attempt ring (two
    /// predicted branches per packet when off).
    rto: Option<RtoPolicy>,
    lane_arrival: usize,
    /// Slowdown denominator scale: the mean byte factor (unit mode: 1).
    mean_factor: f64,
}

impl Wl {
    fn reset(&mut self, workload: Option<&Workload>, pb: Option<PacketBytes>) {
        self.slots.clear();
        self.free.clear();
        self.counters = WlCounters::default();
        self.route_cum.clear();
        if let Some(w) = workload {
            let mut acc = 0.0;
            self.route_cum.extend(w.route_weights().iter().map(|wt| {
                acc += wt;
                acc
            }));
        }
        self.fcts.clear();
        self.slowdowns.clear();
        self.rto = workload.and_then(|w| w.rto);
        self.mean_factor = pb.map_or(1.0, |pb| pb.mean_factor());
    }

    /// The run's [`WorkloadStats`] (`t_end` normalises the goodput).
    fn finish(&mut self, t_end: f64) -> WorkloadStats {
        let c = &self.counters;
        self.fcts.sort_by(f64::total_cmp);
        self.slowdowns.sort_by(f64::total_cmp);
        WorkloadStats {
            arrived: c.arrived,
            completed: c.completed,
            completed_clean: c.completed_clean,
            active_at_end: c.arrived - c.completed,
            packets_sent: c.packets_sent,
            packets_delivered: c.packets_delivered,
            packets_dropped: c.packets_dropped,
            retransmits: c.retransmits,
            packets_gave_up: c.packets_gave_up,
            flows_gave_up: c.flows_gave_up,
            goodput: c.packets_delivered as f64 / t_end,
            retx_overhead: c.retransmits as f64 / c.packets_sent.max(1) as f64,
            peak_active: c.peak_active,
            slot_high_water: self.slots.len() as u64,
            fct: DistSummary::from_sorted(&self.fcts),
            slowdown: DistSummary::from_sorted(&self.slowdowns),
        }
    }
}

/// Trace buffers and the sampling clock.
#[derive(Debug, Default)]
pub(crate) struct Trace {
    pub(crate) times: Vec<f64>,
    /// `queues[hop][sample]`, reused across runs.
    queues: Vec<Vec<f64>>,
    /// Flattened control trace, stride = flow count (row per sample).
    pub(crate) ctl: Vec<f64>,
    /// Next sample index to schedule, and the last inside the horizon.
    next: u64,
    last: u64,
}

impl Trace {
    /// Clear the buffers. Samples fall at t_k = k·Δ for every k with
    /// k·Δ ≤ t_end, as fresh multiples (no `t += Δ` drift).
    fn reset(&mut self, config: &NetConfig, n_flows: usize) {
        let k = config.topology.len();
        let quotient = config.t_end / config.sample_interval;
        self.last = (quotient * (1.0 + 1e-12) + 1e-9).floor() as u64;
        self.next = 0;
        let n_samples = self.last as usize + 1;
        self.times.clear();
        reset_each(&mut self.queues, k, Vec::clear);
        self.ctl.clear();
        self.times.reserve(n_samples);
        for q in &mut self.queues {
            q.reserve(n_samples);
        }
        self.ctl.reserve(n_samples * n_flows);
    }

    /// The `(trace_t, trace_q, trace_ctl)` fields of the result: the
    /// buffers move to the caller ([`NetArena::recycle`] moves them
    /// back).
    fn take(&mut self) -> (Vec<f64>, Vec<Vec<f64>>, Vec<f64>) {
        (
            std::mem::take(&mut self.times),
            std::mem::take(&mut self.queues),
            std::mem::take(&mut self.ctl),
        )
    }
}

/// `FPK_CHECK` draw tallies (DESIGN §3h), checked against §3f at t_end.
#[derive(Debug, Default)]
struct Audit {
    chk_size_draws: u64,
    chk_route_draws: u64,
    chk_gap_draws: u64,
    /// Fault-lane draw audit (§3i): sojourn draws must equal the
    /// bootstrap draws plus the transitions that rescheduled with one.
    chk_fault_draws: u64,
    chk_fault_moves: u64,
    n_fault_boot: u64,
}

impl Audit {
    /// A fault transition that drew its next sojourn.
    #[inline]
    fn fault_move(&mut self) {
        self.chk_fault_moves += 1;
        self.chk_fault_draws += 1;
    }
}

/// Standard exponential `-ln u` from a uniform `u` clamped off zero.
/// Negation is exact, so `t + exp1(u) / rate` keeps the historical
/// `t - u.ln() / rate` bits.
#[inline]
fn exp1(u: f64) -> f64 {
    -u.max(f64::MIN_POSITIVE).ln()
}

/// Pack a FIFO word (`flow` must fit in 31 bits, checked at validate).
#[inline]
fn fifo_word(flow: usize, marked: bool) -> u32 {
    flow as u32 | (u32::from(marked) << 31)
}

/// Unpack a FIFO word back into `(flow, marked)`.
#[inline]
fn fifo_flow_marked(word: u32) -> (usize, bool) {
    ((word & 0x7fff_ffff) as usize, word >> 31 == 1)
}

/// Run a network simulation: every flow crosses its route through the
/// shared deterministic [`EventQueue`].
///
/// For a 1-link topology this reproduces the historical dedicated
/// single-bottleneck engine bit-identically (same seed → same traces
/// and counters); for a lossless all-window topology it reproduces the
/// historical tandem engine's counters (both pinned by golden constants
/// in `tests/engine_equivalence.rs`).
///
/// Allocates a fresh [`NetArena`] per call;
/// [`crate::metrics::run_network_summary`] amortises the scratch state
/// over many runs.
///
/// # Errors
/// [`NumericsError::InvalidParameter`] for an empty topology or flow
/// list, non-positive rates/times, routes out of range, or `loss_prob`
/// outside [0, 1).
pub fn run_network(config: &NetConfig, flows: &[FlowSpec]) -> Result<NetResult> {
    run_network_core(&mut NetArena::new(), config, flows, None)
}

/// [`run_network`] plus a finite-flow [`Workload`]: open-loop flow
/// arrivals draw a size and a Zipf-popular route, inject their packets
/// as a paced burst, and depart once every packet is accounted
/// (delivered or dropped). `flows` may be empty for a workload-only
/// run; static flows coexist with the workload and keep their exact
/// static-only schedule prefix (a workload with `max_flows = Some(0)`
/// is bit-identical to [`run_network`], pinned by
/// `tests/engine_equivalence.rs`).
///
/// The returned [`NetResult::workload`] is always `Some`, carrying the
/// FCT / slowdown summaries and conservation counters.
///
/// # Errors
/// See [`run_network`]; additionally anything [`Workload::validate`]
/// rejects.
pub fn run_network_workload(
    config: &NetConfig,
    flows: &[FlowSpec],
    workload: &Workload,
) -> Result<NetResult> {
    run_network_core(&mut NetArena::new(), config, flows, Some(workload))
}

/// Entry point behind every public runner: validate, resolve the
/// queue-discipline parameters, and select the monomorphized event
/// loop **once per run** — [`Sim`] is generic over the discipline
/// `Q: QDisc` and a `BYTES` const for byte-granular service, so each
/// of the eight instantiations compiles to its own loop with every
/// discipline hook inlined and no `dyn` call on the packet path. The
/// unit-size/`Fifo` instantiation is therefore the exact pre-refactor
/// fast path (pinned bit-for-bit by `tests/engine_equivalence.rs`).
pub(crate) fn run_network_core(
    arena: &mut NetArena,
    config: &NetConfig,
    flows: &[FlowSpec],
    workload: Option<&Workload>,
) -> Result<NetResult> {
    config.validate(flows, workload)?;
    let qp = QdiscParams::resolve(config.qdisc);
    let run = match (config.qdisc, config.packet_bytes.is_some()) {
        (QdiscKind::Fifo, false) => Sim::<Fifo, false>::run,
        (QdiscKind::Fifo, true) => Sim::<Fifo, true>::run,
        (QdiscKind::ThresholdMark { .. }, false) => Sim::<ThresholdMark, false>::run,
        (QdiscKind::ThresholdMark { .. }, true) => Sim::<ThresholdMark, true>::run,
        (QdiscKind::AveragedMark { .. }, false) => Sim::<AveragedMark, false>::run,
        (QdiscKind::AveragedMark { .. }, true) => Sim::<AveragedMark, true>::run,
        (QdiscKind::RedMark { .. }, false) => Sim::<RedMark, false>::run,
        (QdiscKind::RedMark { .. }, true) => Sim::<RedMark, true>::run,
    };
    Ok(run(arena, config, flows, workload, qp))
}

/// One run of the event loop, monomorphized per discipline `Q` and byte
/// mode, with one `on_*` handler per [`EventKind`].
struct Sim<'a, Q: QDisc, const BYTES: bool> {
    config: &'a NetConfig,
    /// The static flows' specs.
    flows: &'a [FlowSpec],
    workload: Option<&'a Workload>,
    qp: QdiscParams,
    warmup: f64,
    t_end: f64,
    n_static: usize,
    any_decbit: bool,
    /// `FPK_CHECK` (DESIGN §3h), read once per run.
    strict: bool,
    rng: StdRng,
    ev: EventQueue,
    hops: Hops,
    src: Sources,
    wl: Wl,
    trace: Trace,
    audit: Audit,
    disc: PhantomData<Q>,
}

impl<'a, Q: QDisc, const BYTES: bool> Sim<'a, Q, BYTES> {
    /// Run to the horizon with `arena`'s buffers moved in by value, then
    /// hand them back so the next run reuses their capacity.
    fn run(
        arena: &mut NetArena,
        config: &'a NetConfig,
        flows: &'a [FlowSpec],
        workload: Option<&'a Workload>,
        qp: QdiscParams,
    ) -> NetResult {
        let a = std::mem::take(arena);
        let mut sim = Self {
            config,
            flows,
            workload,
            qp,
            warmup: config.warmup,
            t_end: config.t_end,
            n_static: flows.len(),
            any_decbit: flows
                .iter()
                .any(|f| matches!(f.source, SourceSpec::Decbit { .. })),
            strict: crate::check::strict(),
            rng: StdRng::seed_from_u64(config.seed),
            ev: a.ev,
            hops: a.hops,
            src: a.src,
            wl: a.wl,
            trace: a.trace,
            audit: Audit::default(),
            disc: PhantomData,
        };
        sim.bootstrap();
        sim.run_events();
        if sim.strict {
            sim.check_horizon();
        }
        let out = sim.finish();
        *arena = NetArena {
            ev: sim.ev,
            hops: sim.hops,
            src: sim.src,
            wl: sim.wl,
            trace: sim.trace,
        };
        out
    }

    /// Start every static flow's traffic, in flow order.
    fn bootstrap_flows(&mut self) {
        let rng = &mut self.rng;
        let ev = &mut self.ev;
        for (i, f) in self.flows.iter().enumerate() {
            let lane = self.src.lane_send[i];
            match &f.source {
                SourceSpec::Rate {
                    update_interval, ..
                } => {
                    ev.schedule_lane(lane, 0.0, EventKind::SendPacket { flow: i });
                    ev.push(*update_interval, EventKind::Observe { flow: i });
                }
                SourceSpec::OnOff { .. } => {
                    ev.schedule_lane(lane, 0.0, EventKind::SendPacket { flow: i });
                    if let SourceState::OnOff { chain_alive, .. } = &mut self.src.states[i] {
                        *chain_alive = true;
                    }
                    // First ON sojourn; the toggle chain is
                    // self-rescheduling.
                    ev.push(0.0, EventKind::Toggle { flow: i });
                }
                SourceSpec::Window { w0, .. } | SourceSpec::Decbit { w0, .. } => {
                    // Initial burst of ⌊w0⌋ packets, spaced a hair apart
                    // so FIFO order is well-defined.
                    let burst = w0.max(1.0).floor() as u64;
                    match &mut self.src.states[i] {
                        SourceState::Window { in_flight, .. }
                        | SourceState::Decbit { in_flight, .. } => *in_flight = burst,
                        SourceState::Rate { .. } | SourceState::OnOff { .. } => {
                            unreachable!("state enum mismatches source spec for window flow")
                        }
                    }
                    for b in 0..burst {
                        let at = b as f64 * 1e-6 + f.source.prop_delay();
                        self.src.emit::<BYTES>(i, at, rng, ev); // draw: window.bootstrap.pkt — size factor per initial-burst packet
                    }
                    // The burst leaves the source at t = 0: count it only
                    // when the warm-up window is empty, like every other
                    // `sent` site (gated on t >= warmup).
                    if self.warmup <= 0.0 {
                        self.src.stats[i].sent += burst;
                    }
                }
            }
        }
    }

    /// Start the fault clocks, in hop order (after the static-flow
    /// bursts and before the workload's first gap — the §3f position of
    /// `fault.bootstrap.sojourn`). A Gilbert–Elliott hop draws its first
    /// good-state sojourn, a flapping hop its first up-time; the
    /// deterministic `Degrade` clock schedules drawlessly at `period`.
    /// Fault-free and `Iid` hops draw nothing and schedule nothing.
    fn bootstrap_faults(&mut self) {
        let rng = &mut self.rng;
        let ev = &mut self.ev;
        for (h, &lane) in self.hops.lane_fault.iter().enumerate() {
            let (rate, kind) = match fault_at(&self.config.faults, h) {
                FaultConfig::Iid { .. } => continue,
                FaultConfig::GilbertElliott { p_gb, .. } => {
                    (p_gb, EventKind::FaultShift { hop: h })
                }
                FaultConfig::LinkFlap { down_rate, .. } => {
                    (down_rate, EventKind::LinkDown { hop: h })
                }
                FaultConfig::Degrade { period, .. } => {
                    ev.schedule_lane(lane, period, EventKind::FaultShift { hop: h });
                    continue;
                }
            };
            let sojourn = exp1(rng.gen()) / rate; // draw: fault.bootstrap.sojourn — first fault-transition sojourn (GE/flap hops only)
            if self.strict {
                self.audit.chk_fault_draws += 1;
                self.audit.n_fault_boot += 1;
            }
            ev.schedule_lane(lane, sojourn, kind);
        }
    }

    /// Reset every entity and schedule the initial events in the
    /// historical order: flows, fault clocks, first workload gap, samples.
    fn bootstrap(&mut self) {
        let (config, flows, workload) = (self.config, self.flows, self.workload);
        let k = config.topology.len();
        self.ev.clear();
        self.hops.reset(config);
        self.src.reset(flows, config.packet_bytes);
        self.wl.reset(workload, config.packet_bytes);
        self.trace.reset(config, flows.len());

        // Side lanes for the *per-packet* event streams with at most one
        // pending instance: the sampling clock (lane 0), each hop's next
        // departure (1 + hop), and each rate/on-off flow's
        // self-rescheduling SendPacket chain. They merge against the heap
        // at pop time instead of paying sifts — roughly half of all
        // events in a typical run — and still consume sequence numbers
        // exactly as pushed events would, keeping the order bit-identical
        // to the historical all-in-heap schedule. Everything else stays
        // in the heap: acks, arrivals and feedback can have many
        // instances in flight, and the low-rate Observe/Toggle chains are
        // not worth widening the lane rescan that every high-rate pop
        // pays. Lanes are allocated only for the chains that exist (a
        // window flow has none).
        let mut lane_count = 1 + k;
        let mut alloc_lane = |cond: bool| {
            if cond {
                lane_count += 1;
                lane_count - 1
            } else {
                usize::MAX
            }
        };
        self.src.lane_send.extend(flows.iter().map(|f| {
            alloc_lane(matches!(
                f.source,
                SourceSpec::Rate { .. } | SourceSpec::OnOff { .. }
            ))
        }));
        // The workload arrival clock is one-pending by construction
        // (each FlowArrival schedules its successor), so it rides a lane
        // too. Each dynamic-fault hop advances a one-pending state
        // machine (`LinkDown`/`LinkUp` or `FaultShift`) on its own lane;
        // fault-free and `Iid` hops allocate nothing, so existing runs
        // keep their exact lane layout.
        self.wl.lane_arrival = alloc_lane(workload.is_some());
        self.hops
            .lane_fault
            .extend((0..k).map(|h| alloc_lane(fault_at(&config.faults, h).is_dynamic())));
        self.ev.set_lane_count(lane_count);
        self.ev.set_strict(self.strict);

        self.bootstrap_flows();
        self.bootstrap_faults();
        // Workload bootstrap: the first flow arrives one interarrival
        // gap after t = 0. `max_flows = Some(0)` schedules nothing and
        // draws no randomness, so it cannot perturb a static-flow run.
        if let Some(w) = self.workload.filter(|w| w.max_flows != Some(0)) {
            let rng = &mut self.rng;
            let gap = w.arrivals.sample_interarrival(rng); // draw: wl.bootstrap.gap — first interarrival gap after t = 0
            if self.strict {
                self.audit.chk_gap_draws += 1;
            }
            self.ev
                .schedule_lane(self.wl.lane_arrival, gap, EventKind::FlowArrival);
        }
        // The sampling clock starts at t = 0 and schedules its
        // successors from `on_sample`.
        self.ev.schedule_sample(0.0);
    }

    /// `FPK_CHECK` horizon invariants (DESIGN §3h). Runs once, after the
    /// loop — allocation here is off the packet path.
    fn check_horizon(&self) {
        self.ev.assert_valid();
        let a = &self.audit;
        if let Some(w) = self.workload {
            let (wl, c) = (&self.wl, &self.wl.counters);
            // Free-list disjointness and bounds, globally.
            let mut freed = vec![false; wl.slots.len()];
            for &s in &wl.free {
                let s = s as usize;
                assert!(
                    s < wl.slots.len(),
                    "FPK_CHECK: free list holds slot {s} beyond the {} allocated",
                    wl.slots.len()
                );
                assert!(
                    !freed[s],
                    "FPK_CHECK: flow slot {s} appears twice on the free list"
                );
                freed[s] = true;
            }
            // Packet conservation at the horizon: every unique packet a
            // workload flow sent was delivered, terminally dropped, given
            // up after its RTO retries, parked in the queue of a downed
            // hop, or is otherwise still in flight (unaccounted in its
            // slot — including packets waiting out an RTO timer).
            // `parked` is computed independently by walking the FIFOs of
            // down hops, so the subtraction doubles as a
            // `parked ≤ unaccounted` check.
            let parked: u64 = (self.hops.fifos.iter().zip(&self.hops.fault))
                .filter(|(_, fs)| fs.down)
                .map(|(f, _)| {
                    f.iter()
                        .filter(|&&word| fifo_flow_marked(word).0 >= self.n_static)
                        .count() as u64
                })
                .sum();
            let unaccounted: u64 = wl.slots.iter().map(|d| d.size - d.accounted).sum();
            let in_flight = unaccounted
                .checked_sub(parked)
                .expect("FPK_CHECK: parked packets exceed unaccounted packets");
            assert_eq!(
                c.packets_sent,
                c.packets_delivered + c.packets_dropped + c.packets_gave_up + in_flight + parked,
                "FPK_CHECK: workload packet conservation failed at t_end \
                 (sent {} != delivered {} + dropped {} + gave-up {} + in-flight {in_flight} \
                 + parked {parked})",
                c.packets_sent,
                c.packets_delivered,
                c.packets_dropped,
                c.packets_gave_up
            );
            // Draw-count audit against the §3f contract: one route and
            // one size draw per arrival (none for deterministic sizes),
            // and one gap per arrival — plus the bootstrap gap, minus the
            // final gap a `max_flows` cap suppresses.
            assert_eq!(
                a.chk_route_draws, c.arrived,
                "FPK_CHECK: route draws diverged from flow arrivals"
            );
            let expect_size = if matches!(w.sizes, FlowSizeDist::Deterministic { .. }) {
                0
            } else {
                c.arrived
            };
            assert_eq!(
                a.chk_size_draws, expect_size,
                "FPK_CHECK: size draws diverged from the §3f contract"
            );
            assert!(
                a.chk_gap_draws == c.arrived || a.chk_gap_draws == c.arrived + 1,
                "FPK_CHECK: gap draws ({}) must be arrivals ({}) or arrivals + 1",
                a.chk_gap_draws,
                c.arrived
            );
        }
        // Fault-lane draw audit (§3i): every fault sojourn draw belongs
        // to either the per-hop bootstrap or a transition handler — a
        // fault-free run must show zeros on both sides.
        assert_eq!(
            a.chk_fault_draws,
            a.n_fault_boot + a.chk_fault_moves,
            "FPK_CHECK: fault sojourn draws diverged from fault transitions \
             (bootstrap {} + moves {})",
            a.n_fault_boot,
            a.chk_fault_moves
        );
    }

    /// Assemble the result at `t_end`.
    fn finish(&mut self) -> NetResult {
        let config = self.config;
        let window = config.t_end - config.warmup;
        let mut flows = std::mem::take(&mut self.src.stats);
        for f in &mut flows {
            f.throughput = f.delivered as f64 / window;
        }
        let [mean_queue, utilization, downtime_frac, recovery_time] = self.hops.finish(config);
        let workload = self.workload.map(|_| self.wl.finish(config.t_end));
        let (trace_t, trace_q, trace_ctl) = self.trace.take();
        NetResult {
            trace_t,
            trace_q,
            trace_ctl,
            total_throughput: flows.iter().map(|f| f.throughput).sum(),
            flows,
            mean_queue,
            utilization,
            capacity: config.topology.links.iter().map(|l| l.mu).sum(),
            downtime_frac,
            recovery_time,
            workload,
        }
    }
}

// lint: hot-path arena(ev, fifos, fifo_bytes, fifo_attempt, times, queues, ctl, fcts, slowdowns, slots, free, hot)
impl Hops {
    /// Serve `hop`'s head of line at the hop's current (possibly
    /// degraded) capacity, scaled by its byte factor.
    #[inline]
    fn start_service<const BYTES: bool>(
        &mut self,
        hop: usize,
        t: f64,
        rng: &mut StdRng,
        ev: &mut EventQueue,
    ) {
        self.state[hop].busy = true;
        let fs = &self.fault[hop];
        let mut svc = fs.det_service;
        if self.link[hop].expo {
            svc = exp1(rng.gen()) / fs.mu; // draw: hop.service — exponential service uniform (expo hops only)
        }
        if BYTES {
            let head = self.fifo_bytes[hop].front();
            svc *= f64::from(*head.expect("service start at a hop with an empty byte queue"));
        }
        ev.schedule_lane(1 + hop, t + svc, EventKind::Departure { hop });
    }

    /// `FPK_CHECK`: `hop`'s word and byte rings move in lockstep.
    #[inline]
    fn assert_rings_synced(&self, hop: usize, t: f64, after: &str) {
        assert_eq!(
            self.fifos[hop].len(),
            self.fifo_bytes[hop].len(),
            "FPK_CHECK: hop {hop} word ring and byte ring desynced after {after} at t = {t}"
        );
    }
}

impl Sources {
    /// Inject a fresh packet of `flow` at its route head at `at`. Only
    /// byte mode draws (its size factor), so unit runs keep their stream.
    #[inline]
    fn emit<const BYTES: bool>(&self, flow: usize, at: f64, rng: &mut StdRng, ev: &mut EventQueue) {
        let mut size = 1.0;
        if BYTES {
            let pb = self
                .pb
                .expect("byte-mode instantiation without packet_bytes");
            size = (pb.dist.sample(rng) as f64 / pb.ref_bytes.get()) as f32; // draw: pkt.size_factor — per-packet byte-size factor (byte mode only)
        }
        let hop = self.hot[flow].route.first;
        ev.push(
            at,
            EventKind::Arrival {
                flow,
                hop,
                marked: false,
                size,
                attempt: 0,
            },
        );
    }
}

impl DynFlow {
    /// Account a delivered or dropped packet; the last one completes.
    #[inline]
    fn account(&mut self, flow: usize, t: f64, ev: &mut EventQueue) {
        self.accounted += 1;
        if self.accounted == self.size {
            ev.push(t, EventKind::FlowComplete { flow });
        }
    }
}

impl<Q: QDisc, const BYTES: bool> Sim<'_, Q, BYTES> {
    /// Pop events until the horizon, dispatching each to its handler.
    fn run_events(&mut self) {
        while let Some(event) = self.ev.pop() {
            let t = event.t;
            if t > self.t_end {
                break;
            }
            match event.kind {
                EventKind::SendPacket { flow } => self.on_send(t, flow),
                EventKind::Toggle { flow } => self.on_toggle(t, flow),
                EventKind::Arrival {
                    flow,
                    hop,
                    marked,
                    size,
                    attempt,
                } => self.on_arrival(t, flow, hop, marked, size, attempt),
                EventKind::Departure { hop } => self.on_departure(t, hop),
                EventKind::Observe { flow } => self.on_observe(t, flow),
                EventKind::Feedback {
                    flow,
                    observed_queue,
                } => self.on_feedback(flow, observed_queue),
                EventKind::Ack { flow, marked } => self.on_ack(t, flow, marked),
                EventKind::FlowArrival => self.on_flow_arrival(t),
                EventKind::FlowComplete { flow } => self.on_flow_complete(t, flow),
                EventKind::Sample => self.on_sample(t),
                EventKind::LinkDown { hop } => self.on_link_down(t, hop),
                EventKind::LinkUp { hop } => self.on_link_up(t, hop),
                EventKind::FaultShift { hop } => self.on_fault_shift(t, hop),
            }
        }
    }

    /// A rate or on-off flow sends a packet and reschedules its chain.
    #[inline]
    fn on_send(&mut self, t: f64, flow: usize) {
        let rng = &mut self.rng;
        let (rate, poisson) = match (&self.flows[flow].source, &mut self.src.states[flow]) {
            (SourceSpec::Rate { poisson, .. }, SourceState::Rate { lambda }) => {
                (lambda.max(1e-9), *poisson)
            }
            (SourceSpec::OnOff { peak_rate, .. }, SourceState::OnOff { on, chain_alive }) => {
                if !*on {
                    // Chain dies during the OFF phase; the next
                    // toggle-to-ON starts a fresh one.
                    *chain_alive = false;
                    return;
                }
                (peak_rate.max(1e-9), true)
            }
            _ => unreachable!("SendPacket for a window flow"),
        };
        if t >= self.warmup {
            self.src.stats[flow].sent += 1;
        }
        let at = t + self.src.hot[flow].prop_delay;
        // draw: rate.pkt — size factor per rate-source packet
        // draw: onoff.pkt — size factor per on-off packet
        self.src.emit::<BYTES>(flow, at, rng, &mut self.ev);
        let mut gap = 1.0 / rate;
        if poisson {
            // draw: rate.gap — Poisson interpacket gap uniform (paced rate sources draw nothing)
            // draw: onoff.gap — ON-phase interpacket gap uniform
            gap = exp1(rng.gen()) / rate;
        }
        let kind = EventKind::SendPacket { flow };
        self.ev
            .schedule_lane(self.src.lane_send[flow], t + gap, kind);
    }

    /// An on-off flow switches phase and schedules its next toggle.
    #[inline]
    fn on_toggle(&mut self, t: f64, flow: usize) {
        let rng = &mut self.rng;
        let SourceSpec::OnOff {
            peak_rate,
            mean_on,
            mean_off,
            ..
        } = &self.flows[flow].source
        else {
            unreachable!("Toggle for non-on-off flow")
        };
        let SourceState::OnOff { on, chain_alive } = &mut self.src.states[flow] else {
            unreachable!("Toggle for a flow without on-off state")
        };
        // Exponential sojourn in the phase we are *entering*; the
        // bootstrap toggle at t = 0 enters the ON phase.
        let entering_on = !*on || t == 0.0;
        let sojourn_mean = if entering_on { *mean_on } else { *mean_off };
        if t > 0.0 {
            *on = !*on;
        }
        if *on && !*chain_alive {
            *chain_alive = true;
            // First send a full exponential gap after the phase starts —
            // emitting at the toggle instant itself would bias the mean
            // rate upward.
            let first = t + exp1(rng.gen()) / peak_rate.max(1e-9); // draw: onoff.first_send — first-send gap after toggle-to-ON
            let lane = self.src.lane_send[flow];
            self.ev
                .schedule_lane(lane, first, EventKind::SendPacket { flow });
        }
        let next = t + exp1(rng.gen()) * sojourn_mean.max(1e-9); // draw: onoff.sojourn — next phase-sojourn uniform
        self.ev.push(next, EventKind::Toggle { flow });
    }

    /// A packet lost at `hop` (fault loss or full buffer). A window flow
    /// gets a marked ack from the drop point (drop-as-mark). A workload
    /// packet is dropped for good, or under an [`RtoPolicy`] re-enters
    /// its route head after the backed-off timeout (no draws) until it
    /// delivers or runs out of retries.
    #[inline]
    fn drop_packet(&mut self, t: f64, flow: usize, hop: usize, size: f32, attempt: u8) {
        let fh = self.src.hot[flow];
        if flow < self.n_static {
            if t >= self.warmup {
                self.src.stats[flow].dropped += 1;
            }
            if fh.acked {
                let back = t + fh.back_delay(hop);
                self.ev.push(back, EventKind::Ack { flow, marked: true });
            }
            return;
        }
        let wl = &mut self.wl;
        let d = &mut wl.slots[flow - self.n_static];
        match wl.rto {
            Some(r) if u32::from(attempt) < r.max_retries => {
                wl.counters.retransmits += 1;
                let wait = r.wait_before(u32::from(attempt) + 1);
                let retry = EventKind::Arrival {
                    flow,
                    hop: fh.route.first,
                    marked: false,
                    size,
                    attempt: attempt + 1,
                };
                self.ev.push(t + wait + fh.prop_delay, retry);
            }
            Some(_) => {
                wl.counters.packets_gave_up += 1;
                d.gave_up = true;
                d.account(flow, t, &mut self.ev);
            }
            None => {
                wl.counters.packets_dropped += 1;
                d.account(flow, t, &mut self.ev);
            }
        }
    }

    /// A packet reaches `hop`: loss, buffer, marking, enqueue.
    #[inline]
    fn on_arrival(
        &mut self,
        t: f64,
        flow: usize,
        hop: usize,
        marked: bool,
        size: f32,
        attempt: u8,
    ) {
        let rng = &mut self.rng;
        let fh = self.src.hot[flow];
        // Random link loss (per-hop fault injection; the loss
        // probability is the hop's *current* one — static for `Iid`,
        // state-dependent for Gilbert–Elliott).
        let loss = self.hops.fault[hop].loss;
        // draw: hop.loss — per-hop loss uniform (faulty hops only)
        let lost = loss > 0.0 && rng.gen::<f64>() < loss;
        let hops = &mut self.hops;
        let full = hops.link[hop]
            .buffer
            .is_some_and(|cap| hops.state[hop].q_len >= cap);
        if lost || full {
            self.drop_packet(t, flow, hop, size, attempt);
            return;
        }
        // Mark policy at this hop, OR-ed with marks from hops already
        // crossed (`q_len` is the pre-enqueue packets-in-system count).
        // A pure hook short-circuits behind an upstream mark — the
        // historical fast path; a stateful one (RED's EWMA) runs for
        // every surviving arrival so its scratch never depends on
        // upstream marking.
        let q_len = hops.state[hop].q_len;
        let marked = if Q::MARK_IS_PURE && marked {
            true
        } else {
            let hop_mark = Q::mark(
                &self.qp,
                &mut hops.qdisc,
                hop,
                t,
                q_len,
                fh.decbit,
                fh.q_hat,
                // draw: mark.pure — mark hook may draw (RED gentle mode); pure hooks draw nothing
                // draw: mark.stateful — stateful mark hook (RED) draws its drop uniform here
                rng,
            );
            marked || hop_mark
        };
        let hs = &mut hops.state[hop];
        hs.advance(t, self.warmup);
        hs.q_len += 1;
        let q_now = hs.q_len;
        hops.fifos[hop].push_back(fifo_word(flow, marked));
        if BYTES {
            hops.fifo_bytes[hop].push_back(size);
        }
        if self.wl.rto.is_some() {
            hops.fifo_attempt[hop].push_back(attempt);
        }
        if self.strict && BYTES {
            hops.assert_rings_synced(hop, t, "enqueue");
        }
        if Q::needs_observe(self.any_decbit) {
            Q::observe(&mut hops.qdisc[hop], t, q_now as f64);
        }
        // A down hop parks the arrival in the queue: service restarts
        // from `on_link_up`. An idle, up hop had an empty queue, so the
        // arriving packet is the head of line that enters service.
        if !hops.state[hop].busy && !hops.fault[hop].down {
            hops.start_service::<BYTES>(hop, t, rng, &mut self.ev); // draw: arrival.service — service for the packet entering an idle hop
        }
    }

    /// `hop` finishes its head of line: forward or deliver it.
    #[inline]
    fn on_departure(&mut self, t: f64, hop: usize) {
        let hops = &mut self.hops;
        let word = hops.fifos[hop].pop_front();
        let (flow, marked) = fifo_flow_marked(word.expect("departure from empty queue"));
        let mut size = 1.0f32;
        if BYTES {
            let head = hops.fifo_bytes[hop].pop_front();
            size = head.expect("departure from empty byte queue");
        }
        let mut attempt = 0;
        if self.wl.rto.is_some() {
            let head = hops.fifo_attempt[hop].pop_front();
            attempt = head.expect("departure from empty attempt queue");
        }
        if self.strict && BYTES {
            hops.assert_rings_synced(hop, t, "dequeue");
        }
        let fh = self.src.hot[flow];
        let exits = hop == fh.route.last;
        let hs = &mut hops.state[hop];
        hs.advance(t, self.warmup);
        if t >= self.warmup {
            hs.served += 1;
            if exits && flow < self.n_static {
                self.src.stats[flow].delivered += 1;
            }
        }
        if exits && flow >= self.n_static {
            // Workload conservation counters are never warm-up-gated;
            // only the FCT *samples* are.
            self.wl.counters.packets_delivered += 1;
            let d = &mut self.wl.slots[flow - self.n_static];
            d.delivered += 1;
            d.account(flow, t, &mut self.ev);
        }
        hs.q_len -= 1;
        let q_now = hs.q_len;
        if Q::needs_observe(self.any_decbit) {
            Q::observe(&mut hops.qdisc[hop], t, q_now as f64);
        }
        hops.fault[hop].sample_recovery(t, q_now);
        if !exits {
            // Forward to the next hop after one hop delay, carrying the
            // marks collected so far (and, in byte mode, the packet's
            // size factor; under RTO, its attempt index).
            let next = EventKind::Arrival {
                flow,
                hop: hop + 1,
                marked,
                size,
                attempt,
            };
            self.ev.push(t + fh.prop_delay, next);
        } else if fh.acked {
            // Leaves the network; window flows get an ack across the
            // whole return path.
            let back = t + fh.back_delay(hop);
            self.ev.push(back, EventKind::Ack { flow, marked });
        }
        // A hop that went down mid-service finished its packet
        // non-preemptively; it starts no successor until `on_link_up`
        // restarts it.
        if q_now > 0 && !hops.fault[hop].down {
            let rng = &mut self.rng;
            hops.start_service::<BYTES>(hop, t, rng, &mut self.ev); // draw: departure.service — service for the next head-of-line packet
        } else {
            hops.state[hop].busy = false;
        }
    }

    /// A rate flow reads its path bottleneck (the most congested queue
    /// on its route); the reading arrives one path delay stale.
    #[inline]
    fn on_observe(&mut self, t: f64, flow: usize) {
        let SourceSpec::Rate {
            update_interval, ..
        } = &self.flows[flow].source
        else {
            unreachable!("Observe for non-rate flow");
        };
        let fh = self.src.hot[flow];
        let observed_queue = (fh.route.first..=fh.route.last)
            .map(|h| self.hops.state[h].q_len)
            .max()
            .unwrap_or(0);
        let feedback = EventKind::Feedback {
            flow,
            observed_queue,
        };
        self.ev.push(t + fh.back_delay(fh.route.last), feedback);
        let next = t + update_interval;
        self.ev.push(next, EventKind::Observe { flow });
    }

    /// A rate flow's feedback lands: one rate-law update.
    #[inline]
    fn on_feedback(&mut self, flow: usize, observed_queue: u64) {
        let SourceSpec::Rate {
            law,
            update_interval,
            ..
        } = &self.flows[flow].source
        else {
            unreachable!("Feedback for non-rate flow")
        };
        let SourceState::Rate { lambda } = &mut self.src.states[flow] else {
            unreachable!("rate spec paired with non-rate state")
        };
        *lambda = rate_update(law, *lambda, observed_queue as f64, *update_interval);
    }

    /// A window/DECbit ack: update the window, send what it allows.
    #[inline]
    fn on_ack(&mut self, t: f64, flow: usize, marked: bool) {
        let rng = &mut self.rng;
        let (allowed, in_flight) = match (&self.flows[flow].source, &mut self.src.states[flow]) {
            (SourceSpec::Window { aimd, .. }, state) => {
                window_on_ack(aimd, state, marked);
                let SourceState::Window {
                    window, in_flight, ..
                } = state
                else {
                    unreachable!("window spec paired with non-window state")
                };
                (window.floor().max(1.0) as u64, in_flight)
            }
            (SourceSpec::Decbit { .. }, SourceState::Decbit { ctl, in_flight }) => {
                *in_flight = in_flight.saturating_sub(1);
                let _ = ctl.on_ack(marked);
                (ctl.window().floor().max(1.0) as u64, in_flight)
            }
            _ => unreachable!("Ack for a rate flow"),
        };
        let to_send = allowed.saturating_sub(*in_flight);
        *in_flight += to_send;
        if t >= self.warmup {
            self.src.stats[flow].sent += to_send;
        }
        let at = t + self.src.hot[flow].prop_delay;
        for _ in 0..to_send {
            self.src.emit::<BYTES>(flow, at, rng, &mut self.ev); // draw: ack.pkt — size factor per ack-clocked window packet
        }
    }

    /// A finite flow arrives: size, route, slot, burst, next arrival.
    #[inline]
    fn on_flow_arrival(&mut self, t: f64) {
        let rng = &mut self.rng;
        let w = self.workload.expect("FlowArrival without a workload");
        // Draw order is the §3f contract: size, route, next gap (one
        // f64 each; deterministic sizes draw nothing).
        let size = w.sizes.sample(rng); // draw: wl.flow.size — flow size in packets (deterministic dists draw nothing)
        let u: f64 = rng.gen::<f64>(); // draw: wl.flow.route — route-choice uniform
        let route = w.routes[sample_cumulative(&self.wl.route_cum, u)];
        if self.strict {
            self.audit.chk_route_draws += 1;
            if !matches!(w.sizes, FlowSizeDist::Deterministic { .. }) {
                self.audit.chk_size_draws += 1;
            }
        }
        // Finite flows are open-loop: no acks, no marking reaction
        // (q_hat = ∞ never self-marks).
        let fh = FlowHot {
            route,
            prop_delay: w.prop_delay,
            q_hat: f64::INFINITY,
            acked: false,
            decbit: false,
        };
        let ideal = ideal_fct_sized(
            &self.config.topology,
            route,
            size,
            w.prop_delay,
            self.wl.mean_factor,
        );
        let d = DynFlow {
            size,
            arrival_t: t,
            ideal,
            ..DynFlow::default()
        };
        let slot = match self.wl.free.pop() {
            Some(s) => {
                let s = s as usize;
                self.src.hot[self.n_static + s] = fh;
                self.wl.slots[s] = d;
                s
            }
            None => {
                self.src.hot.push(fh);
                self.wl.slots.push(d);
                self.wl.slots.len() - 1
            }
        };
        let flow = self.n_static + slot;
        assert!(
            flow < (1 << 31),
            "run_network: workload flow index exceeds the 31-bit FIFO word"
        );
        let c = &mut self.wl.counters;
        c.arrived += 1;
        c.active += 1;
        c.peak_active = c.peak_active.max(c.active);
        c.packets_sent += size;
        // The whole transfer enters as a paced burst (1 µs spacing, like
        // the window bootstrap), so an idle network completes it in
        // exactly `ideal_fct`. Byte mode draws each packet's size here,
        // after the route and before the next interarrival gap (§3f).
        for b in 0..size {
            let at = t + b as f64 * 1e-6 + w.prop_delay;
            self.src.emit::<BYTES>(flow, at, rng, &mut self.ev); // draw: wl.flow.pkt — size factor per workload-burst packet
        }
        if w.max_flows.is_none_or(|m| self.wl.counters.arrived < m) {
            let gap = w.arrivals.sample_interarrival(rng); // draw: wl.flow.gap — next interarrival gap
            if self.strict {
                self.audit.chk_gap_draws += 1;
            }
            let lane = self.wl.lane_arrival;
            self.ev.schedule_lane(lane, t + gap, EventKind::FlowArrival);
        }
    }

    /// A finite flow's last packet is accounted: sample its FCT.
    #[inline]
    fn on_flow_complete(&mut self, t: f64, flow: usize) {
        let w = self.workload.expect("FlowComplete without a workload");
        let wl = &mut self.wl;
        let slot = flow - self.n_static;
        let d = wl.slots[slot];
        wl.counters.active -= 1;
        wl.counters.completed += 1;
        if d.gave_up {
            wl.counters.flows_gave_up += 1;
        }
        if d.delivered == d.size {
            wl.counters.completed_clean += 1;
            // FCT/slowdown sample only the post-warm-up, fully
            // delivered population.
            if d.arrival_t >= self.warmup {
                let fct = t - d.arrival_t;
                wl.fcts.push(fct);
                wl.slowdowns.push(fct / d.ideal);
            }
        }
        // No event or FIFO word references the slot once the last packet
        // is accounted (in-flight packets are by definition
        // unaccounted), so reuse is safe. Slot numbering never feeds
        // times or RNG, so recycling on/off only moves
        // `slot_high_water`.
        if self.strict {
            assert!(
                !wl.free.contains(&(slot as u32)),
                "FPK_CHECK: flow slot {slot} completed while already on the free list"
            );
            assert_eq!(
                d.accounted, d.size,
                "FPK_CHECK: flow slot {slot} completed with {} of {} packets accounted",
                d.accounted, d.size
            );
        }
        if w.recycle_slots {
            wl.free.push(slot as u32);
        }
    }

    /// Record one trace sample and schedule the next.
    #[inline]
    fn on_sample(&mut self, t: f64) {
        self.trace.times.push(t);
        for hop in 0..self.hops.state.len() {
            self.trace.queues[hop].push(self.hops.state[hop].q_len as f64);
        }
        let ctl = self.src.states.iter().map(|s| match s {
            SourceState::Rate { lambda } => *lambda,
            SourceState::Window { window, .. } => *window,
            SourceState::Decbit { ctl, .. } => ctl.window(),
            SourceState::OnOff { on, .. } => f64::from(u8::from(*on)),
        });
        self.trace.ctl.extend(ctl);
        if self.strict {
            // Periodic structural audit: the sample clock is the one
            // low-rate event stream that is always present.
            self.ev.assert_valid();
        }
        self.trace.next += 1;
        if self.trace.next <= self.trace.last {
            // The multiple can round a hair past t_end; clamp so the
            // final sample still lands inside the horizon.
            let tk = (self.trace.next as f64 * self.config.sample_interval).min(self.t_end);
            self.ev.schedule_sample(tk);
        }
    }

    /// A flapping link goes down for an Exp(`up_rate`) outage; the
    /// packet in service still completes, then the queue parks.
    #[inline]
    fn on_link_down(&mut self, t: f64, hop: usize) {
        let rng = &mut self.rng;
        let FaultConfig::LinkFlap { up_rate, .. } = fault_at(&self.config.faults, hop) else {
            unreachable!("LinkDown on a hop without a LinkFlap fault")
        };
        let fs = &mut self.hops.fault[hop];
        fs.down = true;
        fs.transition(true, &self.hops.state[hop], t, self.warmup);
        fs.down_since = t;
        if self.strict {
            self.audit.fault_move();
        }
        let up = t + exp1(rng.gen()) / up_rate; // draw: fault.flap.downtime — outage-duration uniform
        let lane = self.hops.lane_fault[hop];
        self.ev.schedule_lane(lane, up, EventKind::LinkUp { hop });
    }

    /// A flapping link comes back up and restarts a stalled server.
    #[inline]
    fn on_link_up(&mut self, t: f64, hop: usize) {
        let rng = &mut self.rng;
        let FaultConfig::LinkFlap { down_rate, .. } = fault_at(&self.config.faults, hop) else {
            unreachable!("LinkUp on a hop without a LinkFlap fault")
        };
        let hops = &mut self.hops;
        let fs = &mut hops.fault[hop];
        fs.down = false;
        // Downtime is clamped to the measurement window, like every
        // other post-warm-up accumulator.
        fs.downtime += (t - fs.down_since.max(self.warmup)).max(0.0);
        fs.transition(false, &hops.state[hop], t, self.warmup);
        if self.strict {
            self.audit.fault_move();
        }
        // Restart the stalled server for the parked head of line, if
        // any packets accumulated during the outage.
        if hops.state[hop].q_len > 0 && !hops.state[hop].busy {
            hops.start_service::<BYTES>(hop, t, rng, &mut self.ev); // draw: fault.flap.resume — service restart for the parked head-of-line packet (expo hops only)
        }
        let down = t + exp1(rng.gen()) / down_rate; // draw: fault.flap.uptime — next up-time sojourn uniform
        self.ev
            .schedule_lane(hops.lane_fault[hop], down, EventKind::LinkDown { hop });
    }

    /// A Gilbert–Elliott chain flips state or a link toggles capacity.
    #[inline]
    fn on_fault_shift(&mut self, t: f64, hop: usize) {
        let rng = &mut self.rng;
        let hops = &mut self.hops;
        let fs = &mut hops.fault[hop];
        let next = match fault_at(&self.config.faults, hop) {
            FaultConfig::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                fs.bad = !fs.bad;
                fs.transition(fs.bad, &hops.state[hop], t, self.warmup);
                fs.loss = if fs.bad { loss_bad } else { loss_good };
                let exit_rate = if fs.bad { p_bg } else { p_gb };
                if self.strict {
                    self.audit.fault_move();
                }
                t + exp1(rng.gen()) / exit_rate // draw: fault.ge.sojourn — next Gilbert–Elliott state sojourn uniform
            }
            FaultConfig::Degrade { factor, period } => {
                // Deterministic capacity clock: zero draws. The
                // in-service packet keeps its scheduled departure; the
                // new μ applies from the next service start.
                fs.degraded = !fs.degraded;
                fs.transition(fs.degraded, &hops.state[hop], t, self.warmup);
                let mu = hops.link[hop].mu;
                fs.mu = if fs.degraded { mu * factor } else { mu };
                fs.det_service = 1.0 / fs.mu;
                t + period
            }
            FaultConfig::Iid { .. } | FaultConfig::LinkFlap { .. } => {
                unreachable!("FaultShift on a hop without a GE/Degrade fault")
            }
        };
        self.ev
            .schedule_lane(hops.lane_fault[hop], next, EventKind::FaultShift { hop });
    }
}
// lint: end

/// Fault process at `hop` (`faults` empty = fault-free everywhere).
fn fault_at(faults: &[FaultConfig], hop: usize) -> FaultConfig {
    faults.get(hop).copied().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpk_congestion::{LinearExp, WindowAimd};

    fn link(mu: f64) -> Link {
        Link {
            mu,
            service: Service::Exponential,
            buffer: None,
        }
    }

    fn window_flow(route: Route) -> FlowSpec {
        FlowSpec {
            source: SourceSpec::Window {
                aimd: WindowAimd::new(1.0, 0.5, 0.05, 10.0),
                w0: 2.0,
            },
            route,
        }
    }

    fn net(k: usize) -> NetConfig {
        NetConfig {
            topology: Topology::uniform(k, link(100.0)),
            faults: Vec::new(),
            t_end: 60.0,
            warmup: 12.0,
            sample_interval: 0.1,
            seed: 17,
            qdisc: QdiscKind::Fifo,
            packet_bytes: None,
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = net(3);
        let flows = vec![window_flow(Route::full(3)), window_flow(Route::single(1))];
        let a = run_network(&cfg, &flows).unwrap();
        let b = run_network(&cfg, &flows).unwrap();
        assert_eq!(a.flows[0].delivered, b.flows[0].delivered);
        assert_eq!(a.trace_q, b.trace_q);
    }

    #[test]
    fn per_hop_traces_and_means_recorded() {
        let cfg = net(3);
        let flows = vec![window_flow(Route::full(3))];
        let out = run_network(&cfg, &flows).unwrap();
        assert_eq!(out.trace_q.len(), 3);
        assert_eq!(out.mean_queue.len(), 3);
        assert_eq!(out.utilization.len(), 3);
        assert_eq!(out.trace_q[0].len(), out.trace_t.len());
        assert!(out.mean_queue.iter().all(|&q| q >= 0.0));
        assert!(out.flows[0].delivered > 0);
        assert_eq!(out.flows[0].hops, 3);
    }

    #[test]
    fn rate_sources_work_multi_hop() {
        // The scenario the legacy tandem could not express: a rate-based
        // JRJ source crossing several hops.
        let cfg = net(3);
        let flows = vec![FlowSpec {
            source: SourceSpec::Rate {
                law: LinearExp::new(8.0, 0.5, 10.0),
                lambda0: 20.0,
                update_interval: 0.1,
                prop_delay: 0.01,
                poisson: true,
            },
            route: Route::full(3),
        }];
        let out = run_network(&cfg, &flows).unwrap();
        assert!(out.flows[0].delivered > 100, "rate flow must deliver");
        assert!(out.flows[0].sent >= out.flows[0].delivered);
    }

    #[test]
    fn per_hop_faults_hit_only_their_hop() {
        // Loss only at hop 1: a hop-0 cross flow sees no drops, the
        // 2-hop flow does.
        let mut cfg = net(2);
        cfg.faults = vec![
            FaultConfig::Iid { loss_prob: 0.0 },
            FaultConfig::Iid { loss_prob: 0.15 },
        ];
        let flows = vec![window_flow(Route::full(2)), window_flow(Route::single(0))];
        let out = run_network(&cfg, &flows).unwrap();
        assert!(out.flows[0].dropped > 0, "2-hop flow crosses the lossy hop");
        assert_eq!(out.flows[1].dropped, 0, "hop-0 flow never sees hop 1");
    }

    #[test]
    fn per_hop_buffers_drop_where_small() {
        let mut cfg = net(2);
        cfg.topology.links[1].buffer = Some(2);
        cfg.topology.links[1].mu = 40.0; // hop 1 is the bottleneck
        let flows = vec![window_flow(Route::full(2))];
        let out = run_network(&cfg, &flows).unwrap();
        assert!(out.flows[0].dropped > 0, "tiny hop-1 buffer must drop");
        assert!(out.trace_q[1].iter().all(|&q| q <= 2.0));
    }

    #[test]
    fn hop_count_unfairness_reproduced() {
        // The fig8 mechanism through the unified engine: a long flow
        // crossing 3 hops against per-hop cross traffic is starved.
        let cfg = net(3);
        let mut flows = vec![window_flow(Route::full(3))];
        for hop in 0..3 {
            flows.push(window_flow(Route::single(hop)));
        }
        let out = run_network(&cfg, &flows).unwrap();
        let long = out.flows[0].throughput;
        for f in &out.flows[1..] {
            assert!(
                f.throughput > 1.3 * long,
                "cross ({}) must beat long ({long})",
                f.throughput
            );
        }
    }

    #[test]
    fn mixed_rate_and_window_share_a_tandem() {
        let cfg = net(2);
        let flows = vec![
            window_flow(Route::full(2)),
            FlowSpec {
                source: SourceSpec::Rate {
                    law: LinearExp::new(8.0, 0.5, 10.0),
                    lambda0: 10.0,
                    update_interval: 0.1,
                    prop_delay: 0.01,
                    poisson: true,
                },
                route: Route::single(1),
            },
        ];
        let out = run_network(&cfg, &flows).unwrap();
        assert!(out.flows.iter().all(|f| f.delivered > 0));
    }

    #[test]
    fn bottleneck_hop_is_argmax_mean_queue() {
        let r = NetResult {
            trace_t: vec![],
            trace_q: vec![],
            trace_ctl: vec![],
            flows: vec![],
            mean_queue: vec![1.0, 4.0, 4.0, 2.0],
            total_throughput: 0.0,
            utilization: vec![],
            capacity: 0.0,
            workload: None,
            downtime_frac: vec![],
            recovery_time: vec![],
        };
        assert_eq!(r.bottleneck_hop(), 1, "ties resolve to the lowest index");
    }

    #[test]
    fn rejects_bad_inputs() {
        let flows = vec![window_flow(Route::full(2))];
        // Route out of range.
        assert!(run_network(&net(1), &flows).is_err());
        // Empty topology.
        let mut cfg = net(2);
        cfg.topology.links.clear();
        assert!(run_network(&cfg, &flows).is_err());
        // Bad μ.
        let mut cfg = net(2);
        cfg.topology.links[1].mu = 0.0;
        assert!(run_network(&cfg, &flows).is_err());
        // Faults length mismatch.
        let mut cfg = net(2);
        cfg.faults = vec![FaultConfig::Iid { loss_prob: 0.1 }];
        assert!(run_network(&cfg, &flows).is_err());
        // Bad loss probability.
        let mut cfg = net(2);
        cfg.faults = vec![
            FaultConfig::Iid { loss_prob: 0.1 },
            FaultConfig::Iid { loss_prob: 1.0 },
        ];
        assert!(run_network(&cfg, &flows).is_err());
        // Empty flows.
        assert!(run_network(&net(2), &[]).is_err());
        // Non-finite timing parameters (the hot-path finiteness check
        // is debug-only, so validation must catch these up front).
        let nan_rate = FlowSpec::single_hop(SourceSpec::Rate {
            law: LinearExp::new(1.0, 0.5, 10.0),
            lambda0: 10.0,
            update_interval: 0.1,
            prop_delay: f64::NAN,
            poisson: true,
        });
        assert!(run_network(&net(1), &[nan_rate]).is_err());
        let inf_window = FlowSpec::single_hop(SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, f64::INFINITY, 10.0),
            w0: 2.0,
        });
        assert!(run_network(&net(1), &[inf_window]).is_err());
        let bad_interval = FlowSpec::single_hop(SourceSpec::Rate {
            law: LinearExp::new(1.0, 0.5, 10.0),
            lambda0: 10.0,
            update_interval: 0.0,
            prop_delay: 0.01,
            poisson: true,
        });
        assert!(run_network(&net(1), &[bad_interval]).is_err());
        // Bad warmup.
        let mut cfg = net(2);
        cfg.warmup = cfg.t_end;
        assert!(run_network(&cfg, &flows).is_err());
        // Non-finite run control, rejected by field name.
        let mu = |cfg: &mut NetConfig, v| cfg.topology.links[1].mu = v;
        let t_end = |cfg: &mut NetConfig, v| cfg.t_end = v;
        let sample = |cfg: &mut NetConfig, v| cfg.sample_interval = v;
        let cases: [(&str, fn(&mut NetConfig, f64)); 3] = [
            ("link mu", mu),
            ("t_end", t_end),
            ("sample_interval", sample),
        ];
        for (field, set) in cases {
            for v in [f64::INFINITY, f64::NAN] {
                let mut cfg = net(2);
                set(&mut cfg, v);
                match run_network(&cfg, &flows) {
                    Err(NumericsError::InvalidParameter { context }) => {
                        assert!(context.contains(field), "{field} = {v}: {context}");
                    }
                    other => panic!("{field} = {v} accepted: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn arena_reuse_is_bit_identical() {
        // Run A on a fresh arena, dirty the arena with a differently
        // shaped run, then re-run A: every number must come out
        // identical to the fresh-arena result.
        let cfg = net(3);
        let flows = vec![window_flow(Route::full(3)), window_flow(Route::single(1))];
        let mut arena = NetArena::new();
        let mut run = |cfg: &NetConfig, flows: &[FlowSpec]| {
            run_network_core(&mut arena, cfg, flows, None).unwrap()
        };
        let fresh = run(&cfg, &flows);
        run(&net(1), &[window_flow(Route::single(0))]);
        let reused = run(&cfg, &flows);
        assert_eq!(fresh.trace_t, reused.trace_t);
        assert_eq!(fresh.trace_q, reused.trace_q);
        assert_eq!(fresh.trace_ctl, reused.trace_ctl);
        for (a, b) in fresh.flows.iter().zip(&reused.flows) {
            assert_eq!(a.sent, b.sent);
            assert_eq!(a.delivered, b.delivered);
            assert_eq!(a.dropped, b.dropped);
        }
        let fresh_mq: Vec<u64> = fresh.mean_queue.iter().map(|q| q.to_bits()).collect();
        let reused_mq: Vec<u64> = reused.mean_queue.iter().map(|q| q.to_bits()).collect();
        assert_eq!(fresh_mq, reused_mq);
    }

    #[test]
    fn marks_compound_along_the_route() {
        // A tight q̂ at every hop: the long flow's ack marks come from
        // any congested hop, so its window is cut more often than a
        // single-hop flow with the same parameters sees.
        let mk = |route: Route| FlowSpec {
            source: SourceSpec::Window {
                aimd: WindowAimd::new(1.0, 0.5, 0.05, 2.0),
                w0: 2.0,
            },
            route,
        };
        let mut cfg = net(3);
        cfg.topology = Topology::uniform(3, link(60.0));
        let mut flows = vec![mk(Route::full(3))];
        for hop in 0..3 {
            flows.push(mk(Route::single(hop)));
        }
        let out = run_network(&cfg, &flows).unwrap();
        let long = out.flows[0].throughput;
        let best_cross = out.flows[1..]
            .iter()
            .map(|f| f.throughput)
            .fold(f64::MIN, f64::max);
        assert!(
            long < best_cross,
            "compounded marks must cost the long flow"
        );
    }

    /// Every hop-level discipline must tame the queue a lax per-flow
    /// policy lets grow: window elephants whose own q̂ is far above the
    /// discipline's threshold see early marks only from the hop, so the
    /// mean queue under ThresholdMark / AveragedMark / RedMark must sit
    /// below the FIFO baseline.
    #[test]
    fn hop_disciplines_cut_the_queue_fifo_allows() {
        let lax = |route: Route| FlowSpec {
            source: SourceSpec::Window {
                aimd: WindowAimd::new(1.0, 0.5, 0.05, 30.0),
                w0: 2.0,
            },
            route,
        };
        let mut cfg = net(1);
        cfg.topology = Topology::uniform(1, link(60.0));
        let flows = vec![lax(Route::single(0)), lax(Route::single(0))];
        let mean_q = |qdisc: QdiscKind| {
            let mut c = cfg.clone();
            c.qdisc = qdisc;
            run_network(&c, &flows).unwrap().mean_queue[0]
        };
        let fifo = mean_q(QdiscKind::Fifo);
        for (name, qdisc) in [
            ("threshold", QdiscKind::ThresholdMark { threshold: 5.0 }),
            ("averaged", QdiscKind::AveragedMark { threshold: 2.5 }),
            (
                "red",
                QdiscKind::RedMark {
                    min_th: 2.5,
                    max_th: 10.0,
                    max_p: 0.1,
                    weight: 0.05,
                },
            ),
        ] {
            let q = mean_q(qdisc);
            assert!(
                q < fifo,
                "{name}: mean queue {q} should undercut the FIFO baseline {fifo}"
            );
        }
    }

    /// RED's uniform marking draw comes off the run's single RNG lane,
    /// so runs repeat bit for bit like every other configuration.
    #[test]
    fn red_runs_are_deterministic_for_seed() {
        let mut cfg = net(2);
        cfg.qdisc = QdiscKind::RedMark {
            min_th: 2.5,
            max_th: 10.0,
            max_p: 0.1,
            weight: 0.05,
        };
        let flows = vec![window_flow(Route::full(2)), window_flow(Route::single(0))];
        let a = run_network(&cfg, &flows).unwrap();
        let b = run_network(&cfg, &flows).unwrap();
        assert_eq!(a.trace_q, b.trace_q);
        assert_eq!(a.flows[0].delivered, b.flows[0].delivered);
        assert_eq!(
            a.mean_queue[0].to_bits(),
            b.mean_queue[0].to_bits(),
            "RED perturbed determinism"
        );
    }

    /// Byte mode with a heavier-than-reference deterministic size slows
    /// every transmission by the same factor, so the delivered count
    /// must drop against the unit-packet run of the same scenario.
    #[test]
    fn heavier_bytes_slow_the_network() {
        let cfg = net(1);
        let flows = vec![window_flow(Route::single(0))];
        let unit = run_network(&cfg, &flows).unwrap();
        let mut heavy_cfg = cfg;
        heavy_cfg.packet_bytes = Some(PacketBytes {
            dist: crate::workload::FlowSizeDist::Deterministic { packets: 3000 },
            ref_bytes: crate::units::Bytes(1000.0),
        });
        let heavy = run_network(&heavy_cfg, &flows).unwrap();
        assert!(
            heavy.flows[0].delivered < unit.flows[0].delivered,
            "3x packets must deliver less: {} vs {}",
            heavy.flows[0].delivered,
            unit.flows[0].delivered
        );
    }

    #[test]
    fn validate_rejects_bad_qdisc_and_packet_bytes() {
        let flows = vec![window_flow(Route::single(0))];
        let bad = |f: &dyn Fn(&mut NetConfig)| {
            let mut cfg = net(1);
            f(&mut cfg);
            run_network(&cfg, &flows).is_err()
        };
        assert!(bad(&|c| c.qdisc = QdiscKind::ThresholdMark {
            threshold: f64::NAN
        }));
        assert!(bad(
            &|c| c.qdisc = QdiscKind::AveragedMark { threshold: -1.0 }
        ));
        assert!(bad(&|c| c.qdisc = QdiscKind::RedMark {
            min_th: 10.0,
            max_th: 2.5, // inverted thresholds
            max_p: 0.1,
            weight: 0.05,
        }));
        assert!(bad(&|c| c.qdisc = QdiscKind::RedMark {
            min_th: 2.5,
            max_th: 10.0,
            max_p: 1.5, // not a probability
            weight: 0.05,
        }));
        assert!(bad(&|c| c.qdisc = QdiscKind::RedMark {
            min_th: 2.5,
            max_th: 10.0,
            max_p: 0.1,
            weight: 0.0, // EWMA would never move
        }));
        assert!(bad(&|c| c.packet_bytes = Some(PacketBytes {
            dist: crate::workload::FlowSizeDist::Deterministic { packets: 1 },
            ref_bytes: crate::units::Bytes(0.0), // zero reference
        })));
        assert!(bad(&|c| c.packet_bytes = Some(PacketBytes {
            dist: crate::workload::FlowSizeDist::Exponential { mean: -2.0 },
            ref_bytes: crate::units::Bytes(1000.0),
        })));
    }

    /// Lossless tandem of exponential links, one per μ: 300 s horizon,
    /// one trace sample at each end.
    fn tandem(mu: &[f64]) -> NetConfig {
        NetConfig {
            topology: Topology {
                links: mu.iter().map(|&mu| link(mu)).collect(),
            },
            t_end: 300.0,
            warmup: 60.0,
            sample_interval: 300.0,
            ..net(mu.len())
        }
    }

    #[test]
    fn single_hop_single_flow_works() {
        let out = run_network(&tandem(&[100.0]), &[window_flow(Route::single(0))]).unwrap();
        assert!(
            out.flows[0].delivered > 1000,
            "delivered {}",
            out.flows[0].delivered
        );
        assert_eq!(out.flows[0].hops, 1);
        assert!(out.mean_queue[0] > 0.0);
    }

    #[test]
    fn more_hops_means_less_throughput() {
        // Three flows with 1, 2, 3 hops on a 3-queue tandem, all starting
        // at hop 0: throughput ordering must be hops-monotone.
        let flows: Vec<FlowSpec> = (0..3)
            .map(|last| window_flow(Route { first: 0, last }))
            .collect();
        let out = run_network(&tandem(&[100.0; 3]), &flows).unwrap();
        let t: Vec<f64> = out.flows.iter().map(|f| f.throughput).collect();
        assert!(
            t[0] > t[1] && t[1] > t[2],
            "throughput must fall with hop count: {t:?}"
        );
    }

    #[test]
    fn lossless_tandem_books_balance() {
        // On a lossless infinite-buffer tandem every sent packet is
        // eventually delivered or still in flight.
        let out = run_network(&tandem(&[100.0; 2]), &[window_flow(Route::full(2))]).unwrap();
        let f = &out.flows[0];
        assert!(f.sent > 0, "sent counter must be recorded");
        assert_eq!(f.dropped, 0, "the tandem is lossless");
        assert!(
            f.sent >= f.delivered,
            "sent {} < delivered {}",
            f.sent,
            f.delivered
        );
    }

    #[test]
    fn utilisation_sane_on_saturated_tandem() {
        // A single aggressive flow across 2 hops: the first queue's
        // throughput bounds the second's arrivals; both mean queues
        // finite, end-to-end delivery positive.
        let flow = FlowSpec {
            source: SourceSpec::Window {
                aimd: WindowAimd::new(4.0, 0.5, 0.02, 20.0),
                w0: 8.0,
            },
            route: Route::full(2),
        };
        // Hop 0 is the bottleneck.
        let out = run_network(&tandem(&[50.0, 100.0]), &[flow]).unwrap();
        assert!(out.flows[0].throughput > 20.0);
        assert!(out.flows[0].throughput <= 51.0);
        assert!(out.mean_queue[0] > out.mean_queue[1]);
    }
}
