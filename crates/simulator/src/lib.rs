//! `fpk-sim` — a deterministic discrete-event simulator of a bottleneck
//! queue fed by adaptive sources.
//!
//! This is the packet-level substrate standing in for the measurement
//! systems the paper leans on (Jacobson's BSD TCP measurements, Zhang's
//! simulator): it exercises the same feedback loop the Fokker–Planck and
//! fluid models abstract — send, queue, mark/observe, adapt — at per-
//! packet granularity with real stochastic variability (Poisson sources,
//! exponential service).
//!
//! * [`event`] — deterministic event queue: a 4-ary indexed min-heap on
//!   packed `(t, seq)` keys with merged side lanes for one-pending
//!   event streams (FIFO tie-break, bit-identical to the reference
//!   `BinaryHeap` ordering).
//! * [`source`] — rate-based sources (Eq. 2 integrated over feedback
//!   epochs) and window-based AIMD sources (Eq. 1, DECbit marks).
//! * [`network`] — **the** simulation loop, topology-first: an ordered
//!   chain of links ([`Topology`]) crossed by flows on contiguous
//!   routes ([`FlowSpec`]), with per-hop service/buffers/faults/traces
//!   and DECbit marking at any congested hop. The classic single
//!   bottleneck is [`NetConfig::single_link`] with
//!   [`FlowSpec::single_hop`] flows.
//! * [`engine`] — the single-bottleneck shorthand ([`SimConfig`]: one
//!   link plus run control, turned into a [`NetConfig`] by
//!   [`NetConfig::single_link`]), [`Service`], and the per-hop fault
//!   model ([`FaultConfig`]).
//! * [`workload`] — finite-flow populations: open-loop arrivals
//!   (Poisson / heavy-tailed Pareto), flow-size distributions, Zipf
//!   route popularity, and FCT/slowdown summaries
//!   ([`run_network_workload`]).
//! * [`metrics`] — fairness/oscillation summaries of a run ([`RunSummary`]):
//!   one reduction, [`summarize_network`], which [`run_network_summary`]
//!   applies to a run on a reusable [`NetArena`] (the sweep path; no
//!   per-run trace allocation after the arena's first run). Every run
//!   records its queue and control traces, each an
//!   [`fpk_numerics::Series`]: one row per sample, one column per hop
//!   (`trace_q`) or per flow (`trace_ctl`).
//!
//! Every run is reproducible from its seed; `EXPERIMENTS.md` (workspace
//! root) records the seeds each experiment binary uses.
//!
//! # Example
//!
//! One adaptive JRJ source against a deterministic bottleneck, short
//! horizon (identical seeds give identical results):
//!
//! ```
//! use fpk_congestion::LinearExp;
//! use fpk_sim::{run_network, FaultConfig, FlowSpec, NetConfig, Service, SimConfig, SourceSpec};
//!
//! let cfg = SimConfig {
//!     mu: 50.0, service: Service::Deterministic, buffer: None,
//!     t_end: 5.0, warmup: 1.0, sample_interval: 0.1, seed: 7,
//! };
//! let flows = [FlowSpec::single_hop(SourceSpec::Rate {
//!     law: LinearExp::new(8.0, 0.5, 10.0),
//!     lambda0: 20.0, update_interval: 0.1, prop_delay: 0.01, poisson: true,
//! })];
//! let net = NetConfig::single_link(&cfg, FaultConfig::default());
//! let out = run_network(&net, &flows).unwrap();
//! let rerun = run_network(&net, &flows).unwrap();
//! assert!(out.total_throughput > 0.0);
//! assert_eq!(out.trace_q, rerun.trace_q);
//! // One queue column per hop, one row per 0.1 s sample from t = 0.
//! assert_eq!((out.trace_q.width(), out.trace_q.len()), (1, 51));
//! assert!(out.trace_q.col(0).all(|q| q >= 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod engine;
pub mod event;
pub mod metrics;
pub mod network;
pub mod qdisc;
pub mod source;
pub mod units;
pub mod workload;

pub use engine::{FaultConfig, Service, SimConfig};
pub use metrics::{run_network_summary, summarize_network, RunSummary};
pub use network::{
    run_network, run_network_workload, FlowSpec, Link, NetArena, NetConfig, NetFlowStats,
    NetResult, Route, Topology,
};
pub use qdisc::{
    red_mark_probability, AveragedMark, Fifo, HopQdiscState, QDisc, QdiscKind, QdiscParams,
    RedMark, ThresholdMark,
};
pub use source::SourceSpec;
pub use units::Bytes;
pub use workload::{
    ideal_fct, ideal_fct_sized, zipf_weights, ArrivalProcess, DistSummary, FlowSizeDist,
    PacketBytes, RtoPolicy, Workload, WorkloadStats,
};
