//! A [`Scenario`] is a named, self-contained description of one DES
//! experiment: a [`NetConfig`] (topology, per-hop faults, run control,
//! queue discipline, packet sizing), traffic sources with optional
//! per-source [`Route`]s, and an optional finite-flow [`Workload`].
//!
//! Scenarios are the unit the sweep/ensemble machinery replicates: a
//! scenario plus a seed fully determines a run, and
//! [`Scenario::run_seeded`] reduces the run to the
//! [`RunSummary`] the aggregation layer consumes.
//! Every scenario — single-bottleneck or multi-hop — runs through the
//! one topology-first engine (`fpk_sim::run_network`), so sweeps over
//! topology axes (hop count, per-hop μ, route span) compose with every
//! existing axis.

use fpk_numerics::{NumericsError, Result};
use fpk_sim::{
    run_network_summary, FaultConfig, FlowSpec, NetArena, NetConfig, PacketBytes, Route,
    RunSummary, SimConfig, SourceSpec, Topology, Workload,
};
use serde::Serialize;

/// A named bundle of everything one simulation run needs except the
/// seed.
#[derive(Debug, Clone, Serialize)]
pub struct Scenario {
    /// Human-readable name; sweep cells append their coordinates.
    pub name: String,
    /// The network every run uses. `net.faults` holds one entry per
    /// link ([`Self::set_topology`] keeps it so); `net.seed` is replaced
    /// by each run's seed.
    pub net: NetConfig,
    /// Traffic sources feeding the network.
    pub sources: Vec<SourceSpec>,
    /// Per-source routes, aligned with `sources`. `None` = every flow
    /// crosses the full topology (for the single bottleneck that is the
    /// classic one-hop path).
    pub routes: Option<Vec<Route>>,
    /// Finite-flow workload running alongside (or instead of) the
    /// static `sources`: open-loop arrivals, flow sizes, Zipf route
    /// popularity. When set, the summary's
    /// [`RunSummary::workload`] carries FCT/slowdown statistics.
    /// `sources` may be empty iff this is set.
    pub workload: Option<Workload>,
    /// Fraction of the queue trace analysed for oscillation in the
    /// summary (validated by `fpk_sim::metrics`).
    pub tail_fraction: f64,
}

impl Scenario {
    /// A single-bottleneck scenario on the link `config` describes
    /// ([`NetConfig::single_link`]), with no faults and the default
    /// oscillation tail (the final half of the trace).
    #[must_use]
    pub fn new(name: impl Into<String>, config: SimConfig, sources: Vec<SourceSpec>) -> Self {
        Self {
            name: name.into(),
            net: NetConfig::single_link(&config, FaultConfig::default()),
            sources,
            routes: None,
            workload: None,
            tail_fraction: 0.5,
        }
    }

    /// Inject `faults` at every hop.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.set_faults(faults);
        self
    }

    /// Replace the network's links ([`Self::set_topology`]).
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.set_topology(topology);
        self
    }

    /// Pin each source to a route (aligned with `sources`; without this
    /// every flow crosses the full topology).
    #[must_use]
    pub fn with_routes(mut self, routes: Vec<Route>) -> Self {
        self.routes = Some(routes);
        self
    }

    /// Per-hop fault injection (one [`FaultConfig`] per link).
    #[must_use]
    pub fn with_hop_faults(mut self, hop_faults: Vec<FaultConfig>) -> Self {
        self.net.faults = hop_faults;
        self
    }

    /// Attach a finite-flow workload (open-loop arrivals over the
    /// topology). With a workload, `sources` may be empty.
    #[must_use]
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Enable byte-granular packets: every packet draws its size from
    /// the distribution and takes `bytes / ref_bytes` nominal service
    /// times.
    #[must_use]
    pub fn with_packet_bytes(mut self, packet_bytes: PacketBytes) -> Self {
        self.net.packet_bytes = Some(packet_bytes);
        self
    }

    /// Replace the network's links, keeping one fault entry per link: a
    /// shorter topology drops the trailing hops' faults, a longer one
    /// gives the new hops hop 0's fault (as [`Topology::uniform`]
    /// repeats one link).
    pub fn set_topology(&mut self, topology: Topology) {
        let hop0 = self.net.faults.first().copied().unwrap_or_default();
        self.net.faults.resize(topology.len(), hop0);
        self.net.topology = topology;
    }

    /// Inject `faults` at every hop (the fault axes' apply).
    pub(crate) fn set_faults(&mut self, faults: FaultConfig) {
        self.net.faults.clear();
        self.net.faults.resize(self.net.topology.len(), faults);
    }

    /// The [`NetConfig`] + [`FlowSpec`] list for a run under `seed`:
    /// `net` with its seed replaced, and one flow per source on its
    /// route.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] when `routes` is set but its
    /// length disagrees with `sources`.
    pub fn network(&self, seed: u64) -> Result<(NetConfig, Vec<FlowSpec>)> {
        if let Some(routes) = &self.routes {
            if routes.len() != self.sources.len() {
                return Err(NumericsError::InvalidParameter {
                    context: "Scenario: routes must align one-to-one with sources",
                });
            }
        }
        let k = self.net.topology.len();
        let flows: Vec<FlowSpec> = self
            .sources
            .iter()
            .enumerate()
            .map(|(i, s)| FlowSpec {
                source: s.clone(),
                route: self
                    .routes
                    .as_ref()
                    .map_or_else(|| Route::full(k), |r| r[i]),
            })
            .collect();
        let net = NetConfig {
            seed,
            ..self.net.clone()
        };
        Ok((net, flows))
    }

    /// Run the scenario under the given seed and summarise it.
    ///
    /// # Errors
    /// Propagates simulator configuration/validation errors and summary
    /// (fairness/oscillation) errors.
    pub fn run_seeded(&self, seed: u64) -> Result<RunSummary> {
        self.run_seeded_in(&mut NetArena::new(), seed)
    }

    /// [`Self::run_seeded`] against caller-owned scratch state, through
    /// [`run_network_summary`]: the trace buffers go back into the arena
    /// after the summary, so a replication loop holding one arena
    /// performs no per-run trace allocation. Output is bit-identical to
    /// [`Self::run_seeded`].
    ///
    /// # Errors
    /// Same contract as [`Self::run_seeded`].
    pub fn run_seeded_in(&self, arena: &mut NetArena, seed: u64) -> Result<RunSummary> {
        let (net, flows) = self.network(seed)?;
        let workload = self.workload.as_ref();
        run_network_summary(arena, &net, &flows, workload, self.tail_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpk_congestion::{LinearExp, WindowAimd};
    use fpk_sim::{run_network, summarize_network, Link, Service};

    fn config() -> SimConfig {
        SimConfig {
            mu: 50.0,
            service: Service::Exponential,
            buffer: None,
            t_end: 20.0,
            warmup: 4.0,
            sample_interval: 0.1,
            seed: 0,
        }
    }

    fn base() -> Scenario {
        Scenario::new(
            "unit",
            config(),
            vec![SourceSpec::Rate {
                law: LinearExp::new(8.0, 0.5, 10.0),
                lambda0: 20.0,
                update_interval: 0.1,
                prop_delay: 0.01,
                poisson: true,
            }],
        )
    }

    #[test]
    fn run_seeded_is_deterministic_and_seed_sensitive() {
        let sc = base();
        let a = sc.run_seeded(7).unwrap();
        let b = sc.run_seeded(7).unwrap();
        let c = sc.run_seeded(8).unwrap();
        assert_eq!(a.throughputs, b.throughputs);
        assert!(
            (a.throughputs[0] - c.throughputs[0]).abs() > 1e-12,
            "different seeds should perturb the throughput"
        );
    }

    #[test]
    fn seed_field_in_config_is_ignored() {
        let mut sc = base();
        sc.net.seed = 1;
        let a = sc.run_seeded(7).unwrap();
        sc.net.seed = 2;
        let b = sc.run_seeded(7).unwrap();
        assert_eq!(a.throughputs, b.throughputs);
    }

    #[test]
    fn single_bottleneck_summary_matches_full_trace_path() {
        // A summary on a reused arena must not move any number: the
        // scenario summary equals a fresh run_network on the single link
        // + summarize_network on the same seed, field for field.
        let sc = base().with_faults(FaultConfig::Iid { loss_prob: 0.02 });
        let mut arena = NetArena::new();
        sc.run_seeded_in(&mut arena, 5).unwrap();
        let via_scenario = sc.run_seeded_in(&mut arena, 11).unwrap();
        let cfg = SimConfig {
            seed: 11,
            ..config()
        };
        let flows: Vec<FlowSpec> = sc
            .sources
            .iter()
            .cloned()
            .map(FlowSpec::single_hop)
            .collect();
        let direct = run_network(
            &NetConfig::single_link(&cfg, FaultConfig::iid(0.02)),
            &flows,
        )
        .unwrap();
        let via_full = summarize_network(&direct, sc.tail_fraction).unwrap();
        assert_eq!(via_scenario.throughputs, via_full.throughputs);
        assert_eq!(
            via_scenario.mean_queue.to_bits(),
            via_full.mean_queue.to_bits()
        );
        assert_eq!(
            via_scenario.utilization.to_bits(),
            via_full.utilization.to_bits()
        );
        assert_eq!(via_scenario.jain.to_bits(), via_full.jain.to_bits());
        assert_eq!(via_scenario.total_dropped, via_full.total_dropped);
        assert_eq!(via_scenario.ctl_std, via_full.ctl_std);
    }

    #[test]
    fn topology_scenario_runs_multi_hop() {
        let flow = |_: usize| SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, 0.04, 10.0),
            w0: 2.0,
        };
        let sc = base()
            .with_topology(Topology::uniform(
                2,
                Link {
                    mu: 60.0,
                    service: Service::Exponential,
                    buffer: None,
                },
            ))
            .with_routes(vec![
                Route { first: 0, last: 1 },
                Route::single(0),
                Route::single(1),
            ]);
        let sc = Scenario {
            sources: vec![flow(0), flow(1), flow(2)],
            net: NetConfig {
                t_end: 30.0,
                warmup: 5.0,
                ..sc.net
            },
            ..sc
        };
        let s = sc.run_seeded(3).unwrap();
        assert_eq!(s.throughputs.len(), 3);
        assert!(s.utilization > 0.0 && s.jain > 0.0);
        // The unified engine records per-hop traces, so multi-hop
        // scenarios now get control-variability and oscillation data the
        // legacy tandem path never had.
        assert_eq!(s.ctl_std.len(), 3);
    }

    #[test]
    fn routes_default_to_full_path() {
        let sc = base().with_topology(Topology::uniform(
            3,
            Link {
                mu: 80.0,
                service: Service::Exponential,
                buffer: None,
            },
        ));
        let (net, flows) = sc.network(1).unwrap();
        assert_eq!(net.topology.len(), 3);
        assert_eq!(flows[0].route, Route { first: 0, last: 2 });
    }

    #[test]
    fn faults_replicate_across_hops_unless_overridden() {
        let sc = base()
            .with_topology(Topology::uniform(
                2,
                Link {
                    mu: 80.0,
                    service: Service::Exponential,
                    buffer: None,
                },
            ))
            .with_faults(FaultConfig::Iid { loss_prob: 0.1 });
        let (net, _) = sc.network(1).unwrap();
        assert_eq!(net.faults.len(), 2);
        assert!(net.faults.iter().all(|f| *f == FaultConfig::iid(0.1)));

        let sc = sc.with_hop_faults(vec![
            FaultConfig::Iid { loss_prob: 0.0 },
            FaultConfig::Iid { loss_prob: 0.2 },
        ]);
        let (net, _) = sc.network(1).unwrap();
        assert_eq!(net.faults[0], FaultConfig::iid(0.0));
        assert_eq!(net.faults[1], FaultConfig::iid(0.2));
    }

    #[test]
    fn misaligned_routes_rejected() {
        let sc = base().with_routes(vec![Route::single(0), Route::single(0)]);
        assert!(sc.run_seeded(1).is_err());
    }
}
