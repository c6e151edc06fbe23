//! [`Sweep`] — expand parameter axes into a cartesian grid of seeded
//! [`Scenario`] cells.
//!
//! Each axis pairs a list of values with an *apply* function that
//! imprints the value onto a scenario; the sweep takes the cartesian
//! product of all axes (last axis fastest, row-major) and derives one
//! deterministic seed per cell splitmix-style from
//! `(base_seed, cell_index)`. Cell seeds depend only on the base seed
//! and the cell's linear index, so reordering the execution (or running
//! it on a different thread count) cannot change any result.

use crate::scenario::Scenario;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// The function an [`Axis`] uses to imprint a value onto a scenario.
pub type ApplyFn = Arc<dyn Fn(&mut Scenario, f64) + Send + Sync>;

/// One sweep dimension: a named list of values plus how to apply them.
#[derive(Clone)]
pub struct Axis {
    /// Axis name (appears in cell names and the sweep report).
    pub name: String,
    /// The grid points along this axis.
    pub values: Vec<f64>,
    apply: ApplyFn,
}

impl fmt::Debug for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Axis")
            .field("name", &self.name)
            .field("values", &self.values)
            .finish_non_exhaustive()
    }
}

impl Axis {
    /// An axis with a custom apply function.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        values: Vec<f64>,
        apply: impl Fn(&mut Scenario, f64) + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            values,
            apply: Arc::new(apply),
        }
    }

    /// An axis that only labels cells — the value is consumed by a
    /// custom per-cell evaluator, not by the scenario itself (e.g. a
    /// fluid-model sweep that ignores the DES bundle).
    #[must_use]
    pub fn label_only(name: impl Into<String>, values: Vec<f64>) -> Self {
        Self::new(name, values, |_, _| {})
    }

    /// Sweep the service rate μ of every link.
    #[must_use]
    pub fn mu(values: Vec<f64>) -> Self {
        Self::new("mu", values, |sc, v| {
            for link in &mut sc.net.topology.links {
                link.mu = v;
            }
        })
    }

    /// Sweep the μ of one specific hop (the index is clamped to the
    /// last link).
    #[must_use]
    pub fn hop_mu(hop: usize, values: Vec<f64>) -> Self {
        Self::new(format!("mu{hop}"), values, move |sc, v| {
            let links = &mut sc.net.topology.links;
            let last = links.len().saturating_sub(1);
            links[hop.min(last)].mu = v;
        })
    }

    /// Sweep the hop count: resize the topology to round(v) copies of
    /// its first link. The default all-hops routing (`routes: None`)
    /// adapts by itself. Explicit routes that spanned the whole
    /// previous *multi-hop* topology stretch to span the new one; all
    /// other explicit routes (including every route on a 1-link base,
    /// where "full span" and "pinned to hop 0" are indistinguishable)
    /// stay put, clamped into range. Per-hop faults follow
    /// [`Scenario::set_topology`]: surviving hops keep their entries,
    /// new hops get hop 0's fault.
    #[must_use]
    pub fn hop_count(values: Vec<f64>) -> Self {
        Self::new("hops", values, |sc, v| {
            let k = (v.round().max(1.0)) as usize;
            let old_k = sc.net.topology.len();
            sc.set_topology(fpk_sim::Topology::uniform(k, sc.net.topology.links[0]));
            if let Some(routes) = &mut sc.routes {
                for r in routes {
                    if old_k > 1 && r.first == 0 && r.last == old_k - 1 {
                        *r = fpk_sim::Route::full(k);
                    } else {
                        r.first = r.first.min(k - 1);
                        r.last = r.last.min(k - 1);
                    }
                }
            }
        })
    }

    /// Sweep the route span: every flow crosses hops `0..round(v)`
    /// (clamped to the topology).
    #[must_use]
    pub fn route_span(values: Vec<f64>) -> Self {
        Self::new("span", values, |sc, v| {
            let k = sc.net.topology.len();
            let span = (v.round().max(1.0) as usize).min(k);
            sc.routes = Some(vec![fpk_sim::Route::full(span); sc.sources.len()]);
        })
    }

    /// Sweep the buffer limit of every link; non-finite values mean
    /// "infinite".
    #[must_use]
    pub fn buffer(values: Vec<f64>) -> Self {
        Self::new("buffer", values, |sc, v| {
            let buffer = if v.is_finite() { Some(v as u64) } else { None };
            for link in &mut sc.net.topology.links {
                link.buffer = buffer;
            }
        })
    }

    /// Sweep the fault-injection loss probability (i.i.d. loss on
    /// every hop).
    #[must_use]
    pub fn loss_prob(values: Vec<f64>) -> Self {
        Self::new("loss_prob", values, |sc, v| {
            sc.set_faults(fpk_sim::FaultConfig::Iid { loss_prob: v });
        })
    }

    /// Sweep the fault *model* of every hop by coded value: `round(v)`
    /// selects 0 = fault-free, 1 = i.i.d. 2% loss, 2 = Gilbert–Elliott
    /// bursts (good↔bad at 0.5/2 Hz, 0%/10% loss — same 2% long-run
    /// average loss as code 1, concentrated in bursts), 3 = link
    /// flapping (down 0.1 Hz, up 1 Hz — ≈9% downtime), ≥ 4 = periodic
    /// capacity degradation (μ halved every 5 s). For other
    /// parameterisations use [`Axis::new`] with a custom apply that
    /// writes every entry of `net.faults`.
    #[must_use]
    pub fn fault_model(values: Vec<f64>) -> Self {
        Self::new("fault", values, |sc, v| {
            sc.set_faults(match v.round() as i64 {
                0 => fpk_sim::FaultConfig::Iid { loss_prob: 0.0 },
                1 => fpk_sim::FaultConfig::Iid { loss_prob: 0.02 },
                2 => fpk_sim::FaultConfig::GilbertElliott {
                    p_gb: 0.5,
                    p_bg: 2.0,
                    loss_good: 0.0,
                    loss_bad: 0.10,
                },
                3 => fpk_sim::FaultConfig::LinkFlap {
                    up_rate: 1.0,
                    down_rate: 0.1,
                },
                _ => fpk_sim::FaultConfig::Degrade {
                    factor: 0.5,
                    period: 5.0,
                },
            });
        })
    }

    /// Sweep the workload's RTO retransmission policy by retry budget:
    /// `round(v)` = 0 removes the policy (drops are final), n ≥ 1 sets
    /// an [`fpk_sim::RtoPolicy`] with `rto_base` 0.05 s, backoff ×2,
    /// and `max_retries = n`. No-op on scenarios without a workload.
    #[must_use]
    pub fn rto_policy(values: Vec<f64>) -> Self {
        Self::new("rto", values, |sc, v| {
            if let Some(w) = &mut sc.workload {
                let n = v.round().max(0.0) as u32;
                w.rto = (n >= 1).then_some(fpk_sim::RtoPolicy {
                    rto_base: 0.05,
                    backoff: 2.0,
                    max_retries: n,
                });
            }
        })
    }

    /// Sweep the initial window `w0` of every window/DECbit source.
    #[must_use]
    pub fn w0(values: Vec<f64>) -> Self {
        Self::new("w0", values, |sc, v| {
            for src in &mut sc.sources {
                match src {
                    fpk_sim::SourceSpec::Window { w0, .. }
                    | fpk_sim::SourceSpec::Decbit { w0, .. } => *w0 = v,
                    fpk_sim::SourceSpec::Rate { .. } | fpk_sim::SourceSpec::OnOff { .. } => {}
                }
            }
        })
    }

    /// Sweep the one-way propagation delay of every source (window and
    /// DECbit sources store it as an RTT, i.e. `2 × delay`).
    #[must_use]
    pub fn delay(values: Vec<f64>) -> Self {
        Self::new("delay", values, |sc, v| {
            for src in &mut sc.sources {
                match src {
                    fpk_sim::SourceSpec::Rate { prop_delay, .. }
                    | fpk_sim::SourceSpec::OnOff { prop_delay, .. } => *prop_delay = v,
                    fpk_sim::SourceSpec::Window { aimd, .. } => aimd.rtt = 2.0 * v,
                    fpk_sim::SourceSpec::Decbit { rtt, .. } => *rtt = 2.0 * v,
                }
            }
        })
    }

    /// Sweep the number of flows by replicating the scenario's first
    /// source (values are rounded and clamped to ≥ 1).
    #[must_use]
    pub fn flow_count(values: Vec<f64>) -> Self {
        Self::new("flows", values, |sc, v| {
            let n = (v.round().max(1.0)) as usize;
            let proto = sc.sources.first().cloned();
            if let Some(proto) = proto {
                sc.sources = vec![proto; n];
            }
        })
    }

    /// Sweep the offered load ρ of the scenario's workload: the flow
    /// arrival rate is set to `ρ · μ_min / E[size]`, where `μ_min` is
    /// the slowest link of the topology (the bottleneck) and
    /// `E[size]` the mean flow size — so `ρ = 1` offers exactly the
    /// bottleneck capacity in workload packets. No-op on scenarios
    /// without a workload.
    #[must_use]
    pub fn load_rho(values: Vec<f64>) -> Self {
        Self::new("rho", values, |sc, v| {
            let mu_min = sc
                .net
                .topology
                .links
                .iter()
                .map(|l| l.mu)
                .fold(f64::INFINITY, f64::min);
            if let Some(w) = &mut sc.workload {
                w.arrivals.set_rate(v * mu_min / w.sizes.mean());
            }
        })
    }

    /// Sweep the workload's flow-size distribution *shape* at constant
    /// mean: `round(v)` selects 0 = deterministic, 1 = exponential,
    /// ≥ 2 = heavy-tailed bounded Pareto (α = 0.6, `max` bisected to
    /// hit the mean — mice and elephants). The mean packet count of the
    /// base distribution is preserved, so the offered load does not
    /// move along this axis. No-op on scenarios without a workload.
    #[must_use]
    pub fn flow_size_dist(values: Vec<f64>) -> Self {
        Self::new("sizedist", values, |sc, v| {
            if let Some(w) = &mut sc.workload {
                let mean = w.sizes.mean();
                w.sizes = match v.round() as i64 {
                    0 => fpk_sim::FlowSizeDist::Deterministic {
                        packets: mean.round().max(1.0) as u64,
                    },
                    1 => fpk_sim::FlowSizeDist::Exponential { mean },
                    _ => fpk_sim::FlowSizeDist::bounded_pareto_with_mean(1.0, 0.6, mean)
                        .unwrap_or(fpk_sim::FlowSizeDist::Exponential { mean }),
                };
            }
        })
    }

    /// Sweep the queue discipline by coded value: `round(v)` selects
    /// 0 = FIFO (the per-flow marking baseline), 1 = instantaneous
    /// threshold marking (K = 5), 2 = DECbit-averaged marking
    /// (K = 2.5), ≥ 3 = RED (min 2.5, max 10, `max_p` 1, EWMA weight
    /// 0.25) — the canonical parameterisations the marking-comparison
    /// figure sweeps. The RED weight is deliberately fast: at these
    /// shallow per-hop queues a slow EWMA lags the window sawtooth and
    /// lets the buffer oscillate past the FIFO baseline. For other
    /// parameters, use [`Axis::new`] with a custom apply that builds
    /// the [`fpk_sim::QdiscKind`] directly.
    #[must_use]
    pub fn qdisc(values: Vec<f64>) -> Self {
        Self::new("qdisc", values, |sc, v| {
            sc.net.qdisc = match v.round() as i64 {
                0 => fpk_sim::QdiscKind::Fifo,
                1 => fpk_sim::QdiscKind::ThresholdMark { threshold: 5.0 },
                2 => fpk_sim::QdiscKind::AveragedMark { threshold: 2.5 },
                _ => fpk_sim::QdiscKind::RedMark {
                    min_th: 2.5,
                    max_th: 10.0,
                    max_p: 1.0,
                    weight: 0.25,
                },
            };
        })
    }

    /// Sweep the packet size in bytes: every packet is exactly
    /// `round(v)` bytes against the scenario's existing byte reference
    /// (or a 1000-byte reference when the base scenario has no
    /// [`fpk_sim::PacketBytes`] yet), so the per-packet service factor
    /// is `round(v) / ref_bytes`. Values must round to ≥ 1.
    #[must_use]
    pub fn packet_bytes(values: Vec<f64>) -> Self {
        Self::new("bytes", values, |sc, v| {
            let packets = v.round().max(1.0) as u64;
            let ref_bytes = sc
                .net
                .packet_bytes
                .map_or(fpk_sim::Bytes(1000.0), |pb| pb.ref_bytes);
            sc.net.packet_bytes = Some(fpk_sim::PacketBytes {
                dist: fpk_sim::FlowSizeDist::Deterministic { packets },
                ref_bytes,
            });
        })
    }

    /// Sweep the workload's arrival burstiness: `v ≤ 1` keeps Poisson
    /// arrivals (the memoryless baseline), `v > 1` switches to Pareto
    /// interarrivals with tail exponent α = v at the same mean rate —
    /// smaller α (closer to 1) is burstier, with infinite gap variance
    /// for α ≤ 2. The tbl11 traffic-variability story at flow
    /// granularity. No-op on scenarios without a workload.
    #[must_use]
    pub fn arrival_burstiness(values: Vec<f64>) -> Self {
        Self::new("burst", values, |sc, v| {
            if let Some(w) = &mut sc.workload {
                let rate = w.arrivals.rate();
                w.arrivals = if v > 1.0 {
                    fpk_sim::ArrivalProcess::Pareto { rate, alpha: v }
                } else {
                    fpk_sim::ArrivalProcess::Poisson { rate }
                };
            }
        })
    }
}

/// One cell of the expanded grid.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Linear (row-major) index into the grid.
    pub index: usize,
    /// The value of each axis at this cell, in axis order.
    pub coords: Vec<f64>,
    /// Deterministic seed derived from `(base_seed, index)`.
    pub seed: u64,
    /// The base scenario with every axis value applied.
    pub scenario: Scenario,
}

/// A cartesian parameter sweep over a base scenario.
#[derive(Debug, Clone)]
pub struct Sweep {
    base: Scenario,
    axes: Vec<Axis>,
    base_seed: u64,
}

impl Sweep {
    /// Start a sweep from a base scenario and a base seed.
    #[must_use]
    pub fn new(base: Scenario, base_seed: u64) -> Self {
        Self {
            base,
            axes: Vec::new(),
            base_seed,
        }
    }

    /// Append an axis (the last-added axis varies fastest).
    #[must_use]
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Name of the base scenario.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.base.name
    }

    /// The base seed cell seeds are derived from.
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The axes in declaration order.
    #[must_use]
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Number of grid cells (product of axis lengths; 1 with no axes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// True when any axis is empty (the grid has no cells).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand the cartesian grid into seeded cells.
    #[must_use]
    pub fn cells(&self) -> Vec<Cell> {
        let total = self.len();
        let mut cells = Vec::with_capacity(total);
        for index in 0..total {
            // Decode the row-major index into per-axis values (last axis
            // fastest).
            let mut coords = vec![0.0; self.axes.len()];
            let mut rem = index;
            for (k, axis) in self.axes.iter().enumerate().rev() {
                coords[k] = axis.values[rem % axis.values.len()];
                rem /= axis.values.len();
            }
            let mut scenario = self.base.clone();
            for (axis, &v) in self.axes.iter().zip(&coords) {
                (axis.apply)(&mut scenario, v);
            }
            if !self.axes.is_empty() {
                // `base[axis=v,…]`, whatever an apply did to the name.
                let name = &mut scenario.name;
                name.clear();
                name.push_str(&self.base.name);
                for (k, (axis, v)) in self.axes.iter().zip(&coords).enumerate() {
                    name.push(if k == 0 { '[' } else { ',' });
                    write!(name, "{}={v}", axis.name).expect("writing to a String cannot fail");
                }
                name.push(']');
            }
            cells.push(Cell {
                index,
                coords,
                seed: derive_seed(self.base_seed, index as u64),
                scenario,
            });
        }
        cells
    }
}

/// Derive a stream seed from `(base, index)` with the splitmix64
/// finaliser — the same construction `montecarlo.rs` relies on for
/// reproducibility, but with full avalanche so neighbouring cells do not
/// get correlated `StdRng` streams.
#[must_use]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        ^ index
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpk_congestion::LinearExp;
    use fpk_sim::{Service, SimConfig, SourceSpec};

    fn base() -> Scenario {
        Scenario::new(
            "grid",
            SimConfig {
                mu: 50.0,
                service: Service::Exponential,
                buffer: None,
                t_end: 10.0,
                warmup: 2.0,
                sample_interval: 0.1,
                seed: 0,
            },
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
    fn cartesian_expansion_row_major() {
        let sweep = Sweep::new(base(), 42)
            .axis(Axis::mu(vec![10.0, 20.0]))
            .axis(Axis::flow_count(vec![1.0, 2.0, 4.0]));
        assert_eq!(sweep.len(), 6);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 6);
        // Last axis fastest: (10,1) (10,2) (10,4) (20,1) (20,2) (20,4).
        assert_eq!(cells[0].coords, vec![10.0, 1.0]);
        assert_eq!(cells[2].coords, vec![10.0, 4.0]);
        assert_eq!(cells[3].coords, vec![20.0, 1.0]);
        assert_eq!(cells[2].scenario.sources.len(), 4);
        assert_eq!(cells[3].scenario.net.topology.links[0].mu, 20.0);
        assert_eq!(cells[4].scenario.name, "grid[mu=20,flows=2]");
    }

    #[test]
    fn seeds_deterministic_and_distinct() {
        let sweep = Sweep::new(base(), 42).axis(Axis::mu(vec![10.0, 20.0, 30.0]));
        let a = sweep.cells();
        let b = sweep.cells();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
        }
        let mut seeds: Vec<u64> = a.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 3, "cell seeds must be pairwise distinct");
        // Different base seed → different streams.
        let c = Sweep::new(base(), 43)
            .axis(Axis::mu(vec![10.0, 20.0, 30.0]))
            .cells();
        assert_ne!(a[0].seed, c[0].seed);
    }

    #[test]
    fn builtin_axes_apply() {
        let sweep = Sweep::new(base(), 1)
            .axis(Axis::buffer(vec![8.0, f64::INFINITY]))
            .axis(Axis::loss_prob(vec![0.0, 0.1]))
            .axis(Axis::delay(vec![0.05]));
        let cells = sweep.cells();
        // 2 × 2 × 1 grid, delay fastest: (8,0) (8,0.1) (∞,0) (∞,0.1).
        assert_eq!(cells.len(), 4);
        let buffer = |i: usize| cells[i].scenario.net.topology.links[0].buffer;
        assert_eq!(buffer(0), Some(8));
        assert_eq!(buffer(1), Some(8));
        assert_eq!(buffer(2), None);
        assert_eq!(buffer(3), None);
        assert_eq!(
            cells[1].scenario.net.faults,
            [fpk_sim::FaultConfig::iid(0.1)]
        );
        assert_eq!(
            cells[0].scenario.net.faults,
            [fpk_sim::FaultConfig::iid(0.0)]
        );
        match &cells[0].scenario.sources[0] {
            SourceSpec::Rate { prop_delay, .. } => assert!((prop_delay - 0.05).abs() < 1e-15),
            _ => panic!("unexpected source kind"),
        }
    }

    #[test]
    fn topology_axes_apply() {
        let sweep = Sweep::new(base(), 1)
            .axis(Axis::hop_count(vec![3.0]))
            .axis(Axis::hop_mu(1, vec![25.0]))
            .axis(Axis::route_span(vec![2.0]));
        let cells = sweep.cells();
        assert_eq!(cells.len(), 1);
        let sc = &cells[0].scenario;
        let topology = &sc.net.topology;
        assert_eq!(topology.len(), 3);
        // The replicated link inherits the single-bottleneck parameters.
        assert_eq!(topology.links[0].mu, 50.0);
        assert_eq!(topology.links[1].mu, 25.0);
        assert_eq!(
            sc.routes.as_ref().unwrap()[0],
            fpk_sim::Route { first: 0, last: 1 }
        );
        assert_eq!(sc.name, "grid[hops=3,mu1=25,span=2]");
    }

    #[test]
    fn buffer_axis_reaches_every_link_of_a_topology() {
        let cells = Sweep::new(base(), 1)
            .axis(Axis::hop_count(vec![3.0]))
            .axis(Axis::buffer(vec![8.0, f64::INFINITY]))
            .cells();
        for (cell, want) in cells.iter().zip([Some(8), None]) {
            let (net, _) = cell.scenario.network(1).unwrap();
            assert_eq!(net.topology.len(), 3);
            assert!(
                net.topology.links.iter().all(|l| l.buffer == want),
                "{}: {:?}",
                cell.scenario.name,
                net.topology.links
            );
        }
    }

    #[test]
    fn hop_count_stretches_full_span_routes() {
        let mut base = base();
        base.sources.push(base.sources[0].clone());
        let base = base
            .with_topology(fpk_sim::Topology::uniform(
                2,
                fpk_sim::Link {
                    mu: 40.0,
                    service: Service::Exponential,
                    buffer: None,
                },
            ))
            .with_routes(vec![
                fpk_sim::Route { first: 0, last: 1 }, // spans all of the old 2 hops
                fpk_sim::Route::single(1),
            ]);
        let cells = Sweep::new(base, 9).axis(Axis::hop_count(vec![4.0])).cells();
        let routes = cells[0].scenario.routes.as_ref().unwrap();
        assert_eq!(routes[0], fpk_sim::Route { first: 0, last: 3 }, "stretched");
        assert_eq!(routes[1], fpk_sim::Route::single(1), "clamped in place");
    }

    #[test]
    fn hop_count_resizes_hop_faults_with_the_topology() {
        // A parking-lot scenario with per-hop faults swept over hop
        // count must stay runnable: surviving hops keep their fault
        // entries, new hops inherit hop 0's.
        let base = base()
            .with_topology(fpk_sim::Topology::uniform(
                3,
                fpk_sim::Link {
                    mu: 60.0,
                    service: Service::Exponential,
                    buffer: None,
                },
            ))
            .with_hop_faults(vec![
                fpk_sim::FaultConfig::Iid { loss_prob: 0.0 },
                fpk_sim::FaultConfig::Iid { loss_prob: 0.2 },
                fpk_sim::FaultConfig::Iid { loss_prob: 0.0 },
            ]);
        for (k, expect) in [(2.0, vec![0.0, 0.2]), (4.0, vec![0.0, 0.2, 0.0, 0.0])] {
            let cells = Sweep::new(base.clone(), 5)
                .axis(Axis::hop_count(vec![k]))
                .cells();
            let sc = &cells[0].scenario;
            let probs = sc.net.faults.clone();
            let expect: Vec<fpk_sim::FaultConfig> =
                expect.into_iter().map(fpk_sim::FaultConfig::iid).collect();
            assert_eq!(probs, expect, "k = {k}");
            // And the cell actually runs through the engine.
            assert!(sc.run_seeded(1).is_ok(), "k = {k} must validate");
        }
    }

    #[test]
    fn fault_axes_reach_every_hop_of_a_per_hop_fault_scenario() {
        // The fault axes document "every hop"; a base with per-hop
        // faults must not keep its own list and drop the swept value.
        let base = base()
            .with_topology(fpk_sim::Topology::uniform(
                3,
                fpk_sim::Link {
                    mu: 60.0,
                    service: Service::Exponential,
                    buffer: None,
                },
            ))
            .with_hop_faults(vec![
                fpk_sim::FaultConfig::Iid { loss_prob: 0.0 },
                fpk_sim::FaultConfig::Iid { loss_prob: 0.2 },
                fpk_sim::FaultConfig::Iid { loss_prob: 0.0 },
            ]);
        let loss = Sweep::new(base.clone(), 5)
            .axis(Axis::loss_prob(vec![0.05]))
            .cells();
        let (net, _) = loss[0].scenario.network(1).unwrap();
        assert_eq!(net.faults, vec![fpk_sim::FaultConfig::iid(0.05); 3]);
        let model = Sweep::new(base, 5)
            .axis(Axis::fault_model(vec![3.0]))
            .cells();
        let (net, _) = model[0].scenario.network(1).unwrap();
        assert_eq!(net.faults.len(), 3);
        assert!(
            net.faults
                .iter()
                .all(|f| matches!(f, fpk_sim::FaultConfig::LinkFlap { .. })),
            "{:?}",
            net.faults
        );
    }

    #[test]
    fn hop_count_keeps_pinned_routes_on_single_link_base() {
        // On a 1-link base "full span" and "pinned to hop 0" are the
        // same route; an explicit pin must survive the sweep rather
        // than silently becoming a long flow.
        let base = base().with_routes(vec![fpk_sim::Route::single(0)]);
        let cells = Sweep::new(base, 3).axis(Axis::hop_count(vec![4.0])).cells();
        let routes = cells[0].scenario.routes.as_ref().unwrap();
        assert_eq!(routes[0], fpk_sim::Route::single(0), "pin preserved");
    }

    #[test]
    fn qdisc_and_packet_bytes_axes_apply() {
        let sweep = Sweep::new(base(), 11)
            .axis(Axis::qdisc(vec![0.0, 1.0, 2.0, 3.0]))
            .axis(Axis::packet_bytes(vec![500.0, 1500.0]));
        let cells = sweep.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].scenario.net.qdisc, fpk_sim::QdiscKind::Fifo);
        assert_eq!(
            cells[2].scenario.net.qdisc,
            fpk_sim::QdiscKind::ThresholdMark { threshold: 5.0 }
        );
        assert_eq!(
            cells[4].scenario.net.qdisc,
            fpk_sim::QdiscKind::AveragedMark { threshold: 2.5 }
        );
        assert!(matches!(
            cells[6].scenario.net.qdisc,
            fpk_sim::QdiscKind::RedMark { .. }
        ));
        let pb = cells[1]
            .scenario
            .net
            .packet_bytes
            .expect("bytes axis applied");
        assert_eq!(
            pb.dist,
            fpk_sim::FlowSizeDist::Deterministic { packets: 1500 }
        );
        assert_eq!(pb.ref_bytes, fpk_sim::Bytes(1000.0));
        assert_eq!(cells[1].scenario.name, "grid[qdisc=0,bytes=1500]");
        // Every combination must survive engine validation.
        assert!(cells[7].scenario.run_seeded(1).is_ok());
    }

    #[test]
    fn empty_axis_empties_the_grid() {
        let sweep = Sweep::new(base(), 1).axis(Axis::mu(Vec::new()));
        assert!(sweep.is_empty());
        assert!(sweep.cells().is_empty());
    }

    #[test]
    fn derive_seed_avalanches() {
        // Neighbouring indices must not produce neighbouring seeds.
        let s0 = derive_seed(7, 0);
        let s1 = derive_seed(7, 1);
        assert_ne!(s0, s1);
        assert!(
            (s0 ^ s1).count_ones() > 8,
            "weak diffusion: {s0:x} vs {s1:x}"
        );
    }
}
