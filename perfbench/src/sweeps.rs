//! The two sweep workloads, `des_static` and `flow_churn`.
//!
//! The end-to-end run calls `run_sweep_on`. The traced run drives the
//! same grid itself through `run_indexed_with`, `Ensemble::replication_seed`
//! and `CellAccum`, so it can time every cell and replication; its report
//! must serialise byte-identical to `run_sweep_on`'s, at N workers and at
//! one.

use crate::checks;
use crate::trace::{median, tail, Tracer};
use crate::{names, Bench, Counts, Layers, Outcome};
use fpk_congestion::{LinearExp, WindowAimd};
use fpk_numerics::Result;
use fpk_scenarios::{
    load_sweep_report, run_indexed, run_indexed_with, run_sweep_on, Axis, AxisReport, CellAccum,
    CellReport, Ensemble, Scenario, Sweep, SweepReport,
};
use fpk_sim::{
    ArrivalProcess, Bytes, FlowSizeDist, NetArena, PacketBytes, Route, Service, SimConfig,
    SourceSpec, Workload,
};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub enum SweepKind {
    DesStatic,
    FlowChurn,
}

/// Grid geometry of one sweep workload.
struct Shape {
    t_end: f64,
    warmup: f64,
    replications: usize,
    /// `des_static`: hop counts 1..=max_hops. `flow_churn`: label-axis length.
    width: usize,
}

impl Shape {
    fn of(kind: SweepKind, small: bool) -> Self {
        match (kind, small) {
            (SweepKind::DesStatic, false) => Self {
                t_end: 300.0,
                warmup: 50.0,
                replications: 3,
                width: 5,
            },
            (SweepKind::FlowChurn, false) => Self {
                t_end: 60.0,
                warmup: 2.0,
                replications: 2,
                width: 32,
            },
            (SweepKind::DesStatic, true) => Self {
                t_end: 10.0,
                warmup: 2.0,
                replications: 2,
                width: 2,
            },
            (SweepKind::FlowChurn, true) => Self {
                t_end: 10.0,
                warmup: 1.0,
                replications: 2,
                width: 1,
            },
        }
    }
}

const STATIC_MU: f64 = 100.0;

/// Long-lived closed-loop sources (two AIMD windows, two JRJ rate
/// sources) on a K-hop tandem, over hop count × queue discipline.
fn des_static(seed: u64, shape: &Shape) -> Sweep {
    let window = SourceSpec::Window {
        aimd: WindowAimd::new(1.0, 0.5, 0.04, 10.0),
        w0: 2.0,
    };
    let rate = SourceSpec::Rate {
        law: LinearExp::new(40.0, 0.5, 10.0),
        lambda0: 20.0,
        update_interval: 0.05,
        prop_delay: 0.02,
        poisson: true,
    };
    let base = Scenario::new(
        "perfbench_des_static",
        SimConfig {
            mu: STATIC_MU,
            service: Service::Exponential,
            buffer: None,
            t_end: shape.t_end,
            warmup: shape.warmup,
            sample_interval: 0.5,
            seed: 0,
        },
        vec![window.clone(), window, rate.clone(), rate],
    );
    Sweep::new(base, seed)
        .axis(Axis::hop_count(
            (1..=shape.width).map(|k| k as f64).collect(),
        ))
        .axis(Axis::qdisc(vec![0.0, 1.0, 2.0, 3.0]))
}

const CHURN_MU: f64 = 100.0;
const CHURN_RHO: f64 = 0.6;
const CHURN_PACKET_BYTES: u64 = 1500;
const CHURN_REF_BYTES: f64 = 1000.0;

/// Open-loop finite flows (Poisson arrivals, bounded-Pareto sizes,
/// 1500-byte packets on deterministic service) at load ρ, over fault arm
/// {none, Gilbert–Elliott, link flap} × RTO retry budget {0, 2, 6},
/// widened by a label axis into many short cells of near-equal cost.
fn flow_churn(seed: u64, shape: &Shape) -> Sweep {
    let sizes = FlowSizeDist::BoundedPareto {
        min: 1.0,
        max: 64.0,
        alpha: 1.2,
    };
    let service_factor = CHURN_PACKET_BYTES as f64 / CHURN_REF_BYTES;
    let rate = CHURN_RHO * CHURN_MU / (sizes.mean() * service_factor);
    let base = Scenario::new(
        "perfbench_flow_churn",
        SimConfig {
            mu: CHURN_MU,
            service: Service::Deterministic,
            buffer: None,
            t_end: shape.t_end,
            warmup: shape.warmup,
            sample_interval: 0.5,
            seed: 0,
        },
        Vec::new(),
    )
    .with_workload(
        Workload::new(
            ArrivalProcess::Poisson { rate },
            sizes,
            vec![Route::single(0)],
        )
        .with_prop_delay(0.005),
    )
    .with_packet_bytes(PacketBytes {
        dist: FlowSizeDist::Deterministic {
            packets: CHURN_PACKET_BYTES,
        },
        ref_bytes: Bytes(CHURN_REF_BYTES),
    });
    Sweep::new(base, seed)
        .axis(Axis::fault_model(vec![0.0, 2.0, 3.0]))
        .axis(Axis::rto_policy(vec![0.0, 2.0, 6.0]))
        .axis(Axis::label_only(
            "label",
            (0..shape.width).map(|i| i as f64).collect(),
        ))
}

/// What the traced grid pass measured.
struct GridTrace {
    batch_wall: f64,
    caller_tail: f64,
    cell_ms: Vec<f64>,
    run_ms: Vec<f64>,
    lane_busy: Vec<f64>,
    retransmits: u64,
    gave_up: u64,
    slot_high_water: u64,
}

/// One cell of the traced grid pass, timed on whichever worker ran it.
struct CellRun {
    report: Result<CellReport>,
    thread: ThreadId,
    span: (f64, f64),
    runs: Vec<(f64, f64)>,
    aggs: Vec<(f64, f64)>,
    retransmits: u64,
    gave_up: u64,
    slot_high_water: u64,
}

fn run_cell(
    cell: &fpk_scenarios::Cell,
    replications: usize,
    arena: &mut NetArena,
    epoch: Instant,
) -> CellRun {
    let start = epoch.elapsed().as_secs_f64();
    let mut run = CellRun {
        report: Err(fpk_numerics::NumericsError::InvalidParameter {
            context: "cell did not run",
        }),
        thread: std::thread::current().id(),
        span: (start, start),
        runs: Vec::with_capacity(replications),
        aggs: Vec::with_capacity(replications + 1),
        retransmits: 0,
        gave_up: 0,
        slot_high_water: 0,
    };
    run.report = replicate(cell, replications, arena, epoch, &mut run);
    run.span.1 = epoch.elapsed().as_secs_f64();
    run
}

/// The body of `run_sweep_on`'s cell job, with every replication and
/// aggregation step timed into `run`.
fn replicate(
    cell: &fpk_scenarios::Cell,
    replications: usize,
    arena: &mut NetArena,
    epoch: Instant,
    run: &mut CellRun,
) -> Result<CellReport> {
    let now = || epoch.elapsed().as_secs_f64();
    let mut accum = CellAccum::new();
    for r in 0..replications {
        let seed = Ensemble::replication_seed(cell.seed, r);
        let a = now();
        let summary = cell.scenario.run_seeded_in(arena, seed)?;
        let b = now();
        accum.push(&summary)?;
        run.runs.push((a, b));
        run.aggs.push((b, now()));
        if let Some(w) = &summary.workload {
            run.retransmits += w.retransmits;
            run.gave_up += w.packets_gave_up;
            run.slot_high_water = run.slot_high_water.max(w.slot_high_water);
        }
    }
    let a = now();
    let stats = accum.finish()?;
    run.aggs.push((a, now()));
    Ok(CellReport {
        name: cell.scenario.name.clone(),
        index: cell.index,
        coords: cell.coords.clone(),
        seed: cell.seed,
        stats,
    })
}

pub struct SweepBench {
    kind: SweepKind,
    sweep: Sweep,
    cells: usize,
    shape: Shape,
    workers: usize,
    /// Duration of the pool's first spawn, measured in setup.
    spawn_s: f64,
    /// Artifact JSON of the latest untraced and traced runs.
    untraced_json: Option<String>,
    traced: Option<(String, GridTrace)>,
}

impl SweepBench {
    /// Set-up: build the sweep, expand its cells, and spawn the pool.
    pub fn new(kind: SweepKind, seed: u64, workers: usize) -> Self {
        Self::build(kind, seed, workers, false)
    }

    /// A few-cell, short-horizon version for the checks' self-test.
    #[cfg(test)]
    pub fn small(kind: SweepKind, seed: u64) -> Self {
        Self::build(kind, seed, 1, true)
    }

    fn build(kind: SweepKind, seed: u64, workers: usize, small: bool) -> Self {
        let shape = Shape::of(kind, small);
        let sweep = match kind {
            SweepKind::DesStatic => des_static(seed, &shape),
            SweepKind::FlowChurn => flow_churn(seed, &shape),
        };
        // Expanding the grid is part of the set-up every sweep pays.
        let cells = sweep.cells().len();
        let t = Instant::now();
        let spawned = run_indexed(workers, workers, |i| i);
        let spawn_s = t.elapsed().as_secs_f64();
        assert_eq!(spawned.len(), workers, "pool warm-up batch");
        Self {
            kind,
            sweep,
            cells,
            shape,
            workers,
            spawn_s,
            untraced_json: None,
            traced: None,
        }
    }

    pub fn replications(&self) -> usize {
        self.shape.replications
    }

    /// Packets one busy hop serves in a run's measurement window.
    pub fn served_per_run(&self) -> f64 {
        STATIC_MU * (self.shape.t_end - self.shape.warmup)
    }

    /// The RTO retry budget of a `flow_churn` cell (0 for `des_static`).
    pub fn rto_retries(&self, cell: &CellReport) -> u32 {
        match self.kind {
            SweepKind::DesStatic => 0,
            SweepKind::FlowChurn => cell.coords[1].round() as u32,
        }
    }

    fn check(&self, cell: &CellReport) -> std::result::Result<(), String> {
        match self.kind {
            SweepKind::DesStatic => {
                checks::static_cell(cell, self.replications(), self.served_per_run())
            }
            SweepKind::FlowChurn => {
                checks::churn_cell(cell, self.replications(), self.rto_retries(cell))
            }
        }
    }

    /// The untraced grid pass.
    pub fn run_plain(&self, workers: usize) -> Result<SweepReport> {
        run_sweep_on(&self.sweep, self.replications(), workers)
    }

    /// Work counts, read from the report (the same in both passes).
    fn counts(&self, report: &SweepReport) -> Counts {
        let r = self.replications() as f64;
        let window = self.shape.t_end - self.shape.warmup;
        let mut counts = Counts {
            sweep_cells: report.cells.len() as u64,
            ..Counts::default()
        };
        for cell in &report.cells {
            let s = &cell.stats;
            let (goodput, arrived) = s
                .workload
                .as_ref()
                .map_or((0.0, 0.0), |w| (w.goodput.mean, w.arrived.mean));
            counts.des_packets += ((s.total_throughput.mean * window + goodput * self.shape.t_end)
                * r)
                .round() as u64;
            counts.des_flows += (arrived * r).round() as u64;
        }
        counts
    }

    /// The traced grid pass: cells and replications timed one by one.
    fn run_traced(
        &self,
        tracer: &mut Tracer,
        root: Option<usize>,
        threads: usize,
    ) -> (Result<SweepReport>, GridTrace) {
        let cells = Arc::new(self.sweep.cells());
        let jobs = Arc::clone(&cells);
        let replications = self.replications();
        let epoch = tracer.epoch();
        let batch = tracer.enter(names::BATCH, root);
        let batch_start = tracer.now();
        let runs = run_indexed_with(cells.len(), threads, NetArena::new, move |arena, j| {
            run_cell(&jobs[j], replications, arena, epoch)
        });
        let batch_end = tracer.now();
        tracer.exit(batch);

        let caller = std::thread::current().id();
        let mut lanes: Vec<ThreadId> = vec![caller];
        let mut trace = GridTrace {
            batch_wall: batch_end - batch_start,
            caller_tail: batch_end - runs.iter().map(|c| c.span.1).fold(batch_start, f64::max),
            cell_ms: Vec::with_capacity(runs.len()),
            run_ms: Vec::new(),
            lane_busy: vec![0.0; threads],
            retransmits: 0,
            gave_up: 0,
            slot_high_water: 0,
        };
        let mut reports = Vec::with_capacity(runs.len());
        for c in runs {
            let lane = lanes
                .iter()
                .position(|&t| t == c.thread)
                .unwrap_or_else(|| {
                    lanes.push(c.thread);
                    lanes.len() - 1
                });
            let cell = tracer.record(names::CELL, batch, c.span.0, c.span.1, lane);
            for &(a, b) in &c.runs {
                tracer.record(names::DES, Some(cell), a, b, lane);
                trace.run_ms.push((b - a) * 1e3);
            }
            for &(a, b) in &c.aggs {
                tracer.record(names::AGG, Some(cell), a, b, lane);
            }
            let busy = c.span.1 - c.span.0;
            trace.cell_ms.push(busy * 1e3);
            trace.lane_busy[lane] += busy;
            trace.retransmits += c.retransmits;
            trace.gave_up += c.gave_up;
            trace.slot_high_water = trace.slot_high_water.max(c.slot_high_water);
            reports.push(c.report);
        }
        let report = reports
            .into_iter()
            .collect::<Result<Vec<_>>>()
            .map(|cells| SweepReport {
                name: self.sweep.name().to_string(),
                base_seed: self.sweep.base_seed(),
                replications,
                axes: self
                    .sweep
                    .axes()
                    .iter()
                    .map(|a| AxisReport {
                        name: a.name.clone(),
                        values: a.values.clone(),
                    })
                    .collect(),
                cells,
            });
        (report, trace)
    }
}

impl Bench for SweepBench {
    /// One closed batch: run the grid, check every cell, write the
    /// report and load it back.
    fn run(&mut self, tracer: &mut Tracer) -> Outcome {
        let root = tracer.enter(names::ROOT, None);
        let (report, trace) = if tracer.is_on() {
            let (r, t) = self.run_traced(tracer, root, self.workers);
            (r, Some(t))
        } else {
            (self.run_plain(self.workers), None)
        };
        let mut out = Outcome::default();
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.fail_all(self.cells as u64, format!("sweep failed: {e}"));
                tracer.exit(root);
                return out;
            }
        };
        let path = tracer.span(names::ARTIFACT_WRITE, root, || report.write());
        let loaded = tracer.span(names::ARTIFACT_LOAD, root, || load_sweep_report(&path));
        let json = tracer.span(names::CHECK, root, || {
            for cell in &report.cells {
                out.op(self.check(cell));
            }
            if report.cells.len() != self.cells {
                let missing = self.cells.saturating_sub(report.cells.len());
                out.fail_all(missing as u64, "report does not cover the grid".into());
            }
            let written = std::fs::read_to_string(&path).unwrap_or_default();
            let reloaded = serde_json::to_string_pretty(&loaded).expect("report serialises");
            if written != reloaded {
                out.fail_all(
                    0,
                    "artifact write → load round trip changed the report".into(),
                );
            }
            written
        });
        out.counts = self.counts(&report);
        match trace {
            Some(t) => self.traced = Some((json, t)),
            None => self.untraced_json = Some(json),
        }
        tracer.exit(root);
        out
    }

    /// Per-layer numbers of the latest traced run, after cross-checking
    /// its report against the untraced run's and a 1-worker traced run's.
    fn layers(&mut self, tracer: &Tracer, out: &mut Outcome) -> Layers {
        let (json, trace) = self.traced.take().expect("layers() follows a traced run");
        if self.untraced_json.as_deref() != Some(json.as_str()) {
            out.fail_all(0, "traced report differs from run_sweep_on's".into());
        }
        let mut solo = Tracer::new(true, tracer.epoch());
        let (solo_report, solo_trace) = self.run_traced(&mut solo, None, 1);
        let solo_json = solo_report
            .map(|r| serde_json::to_string_pretty(&r).expect("report serialises"))
            .unwrap_or_default();
        if solo_json != json {
            out.fail_all(0, "1-worker report differs from the N-worker report".into());
        }

        let mut l = Layers::new();
        let des_busy = tracer.busy(names::DES);
        let mut run_ms = trace.run_ms.clone();
        run_ms.sort_by(f64::total_cmp);
        l.insert("des.busy_s", des_busy);
        l.insert("des.runs", run_ms.len() as f64);
        l.insert("des.run_p50_ms", median(&run_ms));
        l.insert("des.run_tail_ms", tail(&run_ms));
        l.insert("des.packets", out.counts.des_packets as f64);
        l.insert(
            "des.packets_per_s",
            out.counts.des_packets as f64 / des_busy,
        );
        l.insert("des.flows", out.counts.des_flows as f64);
        l.insert("des.retransmits", trace.retransmits as f64);
        l.insert("des.gave_up", trace.gave_up as f64);
        l.insert("des.slot_high_water", trace.slot_high_water as f64);
        l.insert("agg.busy_s", tracer.busy(names::AGG));

        let workers = trace.lane_busy.len() as f64;
        let busy_sum: f64 = trace.lane_busy.iter().sum();
        let busy_max = trace.lane_busy.iter().copied().fold(0.0, f64::max);
        l.insert("sweep.cells", self.cells as f64);
        l.insert("sweep.cells_per_s", self.cells as f64 / trace.batch_wall);
        l.insert("sweep.cell_p50_ms", median(&trace.cell_ms));
        l.insert(
            "sweep.cell_max_ms",
            trace.cell_ms.iter().copied().fold(0.0, f64::max),
        );
        l.insert(
            "sweep.idle_frac",
            1.0 - busy_sum / (workers * trace.batch_wall),
        );
        l.insert("sweep.imbalance", busy_max / (busy_sum / workers));
        l.insert("sweep.caller_tail_s", trace.caller_tail);
        l.insert("sweep.speedup", solo_trace.batch_wall / trace.batch_wall);
        l.insert("pool.spawn_s", self.spawn_s);
        l.insert("artifact.write_s", tracer.busy(names::ARTIFACT_WRITE));
        l.insert("artifact.load_s", tracer.busy(names::ARTIFACT_LOAD));
        l.insert("artifact.bytes", json.len() as f64);
        l
    }
}
