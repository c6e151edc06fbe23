//! The repository benchmark. One command runs one workload for a fixed
//! time, checks every output, and prints its metrics:
//!
//! ```text
//! perfbench --workload <fp_vs_mc|des_static|flow_churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench compare <old.json> <new.json>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics (tracing off); `--trace 1`
//! reports the per-layer metrics from a traced run. The last line of
//! standard output is one JSON object; the full result, stamped with the
//! machine and build, is written to `.bench_out/`. See README.md.

mod checks;
mod compare;
mod fp;
mod host;
mod sweeps;
mod trace;

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::{median, Span, Tracer};

/// Span names: one per layer boundary the benchmark calls across.
pub mod names {
    pub const ROOT: &str = "bench.iteration";
    pub const CHECK: &str = "bench.check";
    pub const SOLVER: &str = "fpk_core::solver";
    pub const MC: &str = "fpk_core::montecarlo";
    pub const KS: &str = "fpk_numerics::stats";
    pub const BATCH: &str = "fpk_scenarios::exec";
    pub const CELL: &str = "fpk_scenarios::exec.cell";
    pub const DES: &str = "fpk_sim::network";
    pub const AGG: &str = "fpk_scenarios::ensemble";
    pub const ARTIFACT_WRITE: &str = "fpk_scenarios::artifact.write";
    pub const ARTIFACT_LOAD: &str = "fpk_scenarios::artifact.load";
}

const WORKLOADS: [&str; 3] = ["fp_vs_mc", "des_static", "flow_churn"];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// bypasses reports 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("solver.busy_s", "s"),
    ("solver.steps", "count"),
    ("solver.cell_steps", "count"),
    ("solver.cell_steps_per_s", "1/s"),
    ("solver.mass_drift", "frac"),
    ("mc.busy_s", "s"),
    ("mc.particle_steps", "count"),
    ("mc.particle_steps_per_s", "1/s"),
    ("mc.speedup", "x"),
    ("mc.snapshot_bytes", "bytes"),
    ("ks.busy_s", "s"),
    ("ks.samples", "count"),
    ("des.busy_s", "s"),
    ("des.runs", "count"),
    ("des.run_p50_ms", "ms"),
    ("des.run_tail_ms", "ms"),
    ("des.packets", "count"),
    ("des.packets_per_s", "1/s"),
    ("des.flows", "count"),
    ("des.retransmits", "count"),
    ("des.gave_up", "count"),
    ("des.slot_high_water", "count"),
    ("agg.busy_s", "s"),
    ("sweep.cells", "count"),
    ("sweep.cells_per_s", "1/s"),
    ("sweep.cell_p50_ms", "ms"),
    ("sweep.cell_max_ms", "ms"),
    ("sweep.idle_frac", "frac"),
    ("sweep.imbalance", "x"),
    ("sweep.caller_tail_s", "s"),
    ("sweep.speedup", "x"),
    ("pool.spawn_s", "s"),
    ("artifact.write_s", "s"),
    ("artifact.load_s", "s"),
    ("artifact.bytes", "bytes"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
];

/// Set-up is timed in fresh processes, one before each batch, until
/// there are this many samples (the run's own set-up included)…
const SETUP_SAMPLES: usize = 32;
/// …and at least this many when the run has fewer batches.
const SETUP_SAMPLES_MIN: usize = 16;
/// Where results, spans and artifacts go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

pub type Layers = BTreeMap<&'static str, f64>;

/// Work done by one iteration. It must repeat exactly for a seed; a run
/// whose counts differ did different work, not the same work faster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Counts {
    pub solver_cell_steps: u64,
    pub mc_particle_steps: u64,
    pub des_packets: u64,
    pub des_flows: u64,
    pub sweep_cells: u64,
}

/// Operations one iteration attempted and failed. An operation is one FP
/// snapshot, one MC snapshot or one sweep cell.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub counts: Counts,
}

impl Outcome {
    /// Count one operation and its check.
    pub fn op(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// Fail every operation of the iteration, adding `extra` attempted
    /// operations that never produced output.
    pub fn fail_all(&mut self, extra: u64, why: String) {
        self.attempted += extra;
        self.failed = self.attempted;
        self.errors.push(why);
    }
}

/// One benchmark workload, driven through the workspace's public API.
pub trait Bench {
    /// Untimed: rebuild the inputs the previous batch consumed.
    fn prepare(&mut self) {}
    /// One closed batch: solve, check every output, write the artifact.
    fn run(&mut self, tracer: &mut Tracer) -> Outcome;
    /// Per-layer numbers of the latest traced batch, plus the workload's
    /// cross-checks (failures are added to `out`).
    fn layers(&mut self, tracer: &Tracer, out: &mut Outcome) -> Layers;
}

/// Set-up of a workload: everything before its first timed call.
fn setup(workload: &str, seed: u64, workers: usize) -> Box<dyn Bench> {
    match workload {
        "fp_vs_mc" => Box::new(fp::FpVsMc::new(seed, workers)),
        "des_static" => Box::new(sweeps::SweepBench::new(
            sweeps::SweepKind::DesStatic,
            seed,
            workers,
        )),
        "flow_churn" => Box::new(sweeps::SweepBench::new(
            sweeps::SweepKind::FlowChurn,
            seed,
            workers,
        )),
        other => unreachable!("workload {other} was validated by the argument parser"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_probe = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                }
            }
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        setup_probe,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Artifacts land under the benchmark's own output directory (set
    // before any thread exists).
    std::env::set_var("FPK_RESULTS_DIR", Path::new(OUT_DIR).join("artifacts"));
    let workers = host::workers();

    let t = Instant::now();
    let mut bench = setup(&args.workload, args.seed, workers);
    let own_setup = t.elapsed().as_secs_f64();
    if args.setup_probe {
        println!("{own_setup}");
        return ExitCode::SUCCESS;
    }
    let run = if args.trace {
        traced_run(bench.as_mut(), args.seconds)
    } else {
        plain_run(bench.as_mut(), &args, own_setup)
    };
    report(&args, workers, run);
    ExitCode::SUCCESS
}

/// Time set-up once in a fresh process, so the pool's first spawn and
/// cold allocations count every time.
fn probe_setup(args: &Args) -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let out = Command::new(exe)
        .args(["--workload", &args.workload, "--seed"])
        .arg(args.seed.to_string())
        .arg("--setup-probe")
        .output()
        .expect("spawn set-up probe");
    assert!(out.status.success(), "set-up probe failed: {out:?}");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("set-up probe prints seconds")
}

/// Everything one run measured.
#[derive(Default)]
struct Run {
    iterations: usize,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    counts: Vec<Counts>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// The samples behind each reported time, by metric name.
    samples: Vec<(&'static str, Vec<f64>)>,
    spans: Vec<Span>,
}

impl Run {
    fn absorb(&mut self, out: Outcome) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.errors.extend(out.errors);
        self.counts.push(out.counts);
    }
}

/// End-to-end run, tracing off: closed batches back to back for
/// `seconds`, with a set-up probe before each of the first batches so
/// set-up is sampled across the run too.
///
/// Times are reported as the minimum over the samples: on a shared host
/// other tenants only ever slow a batch down, and their load drifts over
/// tens of seconds, so the fastest batch is the estimator that repeats
/// best from run to run. Every sample is kept in the result file.
fn plain_run(bench: &mut dyn Bench, args: &Args, own_setup: f64) -> Run {
    let mut run = Run::default();
    let (mut walls, mut cpus, mut setups) = (Vec::new(), Vec::new(), vec![own_setup]);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        if setups.len() < SETUP_SAMPLES {
            setups.push(probe_setup(args));
        }
        bench.prepare();
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let out = bench.run(&mut Tracer::off());
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push(host::cpu_seconds() - cpu0);
        run.absorb(out);
        run.iterations += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    while setups.len() < SETUP_SAMPLES_MIN {
        setups.push(probe_setup(args));
    }
    let values = [min(&setups), min(&walls), min(&cpus), host::peak_rss_mb()];
    run.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    run.samples = vec![("setup_s", setups), ("wall_s", walls), ("cpu_s", cpus)];
    run
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Traced run: rounds of one untraced batch (the overhead baseline) and
/// one traced batch plus the workload's cross-checks, for `seconds`.
/// Per-layer values are medians over rounds.
fn traced_run(bench: &mut dyn Bench, seconds: f64) -> Run {
    let mut run = Run::default();
    let epoch = Instant::now();
    let mut rounds: Vec<Layers> = Vec::new();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut shares: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut self_s: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        bench.prepare();
        let t0 = Instant::now();
        let out = bench.run(&mut Tracer::off());
        plain_walls.push(t0.elapsed().as_secs_f64());
        run.absorb(out);

        bench.prepare();
        let mut tracer = Tracer::new(true, epoch);
        let mut out = bench.run(&mut tracer);
        let mut layers = bench.layers(&tracer, &mut out);
        run.absorb(out);
        run.iterations += 1;

        let root = tracer
            .spans
            .iter()
            .position(|s| s.name == names::ROOT)
            .expect("a traced run opens the root span");
        let wall = tracer.spans[root].duration();
        traced_walls.push(wall);
        let attribution = trace::wall_attribution(&tracer.spans, root);
        layers.insert(
            "trace.unattributed_frac",
            attribution.get(names::ROOT).copied().unwrap_or(0.0) / wall,
        );
        for (name, share) in attribution {
            shares.entry(name).or_default().push(share);
        }
        let selfs = trace::self_times(&tracer.spans);
        let mut round_self: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, st) in tracer.spans.iter().zip(selfs) {
            *round_self.entry(s.name).or_insert(0.0) += st;
        }
        for (name, st) in round_self {
            self_s.entry(name).or_default().push(st);
        }
        let offset = run.spans.len();
        run.spans.extend(tracer.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        rounds.push(layers);
        if Instant::now() >= deadline {
            break;
        }
    }

    let traced_wall = median(&traced_walls);
    println!(
        "layer accounting of the traced wall time ({traced_wall:.4} s, median of {} rounds):",
        traced_walls.len()
    );
    println!(
        "  {:<32} {:>10} {:>10} {:>8}",
        "span", "self_s", "wall_s", "share"
    );
    for (name, v) in &shares {
        let share = median(v);
        let st = self_s.get(name).map_or(0.0, |x| median(x));
        println!(
            "  {name:<32} {st:>10.4} {share:>10.4} {:>7.1}%",
            100.0 * share / traced_wall
        );
    }
    for (name, unit) in PER_LAYER {
        let value = match name {
            "trace.overhead_frac" => traced_wall / median(&plain_walls) - 1.0,
            _ => median(
                &rounds
                    .iter()
                    .map(|r| r.get(name).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            ),
        };
        run.metrics.push((name, unit, value));
    }
    run
}

/// A `Serialize` view of a pre-built JSON value.
struct Raw(Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn result_path(workload: &str, seed: u64, trace: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(trace)
    ))
}

/// Counts recorded by earlier results of the same build, workload and seed.
fn earlier_counts(args: &Args, stamp: &host::Stamp) -> Vec<(PathBuf, Value)> {
    [false, true]
        .into_iter()
        .map(|t| result_path(&args.workload, args.seed, t))
        .filter_map(|path| {
            let v = serde_json::from_str(&std::fs::read_to_string(&path).ok()?).ok()?;
            let same_build = compare::text(&v, &["stamp", "exe_fingerprint"])
                == Some(stamp.exe_fingerprint.as_str());
            let counts = v.get("counts")?.clone();
            same_build.then_some((path, counts))
        })
        .collect()
}

fn report(args: &Args, workers: usize, run: Run) {
    let stamp = host::Stamp::collect(args.seed);
    let counts = run.counts[0];
    let mut errors = run.errors;
    if run.counts.iter().any(|c| *c != counts) {
        errors.push(format!(
            "work counts changed between iterations of one run: {:?}",
            run.counts
        ));
    }
    let counts_json = serde_json::to_string(&counts).expect("counts serialise");
    for (path, earlier) in earlier_counts(args, &stamp) {
        if earlier != counts.to_value() {
            errors.push(format!(
                "changed work: {} recorded {}, this run {counts_json}",
                path.display(),
                serde_json::to_string(&Raw(earlier)).expect("counts serialise")
            ));
        }
    }
    let correct = run.failed == 0 && errors.is_empty();
    let frac = run.failed as f64 / run.attempted.max(1) as f64;

    println!(
        "workload {} seed {} trace {}: {} iterations on {workers} workers",
        args.workload,
        args.seed,
        u8::from(args.trace),
        run.iterations
    );
    for (name, unit, value) in &run.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!(
        "  {:<28} {frac:>16.6} frac ({} of {} operations failed)",
        "ops_failed_frac", run.failed, run.attempted
    );
    println!("  work counts: {counts_json}");
    for e in errors.iter().take(10) {
        println!("  FAILED: {e}");
    }

    let metrics = Value::Object(
        run.metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name.to_string(),
                    obj(vec![
                        ("value", Value::Float(value)),
                        ("unit", Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let full = obj(vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::UInt(args.seed)),
        ("trace", Value::Bool(args.trace)),
        ("seconds", Value::Float(args.seconds)),
        ("iterations", Value::UInt(run.iterations as u64)),
        ("stamp", stamp.to_value()),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(run.attempted)),
        ("failed", Value::UInt(run.failed)),
        ("ops_failed_frac", Value::Float(frac)),
        ("counts", counts.to_value()),
        ("errors", errors.to_value()),
        ("metrics", metrics.clone()),
        (
            "samples",
            Value::Object(
                run.samples
                    .iter()
                    .map(|(name, xs)| (name.to_string(), xs.to_value()))
                    .collect(),
            ),
        ),
    ]);
    std::fs::create_dir_all(OUT_DIR).expect("create the benchmark output directory");
    let path = result_path(&args.workload, args.seed, args.trace);
    let body = serde_json::to_string_pretty(&Raw(full)).expect("result serialises");
    std::fs::write(&path, body).expect("write the result file");
    if args.trace {
        let spans_path =
            Path::new(OUT_DIR).join(format!("{}-seed{}.spans.json", args.workload, args.seed));
        let body = serde_json::to_string(&run.spans).expect("spans serialise");
        std::fs::write(spans_path, body).expect("write the span file");
    }
    println!("  result: {}", path.display());

    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(run.attempted)),
        ("failed", Value::UInt(run.failed)),
        ("metrics", metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&Raw(line)).expect("result line serialises")
    );
}
