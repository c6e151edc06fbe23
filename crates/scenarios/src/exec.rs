//! Sweep execution on scoped worker threads.
//!
//! Determinism policy (same contract as `fpk_core::montecarlo`): every
//! job is a pure function of its linear index — cell parameters and all
//! RNG seeds derive from `(base_seed, index)` — and results are merged
//! back in index order. Output is therefore **bit-identical for a fixed
//! base seed regardless of thread count**; the `FPK_THREADS` environment
//! variable only changes wall-clock time.
//!
//! Execution model: each batch is one `std::thread::scope`, like the
//! Fokker–Planck slab stepper and the Langevin ensemble. Workers
//! *stride* the index space (worker `w` takes jobs `w, w+T, w+2T, …`),
//! the calling thread works stripe 0, every worker builds its scratch
//! (a [`NetArena`] for sweeps) once per batch, and the stripes are
//! interleaved back into index order after the batch.
//!
//! Sweeps aggregate **streamingly**: parallelism is per *cell*, each
//! worker folds its cell's replications one at a time through
//! [`CellAccum`], so a 10⁵-cell × R grid holds O(cells) finished
//! reports but never materialises the O(cells × R) run summaries the
//! collect-then-aggregate path kept live. For grids too big for one
//! process, [`run_sweep_shard`] computes a deterministic slice of the
//! grid and [`SweepReport::merge`] reassembles the full report from
//! shard parts — bit-identical to the unsharded run.

use crate::ensemble::{CellAccum, Ensemble, EnsembleStats};
use crate::sweep::{Cell, Sweep};
pub use fpk_numerics::exec::thread_count;
use fpk_numerics::{NumericsError, Result};
use fpk_sim::NetArena;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Run `n_jobs` independent jobs on `threads` workers and return their
/// results in job order. The output is bit-identical for any `threads`
/// as long as `f` is a pure function of the index.
///
/// # Panics
/// Re-raises a panicking job on the calling thread, naming the failing
/// job index alongside the original payload.
pub fn run_indexed<T, F>(n_jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(n_jobs, threads, || (), |(), i| f(i))
}

/// [`run_indexed`] with per-worker scratch state: each worker calls
/// `init` once per batch and threads the `C` through all of its jobs
/// (this is how a sweep's replications share one [`NetArena`] per
/// worker). Determinism contract: `f` must be a pure function of the
/// *index* — the scratch state may cache allocations but must not leak
/// information between jobs.
///
/// # Panics
/// See [`run_indexed`]. When several jobs panic, the smallest failing
/// index is the one reported.
pub fn run_indexed_with<T, C, I, F>(n_jobs: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, usize) -> T + Sync,
{
    if n_jobs == 0 {
        return Vec::new();
    }
    let stripes = threads.clamp(1, n_jobs);
    // Stripe `w`: jobs `w, w+T, …`, stopping at the first panic, which
    // is caught so its job index travels with the message.
    let stripe = |w: usize| -> std::result::Result<Vec<T>, (usize, String)> {
        let mut ctx = init();
        let mut out = Vec::with_capacity(n_jobs / stripes + 1);
        // lint: hot-path arena(out)
        for i in (w..n_jobs).step_by(stripes) {
            // `AssertUnwindSafe`: the stripe ends at the panic, so a
            // half-updated scratch is never read again.
            match catch_unwind(AssertUnwindSafe(|| f(&mut ctx, i))) {
                Ok(v) => out.push(v),
                Err(payload) => return Err((i, panic_message(&*payload))),
            }
        }
        // lint: end
        Ok(out)
    };
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..stripes)
            .map(|w| scope.spawn(move || stripe(w)))
            .collect();
        let mine = stripe(0);
        // A helper can only panic in `init`; re-raise that as is.
        std::iter::once(mine)
            .chain(
                helpers
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))),
            )
            .collect()
    });
    if let Some((i, msg)) = outcomes.iter().filter_map(|o| o.as_ref().err()).min() {
        panic!("parallel job {i} panicked: {msg}");
    }
    let mut stripe_vecs: Vec<_> = outcomes
        .into_iter()
        .map(|o| o.expect("failures were re-raised above").into_iter())
        .collect();
    (0..n_jobs)
        .map(|i| {
            stripe_vecs[i % stripes]
                .next()
                .expect("stripe covers its indices")
        })
        .collect()
}

/// The text of a panic payload (`panic!` carries a `&str` or a
/// `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Evaluate every cell of a sweep with a custom function, in parallel,
/// results in cell order. For sweeps whose cells are not plain DES runs
/// (fluid models, DDEs, theory curves).
///
/// # Errors
/// Propagates the first failing cell (by cell order).
pub fn run_cells<T, F>(sweep: &Sweep, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(&Cell) -> Result<T> + Sync,
{
    let cells = sweep.cells();
    run_indexed(cells.len(), thread_count(), |i| f(&cells[i]))
        .into_iter()
        .collect()
}

/// One axis of a [`SweepReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AxisReport {
    /// Axis name.
    pub name: String,
    /// Grid points along the axis.
    pub values: Vec<f64>,
}

/// One aggregated cell of a [`SweepReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellReport {
    /// Cell name (`base[axis=value,…]`).
    pub name: String,
    /// Linear row-major index in the grid.
    pub index: usize,
    /// Axis values at this cell, in axis order.
    pub coords: Vec<f64>,
    /// The cell's derived seed (replication seeds derive from it).
    pub seed: u64,
    /// Replication-aggregated statistics.
    pub stats: EnsembleStats,
}

/// The JSON artifact a sweep run produces: one entry per cell, plus
/// enough metadata (axes, seeds, replication count) to reproduce it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Sweep (base scenario) name; also the artifact file stem.
    pub name: String,
    /// Base seed all cell seeds derive from.
    pub base_seed: u64,
    /// Replications per cell.
    pub replications: usize,
    /// Axis metadata in declaration order.
    pub axes: Vec<AxisReport>,
    /// Aggregated cells in row-major grid order (for a shard report:
    /// the shard's cells, still carrying their global grid indices).
    pub cells: Vec<CellReport>,
}

impl SweepReport {
    /// Write the report to `<results dir>/<name>.json` via the shared
    /// artifact writer and return the path. The directory defaults to
    /// `results/` and honours the `FPK_RESULTS_DIR` environment override
    /// (see [`crate::artifact::results_dir`]).
    pub fn write(&self) -> std::path::PathBuf {
        crate::artifact::write_json(&self.name, self)
    }

    /// Number of cells the axes span (what a complete report carries).
    #[must_use]
    pub fn grid_len(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Reassemble a full report from shard parts (any order, e.g. one
    /// [`run_sweep_shard`] output per process). Cells are re-sorted
    /// into grid order, so the merged report is **bit-identical** to
    /// what one unsharded [`run_sweep`] over the same sweep produces.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] when `parts` is empty, the
    /// parts disagree on sweep metadata (name, base seed, replications,
    /// axes), or the union of their cells does not cover the grid
    /// exactly once (missing, duplicate, or out-of-range indices).
    pub fn merge(parts: Vec<SweepReport>) -> Result<SweepReport> {
        let Some(first) = parts.first() else {
            return Err(NumericsError::InvalidParameter {
                context: "merge: need at least one shard report",
            });
        };
        if parts[1..].iter().any(|p| {
            p.name != first.name
                || p.base_seed != first.base_seed
                || p.replications != first.replications
                || p.axes.len() != first.axes.len()
                || p.axes
                    .iter()
                    .zip(&first.axes)
                    .any(|(a, b)| a.name != b.name || a.values != b.values)
        }) {
            return Err(NumericsError::InvalidParameter {
                context: "merge: shard reports disagree on sweep metadata",
            });
        }
        let mut merged = SweepReport {
            name: first.name.clone(),
            base_seed: first.base_seed,
            replications: first.replications,
            axes: first.axes.clone(),
            cells: parts.into_iter().flat_map(|p| p.cells).collect(),
        };
        merged.cells.sort_by_key(|c| c.index);
        let complete = merged.cells.len() == merged.grid_len()
            && merged.cells.iter().enumerate().all(|(i, c)| c.index == i);
        if !complete {
            return Err(NumericsError::InvalidParameter {
                context: "merge: shard cells do not cover the grid exactly once",
            });
        }
        Ok(merged)
    }
}

/// One slice of a sweep grid for multi-process (checkpoint/resume)
/// execution: shard `index` of `count` owns the cells whose grid index
/// is ≡ `index` (mod `count`). The modulo partition balances load even
/// when cost varies smoothly along an axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Shard {
    /// Which slice this is (`0..count`).
    pub index: usize,
    /// Total number of slices.
    pub count: usize,
}

impl Shard {
    /// Shard `index` of `count`.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] unless `index < count`.
    pub fn new(index: usize, count: usize) -> Result<Self> {
        if index < count {
            Ok(Self { index, count })
        } else {
            Err(NumericsError::InvalidParameter {
                context: "Shard: index must lie below count",
            })
        }
    }

    /// True when this shard owns grid cell `cell_index`.
    #[must_use]
    pub fn owns(&self, cell_index: usize) -> bool {
        cell_index % self.count == self.index
    }

    /// Artifact file stem for this shard of sweep `name`
    /// (`<name>.shard<i>of<n>`); the shard geometry lives in the file
    /// name so the `SweepReport` JSON schema stays byte-identical to an
    /// unsharded report's.
    #[must_use]
    pub fn file_stem(&self, name: &str) -> String {
        format!("{name}.shard{}of{}", self.index, self.count)
    }
}

/// Run a sweep with `replications` seeds per cell on the default worker
/// count ([`thread_count`]).
///
/// # Errors
/// Propagates the first failing replication (in deterministic cell
/// order) and ensemble-validation errors.
pub fn run_sweep(sweep: &Sweep, replications: usize) -> Result<SweepReport> {
    run_sweep_on(sweep, replications, thread_count())
}

/// [`run_sweep`] with an explicit worker count. Parallelism is per
/// *cell*: a worker runs all of a cell's replications in order, folding
/// each summary straight into a streaming [`CellAccum`] — memory per
/// in-flight cell is O(1) in the replication count, and the aggregated
/// output is bit-identical to collect-then-[`crate::aggregate`].
///
/// # Errors
/// See [`run_sweep`].
pub fn run_sweep_on(sweep: &Sweep, replications: usize, threads: usize) -> Result<SweepReport> {
    run_sweep_filtered(sweep, replications, threads, None)
}

/// Run only the cells a [`Shard`] owns, on the default worker count.
/// The report keeps global cell indices and per-cell seeds, so
/// [`SweepReport::merge`] over all `count` shard reports reproduces the
/// unsharded report bit-for-bit — shards may run in any order, in
/// separate processes, on different thread counts.
///
/// # Errors
/// See [`run_sweep`].
pub fn run_sweep_shard(sweep: &Sweep, replications: usize, shard: Shard) -> Result<SweepReport> {
    run_sweep_filtered(sweep, replications, thread_count(), Some(shard))
}

fn run_sweep_filtered(
    sweep: &Sweep,
    replications: usize,
    threads: usize,
    shard: Option<Shard>,
) -> Result<SweepReport> {
    // Validates `replications >= 1`.
    Ensemble::new(replications)?;
    let mut cells = sweep.cells();
    if let Some(shard) = shard {
        cells.retain(|c| shard.owns(c.index));
    }
    let reports: Result<Vec<CellReport>> =
        run_indexed_with(cells.len(), threads, NetArena::new, |arena, j| {
            let cell = &cells[j];
            let mut accum = CellAccum::new();
            for r in 0..replications {
                let seed = Ensemble::replication_seed(cell.seed, r);
                accum.push(&cell.scenario.run_seeded_in(arena, seed)?)?;
            }
            Ok(CellReport {
                name: cell.scenario.name.clone(),
                index: cell.index,
                coords: cell.coords.clone(),
                seed: cell.seed,
                stats: accum.finish()?,
            })
        })
        .into_iter()
        .collect();
    Ok(SweepReport {
        name: sweep.name().to_string(),
        base_seed: sweep.base_seed(),
        replications,
        axes: sweep
            .axes()
            .iter()
            .map(|a| AxisReport {
                name: a.name.clone(),
                values: a.values.clone(),
            })
            .collect(),
        cells: reports?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::sweep::Axis;
    use crate::test_env;
    use fpk_congestion::LinearExp;
    use fpk_sim::{Service, SimConfig, SourceSpec};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sweep() -> Sweep {
        let base = Scenario::new(
            "exec",
            SimConfig {
                mu: 40.0,
                service: Service::Exponential,
                buffer: None,
                t_end: 12.0,
                warmup: 2.0,
                sample_interval: 0.1,
                seed: 0,
            },
            vec![SourceSpec::Rate {
                law: LinearExp::new(8.0, 0.5, 10.0),
                lambda0: 15.0,
                update_interval: 0.1,
                prop_delay: 0.01,
                poisson: true,
            }],
        );
        Sweep::new(base, 2024)
            .axis(Axis::mu(vec![30.0, 60.0]))
            .axis(Axis::flow_count(vec![1.0, 2.0]))
    }

    /// A cheap sweep for tests that care about grid mechanics, not DES
    /// fidelity: `cells × 1` label grid, sub-second simulated horizon.
    fn light_sweep(name: &'static str, cells: usize) -> Sweep {
        let base = Scenario::new(
            name,
            SimConfig {
                mu: 40.0,
                service: Service::Exponential,
                buffer: None,
                t_end: 2.0,
                warmup: 0.25,
                sample_interval: 0.1,
                seed: 0,
            },
            vec![SourceSpec::Rate {
                law: LinearExp::new(8.0, 0.5, 10.0),
                lambda0: 15.0,
                update_interval: 0.1,
                prop_delay: 0.01,
                poisson: true,
            }],
        );
        Sweep::new(base, 77).axis(Axis::label_only(
            "k",
            (0..cells).map(|i| i as f64).collect(),
        ))
    }

    #[test]
    fn run_indexed_orders_results() {
        for threads in [1, 2, 7] {
            let out = run_indexed(23, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_indexed(0, 4, |i| i).is_empty());
        // More workers than jobs clamps cleanly.
        assert_eq!(run_indexed(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn batches_return_results_in_job_order() {
        for threads in [1, 2, 3, 8] {
            let out = run_indexed_with(13, threads, || (), |(), i| 3 * i);
            assert_eq!(out, (0..13).map(|i| 3 * i).collect::<Vec<_>>());
        }
        let empty: Vec<usize> = run_indexed_with(0, 4, || (), |(), i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn init_runs_at_most_once_per_worker_per_batch() {
        // Sweeps rely on this to build one `NetArena` per worker rather
        // than one per cell.
        for (threads, n_jobs) in [(3, 9), (8, 5), (1, 4), (4, 0)] {
            let inits = AtomicUsize::new(0);
            let out = run_indexed_with(
                n_jobs,
                threads,
                || inits.fetch_add(1, Ordering::SeqCst),
                |_, i| i * i,
            );
            assert_eq!(out, (0..n_jobs).map(|i| i * i).collect::<Vec<_>>());
            let inits = inits.into_inner();
            assert!(
                inits <= threads.min(n_jobs),
                "{threads} workers, {n_jobs} jobs: init ran {inits} times"
            );
        }
    }

    #[test]
    fn job_panics_name_the_failing_index_and_payload() {
        let caught = catch_unwind(|| {
            run_indexed(20, 4, |i| {
                assert!(i != 13, "cell exploded");
                i
            })
        })
        .expect_err("the panicking job must propagate");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("job 13"), "missing index: {msg}");
        assert!(msg.contains("cell exploded"), "missing payload: {msg}");
    }

    #[test]
    fn earliest_failing_index_wins() {
        // Jobs 3 and 11 both panic; the re-raise must name job 3
        // regardless of which stripe finishes first.
        for _ in 0..8 {
            let caught = catch_unwind(|| {
                run_indexed(16, 4, |i| {
                    assert!(i != 3 && i != 11, "boom {i}");
                    i
                })
            })
            .expect_err("must panic");
            let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("job 3"), "wrong index: {msg}");
        }
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        let out = run_indexed(4, 2, |i| {
            run_indexed(3, 2, |j| i * 10 + j).into_iter().sum::<usize>()
        });
        assert_eq!(out, vec![3, 33, 63, 93]);
    }

    #[test]
    fn sweep_output_bit_identical_across_thread_counts() {
        let s = sweep();
        let a = run_sweep_on(&s, 3, 1).unwrap();
        let b = run_sweep_on(&s, 3, 4).unwrap();
        let c = run_sweep_on(&s, 3, 13).unwrap();
        let ja = serde_json::to_string(&a).unwrap();
        assert_eq!(ja, serde_json::to_string(&b).unwrap());
        assert_eq!(ja, serde_json::to_string(&c).unwrap());
        assert_eq!(a.cells.len(), 4);
        assert_eq!(a.cells[3].stats.flow_throughput.len(), 2);
    }

    #[test]
    fn sweep_bit_identical_across_env_thread_counts_through_the_pool() {
        // FPK_THREADS ∈ {1,3,7} routed through the *environment* (the
        // production path) must serialise identically.
        let _guard = test_env::lock();
        let _restore = test_env::VarGuard::capture("FPK_THREADS");
        let s = sweep();
        let mut outputs = Vec::new();
        for threads in ["1", "3", "7"] {
            std::env::set_var("FPK_THREADS", threads);
            let report = run_sweep(&s, 2);
            outputs.push(serde_json::to_string(&report.unwrap()).unwrap());
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    /// Test-only serial reference for the streaming executor: every
    /// `(cell, replication)` pair through [`Scenario::run_seeded`] in
    /// order, the summaries collected, then [`crate::aggregate`] per cell.
    fn serial_reference(sweep: &Sweep, replications: usize) -> Vec<EnsembleStats> {
        sweep
            .cells()
            .iter()
            .map(|cell| {
                let runs = (0..replications)
                    .map(|r| {
                        let seed = Ensemble::replication_seed(cell.seed, r);
                        cell.scenario.run_seeded(seed)
                    })
                    .collect::<Result<Vec<_>>>()?;
                crate::aggregate(&runs)
            })
            .collect::<Result<_>>()
            .unwrap()
    }

    #[test]
    fn streaming_sweep_matches_serial_collected_reference() {
        // The striped CellAccum fold and the serial collect-then-
        // aggregate reference must agree to the bit, at several widths.
        let s = sweep();
        let reference: Vec<String> = serial_reference(&s, 3)
            .iter()
            .map(|st| serde_json::to_string(st).unwrap())
            .collect();
        for threads in [1, 4] {
            let report = run_sweep_on(&s, 3, threads).unwrap();
            let streamed: Vec<String> = report
                .cells
                .iter()
                .map(|c| serde_json::to_string(&c.stats).unwrap())
                .collect();
            assert_eq!(streamed, reference, "threads = {threads}");
        }
    }

    #[test]
    fn run_cells_custom_evaluator() {
        // A "fluid" sweep that ignores the DES bundle entirely.
        let _guard = test_env::lock();
        let out = run_cells(&sweep(), |cell| Ok(cell.coords[0] + cell.coords[1])).unwrap();
        assert_eq!(out, vec![31.0, 32.0, 61.0, 62.0]);
    }

    #[test]
    fn errors_propagate_deterministically() {
        let mut s = sweep();
        // Poison the base config so every cell fails validation.
        s = Sweep::new(
            {
                let mut base = s.cells()[0].scenario.clone();
                base.net.topology.links[0].mu = -1.0;
                base
            },
            1,
        )
        .axis(Axis::flow_count(vec![1.0, 2.0]));
        assert!(run_sweep_on(&s, 2, 3).is_err());
    }

    #[test]
    fn shard_merge_matches_unsharded_bitwise() {
        let s = sweep();
        let whole = run_sweep_on(&s, 2, 3).unwrap();
        let parts: Vec<SweepReport> = (0..3)
            .map(|i| run_sweep_filtered(&s, 2, 2, Some(Shard::new(i, 3).unwrap())).unwrap())
            .collect();
        // Shards partition the grid.
        assert_eq!(parts.iter().map(|p| p.cells.len()).sum::<usize>(), 4);
        // Merge in scrambled order: grid order must be restored.
        let scrambled = vec![parts[2].clone(), parts[0].clone(), parts[1].clone()];
        let merged = SweepReport::merge(scrambled).unwrap();
        assert_eq!(
            serde_json::to_string(&whole).unwrap(),
            serde_json::to_string(&merged).unwrap()
        );
    }

    #[test]
    fn merge_rejects_gaps_duplicates_and_metadata_drift() {
        let s = sweep();
        let parts: Vec<SweepReport> = (0..2).map(|i| run_sweep_shard_on_two(&s, i)).collect();
        assert!(SweepReport::merge(Vec::new()).is_err(), "empty parts");
        assert!(
            SweepReport::merge(vec![parts[0].clone()]).is_err(),
            "missing shard leaves grid gaps"
        );
        assert!(
            SweepReport::merge(vec![parts[0].clone(), parts[0].clone()]).is_err(),
            "duplicate shard double-covers cells"
        );
        let mut drifted = parts[1].clone();
        drifted.base_seed ^= 1;
        assert!(
            SweepReport::merge(vec![parts[0].clone(), drifted]).is_err(),
            "metadata drift must be rejected"
        );
        // The honest pair still merges.
        assert!(SweepReport::merge(parts).is_ok());
    }

    fn run_sweep_shard_on_two(s: &Sweep, index: usize) -> SweepReport {
        run_sweep_filtered(s, 1, 2, Some(Shard::new(index, 2).unwrap())).unwrap()
    }

    #[test]
    fn shard_validates_and_names_files() {
        assert!(Shard::new(2, 2).is_err());
        assert!(Shard::new(0, 0).is_err());
        let sh = Shard::new(1, 4).unwrap();
        assert!(sh.owns(5) && sh.owns(1) && !sh.owns(4));
        assert_eq!(sh.file_stem("grid"), "grid.shard1of4");
    }

    #[test]
    fn stress_scale_grid_streams_exactly() {
        // A 10⁴-cell grid (tiny simulated horizon) through the
        // streaming path: every cell must come back, in order, with its
        // own seed, and spot-checked cells must match an independently
        // computed reference — the stress tier is exact, not sampled.
        let s = light_sweep("stress", 10_000);
        let report = run_sweep_on(&s, 1, 4).unwrap();
        assert_eq!(report.cells.len(), 10_000);
        assert!(report
            .cells
            .iter()
            .enumerate()
            .all(|(i, c)| c.index == i && c.stats.replications == 1));
        for probe in [0usize, 137, 9_999] {
            let cell = &report.cells[probe];
            let reference = cell
                .scenario_free_reference(&s)
                .expect("probe cell re-runs standalone");
            assert_eq!(
                serde_json::to_string(&cell.stats).unwrap(),
                serde_json::to_string(&reference).unwrap(),
                "cell {probe} must equal its standalone run"
            );
        }
    }

    impl CellReport {
        /// Re-run this report's cell standalone (fresh arena, no executor)
        /// and aggregate — the reference value for stress spot-checks.
        fn scenario_free_reference(&self, s: &Sweep) -> Result<EnsembleStats> {
            let cell = s
                .cells()
                .into_iter()
                .find(|c| c.index == self.index)
                .expect("probe index in grid");
            Ensemble::new(1)?.run(&cell.scenario, cell.seed)
        }
    }
}
