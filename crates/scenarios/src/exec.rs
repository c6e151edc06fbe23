//! Sweep execution on the persistent worker pool.
//!
//! Determinism policy (same contract as `fpk_core::montecarlo`): every
//! job is a pure function of its linear index — cell parameters and all
//! RNG seeds derive from `(base_seed, index)` — and results are merged
//! back in index order. Output is therefore **bit-identical for a fixed
//! base seed regardless of thread count**; the `FPK_THREADS` environment
//! variable only changes wall-clock time.
//!
//! Execution model: batches run on the process-wide [`crate::pool`] —
//! workers are spawned once, park on their job channels between sweeps,
//! and keep their [`NetArena`] scratch across batches, so no sweep after
//! the first pays thread-spawn or arena-construction cost (the PR-5
//! executor spawned fresh `std::thread::scope` threads per sweep, which
//! made `scenario_grid/parallel` *lose* to serial at table-sized grids).
//! Workers *stride* the index space (worker `w` takes jobs
//! `w, w+T, w+2T, …`) and stripes are interleaved back into index order
//! after the batch.
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
use crate::pool::pool;
use crate::sweep::{Cell, Sweep};
pub use fpk_numerics::exec::thread_count;
use fpk_numerics::{NumericsError, Result};
use fpk_sim::NetArena;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Run `n_jobs` independent jobs on `threads` workers and return their
/// results in job order, on the persistent pool. The output is
/// bit-identical for any `threads` as long as `f` is a pure function of
/// the index.
///
/// # Panics
/// Re-raises a panicking job on the calling thread, naming the failing
/// job index alongside the original payload.
pub fn run_indexed<T, F>(n_jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    run_indexed_with(n_jobs, threads, || (), move |(), i| f(i))
}

/// [`run_indexed`] with per-worker scratch state: every worker obtains
/// a `C` (pool workers reuse the one cached from earlier batches — this
/// is how sweep replications share one [`NetArena`] per worker across
/// the whole process) and threads it through all of its jobs.
/// Determinism contract: `f` must be a pure function of the *index* —
/// the scratch state may cache allocations but must not leak
/// information between jobs.
///
/// The `'static` bounds exist because pool workers outlive the call;
/// move [`Arc`]s into the closure for shared inputs.
///
/// # Panics
/// See [`run_indexed`].
pub fn run_indexed_with<T, C, I, F>(n_jobs: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    C: std::any::Any + Send,
    T: Send + 'static,
    I: Fn() -> C + Send + Sync + 'static,
    F: Fn(&mut C, usize) -> T + Send + Sync + 'static,
{
    pool().run_batch(n_jobs, threads, init, f)
}

/// Evaluate every cell of a sweep with a custom function, in parallel,
/// results in cell order. For sweeps whose cells are not plain DES runs
/// (fluid models, DDEs, theory curves).
///
/// # Errors
/// Propagates the first failing cell (by cell order).
pub fn run_cells<T, F>(sweep: &Sweep, f: F) -> Result<Vec<T>>
where
    T: Send + 'static,
    F: Fn(&Cell) -> Result<T> + Send + Sync + 'static,
{
    let cells = Arc::new(sweep.cells());
    let jobs = Arc::clone(&cells);
    run_indexed_with(cells.len(), thread_count(), || (), move |(), i| f(&jobs[i]))
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

    /// The cells whose coordinate on axis `k` equals `v` (within 1e-12).
    #[must_use]
    pub fn cells_where(&self, axis: usize, v: f64) -> Vec<&CellReport> {
        self.cells
            .iter()
            .filter(|c| c.coords.get(axis).is_some_and(|&x| (x - v).abs() < 1e-12))
            .collect()
    }

    /// [`Self::cells_where`], selecting the axis by *name* instead of
    /// position — robust against axes being reordered or inserted.
    /// Returns an empty vector when no axis carries that name.
    #[must_use]
    pub fn cells_where_label(&self, axis_name: &str, v: f64) -> Vec<&CellReport> {
        self.axes
            .iter()
            .position(|a| a.name == axis_name)
            .map_or_else(Vec::new, |k| self.cells_where(k, v))
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
    let cells = Arc::new(cells);
    let jobs = Arc::clone(&cells);
    let reports: Result<Vec<CellReport>> =
        run_indexed_with(cells.len(), threads, NetArena::new, move |arena, j| {
            let cell = &jobs[j];
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
        // The ISSUE's pool-determinism criterion: FPK_THREADS ∈ {1,3,7}
        // routed through the *environment* (the production path), all
        // through the persistent pool, must serialise identically.
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
        // The pooled CellAccum fold and the serial collect-then-
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
                base.config.mu = -1.0;
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
        // A 10⁴-cell grid (tiny simulated horizon) through the pooled
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
        /// Re-run this report's cell standalone (fresh arena, no pool)
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

    #[test]
    fn cells_where_selects_by_coordinate() {
        let report = run_sweep_on(&sweep(), 1, 2).unwrap();
        let hits = report.cells_where(0, 30.0);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|c| c.coords[0] == 30.0));
    }

    #[test]
    fn cells_where_label_selects_by_axis_name() {
        let report = run_sweep_on(&sweep(), 1, 2).unwrap();
        let by_label = report.cells_where_label("flows", 2.0);
        assert_eq!(by_label.len(), 2);
        assert!(by_label.iter().all(|c| c.coords[1] == 2.0));
        // Same selection as the positional accessor.
        let by_index = report.cells_where(1, 2.0);
        let a: Vec<usize> = by_label.iter().map(|c| c.index).collect();
        let b: Vec<usize> = by_index.iter().map(|c| c.index).collect();
        assert_eq!(a, b);
        // Unknown axis names select nothing rather than panicking.
        assert!(report.cells_where_label("no_such_axis", 2.0).is_empty());
    }
}
