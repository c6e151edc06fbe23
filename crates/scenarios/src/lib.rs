//! `fpk-scenarios` — the scenario / sweep / ensemble layer over the
//! discrete-event simulator.
//!
//! The paper's tables are all parameter sweeps (γ/δ grids, flow counts,
//! delays, DECbit thresholds); this crate replaces the hand-rolled sweep
//! loop every experiment binary used to carry with four composable
//! pieces:
//!
//! * [`Scenario`] — a name, one `fpk_sim::NetConfig` (topology, per-hop
//!   faults, run control, queue discipline, packet sizing), the sources
//!   with optional per-source `Route`s, and an optional finite-flow
//!   `Workload`: everything a run needs but a seed. `Scenario::new`
//!   builds the single bottleneck from a `SimConfig`. Every scenario
//!   runs through the one topology-first engine
//!   (`fpk_sim::run_network`).
//! * [`Sweep`] + [`Axis`] — expand parameter axes into a cartesian grid
//!   of cells, each with a deterministic seed derived splitmix-style
//!   from `(base_seed, cell_index)`.
//! * [`Ensemble`] — R replications per cell aggregated into
//!   mean / std-dev / 95% CI per `RunSummary` field, streamed through
//!   [`CellAccum`] so huge grids never hold per-replication summaries.
//! * [`run_sweep`] — stripes cells over scoped worker threads (one
//!   `NetArena` scratch per worker) on the shared executor
//!   [`run_indexed_with`], re-exported from `fpk_numerics::exec`:
//!   bit-identical output for a fixed base seed regardless of thread
//!   count (`FPK_THREADS`
//!   overrides the worker count), plus the shared
//!   `results/<name>.json` artifact writer ([`write_json`]).
//!   Stress-scale grids shard across processes with
//!   [`run_sweep_shard`] / [`SweepReport::merge`].
//!
//! # Example
//!
//! A 2×2 grid (service rate × flow count), three seeds per cell:
//!
//! ```
//! use fpk_congestion::LinearExp;
//! use fpk_scenarios::{run_sweep, Axis, Scenario, Sweep};
//! use fpk_sim::{Service, SimConfig, SourceSpec};
//!
//! let base = Scenario::new(
//!     "doc_grid",
//!     SimConfig {
//!         mu: 50.0, service: Service::Exponential, buffer: None,
//!         t_end: 10.0, warmup: 2.0, sample_interval: 0.1, seed: 0,
//!     },
//!     vec![SourceSpec::Rate {
//!         law: LinearExp::new(8.0, 0.5, 10.0),
//!         lambda0: 20.0, update_interval: 0.1, prop_delay: 0.01, poisson: true,
//!     }],
//! );
//! let sweep = Sweep::new(base, 42)
//!     .axis(Axis::mu(vec![40.0, 80.0]))
//!     .axis(Axis::flow_count(vec![1.0, 2.0]));
//! let report = run_sweep(&sweep, 3)?;
//! assert_eq!(report.cells.len(), 4);
//! assert!(report.cells.iter().all(|c| c.stats.utilization.mean > 0.0));
//! # Ok::<(), fpk_numerics::NumericsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod ensemble;
pub mod exec;
pub mod scenario;
pub mod sweep;

pub use artifact::{
    load_sweep_report, merge_sweep_shards, results_dir, write_json, write_sweep_shard,
};
pub use ensemble::{aggregate, CellAccum, Ensemble, EnsembleStats, Stat, WorkloadEnsemble};
pub use exec::{
    run_cells, run_indexed, run_indexed_with, run_sweep, run_sweep_on, run_sweep_shard,
    thread_count, AxisReport, CellReport, Shard, SweepReport,
};
pub use scenario::Scenario;
pub use sweep::{derive_seed, Axis, Cell, Sweep};

#[cfg(test)]
pub(crate) mod test_env {
    //! Shared lock for tests that touch process-global environment
    //! variables (`FPK_THREADS`, `FPK_RESULTS_DIR`): the
    //! test runner is threaded, so an unguarded `set_var` in one test
    //! races every other test that reads the same variable.
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Hold the guard for the whole env-mutating (or env-sensitive)
    /// test. Poisoning is ignored: a failed test must not cascade.
    pub(crate) fn lock() -> MutexGuard<'static, ()> {
        ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot one variable's current value and restore it on drop, so
    /// an env-mutating test cannot clobber an externally-set override
    /// (CI pins `FPK_THREADS=1` for a whole test run).
    pub(crate) struct VarGuard {
        key: &'static str,
        prev: Option<std::ffi::OsString>,
    }

    impl VarGuard {
        pub(crate) fn capture(key: &'static str) -> Self {
            Self {
                key,
                prev: std::env::var_os(key),
            }
        }
    }

    impl Drop for VarGuard {
        fn drop(&mut self) {
            match &self.prev {
                Some(v) => std::env::set_var(self.key, v),
                None => std::env::remove_var(self.key),
            }
        }
    }
}
