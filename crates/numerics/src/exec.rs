//! The one batch executor and the process-wide worker-count setting.
//!
//! [`run_indexed`] / [`run_indexed_with`] stripe indexed jobs over one
//! `std::thread::scope` and return the results in job order, so the
//! output is bit-identical for any worker count when each job is a pure
//! function of its index. Sweep cells (`fpk-scenarios`) and the Langevin
//! ensemble's RNG streams (`fpk-core`) run on it; the Fokker–Planck slab
//! stepper keeps its own scope, as its slabs swap halos every step. All
//! size themselves from [`thread_count`] (`FPK_THREADS`).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Worker count: the `FPK_THREADS` override when set, otherwise the
/// machine's available parallelism.
///
/// # Panics
/// Panics when `FPK_THREADS` is set to anything but a positive integer
/// (unset or empty means "no override"). A typo'd determinism override
/// must fail loudly, not silently fall back to machine parallelism.
#[must_use]
pub fn thread_count() -> usize {
    // lint: allow(env-var) — FPK_THREADS is a designated config accessor (DESIGN §3h); worker count never feeds simulation results.
    match std::env::var("FPK_THREADS") {
        Err(std::env::VarError::NotPresent) => default_parallelism(),
        Err(std::env::VarError::NotUnicode(raw)) => {
            panic!("FPK_THREADS must be a positive integer, got non-UTF-8 {raw:?}")
        }
        Ok(s) if s.is_empty() => default_parallelism(),
        Ok(s) => match s.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => panic!(
                "FPK_THREADS must be a positive integer, got {s:?} \
                 (unset it for machine parallelism)"
            ),
        },
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

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
/// (this is how a sweep's replications share one `NetArena` per
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Restores `FPK_THREADS` on drop, so the test cannot clobber an
    /// externally-set override (CI pins `FPK_THREADS=1` for a whole
    /// test run). This is the crate's only test that touches the
    /// environment, so no cross-test lock is needed.
    struct Restore(Option<std::ffi::OsString>);

    impl Drop for Restore {
        fn drop(&mut self) {
            match &self.0 {
                Some(v) => std::env::set_var("FPK_THREADS", v),
                None => std::env::remove_var("FPK_THREADS"),
            }
        }
    }

    #[test]
    fn thread_count_rejects_malformed_or_zero_override() {
        let _restore = Restore(std::env::var_os("FPK_THREADS"));
        for bad in ["zero", "0", "-3", "1.5"] {
            std::env::set_var("FPK_THREADS", bad);
            let caught = catch_unwind(thread_count);
            std::env::remove_var("FPK_THREADS");
            let msg = caught
                .expect_err("malformed FPK_THREADS must panic")
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains(bad), "panic must quote the bad value: {msg}");
        }
        // Empty means "no override", like unset.
        std::env::set_var("FPK_THREADS", "");
        let n = thread_count();
        std::env::remove_var("FPK_THREADS");
        assert!(n >= 1);
        std::env::set_var("FPK_THREADS", "3");
        let n = thread_count();
        std::env::remove_var("FPK_THREADS");
        assert_eq!(n, 3);
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
}
