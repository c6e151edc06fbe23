//! The persistent worker pool behind the sweep executor.
//!
//! PR 5 left the parallel sweep path *losing* to serial at table-sized
//! grids: `std::thread::scope` spawned and joined fresh OS threads for
//! every sweep, and the ~100µs of spawn overhead swamped the win on
//! small grids (`BENCH_baseline.json`, `scenario_grid/*`). This module
//! replaces spawn-per-call with workers that are created once per
//! process and reused by every sweep and every experiment binary:
//!
//! * **Lifecycle** — helper threads are spawned lazily the first time a
//!   batch needs them and then park on their job channel (`mpsc::recv`
//!   blocks on a condvar). They live for the rest of the process; the
//!   pool never joins them.
//! * **Worker-owned scratch** — each helper owns a [`Scratch`] cache
//!   (keyed by type) that persists across batches, so the `NetArena` a
//!   sweep worker uses is allocated once per worker, not once per sweep.
//!   The calling thread participates as stripe 0 with a thread-local
//!   scratch of its own.
//! * **Determinism** — a batch is split into `threads` stripes (stripe
//!   `w` takes jobs `w, w+T, w+2T, …`), one helper per stripe, and the
//!   stripes are interleaved back into job order. Because every job is a
//!   pure function of its index, output is bit-identical for any stripe
//!   count and any pool state.
//! * **Loud failure** — worker panics are caught per job, carried back
//!   with the failing job index, and re-raised on the calling thread
//!   naming both (the job index is the cell index for sweep batches, so
//!   a 10⁵-cell sweep names the one cell that died). Helpers survive job
//!   panics and keep serving later batches.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, OnceLock};

/// Per-worker scratch cache, keyed by type: the first batch that asks
/// for a `NetArena` pays for its construction, every later batch on the
/// same worker reuses it (with whatever buffer capacity earlier runs
/// grew). Distinct scratch types coexist, so alternating sweep batches
/// (`NetArena`) with custom-evaluator batches (`()`) does not thrash.
#[derive(Default)]
pub struct Scratch(Vec<(TypeId, Box<dyn Any + Send>)>);

impl Scratch {
    /// The cached `C`, constructed via `init` on first use.
    pub fn get_or_insert_with<C: Any + Send>(&mut self, init: impl FnOnce() -> C) -> &mut C {
        let tid = TypeId::of::<C>();
        let pos = match self.0.iter().position(|(t, _)| *t == tid) {
            Some(pos) => pos,
            None => {
                self.0.push((tid, Box::new(init())));
                self.0.len() - 1
            }
        };
        self.0[pos]
            .1
            .downcast_mut::<C>()
            .expect("scratch slot holds the type it was keyed by")
    }
}

/// A job that panicked: which index died, and the original payload.
struct JobPanic {
    index: usize,
    payload: Box<dyn Any + Send>,
}

/// One stripe's outcome: the collected results (type-erased `Vec<T>`),
/// or the stripe's first panic.
type StripeOutcome = Result<Box<dyn Any + Send>, JobPanic>;

/// Type-erased batch: knows how to run one stripe of itself.
trait Stripe: Send + Sync {
    fn run(&self, scratch: &mut Scratch, stripe: usize) -> StripeOutcome;
}

struct Batch<C, T, I, F> {
    n_jobs: usize,
    stripes: usize,
    init: I,
    f: F,
    _types: std::marker::PhantomData<fn() -> (C, T)>,
}

impl<C, T, I, F> Stripe for Batch<C, T, I, F>
where
    C: Any + Send,
    T: Send + 'static,
    I: Fn() -> C + Send + Sync,
    F: Fn(&mut C, usize) -> T + Send + Sync,
{
    fn run(&self, scratch: &mut Scratch, stripe: usize) -> StripeOutcome {
        let ctx = scratch.get_or_insert_with(&self.init);
        let mut out: Vec<T> = Vec::with_capacity(self.n_jobs / self.stripes + 1);
        let mut i = stripe;
        // lint: hot-path arena(out)
        while i < self.n_jobs {
            // Catch per job so the failing index travels with the
            // payload and the worker survives to serve later batches.
            // `AssertUnwindSafe`: on panic the scratch may hold
            // half-reset buffers, but every run fully re-initialises the
            // state it reads (`NetArena::reset`), so reuse stays sound.
            match catch_unwind(AssertUnwindSafe(|| (self.f)(&mut *ctx, i))) {
                Ok(v) => out.push(v),
                Err(payload) => return Err(JobPanic { index: i, payload }),
            }
            i += self.stripes;
        }
        // lint: end
        Ok(Box::new(out))
    }
}

/// A job message: run `stripe` of `batch` and report on `results`.
struct Job {
    batch: Arc<dyn Stripe>,
    stripe: usize,
    results: Sender<(usize, StripeOutcome)>,
}

/// The process-wide persistent pool (see the module docs).
pub struct WorkerPool {
    /// Job channels of the spawned helpers; index `w` serves stripe
    /// `w + 1` of any batch wide enough to need it.
    helpers: Mutex<Vec<Sender<Job>>>,
}

static POOL: OnceLock<WorkerPool> = OnceLock::new();

thread_local! {
    /// Stripe-0 scratch of whichever thread submits batches. Persists
    /// across sweeps exactly like a helper's scratch.
    static CALLER_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());

    /// True on pool helper threads. A helper that submits a nested
    /// batch must run it inline: enqueueing stripes onto the pool could
    /// land them in its own queue, which it cannot drain while blocked
    /// waiting for them.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `op` against the calling thread's persistent scratch, or a fresh
/// one when the thread-local is already borrowed (nested batches —
/// outputs never depend on scratch state).
fn with_caller_scratch<R>(op: impl FnOnce(&mut Scratch) -> R) -> R {
    CALLER_SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => op(&mut scratch),
        Err(_) => op(&mut Scratch::default()),
    })
}

/// The process-wide pool, created on first use.
pub fn pool() -> &'static WorkerPool {
    POOL.get_or_init(|| WorkerPool {
        helpers: Mutex::new(Vec::new()),
    })
}

impl WorkerPool {
    /// Job senders for helpers `0..n`, spawning any that do not exist
    /// yet. Helpers are never torn down; a later batch that needs fewer
    /// simply leaves the rest parked.
    fn helper_senders(&self, n: usize) -> Vec<Sender<Job>> {
        let mut helpers = self.helpers.lock().expect("pool mutex");
        while helpers.len() < n {
            let (tx, rx) = channel::<Job>();
            let id = helpers.len();
            std::thread::Builder::new()
                .name(format!("fpk-pool-{id}"))
                .spawn(move || {
                    IN_POOL_WORKER.with(|f| f.set(true));
                    let mut scratch = Scratch::default();
                    while let Ok(job) = rx.recv() {
                        let outcome = job.batch.run(&mut scratch, job.stripe);
                        // A closed result channel means the caller
                        // already panicked on another stripe's failure;
                        // drop the result and keep serving.
                        let _ = job.results.send((job.stripe, outcome));
                    }
                })
                .expect("spawn pool worker");
            helpers.push(tx);
        }
        helpers[..n].to_vec()
    }

    /// Run `n_jobs` index-pure jobs as `threads` stripes and return the
    /// results in job order. Stripe 0 runs on the calling thread (with
    /// its thread-local scratch); stripes `1..threads` run on persistent
    /// helpers. Panics if a job panicked, naming the smallest failing
    /// job index and the original payload.
    pub fn run_batch<C, T, I, F>(&self, n_jobs: usize, threads: usize, init: I, f: F) -> Vec<T>
    where
        C: Any + Send,
        T: Send + 'static,
        I: Fn() -> C + Send + Sync + 'static,
        F: Fn(&mut C, usize) -> T + Send + Sync + 'static,
    {
        if n_jobs == 0 {
            return Vec::new();
        }
        let stripes = threads.clamp(1, n_jobs);
        // Single-stripe batches (and nested batches on a pool helper)
        // run entirely on the calling thread: no channel traffic, no
        // helper wake-ups — just the persistent caller scratch.
        if stripes == 1 || IN_POOL_WORKER.with(std::cell::Cell::get) {
            let batch = Batch::<C, T, I, F> {
                n_jobs,
                stripes: 1,
                init,
                f,
                _types: std::marker::PhantomData,
            };
            return match with_caller_scratch(|s| batch.run(s, 0)) {
                Ok(boxed) => *boxed
                    .downcast::<Vec<T>>()
                    .expect("stripe returns the batch result type"),
                Err(p) => resume_with_index(p),
            };
        }
        let batch: Arc<dyn Stripe> = Arc::new(Batch::<C, T, I, F> {
            n_jobs,
            stripes,
            init,
            f,
            _types: std::marker::PhantomData,
        });
        let (results_tx, results_rx) = channel();
        for (w, sender) in self.helper_senders(stripes - 1).into_iter().enumerate() {
            sender
                .send(Job {
                    batch: Arc::clone(&batch),
                    stripe: w + 1,
                    results: results_tx.clone(),
                })
                .expect("pool worker hung up");
        }
        drop(results_tx);
        // The caller works stripe 0 itself while the helpers run.
        let mine = with_caller_scratch(|s| batch.run(s, 0));
        let mut outcomes: Vec<Option<StripeOutcome>> = (0..stripes).map(|_| None).collect();
        outcomes[0] = Some(mine);
        for (stripe, outcome) in results_rx {
            outcomes[stripe] = Some(outcome);
        }
        let mut stripe_vecs: Vec<std::vec::IntoIter<T>> = Vec::with_capacity(stripes);
        let mut first_panic: Option<JobPanic> = None;
        for outcome in outcomes {
            match outcome.expect("every stripe reports") {
                Ok(boxed) => stripe_vecs.push(
                    boxed
                        .downcast::<Vec<T>>()
                        .expect("stripe returns the batch result type")
                        .into_iter(),
                ),
                Err(p) => {
                    if first_panic.as_ref().is_none_or(|q| p.index < q.index) {
                        first_panic = Some(p);
                    }
                    stripe_vecs.push(Vec::new().into_iter());
                }
            }
        }
        if let Some(p) = first_panic {
            resume_with_index(p);
        }
        (0..n_jobs)
            .map(|i| {
                stripe_vecs[i % stripes]
                    .next()
                    .expect("stripe covers its indices")
            })
            .collect()
    }
}

/// Re-raise a caught job panic on the calling thread, naming the failing
/// job index alongside the original payload.
fn resume_with_index(p: JobPanic) -> ! {
    let msg = p
        .payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    panic!("parallel job {} panicked: {}", p.index, msg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn batches_return_results_in_job_order() {
        for threads in [1, 2, 3, 8] {
            let out = pool().run_batch(13, threads, || (), |(), i| 3 * i);
            assert_eq!(out, (0..13).map(|i| 3 * i).collect::<Vec<_>>());
        }
        let empty: Vec<usize> = pool().run_batch(0, 4, || (), |(), i| i);
        assert!(empty.is_empty());
    }

    /// A scratch type no other test uses, so cross-test pool sharing
    /// cannot perturb the init count.
    struct CountedScratch;

    #[test]
    fn worker_scratch_persists_across_batches() {
        static INITS: AtomicUsize = AtomicUsize::new(0);
        let init = || {
            INITS.fetch_add(1, Ordering::SeqCst);
            CountedScratch
        };
        let run = || {
            let out: Vec<usize> =
                pool().run_batch(9, 3, init, |_scratch: &mut CountedScratch, i| i * i);
            assert_eq!(out, (0..9).map(|i| i * i).collect::<Vec<_>>());
        };
        run();
        let after_first = INITS.load(Ordering::SeqCst);
        assert!(
            after_first <= 3,
            "three stripes construct at most three scratches, got {after_first}"
        );
        run();
        run();
        assert_eq!(
            INITS.load(Ordering::SeqCst),
            after_first,
            "repeat batches must reuse the cached worker scratch"
        );
    }

    #[test]
    fn job_panics_name_the_failing_index_and_payload() {
        let caught = catch_unwind(|| {
            pool().run_batch(
                20,
                4,
                || (),
                |(), i| {
                    assert!(i != 13, "cell exploded");
                    i
                },
            )
        })
        .expect_err("the panicking job must propagate");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("job 13"), "missing index: {msg}");
        assert!(msg.contains("cell exploded"), "missing payload: {msg}");
        // The pool survives the panic and serves later batches.
        let out = pool().run_batch(5, 4, || (), |(), i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn earliest_failing_index_wins() {
        // Jobs 3 and 11 both panic; the re-raise must name job 3
        // regardless of which stripe finishes first.
        for _ in 0..8 {
            let caught = catch_unwind(|| {
                pool().run_batch(
                    16,
                    4,
                    || (),
                    |(), i| {
                        assert!(i != 3 && i != 11, "boom {i}");
                        i
                    },
                )
            })
            .expect_err("must panic");
            let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("job 3"), "wrong index: {msg}");
        }
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        let out = pool().run_batch(
            4,
            2,
            || (),
            |(), i| {
                let inner: Vec<usize> = pool().run_batch(3, 2, || (), move |(), j| i * 10 + j);
                inner.into_iter().sum::<usize>()
            },
        );
        assert_eq!(out, vec![3, 33, 63, 93]);
    }
}
