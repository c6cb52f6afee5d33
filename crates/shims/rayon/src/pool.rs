//! The work-stealing host thread pool.
//!
//! Execution model: every parallel-iterator drive becomes a batch of
//! indexed tasks (chunks of the iteration space). [`run_ordered`] seeds
//! the tasks contiguously across per-worker deques, spawns scoped
//! `std::thread` workers (the caller participates as worker 0), and each
//! worker pops work from the *front* of its own deque and, when that runs
//! dry, steals from the *back* of a victim's — the classic crossbeam
//! deque discipline, here built on the `parking_lot` shim's mutexes.
//! Because every task is seeded before the workers start and tasks never
//! spawn tasks, a worker that finds all deques empty can exit immediately:
//! no condition variables, no idle spinning.
//!
//! Ordering and determinism: each task returns `(task_index, output)`;
//! the caller reassembles outputs by task index, so results are always in
//! task order no matter which worker ran what. Task *outputs* therefore
//! never depend on the thread count; only wall-clock does.
//!
//! Panics: a panicking task body is caught in the worker, the first
//! payload is parked in a shared slot, the stop flag cancels undispatched
//! work, and the payload is re-raised on the calling thread once every
//! worker has drained. Nothing is poisoned — the next drive starts from
//! fresh deques.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

/// How many tasks to aim for per worker when chunking an iteration space:
/// enough surplus that stealing can rebalance uneven item costs, few
/// enough that deque traffic stays negligible.
pub(crate) const CHUNKS_PER_WORKER: usize = 4;

/// A handle carrying an explicit worker count, mirroring
/// `rayon::ThreadPool`. Built by [`ThreadPoolBuilder`]; [`install`] runs a
/// closure with this pool's thread count in effect.
///
/// [`install`]: ThreadPool::install
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

/// Builder for [`ThreadPool`], mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type returned by [`ThreadPoolBuilder::build`]. The shim's build
/// cannot actually fail (workers are spawned per drive, not up front), but
/// the `Result` keeps call sites source-compatible with rayon.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Creates a builder with the default (auto-detected) thread count.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the worker count; `0` means "use the default sizing"
    /// (`RAYON_NUM_THREADS`, else `available_parallelism`).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool. Infallible in this shim; the `Result` mirrors
    /// rayon's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads })
    }
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count in effect: every parallel
    /// drive started by `op` on this thread fans out across
    /// `self.current_num_threads()` workers.
    ///
    /// Divergence from rayon: `op` runs on the *calling* thread (which
    /// also participates as a worker during drives), not on a resident
    /// pool thread. Results are identical; only thread identity differs.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.with(|c| c.set(self.0));
            }
        }
        let prev = INSTALLED.with(|c| c.replace(self.threads));
        let _restore = Restore(prev);
        op()
    }

    /// The worker count drives under this pool will use.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

thread_local! {
    /// Per-thread override installed by [`ThreadPool::install`]
    /// (0 = none).
    static INSTALLED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

static GLOBAL_THREADS: OnceLock<usize> = OnceLock::new();

/// Default pool width: `RAYON_NUM_THREADS` when set to a positive
/// integer, else `std::thread::available_parallelism()`.
fn default_threads() -> usize {
    match std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// The number of worker threads the current thread's drives will use:
/// the innermost [`ThreadPool::install`] override, else the global
/// default (computed once per process).
pub fn current_num_threads() -> usize {
    let installed = INSTALLED.with(|c| c.get());
    if installed > 0 {
        installed
    } else {
        *GLOBAL_THREADS.get_or_init(default_threads)
    }
}

/// State shared between the workers of one drive.
struct Shared {
    /// One work deque per worker, pre-seeded with contiguous task ranges.
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Set when a task panicked: undispatched tasks are abandoned.
    stop: AtomicBool,
    /// First panic payload, re-raised on the caller after the drive.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Executes `tasks` indexed work units across the pool and returns their
/// outputs **in task order**. `f` must be safe to call concurrently from
/// several threads (hence `Sync`); each index in `0..tasks` is evaluated
/// exactly once.
///
/// With an effective width of one (single-thread pool, or a single task)
/// everything runs inline on the caller with zero spawns — the
/// `RAYON_NUM_THREADS=1` configuration is exactly the old sequential
/// shim.
pub(crate) fn run_ordered<T, F>(tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = current_num_threads().min(tasks).max(1);
    if workers <= 1 {
        // Inline fast path; a panic propagates straight to the caller.
        return (0..tasks).map(f).collect();
    }

    let shared = Shared {
        deques: seed_deques(tasks, workers),
        stop: AtomicBool::new(false),
        panic: Mutex::new(None),
    };

    let mut results: Vec<(usize, T)> = Vec::with_capacity(tasks);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers - 1);
        for w in 1..workers {
            let shared = &shared;
            let f = &f;
            handles.push(scope.spawn(move || worker_loop(shared, w, f)));
        }
        // The caller is worker 0.
        results.extend(worker_loop(&shared, 0, &f));
        for h in handles {
            // Worker closures never unwind (task panics are caught and
            // parked), so a join error is unreachable; tolerate it anyway.
            if let Ok(part) = h.join() {
                results.extend(part);
            }
        }
    });

    if let Some(payload) = shared.panic.lock().take() {
        panic::resume_unwind(payload);
    }

    results.sort_unstable_by_key(|&(idx, _)| idx);
    debug_assert_eq!(results.len(), tasks, "every task must report exactly once");
    results.into_iter().map(|(_, v)| v).collect()
}

/// Distributes task indices contiguously across `workers` deques, so each
/// worker starts on its own cache-friendly span and stealing only kicks in
/// on imbalance.
fn seed_deques(tasks: usize, workers: usize) -> Vec<Mutex<VecDeque<usize>>> {
    let per = tasks.div_ceil(workers);
    (0..workers)
        .map(|w| {
            let start = (w * per).min(tasks);
            let end = ((w + 1) * per).min(tasks);
            Mutex::new((start..end).collect())
        })
        .collect()
}

/// One worker: drain own deque from the front, steal from victims' backs,
/// run each task under `catch_unwind`, accumulate `(index, output)` pairs.
fn worker_loop<T, F>(shared: &Shared, me: usize, f: &F) -> Vec<(usize, T)>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::new();
    while !shared.stop.load(Ordering::Relaxed) {
        let Some(idx) = next_task(shared, me) else {
            break;
        };
        match panic::catch_unwind(AssertUnwindSafe(|| f(idx))) {
            Ok(value) => out.push((idx, value)),
            Err(payload) => {
                // The first payload stays; a later one is dropped.
                shared.panic.lock().get_or_insert(payload);
                shared.stop.store(true, Ordering::Relaxed);
            }
        }
    }
    out
}

/// Pops from the worker's own deque, then tries to steal from each victim
/// in turn. `None` means the drive has no undispatched work left.
fn next_task(shared: &Shared, me: usize) -> Option<usize> {
    if let Some(idx) = shared.deques[me].lock().pop_front() {
        return Some(idx);
    }
    let n = shared.deques.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        if let Some(idx) = shared.deques[victim].lock().pop_back() {
            return Some(idx);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    #[test]
    fn outputs_are_in_task_order() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let out = pool.install(|| run_ordered(100, |i| i * 3));
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn truly_concurrent_workers() {
        // Four tasks rendezvous: each waits until all four have started,
        // which is only possible when four OS threads run them
        // concurrently.
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let arrived = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(10);
        let ids = pool.install(|| {
            run_ordered(4, |_| {
                arrived.fetch_add(1, Ordering::SeqCst);
                while arrived.load(Ordering::SeqCst) < 4 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                std::thread::current().id()
            })
        });
        assert_eq!(arrived.load(Ordering::SeqCst), 4, "rendezvous timed out");
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert_eq!(distinct.len(), 4, "tasks must run on distinct threads");
    }

    #[test]
    fn stealing_rebalances_uneven_tasks() {
        // Worker 0's contiguous span holds all the slow tasks; with
        // stealing the drive finishes far faster than the serial sum.
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let out = pool.install(|| {
            run_ordered(8, |i| {
                if i < 2 {
                    std::thread::sleep(Duration::from_millis(20));
                }
                i
            })
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn panic_is_surfaced_and_pool_survives() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                run_ordered(64, |i| {
                    if i == 37 {
                        panic!("task 37 exploded");
                    }
                    i
                })
            })
        }));
        let payload = caught.expect_err("the task panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("exploded"), "unexpected payload {msg:?}");
        // The pool is not poisoned: the next drive works.
        let ok = pool.install(|| run_ordered(16, |i| i + 1));
        assert_eq!(ok, (1..17).collect::<Vec<_>>());
    }

    #[test]
    fn install_override_nests_and_restores() {
        let outer = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        let base = current_num_threads();
        outer.install(|| {
            assert_eq!(current_num_threads(), 2);
            inner.install(|| assert_eq!(current_num_threads(), 5));
            assert_eq!(current_num_threads(), 2);
        });
        assert_eq!(current_num_threads(), base);
    }

    #[test]
    fn builder_zero_means_default() {
        let pool = ThreadPoolBuilder::new().num_threads(0).build().unwrap();
        assert!(pool.current_num_threads() >= 1);
    }

    #[test]
    fn empty_and_single_task_drives() {
        let none: Vec<u8> = run_ordered(0, |_| 0u8);
        assert!(none.is_empty());
        let one = run_ordered(1, |i| i + 10);
        assert_eq!(one, vec![10]);
    }
}
