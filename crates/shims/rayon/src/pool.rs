//! The host thread pool: one shared cursor over independent tasks.
//!
//! Execution model: every parallel-iterator drive is a batch of `tasks`
//! indexed items that never spawn more work. `run_ordered` spawns scoped
//! `std::thread` workers (the caller participates as worker 0), and each
//! worker claims the next index with one `fetch_add` on a shared cursor
//! until the cursor passes `tasks`. An expensive item holds up only the
//! worker that claimed it; the others keep claiming, so skewed item costs
//! balance on their own.
//!
//! Claim order: the cursor hands out indices in increasing order, and a
//! claimed task always runs to its end (the stop flag below ends further
//! claims only). So when task `i` runs, every task below `i` has been
//! claimed by a worker that is running it or has run it, and task `i` may
//! block until a lower-indexed task of its own drive has produced
//! something: the lowest blocked task waits on one that is running. The
//! producer must hand its value over on every exit, unwinding included,
//! or its waiter never wakes. Waiting on a *higher* index can deadlock
//! (at width 1 the tasks run one after another on the caller).
//!
//! Nesting: a drive started inside a task runs inline on that task's
//! thread, in index order, and [`current_num_threads`] reads 1 there. The
//! outer drive has already spread the work over the pool's workers, so a
//! nested spawn would only add threads to a busy host.
//!
//! Ordering and determinism: each task returns `(task_index, output)`;
//! the caller reassembles outputs by task index, so results are always in
//! task order no matter which worker ran what. Task *outputs* therefore
//! never depend on the thread count; only wall-clock does.
//!
//! Panics: a panicking task body is caught in the worker, the first
//! payload is parked in a shared slot, the stop flag cancels unclaimed
//! work, and the payload is re-raised on the calling thread once every
//! worker has drained. Nothing is poisoned — the next drive starts from a
//! fresh cursor.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

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

    /// Whether this thread is running a drive's task, so that a drive it
    /// starts runs inline.
    static IN_TASK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs one task body with this thread marked as inside a task, restoring
/// the mark on every exit, unwinding included.
fn in_task<T>(body: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_TASK.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(IN_TASK.with(|c| c.replace(true)));
    body()
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
/// 1 inside a drive's task (a nested drive runs inline), else the
/// innermost [`ThreadPool::install`] override, else the global default
/// (computed once per process).
pub fn current_num_threads() -> usize {
    if IN_TASK.with(|c| c.get()) {
        return 1;
    }
    match INSTALLED.with(|c| c.get()) {
        0 => *GLOBAL_THREADS.get_or_init(default_threads),
        installed => installed,
    }
}

/// Executes `tasks` indexed work units across the pool and returns their
/// outputs **in task order**. `f` must be safe to call concurrently from
/// several threads (hence `Sync`); each index in `0..tasks` is evaluated
/// exactly once.
///
/// With an effective width of one (single-thread pool, a single task, or
/// a drive nested in another's task) everything runs inline on the caller
/// in index order with zero spawns — the `RAYON_NUM_THREADS=1`
/// configuration is exactly the old sequential shim. A task may block on
/// a lower-indexed task of the same drive (see the module docs).
pub(crate) fn run_ordered<T, F>(tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = current_num_threads().min(tasks).max(1);
    let f = |idx| in_task(|| f(idx));
    if workers <= 1 {
        // Inline fast path; a panic propagates straight to the caller.
        return (0..tasks).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_panic = Mutex::new(None);
    // One worker: claim indices until the cursor passes `tasks`, run each
    // under `catch_unwind`, keep the first panic payload and stop.
    let worker = || {
        let mut out = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= tasks {
                break;
            }
            match panic::catch_unwind(AssertUnwindSafe(|| f(idx))) {
                Ok(value) => out.push((idx, value)),
                Err(payload) => {
                    // The first payload stays; a later one is dropped.
                    first_panic.with(|slot| {
                        slot.get_or_insert(payload);
                    });
                    stop.store(true, Ordering::Relaxed);
                }
            }
        }
        out
    };

    let mut results: Vec<(usize, T)> = Vec::with_capacity(tasks);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        // The caller is worker 0.
        results.extend(worker());
        for h in handles {
            // Worker closures never unwind (task panics are caught and
            // parked), so a join error is unreachable; tolerate it anyway.
            if let Ok(part) = h.join() {
                results.extend(part);
            }
        }
    });

    if let Some(payload) = first_panic.into_inner() {
        panic::resume_unwind(payload);
    }

    results.sort_unstable_by_key(|&(idx, _)| idx);
    debug_assert_eq!(results.len(), tasks, "every task must report exactly once");
    results.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

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
        let ids = pool.install(|| {
            run_ordered(4, |_| {
                arrived.fetch_add(1, Ordering::SeqCst);
                wait_until(|| arrived.load(Ordering::SeqCst) >= 4);
                std::thread::current().id()
            })
        });
        assert_eq!(arrived.load(Ordering::SeqCst), 4, "rendezvous timed out");
        let distinct = (0..ids.len()).filter(|&i| !ids[..i].contains(&ids[i]));
        assert_eq!(distinct.count(), 4, "tasks must run on distinct threads");
    }

    #[test]
    fn slow_tasks_keep_their_order() {
        // The first two tasks are slow; the other workers keep claiming
        // past them, and the outputs still come back in task order.
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

    /// Runs `f` on its own thread and fails the test if it has not
    /// finished within ten seconds, so a hung waiter is a failure, not a
    /// blocked test run; a panic in `f` is re-raised here.
    fn within<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(f)));
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Ok(value)) => value,
            Ok(Err(payload)) => panic::resume_unwind(payload),
            Err(_) => panic!("the drive did not finish: a waiting task hangs"),
        }
    }

    /// A hand-off slot filled on every exit of its producer: its value on
    /// return, `None` on unwind.
    fn produce(slot: &OnceLock<Option<usize>>, value: impl FnOnce() -> usize) -> usize {
        struct Unwind<'a>(&'a OnceLock<Option<usize>>);
        impl Drop for Unwind<'_> {
            fn drop(&mut self) {
                let _ = self.0.set(None);
            }
        }
        let _unwind = Unwind(slot);
        let v = value();
        let _ = slot.set(Some(v));
        v
    }

    /// Waits until `flag` is up.
    fn spin_until(flag: &AtomicBool) {
        wait_until(|| flag.load(Ordering::SeqCst));
    }

    /// Sleeps in 1 ms steps until `done()` holds, for at least ten
    /// seconds (10,000 steps) — a rendezvous that times out rather than
    /// hangs when the pool is broken, with no clock read.
    fn wait_until(done: impl Fn() -> bool) {
        for _ in 0..10_000 {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_task_may_wait_on_a_lower_indexed_task_of_its_drive() {
        // Task `i` blocks until task `i - k` has produced, then produces
        // the sum of the chain below it. Wider than one, task 0 holds its
        // value back until task `k` is about to block on it, so a task
        // really waits on a running one.
        for threads in [1usize, 2, 8] {
            for k in [1usize, 3] {
                let out = within(move || {
                    let slots: Vec<OnceLock<Option<usize>>> =
                        (0..40).map(|_| OnceLock::new()).collect();
                    let waiting = AtomicBool::new(false);
                    let pool = ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    pool.install(|| {
                        run_ordered(slots.len(), |i| {
                            let below = match i.checked_sub(k) {
                                None => Some(0),
                                Some(j) => {
                                    waiting.store(true, Ordering::SeqCst);
                                    *slots[j].wait()
                                }
                            };
                            produce(&slots[i], || {
                                if i == 0 && threads > 1 {
                                    spin_until(&waiting);
                                }
                                below.unwrap() + i
                            })
                        })
                    })
                });
                let want: Vec<usize> = (0..40)
                    .map(|i: usize| (0..=i).rev().step_by(k).sum())
                    .collect();
                assert_eq!(out, want, "threads={threads} k={k}");
            }
        }
    }

    #[test]
    fn a_panicking_producer_is_re_raised_and_wakes_its_waiters() {
        // Task 7 unwinds, wider than one only once task `7 + k` is about
        // to block on it. Its slot is still filled, so that waiter wakes
        // and the drive drains; the caller sees task 7's panic.
        for threads in [1usize, 2, 8] {
            for k in [1usize, 3] {
                let woken = std::sync::Arc::new(AtomicUsize::new(0));
                let seen = std::sync::Arc::clone(&woken);
                let caught = within(move || {
                    let slots: Vec<OnceLock<Option<usize>>> =
                        (0..24).map(|_| OnceLock::new()).collect();
                    let waiting = AtomicBool::new(false);
                    let pool = ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    panic::catch_unwind(AssertUnwindSafe(|| {
                        pool.install(|| {
                            run_ordered(slots.len(), |i| {
                                if i == 7 + k {
                                    waiting.store(true, Ordering::SeqCst);
                                }
                                let below = i.checked_sub(k).map(|j| *slots[j].wait());
                                if below == Some(None) {
                                    seen.fetch_add(1, Ordering::SeqCst);
                                }
                                produce(&slots[i], || {
                                    if i == 7 {
                                        if threads > 1 {
                                            spin_until(&waiting);
                                        }
                                        panic!("producer 7 exploded");
                                    }
                                    i
                                })
                            })
                        })
                    }))
                    .map(|_| ())
                });
                let payload = caught.expect_err("the producer's panic must reach the caller");
                let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
                assert_eq!(msg, "producer 7 exploded", "threads={threads} k={k}");
                // At width 1 the panic ends the drive before task `7 + k`.
                let want = usize::from(threads > 1);
                assert_eq!(
                    woken.load(Ordering::SeqCst),
                    want,
                    "threads={threads} k={k}"
                );
            }
        }
    }

    #[test]
    fn a_drive_nested_in_a_task_runs_inline_on_the_task_thread() {
        // Two tasks of a 3-wide drive rendezvous, so two workers run them
        // (before nested drives ran inline, the spawned worker's nested
        // drive read the global width: `[3, 2]` on a 2-vCPU host). Each
        // reads width 1 and runs its nested drive on its own thread.
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let arrived = AtomicUsize::new(0);
        let seen = pool.install(|| {
            run_ordered(2, |_| {
                arrived.fetch_add(1, Ordering::SeqCst);
                wait_until(|| arrived.load(Ordering::SeqCst) >= 2);
                let me = std::thread::current().id();
                let nested = run_ordered(4, |i| (i, std::thread::current().id()));
                (current_num_threads(), me, nested)
            })
        });
        assert_eq!(arrived.load(Ordering::SeqCst), 2, "rendezvous timed out");
        assert_ne!(
            seen[0].1, seen[1].1,
            "the two tasks must run on two workers"
        );
        for (width, me, nested) in &seen {
            assert_eq!(*width, 1);
            assert_eq!(nested, &(0..4).map(|i| (i, *me)).collect::<Vec<_>>());
        }
        // Outside the drive the installed width is back.
        assert_eq!(pool.install(current_num_threads), 3);
        // An explicit install inside a task does not widen a nested drive.
        let inner = pool.install(|| run_ordered(1, |_| pool.install(current_num_threads)));
        assert_eq!(inner, vec![1]);
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
