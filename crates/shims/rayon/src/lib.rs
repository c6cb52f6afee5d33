//! Offline stand-in for `rayon` — now a real parallel runtime.
//!
//! Earlier revisions of this shim degraded every `par_iter()` to the
//! sequential iterator. That made the GPU simulator's "kernel launches"
//! run on one host thread, so every wall-clock number in the bench
//! harness measured serial execution. This crate now implements the
//! subset of rayon the workspace uses on top of a dependency-free
//! work-stealing pool:
//!
//! - [`prelude`]: `par_iter` / `par_iter_mut` / `into_par_iter` with
//!   `map`, `enumerate`, `zip`, `fold`/`reduce`, `sum`, `for_each`, and
//!   order-preserving `collect` (including `collect::<Result<Vec<_>, E>>`
//!   with deterministic earliest-error selection).
//! - [`ThreadPoolBuilder`] / [`ThreadPool::install`] for explicit thread
//!   counts, plus a global default sized from `RAYON_NUM_THREADS` or
//!   `std::thread::available_parallelism()`.
//! - Work stealing: per-worker deques seeded with contiguous chunk
//!   spans; idle workers steal from the back of a victim's deque, so
//!   skewed item costs (e.g. `fold_groups` over uneven histogram
//!   buckets) rebalance automatically. See [`pool`] for the execution
//!   model and panic semantics.
//!
//! Determinism contract: item values, collect order, and zip alignment
//! are identical at every thread count (including 1); only wall-clock
//! changes. A panic in one item cancels the remaining work, is re-raised
//! on the caller, and leaves the pool reusable.
//!
//! # Data-race freedom is the compiler's job
//!
//! Every entry point that hands a closure to the pool bounds it
//! `Fn(..) + Sync`, the crate contains no `unsafe`, and the only thread
//! creation is `std::thread::scope`. So a closure crossing the
//! work-stealing boundary cannot write a captured binding, mutate a
//! captured collection, or share a `Cell`/`RefCell`/`Rc` — rustc rejects
//! each (the workspace once carried analyzer rules that guessed at this
//! by name-matching; these doctests pin the real guarantee):
//!
//! ```compile_fail,E0596
//! use rayon::prelude::*;
//! let items = vec![1u64, 2, 3];
//! let mut total = 0u64;
//! items.par_iter().for_each(|x| total += x); // write to a captured binding
//! ```
//!
//! ```compile_fail,E0596
//! use rayon::prelude::*;
//! let items = vec![1u64, 2, 3];
//! let mut log = Vec::new();
//! items.par_iter().for_each(|x| log.push(*x)); // interior write to a capture
//! ```
//!
//! ```compile_fail,E0277
//! use rayon::prelude::*;
//! let items = vec![1u64, 2, 3];
//! let hits = std::cell::RefCell::new(0u64);
//! items.par_iter().for_each(|x| *hits.borrow_mut() += x); // `RefCell` is not `Sync`
//! ```
//!
//! Shared state goes behind a lock (or through `fold`/`reduce`/`sum`):
//!
//! ```
//! use rayon::prelude::*;
//! let items = vec![1u64, 2, 3];
//! let total = std::sync::Mutex::new(0u64);
//! items.par_iter().for_each(|x| *total.lock().unwrap() += x);
//! assert_eq!(total.into_inner().unwrap(), 6);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![allow(
    clippy::disallowed_methods,
    reason = "the pool reads its own width and starts the drives `crates/clippy.toml` bans \
              elsewhere; width decides chunking only, and every drive returns outputs in \
              task order"
)]

pub mod iter;
pub mod pool;

pub use pool::{current_num_threads, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};

pub mod prelude {
    //! The conversion traits, mirroring `rayon::prelude`.
    pub use crate::iter::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParIter,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_matches_iter() {
        let v = vec![1, 2, 3];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
        let sum: i32 = v.into_par_iter().sum();
        assert_eq!(sum, 6);
    }

    #[test]
    fn env_override_is_respected_or_default_positive() {
        // The global default is computed once per process; whatever it
        // resolved to must be a positive worker count.
        assert!(crate::current_num_threads() >= 1);
    }
}
