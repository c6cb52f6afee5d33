//! Offline stand-in for `parking_lot`, cut down to the one lock the
//! workspace takes.
//!
//! [`Mutex`] wraps `std::sync::Mutex` with parking_lot's "no poisoning"
//! semantics, and it is reached only through [`Mutex::with`]: the closure
//! gets `&mut T` for its duration and nothing else. No guard type exists,
//! so a guard cannot be `let`-bound, stored or returned — the lock is
//! released when the closure returns.
//!
//! A thread never holds two locks: a `with` on a thread that is already
//! inside one panics with [`NESTED_WITH`], so no lock order can deadlock.
//! A closure that panics releases the lock and clears the thread's held
//! flag on the way out, and the next `with` sees the value as the closure
//! left it.
//!
//! There is no `lock`, so there is no guard to bind:
//!
//! ```compile_fail,E0599
//! let m = parking_lot::Mutex::new(0u32);
//! let guard = parking_lot::Mutex::lock(&m); // no associated item `lock`
//! ```
//!
//! ```
//! let m = parking_lot::Mutex::new(0u32);
//! m.with(|n| *n += 1);
//! assert_eq!(m.with(|n| *n), 1);
//! assert_eq!(m.into_inner(), 1);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![allow(
    clippy::disallowed_types,
    reason = "the one home of std's mutex: every other crate locks through `Mutex::with`, \
              which hands out no guard"
)]

use std::cell::Cell;
use std::sync;

/// The message a nested [`Mutex::with`] panics with.
pub const NESTED_WITH: &str = "parking_lot::Mutex::with: this thread already holds a lock";

thread_local! {
    /// Set while this thread is inside a [`Mutex::with`] closure.
    static HOLDING: Cell<bool> = const { Cell::new(false) };
}

/// Clears the thread's held flag when dropped, also while unwinding.
struct Held;

impl Held {
    fn enter() -> Held {
        let nested = HOLDING.with(|h| h.replace(true));
        assert!(!nested, "{NESTED_WITH}");
        Held
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        // `try_with`: a drop must not panic, even during thread teardown.
        let _ = HOLDING.try_with(|h| h.set(false));
    }
}

/// Non-poisoning mutex whose only access is [`Mutex::with`].
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Runs `f` on the value under the lock and returns what it returns.
    ///
    /// # Panics
    ///
    /// With [`NESTED_WITH`] when this thread is already inside a `with`
    /// (on this mutex or any other); and with whatever `f` panics with,
    /// after releasing the lock.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        // Declared first, dropped last: the flag clears after the lock.
        let _held = Held::enter();
        let mut value = self
            .inner
            .lock()
            .unwrap_or_else(sync::PoisonError::into_inner);
        f(&mut value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(5);
        m.with(|v| *v += 1);
        assert_eq!(m.with(|v| *v), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn a_nested_with_panics_with_the_pinned_message() {
        let a = Mutex::new(1u32);
        let b = Mutex::new(2u32);
        let hit = catch_unwind(AssertUnwindSafe(|| a.with(|x| b.with(|y| *x + *y))));
        let payload = hit.expect_err("a second lock on one thread must panic");
        assert_eq!(
            panic_message(payload.as_ref()),
            "parking_lot::Mutex::with: this thread already holds a lock"
        );
        // The same mutex twice is the same fault.
        let again = catch_unwind(AssertUnwindSafe(|| a.with(|_| a.with(|x| *x))));
        assert!(again.is_err());
        // Both unwinds cleared the flag: the thread locks again.
        assert_eq!(a.with(|x| *x) + b.with(|y| *y), 3);
    }

    #[test]
    fn a_panicking_closure_leaves_the_mutex_usable_and_the_flag_clear() {
        let m = Mutex::new(vec![1u32]);
        let hit = catch_unwind(AssertUnwindSafe(|| {
            m.with(|v| {
                v.push(2);
                panic!("closure failed");
            })
        }));
        assert_eq!(
            panic_message(hit.expect_err("panic surfaces").as_ref()),
            "closure failed"
        );
        assert!(!HOLDING.with(Cell::get), "unwinding cleared the held flag");
        // No poisoning: the value is as the closure left it.
        assert_eq!(m.with(|v| v.clone()), vec![1, 2]);
    }

    #[test]
    fn threads_hold_locks_independently() {
        // Two threads inside a `with` at once, each on its own mutex: the
        // held flag is per thread, so neither panics.
        let (a, b) = (Mutex::new(0u32), Mutex::new(0u32));
        let both_inside = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for m in [&a, &b] {
                let both_inside = &both_inside;
                s.spawn(move || {
                    m.with(|v| {
                        both_inside.wait();
                        *v += 1;
                    })
                });
            }
        });
        assert_eq!(a.into_inner() + b.into_inner(), 2);
    }
}
