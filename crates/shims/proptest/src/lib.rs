//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates-io, so this shim implements a
//! randomized property-testing harness behind the subset of the proptest
//! API the workspace's `tests/properties.rs` suites use:
//!
//! - [`strategy::Strategy`] with `prop_map`, numeric range strategies, tuples,
//!   [`strategy::Just`], boxed strategies, and `prop_oneof!` unions;
//! - `any::<T>()` for primitive `T`;
//! - [`collection::vec`] and [`collection::btree_set`];
//! - the [`proptest!`] macro with `#![proptest_config(..)]`,
//!   `prop_assert!`, `prop_assert_eq!`, `prop_assert_ne!`, `prop_assume!`.
//!
//! Differences from the real crate: no shrinking (failures report the raw
//! failing case via the panic message and the deterministic per-test seed)
//! and no persistence. Each `#[test]` gets a seed derived from its name via
//! FNV-1a, so failures reproduce deterministically run-to-run.

#![deny(unsafe_code)]

pub mod strategy;
pub mod test_runner;

pub mod arbitrary {
    //! `any::<T>()` support for primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::{Rng, Sample};
    use std::marker::PhantomData;

    /// Types with a canonical "anything goes" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_prim {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> Self {
                    <$t as Sample>::sample(rng)
                }
            }
        )*};
    }

    impl_arbitrary_prim!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool);

    impl Arbitrary for f64 {
        fn arbitrary_value(rng: &mut TestRng) -> Self {
            // Finite, sign-balanced, spanning many magnitudes.
            let mag = rng.gen_range(-300.0f64..300.0);
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            sign * mag.exp2()
        }
    }

    /// Strategy produced by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies: `vec` and `btree_set`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::collections::BTreeSet;
    use std::ops::{Range, RangeInclusive};

    /// Element-count bounds for collection strategies (inclusive).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.lo..=self.hi)
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end.saturating_sub(1),
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `Vec` strategy: `n` elements of `element`, `n` drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy for `BTreeSet<S::Value>`.
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.sample(rng);
            let mut set = BTreeSet::new();
            // Bounded attempts: small element domains may not support the
            // target cardinality.
            for _ in 0..target.saturating_mul(8).max(8) {
                if set.len() >= target {
                    break;
                }
                set.insert(self.element.sample(rng));
            }
            set
        }
    }

    /// `BTreeSet` strategy; the set size may fall short of the sampled
    /// target when the element domain is small.
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S> {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// `prop_assert!` — assertion inside a property body.
///
/// Panics like `assert!`; the harness reports the deterministic seed in
/// the surrounding test, so no shrinking machinery is needed.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// `prop_assert_eq!` — equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// `prop_assert_ne!` — inequality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// `prop_assume!` — rejects the current case without failing the test.
///
/// Only valid directly inside a `proptest!` body (expands to an early
/// `return` of the case closure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::CaseRejected);
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        $crate::prop_assume!($cond)
    };
}

/// `prop_oneof!` — uniform choice among component strategies, all
/// producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// The `proptest!` macro: declares `#[test]` functions whose arguments are
/// drawn from strategies.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn addition_commutes(a in any::<u64>(), b in any::<u64>()) {
///         prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal expansion of [`proptest!`]: one test fn per item.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut rng =
                $crate::test_runner::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            let max_attempts = config.cases.saturating_mul(16).max(64);
            while accepted < config.cases && attempts < max_attempts {
                attempts += 1;
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                let case = move || -> ::core::result::Result<(), $crate::test_runner::CaseRejected> {
                    $body
                    ::core::result::Result::Ok(())
                };
                if case().is_ok() {
                    accepted += 1;
                }
            }
            assert!(
                accepted > 0,
                "proptest shim: every generated case was rejected by prop_assume! \
                 ({} attempts)",
                attempts
            );
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}
