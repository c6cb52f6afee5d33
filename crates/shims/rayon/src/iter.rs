//! Parallel iterators over the host pool.
//!
//! The model is *indexed random access*: every parallel sequence is an
//! [`IndexedSource`] — a `Sync` description that can produce the item at
//! any index on any thread. Combinators (`map`, `enumerate`, `zip`) wrap
//! sources in sources; a terminal operation (`collect`, `sum`) drives
//! `run_ordered(len, |i| source.get(i))`, so every item is its own task
//! and comes back in index order — `collect` is order-preserving by
//! construction and item values never depend on the thread count.
//!
//! Owned sequences (`into_par_iter`) reuse the same machinery through
//! take-once slots: each item sits in a `Mutex<Option<_>>` cell that the
//! evaluating worker takes exactly once, which keeps the whole crate free
//! of `unsafe`.

use std::ops::Range;

use parking_lot::Mutex;

use crate::pool;

/// A random-access parallel sequence: `get(i)` may be called from any
/// worker thread, and is called exactly once per index per drive.
pub trait IndexedSource: Sync {
    /// The element type produced at each index.
    type Item: Send;
    /// Number of items.
    fn length(&self) -> usize;
    /// Produces the item at `index` (`index < self.length()`).
    fn get(&self, index: usize) -> Self::Item;
}

// ---------------------------------------------------------------------
// Leaf sources
// ---------------------------------------------------------------------

/// Borrowing source over a slice (`par_iter`).
pub struct SliceSource<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync> IndexedSource for SliceSource<'data, T> {
    type Item = &'data T;
    fn length(&self) -> usize {
        self.slice.len()
    }
    fn get(&self, index: usize) -> &'data T {
        &self.slice[index]
    }
}

/// Take-once source over owned items (`into_par_iter`).
pub struct OwnedSource<T> {
    slots: Vec<Mutex<Option<T>>>,
}

impl<T: Send> IndexedSource for OwnedSource<T> {
    type Item = T;
    fn length(&self) -> usize {
        self.slots.len()
    }
    fn get(&self, index: usize) -> T {
        self.slots[index]
            .with(Option::take)
            .expect("parallel drive evaluated an index twice")
    }
}

/// Source over a `usize` range.
pub struct RangeSource {
    start: usize,
    len: usize,
}

impl IndexedSource for RangeSource {
    type Item = usize;
    fn length(&self) -> usize {
        self.len
    }
    fn get(&self, index: usize) -> usize {
        self.start + index
    }
}

// ---------------------------------------------------------------------
// Combinator sources
// ---------------------------------------------------------------------

/// `map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, R> IndexedSource for Map<S, F>
where
    S: IndexedSource,
    F: Fn(S::Item) -> R + Sync,
    R: Send,
{
    type Item = R;
    fn length(&self) -> usize {
        self.inner.length()
    }
    fn get(&self, index: usize) -> R {
        (self.f)(self.inner.get(index))
    }
}

/// `enumerate` adapter.
pub struct Enumerate<S> {
    inner: S,
}

impl<S: IndexedSource> IndexedSource for Enumerate<S> {
    type Item = (usize, S::Item);
    fn length(&self) -> usize {
        self.inner.length()
    }
    fn get(&self, index: usize) -> (usize, S::Item) {
        (index, self.inner.get(index))
    }
}

/// `zip` adapter (length is the shorter of the two).
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: IndexedSource, B: IndexedSource> IndexedSource for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn length(&self) -> usize {
        self.a.length().min(self.b.length())
    }
    fn get(&self, index: usize) -> (A::Item, B::Item) {
        (self.a.get(index), self.b.get(index))
    }
}

// ---------------------------------------------------------------------
// The parallel iterator
// ---------------------------------------------------------------------

/// A parallel iterator over an [`IndexedSource`]. Produced by `par_iter` /
/// `into_par_iter`; consumed by a terminal operation.
pub struct ParIter<S> {
    source: S,
}

impl<S: IndexedSource> ParIter<S> {
    /// Evaluates every item as its own task on the pool, in index order.
    fn drive(self) -> Vec<S::Item> {
        let source = &self.source;
        pool::run_ordered(source.length(), |i| source.get(i))
    }

    /// Returns `self` unchanged: every item is already its own task. Kept
    /// because flbench calls it.
    pub fn with_max_len(self, _max: usize) -> Self {
        self
    }

    /// Maps each item through `f` in parallel.
    pub fn map<F, R>(self, f: F) -> ParIter<Map<S, F>>
    where
        F: Fn(S::Item) -> R + Sync,
        R: Send,
    {
        ParIter {
            source: Map {
                inner: self.source,
                f,
            },
        }
    }

    /// Pairs each item with its index.
    pub fn enumerate(self) -> ParIter<Enumerate<S>> {
        ParIter {
            source: Enumerate { inner: self.source },
        }
    }

    /// Pairs items positionally with `other`'s items; the result has the
    /// shorter length. Alignment is by index, so it is exact regardless
    /// of thread count.
    pub fn zip<S2: IndexedSource>(self, other: ParIter<S2>) -> ParIter<Zip<S, S2>> {
        ParIter {
            source: Zip {
                a: self.source,
                b: other.source,
            },
        }
    }

    /// Collects items in order. `Vec<T>` preserves exact item order;
    /// `Result<Vec<T>, E>` yields the error of the *earliest* failing
    /// item, so the outcome is deterministic across thread counts.
    pub fn collect<C: FromParallelIterator<S::Item>>(self) -> C {
        C::from_ordered(self.drive())
    }

    /// Sums the items in index order, so a float sum has the same bits at
    /// every pool width.
    pub fn sum<Out: std::iter::Sum<S::Item>>(self) -> Out {
        self.drive().into_iter().sum()
    }
}

/// Types constructible from the ordered output of a drive (the shim's
/// analogue of rayon's `FromParallelIterator`).
pub trait FromParallelIterator<T: Send>: Sized {
    /// Assembles the final collection from the items in index order.
    fn from_ordered(items: Vec<T>) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_ordered(items: Vec<T>) -> Vec<T> {
        items
    }
}

impl<T: Send, E: Send> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_ordered(items: Vec<Result<T, E>>) -> Result<Vec<T>, E> {
        // Sequential collect short-circuits on the first error in item
        // order — deterministic regardless of pool width.
        items.into_iter().collect()
    }
}

// ---------------------------------------------------------------------
// Conversion traits (the prelude)
// ---------------------------------------------------------------------

/// `.par_iter()` on borrowed collections.
pub trait IntoParallelRefIterator<'data> {
    /// Item produced (a shared reference).
    type Item: Send;
    /// The parallel iterator type.
    type Iter;
    /// Returns a parallel iterator over `&self`.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Iter = ParIter<SliceSource<'data, T>>;
    fn par_iter(&'data self) -> Self::Iter {
        ParIter {
            source: SliceSource { slice: self },
        }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Iter = ParIter<SliceSource<'data, T>>;
    fn par_iter(&'data self) -> Self::Iter {
        self.as_slice().par_iter()
    }
}

/// `.into_par_iter()` on owned collections.
pub trait IntoParallelIterator {
    /// Item produced (owned).
    type Item: Send;
    /// The parallel iterator type.
    type Iter;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<OwnedSource<T>>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            source: OwnedSource {
                slots: self.into_iter().map(|v| Mutex::new(Some(v))).collect(),
            },
        }
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = ParIter<RangeSource>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            source: RangeSource {
                start: self.start,
                len: self.end.saturating_sub(self.start),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPoolBuilder;

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        for threads in [1, 4, 16] {
            let out: Vec<u64> = with_threads(threads, || v.par_iter().map(|x| x * 2).collect());
            assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn enumerate_and_zip_align_by_index() {
        let a: Vec<u32> = (0..257).collect();
        let b: Vec<u32> = (1000..1257).collect();
        let out: Vec<(usize, u32)> = with_threads(8, || {
            a.par_iter()
                .zip(b.par_iter())
                .enumerate()
                .map(|(i, (x, y))| (i, x + y))
                .collect()
        });
        for (i, s) in out {
            assert_eq!(s, i as u32 + 1000 + i as u32);
        }
    }

    #[test]
    fn zip_truncates_to_shorter() {
        let a = vec![1u8, 2, 3, 4, 5];
        let b = vec![10u8, 20];
        let out: Vec<u8> = with_threads(4, || {
            a.par_iter().zip(b.par_iter()).map(|(x, y)| x + y).collect()
        });
        assert_eq!(out, vec![11, 22]);
    }

    #[test]
    fn collect_result_yields_earliest_error() {
        let v: Vec<u32> = (0..500).collect();
        for threads in [1, 4, 16] {
            let out: Result<Vec<u32>, u32> = with_threads(threads, || {
                v.par_iter()
                    .map(|&x| if x % 100 == 99 { Err(x) } else { Ok(x) })
                    .collect()
            });
            assert_eq!(out, Err(99), "earliest failing item, at {threads} threads");
        }
        let ok: Result<Vec<u32>, u32> = with_threads(4, || v.par_iter().map(|&x| Ok(x)).collect());
        assert_eq!(ok.unwrap(), v);
    }

    #[test]
    fn into_par_iter_moves_items() {
        let v: Vec<String> = (0..100).map(|i| format!("s{i}")).collect();
        let out: Vec<String> = with_threads(4, || v.into_par_iter().map(|s| s + "!").collect());
        assert_eq!(out.len(), 100);
        assert_eq!(out[7], "s7!");
    }

    #[test]
    fn range_into_par_iter() {
        let total: usize = with_threads(4, || (0..101usize).into_par_iter().with_max_len(1).sum());
        assert_eq!(total, 5050);
    }

    #[test]
    fn float_sum_is_the_same_at_every_width() {
        // Adding in index order fixes the association, so the bits do
        // not depend on how many workers evaluated the items.
        let v: Vec<f64> = (1..=1000)
            .map(|i| 1.0 / f64::from(i) + 1e-3 * f64::from(i).sqrt())
            .collect();
        let bits: Vec<u64> = [1, 2, 8]
            .into_iter()
            .map(|threads| {
                with_threads(threads, || v.par_iter().map(|&x| x).sum::<f64>()).to_bits()
            })
            .collect();
        assert_eq!(bits, vec![bits[0]; 3], "sums at 1, 2 and 8 threads");
    }

    #[test]
    fn empty_inputs_are_harmless() {
        let v: Vec<u8> = Vec::new();
        let out: Vec<u8> = with_threads(4, || v.par_iter().map(|&x| x).collect());
        assert!(out.is_empty());
        let s: u32 = with_threads(4, || v.par_iter().map(|&x| x as u32).sum());
        assert_eq!(s, 0);
    }
}
