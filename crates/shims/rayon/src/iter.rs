//! Parallel iterators over the work-stealing pool.
//!
//! The model is *indexed random access*: every parallel sequence is an
//! [`IndexedSource`] — a `Sync` description that can produce the item at
//! any index on any thread. Combinators (`map`, `enumerate`, `zip`) wrap
//! sources in sources; a terminal operation (`collect`, `for_each`,
//! `fold`/`reduce`, `sum`) splits `0..len` into chunks sized by the
//! [granularity heuristic](ParIter::with_max_len) and drives them through
//! [`pool::run_ordered`], which returns chunk outputs in chunk order —
//! so `collect` is order-preserving by construction and item values never
//! depend on the thread count.
//!
//! Owned (`into_par_iter`) and mutable (`par_iter_mut`) sequences reuse
//! the same machinery through take-once slots: each item sits in a
//! `Mutex<Option<_>>` cell that the evaluating worker takes exactly once,
//! which keeps the whole crate free of `unsafe`.

use std::ops::Range;

use parking_lot::Mutex;

use crate::pool::{self, CHUNKS_PER_WORKER};

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
            .lock()
            .take()
            .expect("parallel drive evaluated an index twice")
    }
}

/// Take-once source over exclusive borrows (`par_iter_mut`).
pub struct MutSliceSource<'data, T> {
    slots: Vec<Mutex<Option<&'data mut T>>>,
}

impl<'data, T: Send> IndexedSource for MutSliceSource<'data, T> {
    type Item = &'data mut T;
    fn length(&self) -> usize {
        self.slots.len()
    }
    fn get(&self, index: usize) -> &'data mut T {
        self.slots[index]
            .lock()
            .take()
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

/// A parallel iterator: an [`IndexedSource`] plus chunk-granularity
/// bounds. Produced by `par_iter` / `par_iter_mut` / `into_par_iter`;
/// consumed by a terminal operation.
pub struct ParIter<S> {
    source: S,
    min_len: usize,
    max_len: usize,
}

/// Chunk size for a drive: over-partition [`CHUNKS_PER_WORKER`]× the
/// worker count so stealing can rebalance uneven items, clamped to the
/// caller's `[min_len, max_len]` granularity bounds (`max_len` wins on
/// conflict: it expresses "items are expensive, schedule them finely").
fn chunk_size(len: usize, min_len: usize, max_len: usize) -> usize {
    let workers = pool::current_num_threads().max(1);
    let target = workers * CHUNKS_PER_WORKER;
    len.div_ceil(target).max(min_len).min(max_len).max(1)
}

/// Splits `0..source.length()` into chunks and evaluates `eval` over each
/// chunk on the pool, returning per-chunk outputs in chunk order.
fn drive<S, T, E>(source: S, min_len: usize, max_len: usize, eval: E) -> Vec<T>
where
    S: IndexedSource,
    T: Send,
    E: Fn(&S, Range<usize>) -> T + Sync,
{
    let len = source.length();
    if len == 0 {
        return Vec::new();
    }
    let chunk = chunk_size(len, min_len, max_len);
    let chunks = len.div_ceil(chunk);
    let src = &source;
    pool::run_ordered(chunks, |c| {
        let start = c * chunk;
        eval(src, start..(start + chunk).min(len))
    })
}

impl<S: IndexedSource> ParIter<S> {
    pub(crate) fn new(source: S) -> Self {
        ParIter {
            source,
            min_len: 1,
            max_len: usize::MAX,
        }
    }

    /// Number of items this iterator will produce.
    pub fn len(&self) -> usize {
        self.source.length()
    }

    /// Whether the iterator is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lower bound on items per scheduled chunk — raise it when per-item
    /// work is so cheap that scheduling would dominate.
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = min.max(1);
        self
    }

    /// Upper bound on items per scheduled chunk — lower it (typically to
    /// 1) when items are expensive or skewed, so work stealing can
    /// balance them individually.
    pub fn with_max_len(mut self, max: usize) -> Self {
        self.max_len = max.max(1);
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
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    /// Pairs each item with its index.
    pub fn enumerate(self) -> ParIter<Enumerate<S>> {
        ParIter {
            source: Enumerate { inner: self.source },
            min_len: self.min_len,
            max_len: self.max_len,
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
            min_len: self.min_len.max(other.min_len),
            max_len: self.max_len.min(other.max_len),
        }
    }

    /// Collects items in order. `Vec<T>` preserves exact item order;
    /// `Result<Vec<T>, E>` yields the error of the *earliest* failing
    /// item, so the outcome is deterministic across thread counts.
    pub fn collect<C: FromParallelIterator<S::Item>>(self) -> C {
        let chunks = drive(self.source, self.min_len, self.max_len, |src, range| {
            range.map(|i| src.get(i)).collect::<Vec<_>>()
        });
        C::from_ordered_chunks(chunks)
    }

    /// Calls `f` on every item (no ordering guarantee on side effects).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(S::Item) + Sync,
    {
        drive(self.source, self.min_len, self.max_len, |src, range| {
            for i in range {
                f(src.get(i));
            }
        });
    }

    /// Folds each chunk with `fold_op` starting from `identity()`,
    /// yielding the per-chunk accumulators (in chunk order) for a final
    /// [`FoldParts::reduce`].
    pub fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> FoldParts<A>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, S::Item) -> A + Sync,
    {
        let parts = drive(self.source, self.min_len, self.max_len, |src, range| {
            let mut acc = identity();
            for i in range {
                acc = fold_op(acc, src.get(i));
            }
            acc
        });
        FoldParts { parts }
    }

    /// Reduces all items with `op` (must be associative for the result to
    /// be independent of chunking), starting each chunk from
    /// `identity()`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> S::Item
    where
        ID: Fn() -> S::Item + Sync,
        OP: Fn(S::Item, S::Item) -> S::Item + Sync,
    {
        let parts = drive(self.source, self.min_len, self.max_len, |src, range| {
            let mut acc = identity();
            for i in range {
                acc = op(acc, src.get(i));
            }
            acc
        });
        parts.into_iter().fold(identity(), op)
    }

    /// Sums the items. Chunk partials are combined in chunk order, so
    /// integer sums are exact and deterministic; float sums depend on
    /// chunk boundaries (as with rayon).
    pub fn sum<Out>(self) -> Out
    where
        Out: std::iter::Sum<S::Item> + std::iter::Sum<Out> + Send,
    {
        let parts = drive(self.source, self.min_len, self.max_len, |src, range| {
            range.map(|i| src.get(i)).sum::<Out>()
        });
        parts.into_iter().sum()
    }

    /// Number of items (the length is known up front).
    pub fn count(self) -> usize {
        self.source.length()
    }
}

/// Per-chunk accumulators produced by [`ParIter::fold`], combined by
/// [`reduce`](FoldParts::reduce) in chunk order.
pub struct FoldParts<A> {
    parts: Vec<A>,
}

impl<A: Send> FoldParts<A> {
    /// Combines the chunk accumulators left-to-right starting from
    /// `identity()`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> A
    where
        ID: FnOnce() -> A,
        OP: FnMut(A, A) -> A,
    {
        self.parts.into_iter().fold(identity(), op)
    }

    /// The raw accumulators, in chunk order.
    pub fn into_inner(self) -> Vec<A> {
        self.parts
    }
}

/// Types constructible from ordered chunks of parallel output (the shim's
/// analogue of rayon's `FromParallelIterator`).
pub trait FromParallelIterator<T: Send>: Sized {
    /// Assembles the final collection from per-chunk item vectors, given
    /// in chunk (= item) order.
    fn from_ordered_chunks(chunks: Vec<Vec<T>>) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_chunks(chunks: Vec<Vec<T>>) -> Vec<T> {
        let total = chunks.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for chunk in chunks {
            out.extend(chunk);
        }
        out
    }
}

impl<T: Send, E: Send> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_ordered_chunks(chunks: Vec<Vec<Result<T, E>>>) -> Result<Vec<T>, E> {
        // Sequential collect short-circuits on the first error in item
        // order — deterministic regardless of chunking.
        chunks.into_iter().flatten().collect()
    }
}

impl<T: Send> FromParallelIterator<Option<T>> for Option<Vec<T>> {
    fn from_ordered_chunks(chunks: Vec<Vec<Option<T>>>) -> Option<Vec<T>> {
        chunks.into_iter().flatten().collect()
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
        ParIter::new(SliceSource { slice: self })
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Iter = ParIter<SliceSource<'data, T>>;
    fn par_iter(&'data self) -> Self::Iter {
        ParIter::new(SliceSource { slice: self })
    }
}

/// `.par_iter_mut()` on borrowed collections.
pub trait IntoParallelRefMutIterator<'data> {
    /// Item produced (an exclusive reference).
    type Item: Send;
    /// The parallel iterator type.
    type Iter;
    /// Returns a parallel iterator over `&mut self`.
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
    type Item = &'data mut T;
    type Iter = ParIter<MutSliceSource<'data, T>>;
    fn par_iter_mut(&'data mut self) -> Self::Iter {
        ParIter::new(MutSliceSource {
            slots: self.iter_mut().map(|r| Mutex::new(Some(r))).collect(),
        })
    }
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for Vec<T> {
    type Item = &'data mut T;
    type Iter = ParIter<MutSliceSource<'data, T>>;
    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.as_mut_slice().par_iter_mut()
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
        ParIter::new(OwnedSource {
            slots: self.into_iter().map(|v| Mutex::new(Some(v))).collect(),
        })
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = ParIter<RangeSource>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter::new(RangeSource {
            start: self.start,
            len: self.end.saturating_sub(self.start),
        })
    }
}

impl<S: IndexedSource> IntoParallelIterator for ParIter<S> {
    type Item = S::Item;
    type Iter = ParIter<S>;
    fn into_par_iter(self) -> Self::Iter {
        self
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
    fn fold_reduce_and_sum_agree() {
        let v: Vec<u64> = (1..=10_000).collect();
        let folded = with_threads(4, || {
            v.par_iter()
                .fold(|| 0u64, |acc, x| acc + x)
                .reduce(|| 0, |a, b| a + b)
        });
        let summed: u64 = with_threads(4, || v.par_iter().map(|&x| x).sum());
        let reduced = with_threads(4, || v.par_iter().map(|&x| x).reduce(|| 0, |a, b| a + b));
        assert_eq!(folded, 50_005_000);
        assert_eq!(summed, 50_005_000);
        assert_eq!(reduced, 50_005_000);
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
        let total: usize = with_threads(4, || (0..101usize).into_par_iter().sum());
        assert_eq!(total, 5050);
    }

    #[test]
    fn par_iter_mut_updates_every_item() {
        let mut v: Vec<u32> = (0..300).collect();
        with_threads(4, || v.par_iter_mut().for_each(|x| *x *= 3));
        assert_eq!(v, (0..300).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_mut_enumerate_map_collects() {
        let mut v = vec![5u32; 64];
        let out: Vec<u32> = with_threads(4, || {
            v.par_iter_mut()
                .enumerate()
                .map(|(i, x)| {
                    *x += i as u32;
                    *x
                })
                .collect()
        });
        assert_eq!(out, (0..64).map(|i| 5 + i).collect::<Vec<_>>());
        assert_eq!(v, out);
    }

    #[test]
    fn granularity_bounds_are_respected() {
        // max_len=1 schedules each item as its own task; min_len larger
        // than the length degrades to a single chunk. Both must still
        // produce ordered output.
        let v: Vec<u32> = (0..37).collect();
        let fine: Vec<u32> = with_threads(4, || v.par_iter().with_max_len(1).map(|&x| x).collect());
        let coarse: Vec<u32> =
            with_threads(4, || v.par_iter().with_min_len(1000).map(|&x| x).collect());
        assert_eq!(fine, v);
        assert_eq!(coarse, v);
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
