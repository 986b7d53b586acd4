//! Offline shim for the subset of `rayon` this workspace uses.
//!
//! Provides genuinely parallel execution (scoped OS threads over
//! contiguous chunks, results re-assembled in order) behind rayon's
//! names: [`prelude::IntoParallelRefIterator::par_iter`] with `map` /
//! `filter_map` / `collect`, [`ThreadPoolBuilder`] / [`ThreadPool`]
//! with `install`, and [`current_num_threads`]. Unlike real rayon
//! there is no work stealing and pools do not own persistent worker
//! threads — `install` simply scopes a thread-count that `collect`
//! consults when it spawns, and spawned workers inherit an equal share
//! of that width (`width / spawn count`), so the total concurrency of
//! arbitrarily nested parallel iterators stays bounded by the
//! installed pool width, approximating rayon's global pool cap. That
//! preserves rayon's semantics (same results, same ordering
//! guarantees) at a per-call thread-spawn cost that is negligible next
//! to the per-graph explanation work inside.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    static INSTALLED_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Available hardware parallelism, read once per process. The std
/// query re-reads cgroup files on every call, which is far too slow
/// for a value asked for once per parallel loop; real rayon likewise
/// fixes its width when the global pool is initialised.
fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Degree of parallelism `collect` uses on this thread: the installed
/// pool width if inside [`ThreadPool::install`], else available
/// hardware parallelism.
pub fn current_num_threads() -> usize {
    let installed = INSTALLED_THREADS.with(|t| t.get());
    if installed > 0 {
        installed
    } else {
        hardware_threads()
    }
}

/// Error from [`ThreadPoolBuilder::build`]. The shim's build is
/// infallible; the type exists for API compatibility.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for [`ThreadPool`] (subset of `rayon::ThreadPoolBuilder`).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool width. `0` (the default) means "use hardware
    /// parallelism", matching rayon.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool. Never fails in the shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 { hardware_threads() } else { self.num_threads };
        Ok(ThreadPool { num_threads: n })
    }
}

/// A handle fixing the degree of parallelism for closures run via
/// [`ThreadPool::install`] (subset of `rayon::ThreadPool`).
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count governing any parallel
    /// iterators it creates.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev = INSTALLED_THREADS.with(|t| t.replace(self.num_threads));
        // Restore on unwind too, so a panicking op does not leak the
        // installed width into unrelated later work on this thread.
        struct Reset(usize);
        impl Drop for Reset {
            fn drop(&mut self) {
                INSTALLED_THREADS.with(|t| t.set(self.0));
            }
        }
        let _reset = Reset(prev);
        op()
    }

    /// This pool's width.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// Parallel iterator over `&[T]` (stands in for `rayon::slice::Iter`).
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps each item in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap { items: self.items, f }
    }

    /// Maps each item in parallel, keeping `Some` results (in order).
    pub fn filter_map<R, F>(self, f: F) -> ParFilterMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> Option<R> + Sync,
    {
        ParFilterMap { items: self.items, f }
    }
}

/// Result of [`ParIter::map`].
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync> ParMap<'a, T, F> {
    /// Executes the parallel map and collects the results in order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let threads = current_num_threads();
        parallel_map_slice_ref(self.items, threads, &self.f).into_iter().collect()
    }

    /// Sums the mapped values.
    pub fn sum<S: std::iter::Sum<R>>(self) -> S {
        let threads = current_num_threads();
        parallel_map_slice_ref(self.items, threads, &self.f).into_iter().sum()
    }
}

/// Result of [`ParIter::filter_map`].
pub struct ParFilterMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> Option<R> + Sync> ParFilterMap<'a, T, F> {
    /// Executes the parallel filter-map and collects the `Some`
    /// results, preserving input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let threads = current_num_threads();
        parallel_map_slice_ref(self.items, threads, &self.f).into_iter().flatten().collect()
    }
}

/// Runs `f` over `items` on up to `threads` scoped OS threads,
/// returning per-item outputs in input order. The mapper receives
/// `&'a T` tied to the input slice (what rayon's by-ref iterators
/// provide).
fn parallel_map_slice_ref<'a, T: Sync, R: Send>(
    items: &'a [T],
    threads: usize,
    f: &(impl Fn(&'a T) -> R + Sync),
) -> Vec<R> {
    // `width` is the caller's effective pool width; the spawn count is
    // additionally clamped by the item count. Each worker inherits an
    // equal share of the remaining width budget (`width / spawn`), so
    // the *total* concurrency of arbitrarily nested parallel iterators
    // stays bounded by the pool width — approximating rayon's global
    // pool cap. A 2-item fan-out on an 8-wide pool leaves each worker a
    // nested width of 4; a fan-out as wide as the pool leaves nested
    // iterators sequential.
    let width = threads.max(1);
    let spawn = width.clamp(1, items.len().max(1));
    if spawn <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let inherit = (width / spawn).max(1);
    let chunk = items.len().div_ceil(spawn);
    let mut out: Vec<Vec<R>> = Vec::with_capacity(spawn);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    INSTALLED_THREADS.with(|t| t.set(inherit));
                    part.iter().map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            out.push(h.join().expect("rayon shim worker panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

/// Parallel iterator over mutable, disjoint chunks of a slice (stands in
/// for the result of `rayon::slice::ParallelSliceMut::par_chunks_mut`).
/// Supports the `enumerate().for_each(..)` shape the workspace uses to
/// fill disjoint output regions in place.
pub struct ParChunksMut<'a, T> {
    chunks: Vec<&'a mut [T]>,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs each chunk with its index (subset of
    /// `rayon::iter::ParallelIterator::enumerate`).
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate { chunks: self.chunks }
    }
}

/// Result of [`ParChunksMut::enumerate`].
pub struct ParChunksMutEnumerate<'a, T> {
    chunks: Vec<&'a mut [T]>,
}

impl<'a, T: Send> ParChunksMutEnumerate<'a, T> {
    /// Runs `f` on every `(index, chunk)` pair, chunks distributed over
    /// up to [`current_num_threads`] scoped OS threads in contiguous
    /// groups (no work stealing, like the rest of the shim).
    pub fn for_each(self, f: impl Fn((usize, &'a mut [T])) + Sync) {
        // As in `parallel_map_slice_ref`: workers share the width
        // budget (`width / spawn`), keeping total nested concurrency
        // bounded by the pool width.
        let width = current_num_threads().max(1);
        let threads = width.clamp(1, self.chunks.len().max(1));
        if threads <= 1 || self.chunks.len() <= 1 {
            for (i, c) in self.chunks.into_iter().enumerate() {
                f((i, c));
            }
            return;
        }
        let per_group = self.chunks.len().div_ceil(threads);
        let mut groups: Vec<Vec<(usize, &'a mut [T])>> = Vec::with_capacity(threads);
        let mut group = Vec::with_capacity(per_group);
        for (i, c) in self.chunks.into_iter().enumerate() {
            group.push((i, c));
            if group.len() == per_group {
                groups.push(std::mem::take(&mut group));
            }
        }
        if !group.is_empty() {
            groups.push(group);
        }
        let inherit = (width / threads).max(1);
        std::thread::scope(|scope| {
            let f = &f;
            for g in groups {
                scope.spawn(move || {
                    // Same width sharing as `parallel_map_slice_ref`.
                    INSTALLED_THREADS.with(|t| t.set(inherit));
                    for (i, c) in g {
                        f((i, c));
                    }
                });
            }
        });
    }
}

pub mod prelude {
    pub use super::{ParChunksMut, ParChunksMutEnumerate, ParFilterMap, ParIter, ParMap};

    /// Mutable-chunk access on slices (subset of
    /// `rayon::slice::ParallelSliceMut`).
    pub trait ParallelSliceMut<T: Send> {
        /// Returns a parallel iterator over mutable chunks of
        /// `chunk_size` elements (the last may be shorter).
        ///
        /// # Panics
        /// Panics if `chunk_size` is zero.
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
            assert!(chunk_size > 0, "chunk_size must be non-zero");
            ParChunksMut { chunks: self.chunks_mut(chunk_size).collect() }
        }
    }

    /// By-reference conversion into a parallel iterator (subset of
    /// `rayon::iter::IntoParallelRefIterator`).
    pub trait IntoParallelRefIterator<'a> {
        /// The element type.
        type Item: 'a;

        /// Returns a parallel iterator over `&self`'s elements.
        fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
        type Item = T;

        fn par_iter(&'a self) -> ParIter<'a, T> {
            ParIter { items: self }
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Item = T;

        fn par_iter(&'a self) -> ParIter<'a, T> {
            ParIter { items: self }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn filter_map_preserves_order() {
        let xs: Vec<u32> = (0..1000).collect();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let evens: Vec<u32> = pool
            .install(|| xs.par_iter().filter_map(|&x| (x % 2 == 0).then_some(x * 10)).collect());
        let expected: Vec<u32> = (0..1000).filter(|x| x % 2 == 0).map(|x| x * 10).collect();
        assert_eq!(evens, expected);
    }

    #[test]
    fn install_restores_width() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let before = current_num_threads();
        pool.install(|| assert_eq!(current_num_threads(), 3));
        assert_eq!(current_num_threads(), before);
    }

    #[test]
    fn nested_parallelism_shares_the_width_budget() {
        // A fan-out as wide as the pool leaves nested iterators a
        // budget of 1: total concurrency stays at the pool width.
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let xs: Vec<u32> = (0..8).collect();
        let widths: Vec<usize> =
            pool.install(|| xs.par_iter().map(|_| current_num_threads()).collect());
        assert!(widths.iter().all(|&w| w == 1), "width 2 / spawn 2 = 1, got {widths:?}");
        // A narrow fan-out hands the remaining budget to nested
        // iterators: 2 items on a 4-wide pool leave each worker 2.
        let pool4 = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let two: Vec<u32> = (0..2).collect();
        let widths: Vec<usize> =
            pool4.install(|| two.par_iter().map(|_| current_num_threads()).collect());
        assert!(widths.iter().all(|&w| w == 2), "width 4 / spawn 2 = 2, got {widths:?}");
    }

    #[test]
    fn map_sum_matches_sequential() {
        let xs: Vec<u64> = (0..500).collect();
        let s: u64 = xs.par_iter().map(|&x| x * 2).sum();
        assert_eq!(s, xs.iter().map(|&x| x * 2).sum::<u64>());
    }
}
