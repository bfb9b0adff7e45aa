//! In-repo stand-in for `rayon` (see `shims/README.md`).
//!
//! Supports the one pattern this workspace uses:
//! `data.par_iter().map(f).collect()`. The implementation splits the
//! input slice into contiguous chunks, maps the first on the calling
//! thread and each other chunk on a scoped OS thread, and reassembles
//! results in input order — so `collect` observes exactly the sequential
//! ordering, as with real rayon's indexed parallel iterators. On a
//! single-core host it degrades to a plain sequential map with no thread
//! overhead.

pub mod prelude {
    //! Glob-import surface mirroring `rayon::prelude`.
    pub use crate::{IntoParallelRefIterator, ParMap, ParSliceIter};
}

/// Types whose references can be iterated in parallel (`par_iter`).
pub trait IntoParallelRefIterator<'data> {
    /// The borrowed parallel iterator.
    type Iter;
    /// Borrows a parallel iterator over the collection.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Iter = ParSliceIter<'data, T>;
    fn par_iter(&'data self) -> ParSliceIter<'data, T> {
        ParSliceIter { data: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Iter = ParSliceIter<'data, T>;
    fn par_iter(&'data self) -> ParSliceIter<'data, T> {
        ParSliceIter { data: self }
    }
}

/// A borrowed parallel iterator over a slice.
pub struct ParSliceIter<'data, T> {
    data: &'data [T],
}

impl<'data, T: Sync> ParSliceIter<'data, T> {
    /// Maps every element through `op` (executed across threads).
    pub fn map<U, F>(self, op: F) -> ParMap<'data, T, F>
    where
        F: Fn(&'data T) -> U + Sync,
        U: Send,
    {
        ParMap {
            data: self.data,
            op,
        }
    }
}

/// The result of [`ParSliceIter::map`], ready to collect.
pub struct ParMap<'data, T, F> {
    data: &'data [T],
    op: F,
}

impl<'data, T: Sync, F> ParMap<'data, T, F> {
    /// Runs the map and gathers results in input order.
    pub fn collect<U, C>(self) -> C
    where
        F: Fn(&'data T) -> U + Sync,
        U: Send,
        C: FromIterator<U>,
    {
        run_ordered(self.data, &self.op).into_iter().collect()
    }
}

/// Maps `op` over `data` on up to `available_parallelism` threads,
/// returning results in input order.
fn run_ordered<'data, T: Sync, U: Send, F>(data: &'data [T], op: &F) -> Vec<U>
where
    F: Fn(&'data T) -> U + Sync,
{
    run_chunked(data, op, max_threads())
}

/// Splits `data` into at most `threads` contiguous chunks, maps the
/// first on the calling thread while one scoped thread maps each other
/// chunk, and concatenates the results in input order.
fn run_chunked<'data, T: Sync, U: Send, F>(data: &'data [T], op: &F, threads: usize) -> Vec<U>
where
    F: Fn(&'data T) -> U + Sync,
{
    let threads = threads.min(data.len());
    if threads <= 1 {
        return data.iter().map(op).collect();
    }
    let chunk_len = data.len().div_ceil(threads);
    let (first, rest) = data.split_at(chunk_len);
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || chunk.iter().map(op).collect::<Vec<U>>()))
            .collect();
        let mut out: Vec<U> = Vec::with_capacity(data.len());
        out.extend(first.iter().map(op));
        for h in handles {
            out.extend(h.join().expect("worker thread panicked"));
        }
        out
    })
}

/// The host's parallelism, queried once per process: the query is a
/// system call, and `collect` runs several times per search generation.
fn max_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn parallel_map_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_chunks_keep_input_order() {
        // 10 items over 3 threads: chunks of 4, 4 and 2, the first mapped
        // on the calling thread.
        let xs: Vec<u64> = (0..10).collect();
        for threads in 1..=12 {
            let got = super::run_chunked(&xs, &|&x| x * 3 + 1, threads);
            assert_eq!(
                got,
                (0..10).map(|x| x * 3 + 1).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
        let caller = std::thread::current().id();
        let ids = super::run_chunked(&xs, &|_| std::thread::current().id(), 3);
        assert!(ids[..4].iter().all(|&id| id == caller));
        assert!(ids[4..].iter().all(|&id| id != caller));
    }

    #[test]
    fn empty_input_collects_empty() {
        let xs: Vec<u32> = Vec::new();
        let ys: Vec<u32> = xs.par_iter().map(|&x| x).collect();
        assert!(ys.is_empty());
    }
}
