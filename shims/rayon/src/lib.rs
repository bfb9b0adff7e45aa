//! In-repo stand-in for `rayon` (see `shims/README.md`).
//!
//! Supports the one pattern this workspace uses:
//! `data.par_iter().with_min_len(n).map(f).collect()` (`with_min_len`
//! optional). The implementation splits the input slice into contiguous
//! chunks of near-equal length, maps the first on the calling thread and
//! each other chunk on a scoped OS thread, and reassembles results in
//! input order — so `collect` observes exactly the sequential ordering, as
//! with real rayon's indexed parallel iterators. As in rayon,
//! `with_min_len(n)` forbids chunks shorter than `n`, so a slice shorter
//! than `2n` is mapped on the calling thread alone. On a single-core host
//! it degrades to a plain sequential map with no thread overhead.

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
        ParSliceIter {
            data: self,
            min_len: 1,
        }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Iter = ParSliceIter<'data, T>;
    fn par_iter(&'data self) -> ParSliceIter<'data, T> {
        self.as_slice().par_iter()
    }
}

/// A borrowed parallel iterator over a slice.
pub struct ParSliceIter<'data, T> {
    data: &'data [T],
    /// The shortest chunk one thread may be given.
    min_len: usize,
}

impl<'data, T: Sync> ParSliceIter<'data, T> {
    /// Gives no thread fewer than `min` items (rayon's
    /// `IndexedParallelIterator::with_min_len`): work too small to repay
    /// a thread stays on the calling one.
    #[must_use]
    pub fn with_min_len(self, min: usize) -> Self {
        ParSliceIter {
            min_len: min.max(1),
            ..self
        }
    }

    /// Maps every element through `op` (executed across threads).
    pub fn map<U, F>(self, op: F) -> ParMap<'data, T, F>
    where
        F: Fn(&'data T) -> U + Sync,
        U: Send,
    {
        ParMap { iter: self, op }
    }
}

/// The result of [`ParSliceIter::map`], ready to collect.
pub struct ParMap<'data, T, F> {
    iter: ParSliceIter<'data, T>,
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
        let ParSliceIter { data, min_len } = self.iter;
        run_chunked(data, &self.op, max_threads(), min_len)
            .into_iter()
            .collect()
    }
}

/// Splits `data` into at most `threads` contiguous chunks of near-equal
/// length, none shorter than `min_len`, maps the first on the calling
/// thread while one scoped thread maps each other chunk, and concatenates
/// the results in input order.
fn run_chunked<'data, T: Sync, U: Send, F>(
    data: &'data [T],
    op: &F,
    threads: usize,
    min_len: usize,
) -> Vec<U>
where
    F: Fn(&'data T) -> U + Sync,
{
    let threads = threads.min(data.len() / min_len);
    if threads <= 1 {
        return data.iter().map(op).collect();
    }
    // The first `data.len() % threads` chunks take one extra item, so
    // every chunk holds at least `len / threads >= min_len` items.
    let (base, extra) = (data.len() / threads, data.len() % threads);
    let mut chunks = Vec::with_capacity(threads);
    let mut rest = data;
    for i in 0..threads {
        let (chunk, tail) = rest.split_at(base + usize::from(i < extra));
        chunks.push(chunk);
        rest = tail;
    }
    let (first, others) = chunks.split_first().expect("threads >= 2");
    std::thread::scope(|scope| {
        let handles: Vec<_> = others
            .iter()
            .map(|&chunk| scope.spawn(move || chunk.iter().map(op).collect::<Vec<U>>()))
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
        // 10 items over 3 threads: chunks of 4, 3 and 3, the first mapped
        // on the calling thread.
        let xs: Vec<u64> = (0..10).collect();
        for threads in 1..=12 {
            let got = super::run_chunked(&xs, &|&x| x * 3 + 1, threads, 1);
            assert_eq!(
                got,
                (0..10).map(|x| x * 3 + 1).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
        let caller = std::thread::current().id();
        let ids = super::run_chunked(&xs, &|_| std::thread::current().id(), 3, 1);
        assert!(ids[..4].iter().all(|&id| id == caller));
        assert!(ids[4..].iter().all(|&id| id != caller));
    }

    /// The chunks `run_chunked` gives its threads, as `(first, last)`
    /// input positions, each chunk's items sharing one thread.
    fn chunks_of(len: usize, threads: usize, min_len: usize) -> Vec<(usize, usize)> {
        let xs: Vec<usize> = (0..len).collect();
        let tagged = super::run_chunked(
            &xs,
            &|&x| (x, std::thread::current().id()),
            threads,
            min_len,
        );
        let mut chunks: Vec<(usize, usize)> = Vec::new();
        for (k, &(x, id)) in tagged.iter().enumerate() {
            assert_eq!(x, k, "input order lost");
            match chunks.last_mut() {
                Some(last) if tagged[last.0].1 == id => last.1 = x,
                _ => chunks.push((x, x)),
            }
        }
        chunks
    }

    #[test]
    fn min_len_bounds_every_chunk() {
        for len in 0..30 {
            for threads in 1..=4 {
                for min_len in 1..=7 {
                    let chunks = chunks_of(len, threads, min_len);
                    assert!(chunks.len() <= threads.max(1));
                    if chunks.len() > 1 {
                        for &(a, b) in &chunks {
                            assert!(
                                b - a + 1 >= min_len,
                                "len {len}, {threads} threads, min {min_len}: {chunks:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn short_slice_stays_on_the_calling_thread() {
        // Under twice the minimum no split leaves two legal chunks.
        let caller = std::thread::current().id();
        let xs: Vec<u64> = (0..127).collect();
        let ids: Vec<_> = xs
            .par_iter()
            .with_min_len(64)
            .map(|_| std::thread::current().id())
            .collect();
        assert!(ids.iter().all(|&id| id == caller));
        let ids = super::run_chunked(&xs, &|_| std::thread::current().id(), 4, 64);
        assert!(ids.iter().all(|&id| id == caller));
        // At twice the minimum, two threads split it evenly.
        let xs: Vec<u64> = (0..128).collect();
        let ids = super::run_chunked(&xs, &|_| std::thread::current().id(), 4, 64);
        assert!(ids[..64].iter().all(|&id| id == caller));
        assert!(ids[64..].iter().all(|&id| id != caller));
        let doubled: Vec<u64> = xs.par_iter().with_min_len(64).map(|&x| 2 * x).collect();
        assert_eq!(doubled, (0..128).map(|x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_collects_empty() {
        let xs: Vec<u32> = Vec::new();
        let ys: Vec<u32> = xs.par_iter().map(|&x| x).collect();
        assert!(ys.is_empty());
    }
}
