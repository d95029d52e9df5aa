//! Deterministic data-parallel helpers.
//!
//! The analysis engine fans per-app work out over OS threads, but every
//! consumer of its output asserts bit-identical results regardless of the
//! worker count. The helpers here guarantee that by construction:
//! [`par_map`] splits the input into *index-ordered contiguous chunks*,
//! one per worker (the caller works the last), and reassembles the
//! outputs in chunk order — so the result is always exactly
//! `items.iter().map(f).collect()`, no matter how the OS schedules the
//! threads. The closure must itself be a pure function of its item; all
//! the workspace's per-app passes are, because their "randomness" is
//! seeded from per-app content hashes.

use std::num::NonZeroUsize;

/// Number of workers to use by default: the machine's available
/// parallelism, or 1 when that cannot be determined.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Map `f` over `items` on up to `workers` threads, the caller's among
/// them, preserving input order. Equivalent to
/// `items.iter().map(|t| f(t)).collect()` for any `workers`; the caller
/// maps the last chunk itself and spawns one thread per other chunk, so
/// `workers <= 1` spawns nothing.
pub fn par_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // Contiguous chunks, one per worker; the last may run short.
    let chunk = items.len().div_ceil(workers);
    let parts = on_chunks(items, chunk, |slice| {
        slice.iter().map(&f).collect::<Vec<R>>()
    });
    parts.into_iter().flatten().collect()
}

/// Fold `items` in parallel on up to `workers` threads, the caller's
/// among them: each folds its contiguous chunk into an accumulator with
/// `fold`, and the per-chunk accumulators are merged *in chunk order*
/// with `merge`. Deterministic whenever `merge` is order-insensitive or
/// the caller accepts chunk-ordered merging (chunk boundaries depend only
/// on `workers` and `items.len()`).
pub fn par_fold<T, A, FF, FM>(
    workers: usize,
    items: &[T],
    init: impl Fn() -> A + Sync,
    fold: FF,
    merge: FM,
) -> A
where
    T: Sync,
    A: Send,
    FF: Fn(A, &T) -> A + Sync,
    FM: Fn(A, A) -> A,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().fold(init(), fold);
    }
    let chunk = items.len().div_ceil(workers);
    let parts = on_chunks(items, chunk, |slice| slice.iter().fold(init(), &fold));
    let mut parts = parts.into_iter();
    let first = match parts.next() {
        Some(p) => p,
        None => unreachable!("chunk count is always >= 1"),
    };
    parts.fold(first, merge)
}

/// Run `work` over the `chunk`-sized slices of `items`: the last on the
/// calling thread, every other one on a scoped thread. Outputs come back
/// in chunk order.
fn on_chunks<T, P, W>(items: &[T], chunk: usize, work: W) -> Vec<P>
where
    T: Sync,
    P: Send,
    W: Fn(&[T]) -> P + Sync,
{
    let mut chunks = items.chunks(chunk);
    let last = chunks.next_back();
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks.map(|slice| s.spawn(move || work(slice))).collect();
        let tail = last.map(work);
        let mut parts: Vec<P> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();
        parts.extend(tail);
        parts
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn par_map_matches_sequential_for_any_worker_count() {
        let items: Vec<u64> = (0..1003).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [0, 1, 2, 3, 8, 64, 2000] {
            assert_eq!(par_map(workers, &items, |x| x * 3 + 1), expect);
        }
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(8, &empty, |x| *x).is_empty());
        assert_eq!(par_map(8, &[7u32], |x| *x + 1), vec![8]);
    }

    #[test]
    fn workers_bound_the_threads_and_the_caller_is_one() {
        use std::collections::HashSet;
        use std::thread::{self, ThreadId};
        let items: Vec<u32> = (0..64).collect();
        let caller = thread::current().id();
        for workers in [1, 2, 3, 8] {
            let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
            par_map(workers, &items, |_| {
                seen.lock().unwrap().insert(thread::current().id())
            });
            let folded = par_fold(
                workers,
                &items,
                HashSet::new,
                |mut ids, _| {
                    ids.insert(thread::current().id());
                    ids
                },
                |mut a, b| {
                    a.extend(b);
                    a
                },
            );
            for (helper, ids) in [
                ("par_map", seen.into_inner().unwrap()),
                ("par_fold", folded),
            ] {
                assert!(
                    ids.len() <= workers,
                    "{helper}: {} threads for {workers} workers",
                    ids.len()
                );
                assert!(ids.contains(&caller), "{helper}: the caller ran no chunk");
            }
        }
    }

    #[test]
    fn par_fold_sums_match() {
        let items: Vec<u64> = (0..500).collect();
        let expect: u64 = items.iter().sum();
        for workers in [1, 2, 7, 32] {
            let got = par_fold(workers, &items, || 0u64, |a, x| a + x, |a, b| a + b);
            assert_eq!(got, expect);
        }
    }
}
