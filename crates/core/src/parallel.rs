//! Deterministic data-parallel helpers.
//!
//! The analysis engine fans per-app work out over OS threads, but every
//! consumer of its output asserts bit-identical results regardless of the
//! worker count. The helpers here guarantee that by construction:
//! [`par_map`] splits the input into *index-ordered contiguous chunks*,
//! one per worker (the caller works the last), and reassembles the
//! outputs in chunk order — so the result is always exactly
//! `items.iter().map(f).collect()`, no matter how the OS schedules the
//! threads. The closure must itself be a pure function of its item (and
//! index); all the workspace's per-app passes are, because their
//! "randomness" is seeded from per-app content hashes.
//!
//! [`Stage`] is the streaming counterpart for work that arrives over
//! time: a fixed set of workers over one bounded input queue. Its outputs
//! come back in completion order, so its consumers key each output to
//! its input instead of relying on order.

use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

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
    par_map_indexed(workers, items, |_, t| f(t))
}

/// [`par_map`], passing the item's input index to the closure as well.
pub(crate) fn par_map_indexed<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Contiguous chunks, one per worker; the last may run short.
    let chunk = items.len().div_ceil(workers);
    let parts = on_chunks(items, chunk, |ci, slice| {
        slice
            .iter()
            .enumerate()
            .map(|(i, t)| f(ci * chunk + i, t))
            .collect::<Vec<R>>()
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
    let parts = on_chunks(items, chunk, |_, slice| slice.iter().fold(init(), &fold));
    let mut parts = parts.into_iter();
    let first = match parts.next() {
        Some(p) => p,
        None => unreachable!("chunk count is always >= 1"),
    };
    parts.fold(first, merge)
}

/// Run `work` over the `chunk`-sized slices of `items`, each with its
/// chunk number: the last on the calling thread, every other one on a
/// scoped thread. Outputs come back in chunk order.
fn on_chunks<T, P, W>(items: &[T], chunk: usize, work: W) -> Vec<P>
where
    T: Sync,
    P: Send,
    W: Fn(usize, &[T]) -> P + Sync,
{
    let mut chunks = items.chunks(chunk).enumerate();
    let last = chunks.next_back();
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .map(|(ci, slice)| s.spawn(move || work(ci, slice)))
            .collect();
        let tail = last.map(|(ci, slice)| work(ci, slice));
        let mut parts: Vec<P> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();
        parts.extend(tail);
        parts
    })
}

/// A bounded streaming stage: `workers` threads map items pushed into one
/// input queue that holds at most `capacity` of them, so what a producer
/// can park in the stage is `capacity` inputs plus one per worker.
///
/// Outputs come back in completion order through [`Stage::try_recv`].
/// After each output, or a panic, a worker calls the stage's `ready`
/// hook, so an owner blocked on some other wait (a channel, say) can
/// wake and drain. Workers are joined on drop, after they drain what
/// is queued. A panic in `work` stops the workers and resumes on the
/// owner's thread at its next `push`, `try_recv` or drop.
pub struct Stage<I, O> {
    shared: Arc<StageShared<I, O>>,
    workers: Vec<JoinHandle<()>>,
}

struct StageShared<I, O> {
    state: Mutex<StageState<I, O>>,
    capacity: usize,
    /// Signalled when an input arrives or the stage closes.
    filled: Condvar,
    /// Signalled when a worker takes an input or one panics.
    drained: Condvar,
}

struct StageState<I, O> {
    inputs: VecDeque<I>,
    outputs: VecDeque<O>,
    closed: bool,
    panic: Option<Box<dyn Any + Send>>,
}

impl<I: Send + 'static, O: Send + 'static> Stage<I, O> {
    /// Start `workers` threads (at least one) running `work` over a queue
    /// of at most `capacity` inputs (at least one).
    pub fn spawn<W, R>(workers: usize, capacity: usize, work: W, ready: R) -> Stage<I, O>
    where
        W: Fn(I) -> O + Send + Sync + 'static,
        R: Fn() + Send + Sync + 'static,
    {
        let shared = Arc::new(StageShared {
            state: Mutex::new(StageState {
                inputs: VecDeque::new(),
                outputs: VecDeque::new(),
                closed: false,
                panic: None,
            }),
            capacity: capacity.max(1),
            filled: Condvar::new(),
            drained: Condvar::new(),
        });
        let body = Arc::new((work, ready));
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let body = Arc::clone(&body);
                std::thread::spawn(move || shared.serve(&body.0, &body.1))
            })
            .collect();
        Stage { shared, workers }
    }

    /// Queue one input, blocking while `capacity` inputs are queued.
    pub fn push(&mut self, item: I) {
        let mut state = self.shared.lock();
        while state.inputs.len() >= self.shared.capacity && state.panic.is_none() {
            state = self
                .shared
                .drained
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.panic.is_some() {
            drop(state);
            self.rethrow();
            return;
        }
        state.inputs.push_back(item);
        drop(state);
        self.shared.filled.notify_one();
    }

    /// The oldest output not yet taken, if any.
    pub fn try_recv(&mut self) -> Option<O> {
        let mut state = self.shared.lock();
        if state.panic.is_some() {
            drop(state);
            self.rethrow();
            return None;
        }
        state.outputs.pop_front()
    }
}

impl<I, O> Stage<I, O> {
    fn join(&mut self) {
        self.shared.lock().closed = true;
        self.shared.filled.notify_all();
        for worker in self.workers.drain(..) {
            // `serve` catches panics in `work`; this keeps one in `ready`.
            if let Err(panic) = worker.join() {
                self.shared.lock().panic.get_or_insert(panic);
            }
        }
    }

    /// Resume a worker's panic here, once every worker has stopped.
    fn rethrow(&mut self) {
        if self.shared.lock().panic.is_none() {
            return;
        }
        self.join();
        if let Some(panic) = self.shared.lock().panic.take() {
            std::panic::resume_unwind(panic);
        }
    }
}

impl<I, O> StageShared<I, O> {
    fn lock(&self) -> MutexGuard<'_, StageState<I, O>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One worker: take inputs until the stage closes empty or a worker
    /// panics.
    fn serve(&self, work: &impl Fn(I) -> O, ready: &impl Fn()) {
        loop {
            let item = {
                let mut state = self.lock();
                loop {
                    if state.panic.is_some() {
                        return;
                    }
                    if let Some(item) = state.inputs.pop_front() {
                        break item;
                    }
                    if state.closed {
                        return;
                    }
                    state = self
                        .filled
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            self.drained.notify_one();
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(item))) {
                Ok(output) => self.lock().outputs.push_back(output),
                Err(panic) => {
                    self.lock().panic.get_or_insert(panic);
                    self.filled.notify_all();
                    self.drained.notify_all();
                    ready();
                    return;
                }
            }
            ready();
        }
    }
}

impl<I, O> Drop for Stage<I, O> {
    fn drop(&mut self) {
        self.join();
        if !std::thread::panicking() {
            self.rethrow();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_for_any_worker_count() {
        let items: Vec<u64> = (0..1003).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [0, 1, 2, 3, 8, 64, 2000] {
            assert_eq!(par_map(workers, &items, |x| x * 3 + 1), expect);
        }
    }

    #[test]
    fn par_map_indexed_sees_global_indices() {
        let items = vec!["a"; 57];
        for workers in [1, 4, 9] {
            let idx = par_map_indexed(workers, &items, |i, _| i);
            assert_eq!(idx, (0..57).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(8, &empty, |x| *x).is_empty());
        assert_eq!(par_map(8, &[7u32], |x| *x + 1), vec![8]);
    }

    #[test]
    fn stage_outputs_equal_the_sequential_map_as_a_multiset() {
        let items: Vec<u64> = (0..500).collect();
        let mut expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        expect.sort_unstable();
        for workers in [1, 2, 8] {
            let mut stage = Stage::spawn(workers, 2 * workers, |x: u64| x * x + 1, || {});
            let mut got = Vec::new();
            for &x in &items {
                stage.push(x);
                got.extend(std::iter::from_fn(|| stage.try_recv()));
            }
            got.extend(finish(stage));
            got.sort_unstable();
            assert_eq!(got, expect, "{workers} workers");
        }
    }

    /// Close the input, let the workers drain it, join them and return
    /// every output not yet taken (a worker's panic resumes here).
    fn finish<I, O>(mut stage: Stage<I, O>) -> Vec<O> {
        stage.join();
        stage.rethrow();
        let outputs = stage.shared.lock().outputs.drain(..).collect();
        outputs
    }

    /// A gate the workers block on until the test opens it.
    fn gate() -> Arc<(Mutex<bool>, Condvar)> {
        Arc::new((Mutex::new(false), Condvar::new()))
    }

    fn wait_open(gate: &(Mutex<bool>, Condvar)) {
        let mut open = gate.0.lock().unwrap();
        while !*open {
            open = gate.1.wait(open).unwrap();
        }
    }

    fn open(gate: &(Mutex<bool>, Condvar)) {
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
    }

    /// Opens the gate when dropped, so a failed assertion releases the
    /// workers before the stage's drop joins them.
    struct OpenOnDrop(Arc<(Mutex<bool>, Condvar)>);

    impl Drop for OpenOnDrop {
        fn drop(&mut self) {
            open(&self.0);
        }
    }

    #[test]
    fn stage_queue_never_holds_more_than_its_capacity() {
        let (workers, capacity) = (2, 3);
        let shut = gate();
        let worker_gate = Arc::clone(&shut);
        let mut stage = Stage::spawn(
            workers,
            capacity,
            move |x: u32| {
                wait_open(&worker_gate);
                x
            },
            || {},
        );
        let _release = OpenOnDrop(Arc::clone(&shut));
        // Each worker holds one input; the queue then fills to capacity.
        for x in 0..(workers + capacity) as u32 {
            stage.push(x);
            assert!(stage.shared.lock().inputs.len() <= capacity);
        }
        assert_eq!(stage.shared.lock().inputs.len(), capacity);
        // One more push blocks until a worker frees a slot.
        let stage = Arc::new(Mutex::new(stage));
        let pushed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let pusher = {
            let (stage, pushed) = (Arc::clone(&stage), Arc::clone(&pushed));
            std::thread::spawn(move || {
                let mut stage = stage.lock().unwrap();
                stage.push(99);
                pushed.store(true, std::sync::atomic::Ordering::SeqCst);
                assert!(stage.shared.lock().inputs.len() <= capacity);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!pushed.load(std::sync::atomic::Ordering::SeqCst));
        open(&shut);
        pusher.join().unwrap();
        let stage = Arc::try_unwrap(stage).ok().unwrap().into_inner().unwrap();
        let mut out = finish(stage);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2, 3, 4, 99]);
    }

    #[test]
    fn stage_drop_joins_the_workers() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let ready = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let readies = Arc::clone(&ready);
        let mut stage = Stage::spawn(
            2,
            4,
            move |x: u32| sink.lock().unwrap().push(x),
            move || {
                readies.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            },
        );
        for x in 0..40 {
            stage.push(x);
        }
        drop(stage);
        // Every queued input ran, and the workers' closures are gone.
        assert_eq!(seen.lock().unwrap().len(), 40);
        assert_eq!(ready.load(std::sync::atomic::Ordering::SeqCst), 40);
        assert_eq!(Arc::strong_count(&seen), 1);
    }

    #[test]
    fn a_panic_in_a_stage_worker_propagates() {
        let caught = std::panic::catch_unwind(|| {
            let mut stage = Stage::spawn(
                2,
                2,
                |x: u32| {
                    assert!(x != 7, "worker saw 7");
                    x
                },
                || {},
            );
            for x in 0..64 {
                stage.push(x);
            }
            finish(stage)
        });
        let panic = caught.expect_err("the worker's panic must reach the owner");
        let message = match panic.downcast_ref::<&str>() {
            Some(s) => (*s).to_owned(),
            None => panic.downcast_ref::<String>().cloned().unwrap_or_default(),
        };
        assert!(message.contains("worker saw 7"), "{message}");
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
