//! Scoped-thread fan-out primitives for the parallel simulation core.
//!
//! Work is assigned to workers by a fixed rule (round-robin or contiguous
//! blocks over item index) and results are scattered back by index, so
//! every helper here is deterministic: the output is a pure function of
//! the input, independent of thread count and OS scheduling. Combined
//! with the order-independent (integer sum / max) reductions in the
//! schedulers, this is what makes `threads = N` bit-identical to
//! `threads = 1` (see DESIGN.md §6).

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Mutex, OnceLock};

/// Resolves the configured thread knob: `0` means "use all available
/// parallelism", anything else is taken literally.
pub(crate) fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        host_parallelism()
    } else {
        requested
    }
}

/// The host's physical parallelism, probed once per process. Stages whose
/// parallel form duplicates work (the owned-bucket scatter re-scans the
/// source per worker) cap their fan-out here so an oversubscribed
/// `threads` knob never multiplies total work beyond what real cores can
/// absorb.
pub(crate) fn host_parallelism() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// A mutex-striped work queue for the bucket sorts: one stripe per
/// worker, filled completely *before* any worker starts (so an empty pop
/// means "done", never "wait"). A worker pops the front of its own
/// stripe; once that runs dry it pops the *back* of the other stripes, so
/// a worker that finishes its owned run early drains the heaviest
/// remainder of a loaded neighbour instead of idling.
///
/// Determinism: the queue only changes *which worker* executes an item,
/// never the item set; the consumer sorts disjoint slices in place, so
/// output is identical for any interleaving.
pub(crate) struct StealQueue<T> {
    stripes: Vec<Mutex<VecDeque<T>>>,
}

impl<T> StealQueue<T> {
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            stripes: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    /// Appends `item` to `worker`'s stripe. Requires `&mut self`: filling
    /// happens strictly before the workers share the queue.
    pub(crate) fn push(&mut self, worker: usize, item: T) {
        let stripe = worker % self.stripes.len();
        self.stripes[stripe]
            .get_mut()
            .expect("stripe lock cannot be poisoned before workers start")
            .push_back(item);
    }

    /// Next item for `worker`: the front of its own stripe, else the back
    /// of the first non-empty other stripe. `None` means every stripe is
    /// empty and the worker can exit.
    pub(crate) fn pop(&self, worker: usize) -> Option<T> {
        let stripes = self.stripes.len();
        let own = worker % stripes;
        if let Some(item) = self.stripes[own].lock().expect("stripe lock").pop_front() {
            return Some(item);
        }
        (1..stripes).find_map(|delta| {
            self.stripes[(own + delta) % stripes]
                .lock()
                .expect("stripe lock")
                .pop_back()
        })
    }
}

/// Maps `f` over `0..n`, fanning out over up to `threads` scoped worker
/// threads, and returns the outputs in index order.
///
/// Worker `t` owns indices `t, t + threads, t + 2·threads, …` (round-robin,
/// so heavy items that cluster in the index space still spread out), and
/// outputs are scattered back by index; the result is therefore identical
/// for every thread count. A panic in `f` is resumed on the caller.
pub(crate) fn map_indexed<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..n)
                        .step_by(threads)
                        .map(|i| (i, f(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(results) => {
                    for (i, value) in results {
                        out[i] = Some(value);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    out.into_iter()
        .map(|v| v.expect("every index produced exactly once"))
        .collect()
}

/// Maps `f` over up to `threads` contiguous index ranges covering `0..n`
/// and returns the per-chunk outputs in chunk order. The chunk boundaries
/// (`⌈n/threads⌉`-sized blocks) depend only on `n` and `threads`, so any
/// order-independent reduction of the outputs — an OR-fold, a column sum —
/// is identical for every thread count.
pub(crate) fn map_chunks<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return vec![f(0..n)];
    }
    let block = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let range = (t * block).min(n)..((t + 1) * block).min(n);
                scope.spawn(move || f(range))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(value) => value,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    })
}

/// Applies `f` to every element of `items` in place, fanning the elements
/// out over up to `threads` scoped worker threads in contiguous blocks.
pub(crate) fn for_each_mut<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let block = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks_mut(block)
            .map(|chunk| {
                scope.spawn(move || {
                    for item in chunk {
                        f(item);
                    }
                })
            })
            .collect();
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_preserves_order_for_any_thread_count() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(map_indexed(threads, 37, |i| i * i), expected);
        }
    }

    #[test]
    fn map_indexed_handles_empty_and_tiny_inputs() {
        assert_eq!(map_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn for_each_mut_touches_every_item_once() {
        for threads in [1, 2, 5, 16] {
            let mut items: Vec<u32> = (0..23).collect();
            for_each_mut(threads, &mut items, |x| *x += 100);
            assert_eq!(items, (100..123).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn map_chunks_covers_every_index_once_for_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let chunks = map_chunks(threads, 37, |r| r.collect::<Vec<usize>>());
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, (0..37).collect::<Vec<usize>>(), "threads={threads}");
        }
        assert_eq!(map_chunks(4, 0, |r| r.len()), vec![0]);
    }

    #[test]
    fn effective_threads_resolves_auto() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn steal_queue_drains_every_item_exactly_once() {
        for workers in [1usize, 2, 4, 8] {
            let mut queue = StealQueue::new(workers);
            for item in 0..37u32 {
                queue.push(item as usize % workers, item);
            }
            let mut seen: Vec<u32> = Vec::new();
            for w in 0..workers {
                while let Some(item) = queue.pop(w) {
                    seen.push(item);
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..37).collect::<Vec<u32>>(), "workers={workers}");
        }
    }

    #[test]
    fn steal_queue_steals_from_the_back() {
        // Worker 1's stripe is empty, so it takes worker 0's back item
        // while worker 0 keeps popping its own front.
        let mut queue = StealQueue::new(2);
        for item in [10u32, 20, 30] {
            queue.push(0, item);
        }
        assert_eq!(queue.pop(1), Some(30));
        assert_eq!(queue.pop(0), Some(10));
    }

    #[test]
    fn steal_queue_drains_under_concurrent_workers() {
        let workers = 4usize;
        let mut queue = StealQueue::new(workers);
        // Forced imbalance: every item lands on stripe 0.
        for item in 0..500u32 {
            queue.push(0, item);
        }
        let queue = &queue;
        let sum = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let sum = &sum;
                scope.spawn(move || {
                    while let Some(item) = queue.pop(w) {
                        sum.fetch_add(u64::from(item), std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(
            sum.load(std::sync::atomic::Ordering::Relaxed),
            (0..500u64).sum::<u64>()
        );
    }
}
