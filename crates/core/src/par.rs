//! Scoped-thread fan-out primitives for the parallel simulation core.
//!
//! Work is assigned to workers by a fixed rule (one contiguous range of
//! a slice per worker) and outputs come back in range order, so the
//! fan-out is deterministic: the output is a pure function of the input
//! and the split, independent of OS scheduling. Combined with the
//! order-independent (integer sum / max) merges of the device's match
//! pass and the schedulers, this is what makes `threads = N`
//! bit-identical to `threads = 1` (see DESIGN.md §6).

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Resolves the configured thread knob: `0` means "use all available
/// parallelism" (probed once per process), anything else is taken
/// literally.
pub(crate) fn effective_threads(requested: usize) -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    if requested == 0 {
        *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    } else {
        requested
    }
}

/// Splits `data` into up to `workers.len()` contiguous ranges of
/// near-equal length and calls `f(worker, offset, range)` on each, one
/// scoped thread per range, where range `i` goes to `workers[i]` and
/// `offset` is the range's start in `data`. Each worker owns its range
/// mutably; the outputs come back in range order. With one worker (or at
/// most one item) `f` runs once on the whole slice on the caller's
/// thread. Workers past the last range are left untouched. A panic in
/// `f` is resumed on the caller.
///
/// # Panics
///
/// Panics if `workers` is empty.
pub(crate) fn map_ranges_mut<S, T, R, F>(workers: &mut [S], data: &mut [T], f: F) -> Vec<R>
where
    S: Send,
    T: Send,
    R: Send,
    F: Fn(&mut S, usize, &mut [T]) -> R + Sync,
{
    let threads = workers.len().clamp(1, data.len().max(1));
    if threads == 1 {
        return vec![f(&mut workers[0], 0, data)];
    }
    let len = data.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = workers
            .iter_mut()
            .zip(data.chunks_mut(len))
            .enumerate()
            .map(|(i, (worker, range))| scope.spawn(move || f(worker, i * len, range)))
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_ranges_mut_covers_the_slice_in_order_for_any_thread_count() {
        for len in [0usize, 1, 7, 37] {
            for threads in [1, 2, 3, 8, 64] {
                let mut data = vec![0usize; len];
                let mut workers = vec![0usize; threads];
                let spans = map_ranges_mut(&mut workers, &mut data, |calls, offset, range| {
                    *calls += 1;
                    for (i, x) in range.iter_mut().enumerate() {
                        *x = offset + i;
                    }
                    (offset, range.len())
                });
                assert!(workers.iter().all(|&calls| calls <= 1));
                assert_eq!(workers.iter().sum::<usize>(), spans.len());
                assert_eq!(
                    data,
                    (0..len).collect::<Vec<_>>(),
                    "len {len} threads {threads}"
                );
                let mut next = 0;
                for (offset, n) in spans {
                    assert_eq!(offset, next);
                    next += n;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn effective_threads_resolves_auto() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }
}
