//! Scoped-thread fan-out primitives for the parallel simulation core.
//!
//! Work is assigned to workers by a fixed rule (round-robin over item
//! index, or one contiguous range of a slice per worker) and outputs
//! come back in index or range order, so every helper here is
//! deterministic: the output is a pure function of the input and the
//! split, independent of OS scheduling. Combined with the
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

/// Splits `data` into up to `threads` contiguous ranges of near-equal
/// length and calls `f(offset, range)` on each, one scoped worker per
/// range, where `offset` is the range's start in `data`. Each worker owns
/// its range mutably; the outputs come back in range order. With one
/// thread (or at most one item) `f` runs once on the whole slice on the
/// caller's thread. A panic in `f` is resumed on the caller.
pub(crate) fn map_ranges_mut<T, R, F>(threads: usize, data: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let threads = threads.clamp(1, data.len().max(1));
    if threads == 1 {
        return vec![f(0, data)];
    }
    let len = data.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = data
            .chunks_mut(len)
            .enumerate()
            .map(|(i, range)| scope.spawn(move || f(i * len, range)))
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
    fn map_ranges_mut_covers_the_slice_in_order_for_any_thread_count() {
        for len in [0usize, 1, 7, 37] {
            for threads in [1, 2, 3, 8, 64] {
                let mut data = vec![0usize; len];
                let spans = map_ranges_mut(threads, &mut data, |offset, range| {
                    for (i, x) in range.iter_mut().enumerate() {
                        *x = offset + i;
                    }
                    (offset, range.len())
                });
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
