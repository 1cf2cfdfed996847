//! Scoped-thread fan-out primitives for the parallel simulation core.
//!
//! Work is assigned to workers by a fixed rule (round-robin or contiguous
//! blocks over item index) and results are scattered back by index, so
//! every helper here is deterministic: the output is a pure function of
//! the input, independent of thread count and OS scheduling. Combined
//! with the order-independent (integer sum / max) reductions in the
//! schedulers, this is what makes `threads = N` bit-identical to
//! `threads = 1` (see DESIGN.md §6).

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
    fn effective_threads_resolves_auto() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }
}
