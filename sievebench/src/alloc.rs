//! The benchmark's global allocator: the system allocator plus a live-byte
//! counter that is armed only during the memory pass. Disarmed, every
//! allocation pays one relaxed load, on every commit the benchmark builds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// Counts live heap bytes while armed. The flag and counters are plain
/// statistics that publish no other data, so `Relaxed` suffices; the
/// memory pass runs the pipeline on one thread.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
/// Live bytes relative to the arming point (negative after freeing memory
/// allocated before it).
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn count(delta: isize) {
    if ARMED.load(Relaxed) {
        let live = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn signed(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(signed(layout.size()));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(signed(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`, as `GlobalAlloc::dealloc` requires of the caller.
        unsafe { System.dealloc(ptr, layout) };
        count(-signed(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` with this `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(signed(new_size) - signed(layout.size()));
        }
        p
    }
}

/// Keeps freed memory mapped for the life of the process (glibc): no block
/// gets its own `mmap`, and the heap is never trimmed. Otherwise whether a
/// call's large buffers fault in fresh pages depends on glibc's adaptive
/// mmap threshold, i.e. on everything the process allocated before, which
/// moved the same call's wall by a quarter between passes. With this, every
/// call after the first runs on pages already mapped.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn retain_freed_memory() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets glibc allocator parameters, and runs
    // before the program starts any thread. A rejected setting returns 0
    // and leaves the default in place, which is safe.
    unsafe {
        mallopt(M_MMAP_MAX, 0);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn retain_freed_memory() {}

/// Runs `f` with the counter armed; returns its result and the peak live
/// heap, in bytes, above the level at the moment of arming.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let out = f();
    ARMED.store(false, Relaxed);
    let peak = u64::try_from(PEAK.load(Relaxed)).unwrap_or(0);
    (out, peak)
}
