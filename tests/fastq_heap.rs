//! `fastq::parse` holds no more heap than it returns.
//!
//! A counting global allocator, the system allocator plus a live-byte
//! counter armed only around the call (as in sievebench's `alloc.rs`),
//! records the peak live bytes of a parse. The counter is process-wide,
//! so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

use sieve::genomics::fastq::{self, FastqRecord};
use sieve::genomics::DnaSequence;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
/// Live bytes relative to the arming point.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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

/// Runs `f` with the counter armed; returns its result and the peak live
/// heap, in bytes, above the level at the moment of arming.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let out = f();
    ARMED.store(false, Relaxed);
    (out, usize::try_from(PEAK.load(Relaxed)).unwrap_or(0))
}

/// `n` records of `len` bases: a seeded ACGT stream with about one `N`
/// in 50, ids `read<i>`, Phred+33 qualities.
fn records(n: usize, len: usize) -> Vec<FastqRecord> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|i| {
            let bases: Vec<u8> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let r = state >> 33;
                    if r.is_multiple_of(50) {
                        b'N'
                    } else {
                        b"ACGT"[(r / 50 % 4) as usize]
                    }
                })
                .collect();
            FastqRecord {
                id: format!("read{i}"),
                sequence: DnaSequence::from_bytes(&bases).expect("alphabet is ACGTN"),
                quality: "I".repeat(len),
            }
        })
        .collect()
}

/// The bytes a parse returns: its vector's whole capacity, and every
/// id, sequence and quality.
fn returned_bytes(records: &Vec<FastqRecord>) -> usize {
    records.capacity() * std::mem::size_of::<FastqRecord>()
        + records
            .iter()
            .map(|r| r.id.len() + r.sequence.len() + r.quality.len())
            .sum::<usize>()
}

#[test]
fn parse_holds_no_more_than_it_returns() {
    let many = records(10_000, 100);
    let plain = fastq::write(&many);
    // CRLF ends, leading and trailing blank lines, and one or two blank
    // lines between some records.
    let some = records(2_000, 100);
    let mut crlf = String::from("\r\n");
    for (i, record) in some.iter().enumerate() {
        let text = fastq::write(std::slice::from_ref(record));
        crlf.push_str(&text.replace('\n', "\r\n"));
        crlf.push_str(["", "\r\n", "\n\r\n"][i % 3]);
    }
    crlf.push_str("\r\n\r\n");

    for (label, text, want) in [("plain", &plain, &many), ("CRLF", &crlf, &some)] {
        let (parsed, peak) = peak_during(|| fastq::parse(text));
        let parsed = parsed.expect("the text parses");
        assert!(parsed == *want, "{label}: the records differ");
        assert!(
            parsed.capacity() <= parsed.len() + 1,
            "{label}: capacity {} for {} records",
            parsed.capacity(),
            parsed.len()
        );
        let returned = returned_bytes(&parsed);
        assert!(
            peak * 100 <= returned * 101,
            "{label}: peak {peak} B during the parse, {returned} B returned ({:.3}x)",
            peak as f64 / returned as f64
        );
    }
}
