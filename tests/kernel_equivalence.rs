//! Differential harness for the host extraction kernels (DESIGN.md §9):
//! the byte-rolling k-mer extraction and the word-level revcomp/canonical
//! kernels must be identical to their scalar references on *every* input,
//! not just typical reads. This file drives both implementations over
//! adversarial grids (N-density sweeps, an `N` at every offset,
//! palindromes, empty and sub-k reads, k from 1 to 32) and over seeded
//! random inputs. The vote and LCP twins are crate-private, so their
//! tests sit next to their `#[cfg(test)]` scalar references in
//! sieve-core's `host.rs` and `engine.rs`.
//!
//! `cargo test` builds this binary and those unit tests with overflow
//! checks on (the test profile's default, held by
//! [`test_builds_check_overflow`]), so any shift/mask arithmetic overflow
//! in the kernels fails loudly.

use proptest::prelude::*;
use sieve::genomics::{revcomp_bits, Base, DnaSequence, Kmer};

/// The twins here and in the crates' unit tests rely on the test build
/// checking integer overflow; this fails if a profile or `RUSTFLAGS` ever
/// turns the checks off.
#[test]
fn test_builds_check_overflow() {
    let wrapped = std::panic::catch_unwind(|| std::hint::black_box(u64::MAX) + 1);
    assert!(
        wrapped.is_err(),
        "the test build wraps u64 overflow silently"
    );
}

/// The k grid: both ends of the supported range (k = 32 leaves the word
/// no spare bits), and three odd ks with a middle base, one of them the
/// paper's 31.
const KS: [usize; 5] = [1, 15, 21, 31, 32];

/// N-density sweep, in percent.
const DENSITIES: [u32; 4] = [0, 1, 50, 100];

/// Deterministic LCG read: `n_percent` of positions are `N`, the rest a
/// seeded ACGT stream. Seeds are part of the test vector — see
/// `kernel_equivalence.proptest-regressions` for the cases that earned a
/// permanent slot.
fn lcg_read(len: usize, n_percent: u32, seed: u64) -> DnaSequence {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut s = String::with_capacity(len);
    for _ in 0..len {
        let r = next();
        if r % 100 < u64::from(n_percent) {
            s.push('N');
        } else {
            s.push(['A', 'C', 'G', 'T'][(r / 100 % 4) as usize]);
        }
    }
    s.parse().expect("alphabet is ACGTN")
}

/// The reference extraction: the rolling per-base iterator, read by read,
/// each k-mer as its `2k`-bit word.
fn reference_extract(reads: &[DnaSequence], k: usize) -> (Vec<u64>, Vec<u32>) {
    let mut kmers = Vec::new();
    let mut owners = Vec::new();
    for (ri, read) in reads.iter().enumerate() {
        for (_, kmer) in read.kmers(k) {
            kmers.push(kmer.bits());
            owners.push(ri as u32);
        }
    }
    (kmers, owners)
}

/// The byte-rolling extraction the pipeline runs
/// (`DnaSequence::extract_words_into`), with owner tags assigned the same
/// way the pipeline does.
fn rolled_extract(reads: &[DnaSequence], k: usize) -> (Vec<u64>, Vec<u32>) {
    let mut kmers = Vec::new();
    let mut owners = Vec::new();
    for (ri, read) in reads.iter().enumerate() {
        let n = read.extract_words_into(k, &mut kmers);
        owners.resize(owners.len() + n, ri as u32);
    }
    (kmers, owners)
}

/// Asserts both extraction twins agree on `reads`: the word stream and
/// the owner tags.
fn assert_extract_twins(reads: &[DnaSequence], k: usize, label: &str) {
    let reference = reference_extract(reads, k);
    let rolled = rolled_extract(reads, k);
    assert_eq!(rolled, reference, "forward extraction diverged: {label}");
}

// ---------------------------------------------------------------------
// Extraction: deterministic grids
// ---------------------------------------------------------------------

#[test]
fn extraction_grid_densities_and_lengths() {
    // N densities × read lengths around k × the k grid, single reads and
    // batches.
    for &k in &KS {
        let lens = [0, 1, k - 1, k, k + 1, 1000];
        for &density in &DENSITIES {
            let mut batch = Vec::new();
            for (i, &len) in lens.iter().enumerate() {
                let read = lcg_read(len, density, (k * 1000 + len * 7 + i) as u64);
                assert_extract_twins(
                    std::slice::from_ref(&read),
                    k,
                    &format!("k={k} len={len} density={density}%"),
                );
                batch.push(read);
            }
            // The whole length grid as one batch: owner tags must track
            // the read boundaries identically.
            assert_extract_twins(&batch, k, &format!("k={k} density={density}% batch"));
        }
    }
}

#[test]
fn extraction_n_at_every_offset_mod_32() {
    // A single N walked across a 100-base read, at every offset: the
    // windows covering the N must vanish identically in both twins, also
    // where the N is a read's first or last base.
    for &k in &KS {
        let clean = lcg_read(100, 0, 0xBEEF ^ k as u64);
        for off in 0..clean.len() {
            let mut bytes = clean.as_bytes().to_vec();
            bytes[off] = b'N';
            let read = DnaSequence::from_bytes(&bytes).unwrap();
            assert_extract_twins(
                std::slice::from_ref(&read),
                k,
                &format!("k={k} N at offset {off}"),
            );
        }
    }
}

#[test]
fn extraction_palindromic_windows() {
    // s + revcomp(s) makes the central window its own reverse complement
    // (even k): a window that reads the same on both strands.
    for &k in &[16usize, 20, 32] {
        let half = lcg_read(k / 2 + 40, 0, k as u64 * 31);
        let mut bytes = half.as_bytes().to_vec();
        bytes.extend(half.as_bytes().iter().rev().map(|&b| {
            let base = Base::from_ascii(b).expect("no N at density 0");
            base.complement().to_ascii()
        }));
        let read = DnaSequence::from_bytes(&bytes).unwrap();
        assert_extract_twins(std::slice::from_ref(&read), k, &format!("palindrome k={k}"));
    }
}

#[test]
fn extraction_homopolymers_and_max_k() {
    // Homopolymers stress the all-equal compare paths; k=32 exercises the
    // no-spare-bits mask (u64::MAX, a shift by zero).
    for base in ["A", "C", "G", "T"] {
        let read: DnaSequence = base.repeat(200).parse().unwrap();
        for &k in &[15usize, 31, 32] {
            assert_extract_twins(
                std::slice::from_ref(&read),
                k,
                &format!("homopolymer {base} k={k}"),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Extraction: checked-in regression cases
// ---------------------------------------------------------------------
// Mirrors kernel_equivalence.proptest-regressions: the vendored proptest
// derives its seed stream from the test name and cannot replay stored
// seeds, so each archived case is also pinned here as a plain test.

#[test]
fn regression_all_n_read() {
    for &k in &KS {
        let read: DnaSequence = "N".repeat(64).parse().unwrap();
        assert_extract_twins(std::slice::from_ref(&read), k, "all-N");
        assert_eq!(rolled_extract(std::slice::from_ref(&read), k).0, vec![]);
    }
}

#[test]
fn regression_n_straddles_word_boundary() {
    // 31 bases + N + 31 bases: the N restarts the run one base short of
    // a second 31-mer; the two flanks each emit exactly one.
    let read: DnaSequence = format!(
        "{}N{}",
        "ACGTACG".repeat(5).get(0..31).unwrap(),
        "TGCATGC".repeat(5).get(0..31).unwrap()
    )
    .parse()
    .unwrap();
    assert_extract_twins(std::slice::from_ref(&read), 31, "N at word boundary");
    assert_eq!(rolled_extract(std::slice::from_ref(&read), 31).0.len(), 2);
}

#[test]
fn regression_one_base_reads_and_empty_batch() {
    let reads: Vec<DnaSequence> = ["A", "C", "G", "T", "N", ""]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    for &k in &KS {
        assert_extract_twins(&reads, k, "1-base reads");
    }
    // k=1: every valid base is its own window.
    let (kmers, owners) = rolled_extract(&reads, 1);
    assert_eq!(kmers.len(), 4);
    assert_eq!(owners, vec![0, 1, 2, 3]);
    assert_extract_twins(&reads, 1, "1-base reads, k=1");
    assert_extract_twins(&[], 31, "empty batch");
}

#[test]
fn regression_alternating_n() {
    // "ANANAN…": no valid window for any k > 1, every k windows poisoned.
    let read: DnaSequence = "AN".repeat(50).parse().unwrap();
    for &k in &[2usize, 15, 31] {
        assert_extract_twins(std::slice::from_ref(&read), k, "alternating N");
        assert!(rolled_extract(std::slice::from_ref(&read), k).0.is_empty());
    }
}

// ---------------------------------------------------------------------
// Revcomp/canonical kernels: exhaustive small-k equivalence
// ---------------------------------------------------------------------

#[test]
fn revcomp_twins_exhaustive_small_k() {
    // All 4^k values for every k ≤ 11 — in particular every odd k, whose
    // middle base must come back complemented (not copied) by the SWAR
    // field reversal. This grid would have caught any middle-base or
    // realignment-shift mismatch.
    for k in 1..=11usize {
        for bits in 0..1u64 << (2 * k) {
            let kmer = Kmer::from_u64(bits, k).unwrap();
            let swar = revcomp_bits(bits, k);
            let scalar = kmer.reverse_complement_scalar().bits();
            assert_eq!(swar, scalar, "revcomp diverged at k={k} bits={bits:#x}");
            assert_eq!(
                kmer.canonical(),
                kmer.canonical_scalar(),
                "canonical diverged at k={k} bits={bits:#x}"
            );
        }
    }
}

#[test]
fn revcomp_is_an_involution_at_full_width() {
    // k=32 cannot be swept exhaustively; a seeded walk checks the
    // involution and twin agreement where no spare bits exist.
    let mut x = 0x0123_4567_89AB_CDEFu64;
    for _ in 0..10_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let kmer = Kmer::from_u64(x, 32).unwrap();
        assert_eq!(revcomp_bits(x, 32), kmer.reverse_complement_scalar().bits());
        assert_eq!(revcomp_bits(revcomp_bits(x, 32), 32), x);
    }
}

// ---------------------------------------------------------------------
// Property-based sweeps
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random ACGTN strings: both twins, all ks.
    #[test]
    fn prop_extract_twins_agree(
        raw in prop::collection::vec("[ACGTN]{0,120}", 0..10),
        k in prop::sample::select(KS.to_vec()),
    ) {
        let reads: Vec<DnaSequence> = raw.iter().map(|s| s.parse().unwrap()).collect();
        prop_assert_eq!(rolled_extract(&reads, k), reference_extract(&reads, k));
    }

    /// The density sweep as a property: exact N fraction and length drawn
    /// per case, twins compared on the emitted streams.
    #[test]
    fn prop_density_sweep(
        len in 0usize..600,
        density in prop::sample::select(vec![0u32, 1, 50, 100]),
        seed in any::<u64>(),
    ) {
        let read = lcg_read(len, density, seed);
        for &k in &KS {
            let reads = std::slice::from_ref(&read);
            prop_assert_eq!(rolled_extract(reads, k), reference_extract(reads, k),
                "k={} len={} density={}% seed={:#x}", k, len, density, seed);
        }
    }
}
