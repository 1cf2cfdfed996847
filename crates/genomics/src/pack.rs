//! 2-bit packed reads and the SWAR extraction kernel (DESIGN.md §9).
//!
//! A [`DnaSequence`] stores one ASCII byte per base; the host hot path
//! repacks it once into the paper's 2-bit encoding, 32 bases per `u64`
//! (Figure 6), plus a 1-bit-per-base validity mask, 64 bases per `u64`.
//! The ASCII identity `(byte >> 1) & 3` maps `A/C/G/T` to exactly the
//! paper's `00/01/10/11` codes, so packing is a shift and a mask per base
//! — no table, no branch. `N` packs to a garbage code and is handled
//! entirely through the validity mask.
//!
//! **Mask propagation (window poisoning).** A k-mer window is emitted only
//! if all k of its bases are valid. Rather than branching per base, the
//! per-base mask is *eroded*: `O(log k)` whole-vector shift-AND rounds
//! leave bit `i` set iff bits `i..i+k` were all set, so a single `N`
//! poisons exactly the k windows that cover it. The extractor then rolls
//! the forward packing across the read with one shift/OR update per base
//! and tests one precomputed mask bit per window. It emits each window as
//! a bare `2k`-bit word, the [`crate::Kmer::bits`] of the k-mer: the device
//! stores and searches its references in the same encoding.
//!
//! The extractor has a scalar twin, [`DnaSequence::kmers`];
//! `tests/kernel_equivalence.rs` proves the two paths identical over
//! adversarial inputs.

use crate::kmer::MAX_K;
use crate::sequence::DnaSequence;

/// 1 for the four unambiguous uppercase bases, 0 for everything else
/// (including `N`). A constant table keeps the packing loop branch-free.
const VALID: [u8; 256] = {
    let mut lut = [0u8; 256];
    lut[b'A' as usize] = 1;
    lut[b'C' as usize] = 1;
    lut[b'G' as usize] = 1;
    lut[b'T' as usize] = 1;
    lut
};

/// A sequence packed into 2-bit codes (32 bases per `u64`, base `i` at
/// bits `2(i mod 32)..`) with a validity bitmask (64 bases per `u64`,
/// base `i` at bit `i mod 64`).
#[derive(Debug, Clone, Default)]
pub struct PackedSeq {
    words: Vec<u64>,
    valid: Vec<u64>,
    len: usize,
}

impl PackedSeq {
    /// An empty packing.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Packs `seq`, reusing this packing's buffers.
    pub fn pack(&mut self, seq: &DnaSequence) {
        let bytes = seq.as_bytes();
        self.len = bytes.len();
        self.words.clear();
        self.words.extend(bytes.chunks(32).map(|chunk| {
            let mut word = 0u64;
            for (j, &b) in chunk.iter().enumerate() {
                // ASCII 'A'/'C'/'G'/'T' >> 1 ends in 00/01/11/10 — the
                // paper's encoding. 'N' packs to G's code; the validity
                // mask, not a branch, keeps it out of the output.
                word |= (u64::from(b >> 1) & 3) << (j * 2);
            }
            word
        }));
        self.valid.clear();
        self.valid.extend(bytes.chunks(64).map(|chunk| {
            let mut mask = 0u64;
            for (j, &b) in chunk.iter().enumerate() {
                mask |= u64::from(VALID[b as usize]) << j;
            }
            mask
        }));
    }

    /// Packs `seq` into a fresh packing.
    #[must_use]
    pub fn from_sequence(seq: &DnaSequence) -> Self {
        let mut packed = Self::new();
        packed.pack(seq);
        packed
    }

    /// Length in bases.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the packing is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The 2-bit code of base `i` (garbage for invalid bases).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    #[must_use]
    pub fn code(&self, i: usize) -> u64 {
        debug_assert!(i < self.len, "base index {i} out of range");
        (self.words[i >> 5] >> ((i & 31) * 2)) & 3
    }

    /// Whether base `i` is unambiguous (`ACGT`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    #[must_use]
    pub fn is_valid(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "base index {i} out of range");
        (self.valid[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// The packed code words (32 bases each, low bits first).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The validity mask words (64 bases each, low bits first).
    #[must_use]
    pub fn valid_words(&self) -> &[u64] {
        &self.valid
    }

    /// Erodes the validity mask into a window mask: bit `i` of `out` is
    /// set iff bases `i..i+k` are all valid — i.e. the k-mer window
    /// starting at `i` may be emitted. Out-of-range windows read zeros
    /// and come out unset. `O(log k)` shift-AND rounds over the whole
    /// vector; no per-base branch.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or greater than 32.
    pub fn window_mask_into(&self, k: usize, out: &mut Vec<u64>) {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..=32");
        out.clear();
        out.extend_from_slice(&self.valid);
        // After each round, bit i attests to `done` valid bases from i.
        // Doubling (capped at the remainder) reaches any k ≤ 32 in at
        // most 5 rounds.
        let mut done = 1usize;
        while done < k {
            let shift = done.min(k - done);
            shift_and_in_place(out, shift);
            done += shift;
        }
    }
}

/// `mask &= mask >> shift` over a multi-word bitvector (shift toward bit
/// 0, zero-filled past the end). `shift` must be in `1..64`.
fn shift_and_in_place(mask: &mut [u64], shift: usize) {
    debug_assert!((1..64).contains(&shift));
    for w in 0..mask.len() {
        let next = if w + 1 < mask.len() { mask[w + 1] } else { 0 };
        mask[w] &= (mask[w] >> shift) | (next << (64 - shift));
    }
}

/// Reusable packing and window-mask scratch for the SWAR extractor. One
/// `Extractor` amortizes its buffers across every read of a chunk, so the
/// steady state allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Extractor {
    packed: PackedSeq,
    wmask: Vec<u64>,
}

impl Extractor {
    /// A fresh extractor (no buffers allocated until first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends every valid forward k-mer of `seq` to `out` as its `2k`-bit
    /// word, in offset order, and returns how many were appended.
    /// Identical to collecting the [`crate::Kmer::bits`] of
    /// [`DnaSequence::kmers`].
    ///
    /// The rolling kernel: one shift/OR update per base maintains the
    /// packing of the current window, and one precomputed mask bit per
    /// window decides emission. The only data-dependent branch left is
    /// the emission test itself.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or greater than 32.
    pub fn extract_forward_into(
        &mut self,
        seq: &DnaSequence,
        k: usize,
        out: &mut Vec<u64>,
    ) -> usize {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..=32");
        if seq.len() < k {
            return 0;
        }
        let before = out.len();
        self.packed.pack(seq);
        self.packed.window_mask_into(k, &mut self.wmask);
        let kmask = if k == MAX_K {
            u64::MAX
        } else {
            (1u64 << (2 * k)) - 1
        };
        let mut fwd = 0u64;
        for i in 0..k - 1 {
            fwd = (fwd << 2) | self.packed.code(i);
        }
        for i in k - 1..seq.len() {
            fwd = ((fwd << 2) | self.packed.code(i)) & kmask;
            let start = i + 1 - k;
            if (self.wmask[start >> 6] >> (start & 63)) & 1 != 0 {
                out.push(fwd);
            }
        }
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> DnaSequence {
        s.parse().unwrap()
    }

    // ---- golden vectors: hand-computed packed words and masks ----

    #[test]
    fn golden_codes_acgt() {
        // A=00 C=01 G=11 T=10, base 0 in the low bits:
        // "ACGT" → 0b10_11_01_00 = 0xB4.
        let p = PackedSeq::from_sequence(&seq("ACGT"));
        assert_eq!(p.words(), &[0xB4]);
        assert_eq!(p.valid_words(), &[0b1111]);
        assert_eq!(p.code(0), 0b00);
        assert_eq!(p.code(1), 0b01);
        assert_eq!(p.code(2), 0b11);
        assert_eq!(p.code(3), 0b10);
    }

    #[test]
    fn golden_full_word() {
        // "ACGT" × 8 fills one word: every byte is the 0xB4 pattern.
        let p = PackedSeq::from_sequence(&seq(&"ACGT".repeat(8)));
        assert_eq!(p.len(), 32);
        assert_eq!(p.words(), &[0xB4B4_B4B4_B4B4_B4B4]);
        assert_eq!(p.valid_words(), &[u64::MAX >> 32]);
    }

    #[test]
    fn golden_word_boundary_spill() {
        // 33 bases: base 32 starts words[1]; valid mask still one word.
        let p = PackedSeq::from_sequence(&seq(&("ACGT".repeat(8) + "T")));
        assert_eq!(p.words(), &[0xB4B4_B4B4_B4B4_B4B4, 0b10]);
        assert_eq!(p.valid_words(), &[(1u64 << 33) - 1]);
    }

    #[test]
    fn golden_n_validity() {
        let p = PackedSeq::from_sequence(&seq("ACNGT"));
        // N is invalid; its code slot holds garbage but the mask is 0.
        assert_eq!(p.valid_words(), &[0b11011]);
        assert!(p.is_valid(1));
        assert!(!p.is_valid(2));
    }

    #[test]
    fn golden_n_at_code_word_boundaries() {
        // One N at offset 31, 32, or 33 of a 70-base read: the validity
        // word split at base 64 must clear exactly that bit.
        for off in [31usize, 32, 33] {
            let mut s = "A".repeat(70);
            s.replace_range(off..=off, "N");
            let p = PackedSeq::from_sequence(&seq(&s));
            let mut expect0 = u64::MAX;
            let mut expect1 = (1u64 << 6) - 1;
            if off < 64 {
                expect0 &= !(1u64 << off);
            } else {
                expect1 &= !(1u64 << (off - 64));
            }
            assert_eq!(p.valid_words(), &[expect0, expect1], "N at {off}");
        }
    }

    #[test]
    fn golden_window_mask_poisons_k_windows() {
        // 70 A's with an N at offset 33, k=4: window starts 30..=33 are
        // poisoned, everything else up to start 66 survives.
        let mut s = "A".repeat(70);
        s.replace_range(33..34, "N");
        let p = PackedSeq::from_sequence(&seq(&s));
        let mut wmask = Vec::new();
        p.window_mask_into(4, &mut wmask);
        let mut expect0 = u64::MAX;
        for start in 30..=33 {
            expect0 &= !(1u64 << start);
        }
        // Starts 64..=66 remain (67..69 would run off the end).
        assert_eq!(wmask, vec![expect0, 0b111]);
    }

    #[test]
    fn golden_window_mask_k31_at_boundary_offsets() {
        // The acceptance-critical k: one N at a code-word boundary
        // offset poisons starts (off-30)..=off and nothing else.
        let len = 100usize;
        for off in [31usize, 32, 33] {
            let mut s = "A".repeat(len);
            s.replace_range(off..=off, "N");
            let p = PackedSeq::from_sequence(&seq(&s));
            let mut wmask = Vec::new();
            p.window_mask_into(31, &mut wmask);
            for start in 0..=len - 31 {
                let got = (wmask[start >> 6] >> (start & 63)) & 1 != 0;
                let poisoned = start + 31 > off && start <= off;
                assert_eq!(got, !poisoned, "N at {off}, window start {start}");
            }
        }
    }

    #[test]
    fn window_mask_edge_lengths() {
        // len < k → no set bits; len == k → exactly bit 0.
        let p = PackedSeq::from_sequence(&seq("ACG"));
        let mut wmask = Vec::new();
        p.window_mask_into(4, &mut wmask);
        assert!(wmask.iter().all(|&w| w == 0));
        let p = PackedSeq::from_sequence(&seq("ACGT"));
        p.window_mask_into(4, &mut wmask);
        assert_eq!(wmask, vec![0b1]);
    }

    #[test]
    fn empty_sequence_packs_empty() {
        let p = PackedSeq::from_sequence(&DnaSequence::new());
        assert!(p.is_empty());
        assert!(p.words().is_empty());
        assert!(p.valid_words().is_empty());
    }

    // ---- extractor twins (broad coverage in tests/kernel_equivalence.rs) ----

    /// The words of `seq`'s k-mers through the scalar iterator.
    fn scalar_words(seq: &DnaSequence, k: usize) -> Vec<u64> {
        seq.kmers(k).map(|(_, kmer)| kmer.bits()).collect()
    }

    #[test]
    fn forward_extraction_matches_iterator() {
        let s = seq("ACGTACGTTGCANACGTACGAAACCCGGTT");
        let mut ex = Extractor::new();
        for k in [1usize, 2, 5, 8, 13, 30, 32] {
            let mut swar = Vec::new();
            let n = ex.extract_forward_into(&s, k, &mut swar);
            let scalar = scalar_words(&s, k);
            assert_eq!(n, scalar.len(), "k={k}");
            assert_eq!(swar, scalar, "k={k}");
        }
    }

    #[test]
    fn extractor_reuse_is_clean() {
        // A long read then a short one: stale buffers must not leak.
        let mut ex = Extractor::new();
        let mut out = Vec::new();
        ex.extract_forward_into(&seq(&"ACGT".repeat(40)), 31, &mut out);
        out.clear();
        let n = ex.extract_forward_into(&seq("ACGTACGT"), 4, &mut out);
        assert_eq!(n, 5);
        assert_eq!(out, scalar_words(&seq("ACGTACGT"), 4));
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=32")]
    fn zero_k_panics() {
        let mut ex = Extractor::new();
        ex.extract_forward_into(&seq("ACGT"), 0, &mut Vec::new());
    }
}
