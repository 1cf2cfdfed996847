//! Packed k-mers (k ≤ 32) in the paper's 2-bit encoding.

use std::fmt;
use std::str::FromStr;

use crate::base::Base;
use crate::error::GenomicsError;

/// Maximum supported k for a 64-bit packed k-mer.
pub const MAX_K: usize = 32;

/// XOR with this mask complements every 2-bit base field at once: under
/// the paper's encoding (A=00, C=01, T=10, G=11) complementation is
/// exactly "flip the high bit of the field" (A↔T is 00↔10, C↔G is 01↔11).
const COMPLEMENT_MASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// Reverse-complements a low-aligned 2k-bit packing in a handful of
/// full-width `u64` operations — the SWAR kernel behind
/// [`Kmer::canonical`] (DESIGN.md §9).
///
/// One XOR complements all 32 base fields (the unused high fields become
/// garbage, but they land in the discarded low bits after the reversal);
/// two mask/shift rounds plus a byte swap reverse the 32 fields; the
/// final shift re-aligns the k real fields to the low 2k bits. Every base
/// — including the middle base of an odd k — passes through the same XOR,
/// so the scalar and SWAR twins agree on all 4^k values (proven
/// exhaustively for k ≤ 11 in `tests/kernel_equivalence.rs`).
#[inline]
#[must_use]
pub fn revcomp_bits(bits: u64, k: usize) -> u64 {
    debug_assert!((1..=MAX_K).contains(&k), "k must be in 1..=32");
    let x = bits ^ COMPLEMENT_MASK;
    // Reverse the 32 2-bit fields: swap adjacent fields, then adjacent
    // nibbles, then the 8 bytes.
    let x = ((x & 0x3333_3333_3333_3333) << 2) | ((x >> 2) & 0x3333_3333_3333_3333);
    let x = ((x & 0x0F0F_0F0F_0F0F_0F0F) << 4) | ((x >> 4) & 0x0F0F_0F0F_0F0F_0F0F);
    let x = x.swap_bytes();
    x >> (64 - 2 * k)
}

/// Canonical form of a low-aligned 2k-bit packing: the branchless minimum
/// of the forward packing and its reverse complement.
#[inline]
#[must_use]
pub fn canonical_bits(bits: u64, k: usize) -> u64 {
    bits.min(revcomp_bits(bits, k))
}

/// A k-mer packed into a `u64`, first base in the most significant bits.
///
/// Because the first base occupies the high bits, **integer order equals
/// lexicographic order** (under the paper's `A<C<T<G` encoding). That is
/// exactly the property Sieve's k-mer → subarray index table relies on:
/// reference k-mers are sorted "alphanumerically", partitioned across
/// subarrays, and routed by comparing integer values (§IV-D).
///
/// Bit `j` of a k-mer (see [`Kmer::bit`]) is the bit stored in DRAM row `j`
/// of the subarray's Region 1, i.e. the bit compared during the `j`-th row
/// activation of a lookup.
///
/// # Example
///
/// ```
/// use sieve_genomics::Kmer;
///
/// let a: Kmer = "ACT".parse()?;
/// let b: Kmer = "AGT".parse()?;
/// assert!(a < b);              // C (01) < G (11) lexicographically
/// assert_eq!(a.lcp_bits(&b), 2); // A = 00 shared; C=01 vs G=11 differ at bit 2
/// # Ok::<(), sieve_genomics::GenomicsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Kmer {
    bits: u64,
    k: u8,
}

impl Kmer {
    /// Builds a k-mer from bases. `k` is taken from the iterator length.
    ///
    /// # Errors
    ///
    /// Returns [`GenomicsError::InvalidK`] if the iterator yields 0 or more
    /// than [`MAX_K`] bases.
    pub fn from_bases<I: IntoIterator<Item = Base>>(bases: I) -> Result<Self, GenomicsError> {
        let mut bits = 0u64;
        let mut k = 0usize;
        for b in bases {
            if k == MAX_K {
                return Err(GenomicsError::InvalidK { k: k + 1 });
            }
            bits = (bits << 2) | u64::from(b.to_bits());
            k += 1;
        }
        if k == 0 {
            return Err(GenomicsError::InvalidK { k: 0 });
        }
        Ok(Self { bits, k: k as u8 })
    }

    /// Builds a k-mer from a packed integer.
    ///
    /// # Errors
    ///
    /// Returns [`GenomicsError::InvalidK`] if `k` is outside `1..=32` or
    /// `bits` has set bits above position `2k`.
    pub fn from_u64(bits: u64, k: usize) -> Result<Self, GenomicsError> {
        if k == 0 || k > MAX_K {
            return Err(GenomicsError::InvalidK { k });
        }
        if k < MAX_K && bits >> (2 * k) != 0 {
            return Err(GenomicsError::InvalidK { k });
        }
        Ok(Self { bits, k: k as u8 })
    }

    /// The k of this k-mer.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// The packed 2k-bit integer value (first base most significant).
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Number of bits (2k) — the number of DRAM rows a lookup may activate.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        2 * self.k()
    }

    /// The `i`-th base (0 = first/leftmost).
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    #[must_use]
    pub fn base(&self, i: usize) -> Base {
        assert!(i < self.k(), "base index {i} out of range for k={}", self.k);
        let shift = 2 * (self.k() - 1 - i);
        Base::from_bits(((self.bits >> shift) & 0b11) as u8)
    }

    /// Bit `j` in row-activation order: bit 0 is the high bit of the first
    /// base (stored in Region-1 row 0), bit `2k-1` the low bit of the last
    /// base.
    ///
    /// # Panics
    ///
    /// Panics if `j >= 2k`.
    #[must_use]
    pub fn bit(&self, j: usize) -> bool {
        assert!(j < self.bit_len(), "bit index {j} out of range");
        (self.bits >> (self.bit_len() - 1 - j)) & 1 == 1
    }

    /// Length (in bits) of the longest common prefix with `other`, in
    /// row-activation order. This is the number of row activations after
    /// which the two k-mers are still indistinguishable — the quantity that
    /// drives the Early Termination Mechanism.
    ///
    /// # Panics
    ///
    /// Panics if the two k-mers have different k.
    #[must_use]
    pub fn lcp_bits(&self, other: &Kmer) -> usize {
        assert_eq!(self.k, other.k, "lcp_bits requires equal k");
        let diff = self.bits ^ other.bits;
        if diff == 0 {
            return self.bit_len();
        }
        // Position of the highest differing bit, from the top of the 2k window.
        let top = 64 - self.bit_len() as u32;
        (diff.leading_zeros() - top) as usize
    }

    /// The k-mer one base further along a sequence: drops the first base,
    /// appends `next`. This is the rolling-window step used when extracting
    /// successive query k-mers from a read.
    #[must_use]
    pub fn shifted(&self, next: Base) -> Self {
        let mask = if self.k() == MAX_K {
            u64::MAX
        } else {
            (1u64 << (2 * self.k())) - 1
        };
        Self {
            bits: ((self.bits << 2) | u64::from(next.to_bits())) & mask,
            k: self.k,
        }
    }

    /// The reverse complement of this k-mer, the scalar twin of
    /// [`revcomp_bits`]: one base-unpack/complement/repack per position.
    /// Kept as the readable reference the differential tests compare the
    /// SWAR kernel against.
    #[must_use]
    pub fn reverse_complement_scalar(&self) -> Self {
        let mut bits = 0u64;
        for i in 0..self.k() {
            bits = (bits << 2) | u64::from(self.base(self.k() - 1 - i).complement().to_bits());
        }
        Self { bits, k: self.k }
    }

    /// The canonical form: the lexicographic minimum of this k-mer and its
    /// reverse complement (the convention Kraken-family tools store).
    /// Selected branchlessly via [`canonical_bits`].
    #[must_use]
    pub fn canonical(&self) -> Self {
        Self {
            bits: canonical_bits(self.bits, self.k()),
            k: self.k,
        }
    }

    /// The scalar twin of [`Kmer::canonical`], built on
    /// [`Kmer::reverse_complement_scalar`] and an explicit comparison.
    #[must_use]
    pub fn canonical_scalar(&self) -> Self {
        let rc = self.reverse_complement_scalar();
        if rc.bits < self.bits {
            rc
        } else {
            *self
        }
    }

    /// Iterator over the bases, leftmost first.
    pub fn bases(&self) -> impl Iterator<Item = Base> + '_ {
        (0..self.k()).map(move |i| self.base(i))
    }
}

impl fmt::Display for Kmer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.bases() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl FromStr for Kmer {
    type Err = GenomicsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bases: Result<Vec<Base>, _> = s.bytes().map(Base::from_ascii).collect();
        Kmer::from_bases(bases?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trip() {
        let s = "ACTGACTGACTGACTGACTGACTGACTGACT"; // 31 bases
        let k: Kmer = s.parse().unwrap();
        assert_eq!(k.k(), 31);
        assert_eq!(k.to_string(), s);
    }

    #[test]
    fn integer_order_is_lexicographic() {
        let words = ["AAA", "AAC", "AAT", "AAG", "ACA", "TTT", "GGG"];
        let mut kmers: Vec<Kmer> = words.iter().map(|w| w.parse().unwrap()).collect();
        let sorted_by_int = {
            let mut v = kmers.clone();
            v.sort();
            v
        };
        kmers.sort_by_key(std::string::ToString::to_string);
        // NOTE: paper encoding is A<C<T<G, so "lexicographic" means under
        // that ordering, not ASCII. Compare against base-wise ordering.
        let mut by_bases = sorted_by_int.clone();
        by_bases.sort_by(|a, b| {
            a.bases()
                .map(Base::to_bits)
                .collect::<Vec<_>>()
                .cmp(&b.bases().map(Base::to_bits).collect::<Vec<_>>())
        });
        assert_eq!(sorted_by_int, by_bases);
    }

    #[test]
    fn bit_order_matches_row_activation_order() {
        // "CG" = C(01) G(11) → bits 0111, rows see 0,1,1,1.
        let k: Kmer = "CG".parse().unwrap();
        assert!(!k.bit(0));
        assert!(k.bit(1));
        assert!(k.bit(2));
        assert!(k.bit(3));
    }

    #[test]
    fn lcp_bits_examples() {
        let a: Kmer = "ACT".parse().unwrap();
        let b: Kmer = "AGT".parse().unwrap();
        // A=00 shared (2 bits), C=01 vs G=11 differ on the first bit of
        // base 1 → LCP=3? C's high bit is 0, G's is 1 → they differ at bit
        // index 2, so LCP = 2.
        assert_eq!(a.lcp_bits(&b), 2);
        let c: Kmer = "ACT".parse().unwrap();
        assert_eq!(a.lcp_bits(&c), 6);
        let d: Kmer = "ACG".parse().unwrap();
        // T=10 vs G=11 differ in the low bit → LCP = 5.
        assert_eq!(a.lcp_bits(&d), 5);
    }

    #[test]
    #[should_panic(expected = "equal k")]
    fn lcp_requires_equal_k() {
        let a: Kmer = "ACT".parse().unwrap();
        let b: Kmer = "AC".parse().unwrap();
        let _ = a.lcp_bits(&b);
    }

    #[test]
    fn shifted_slides_the_window() {
        let k: Kmer = "ACT".parse().unwrap();
        assert_eq!(k.shifted(Base::G).to_string(), "CTG");
    }

    #[test]
    fn shifted_works_at_max_k() {
        let s: String = "A".repeat(32);
        let k: Kmer = s.parse().unwrap();
        let shifted = k.shifted(Base::G);
        assert_eq!(shifted.k(), 32);
        assert_eq!(shifted.base(31), Base::G);
        assert_eq!(shifted.base(0), Base::A);
    }

    #[test]
    fn reverse_complement_and_canonical() {
        let k: Kmer = "AACG".parse().unwrap();
        let rc = Kmer::from_u64(revcomp_bits(k.bits(), 4), 4).unwrap();
        assert_eq!(rc.to_string(), "CGTT");
        assert_eq!(revcomp_bits(rc.bits(), 4), k.bits());
        let canon = k.canonical();
        assert!(canon.bits() <= k.bits());
        assert_eq!(canon, rc.canonical());
    }

    #[test]
    fn swar_revcomp_matches_scalar_twin() {
        // A deterministic xorshift walk over every k, including odd k
        // (middle base) and k=32 (no spare bits).
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for k in 1..=MAX_K {
            for _ in 0..200 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let bits = if k == MAX_K {
                    x
                } else {
                    x & ((1u64 << (2 * k)) - 1)
                };
                let kmer = Kmer::from_u64(bits, k).unwrap();
                assert_eq!(
                    revcomp_bits(bits, k),
                    kmer.reverse_complement_scalar().bits(),
                    "revcomp twins disagree at k={k} bits={bits:#x}"
                );
                assert_eq!(
                    kmer.canonical(),
                    kmer.canonical_scalar(),
                    "canonical twins disagree at k={k} bits={bits:#x}"
                );
            }
        }
    }

    #[test]
    fn from_u64_validates() {
        assert!(Kmer::from_u64(0, 0).is_err());
        assert!(Kmer::from_u64(0, 33).is_err());
        assert!(Kmer::from_u64(1 << 6, 3).is_err()); // bit above 2k=6
        let k = Kmer::from_u64(0b00_01_10, 3).unwrap();
        assert_eq!(k.to_string(), "ACT");
        assert!(Kmer::from_u64(u64::MAX, 32).is_ok());
    }

    #[test]
    fn empty_and_oversized_rejected() {
        assert!(Kmer::from_bases(std::iter::empty()).is_err());
        assert!(Kmer::from_bases(std::iter::repeat_n(Base::A, 33)).is_err());
    }

    #[test]
    fn base_accessor() {
        let k: Kmer = "ACTG".parse().unwrap();
        assert_eq!(k.base(0), Base::A);
        assert_eq!(k.base(3), Base::G);
    }
}
