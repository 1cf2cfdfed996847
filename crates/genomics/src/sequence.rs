//! DNA sequences and k-mer extraction with ambiguity handling.

use std::fmt;
use std::str::FromStr;

use crate::base::Base;
use crate::error::GenomicsError;
use crate::kmer::{Kmer, MAX_K};

/// Whether `byte` is in the sequence alphabet, case-insensitive `ACGTN`.
/// Setting bit 5 folds an ASCII capital onto its lower case and maps no
/// other byte onto a letter, so one OR and five compares decide it.
const fn is_sequence_byte(byte: u8) -> bool {
    matches!(byte | 0x20, b'a' | b'c' | b'g' | b't' | b'n')
}

/// Checks `bytes` against the sequence alphabet, case-insensitive
/// `ACGTN`, in place. The scan has no early exit, so it vectorizes; only
/// failing input looks for the first offender.
///
/// # Errors
///
/// Returns [`GenomicsError::InvalidBase`] with the first byte outside the
/// alphabet, upper-cased.
pub(crate) fn check_alphabet(bytes: &[u8]) -> Result<(), GenomicsError> {
    if bytes
        .iter()
        .fold(false, |bad, &b| bad | !is_sequence_byte(b))
    {
        let byte = bytes.iter().copied().find(|&b| !is_sequence_byte(b));
        return Err(GenomicsError::InvalidBase {
            byte: byte
                .expect("the scan found a byte outside the alphabet")
                .to_ascii_uppercase(),
        });
    }
    Ok(())
}

/// A DNA sequence stored as validated ASCII (`ACGT` plus the ambiguity code
/// `N`).
///
/// Real read files contain `N` positions; any k-mer window covering an `N`
/// is skipped during extraction, exactly as Kraken/CLARK do.
///
/// # Example
///
/// ```
/// use sieve_genomics::DnaSequence;
///
/// let seq: DnaSequence = "ACGTNACGT".parse()?;
/// // Windows covering the N are skipped: 4-mer windows at offsets 0..=5
/// // exist, but only offsets 0 and 5 avoid the N.
/// let kmers: Vec<String> = seq.kmers(4).map(|(_, k)| k.to_string()).collect();
/// assert_eq!(kmers, vec!["ACGT", "ACGT"]);
/// # Ok::<(), sieve_genomics::GenomicsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DnaSequence {
    data: Vec<u8>,
}

impl DnaSequence {
    /// An empty sequence.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a sequence from raw bytes, validating the alphabet
    /// (case-insensitive `ACGTN`).
    ///
    /// # Errors
    ///
    /// Returns [`GenomicsError::InvalidBase`] on any other byte.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, GenomicsError> {
        check_alphabet(bytes)?;
        Ok(Self {
            data: bytes.to_ascii_uppercase(),
        })
    }

    /// Takes bytes that passed [`check_alphabet`] as a sequence, upper-cased
    /// in place and trimmed to their length.
    pub(crate) fn from_checked(mut data: Vec<u8>) -> Self {
        data.make_ascii_uppercase();
        data.shrink_to_fit();
        Self { data }
    }

    /// Builds a pure-ACGT sequence from bases.
    #[must_use]
    pub fn from_bases<I: IntoIterator<Item = Base>>(bases: I) -> Self {
        Self {
            data: bases.into_iter().map(Base::to_ascii).collect(),
        }
    }

    /// Length in bases.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The raw ASCII bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// The base at `i`, or `None` if it is an `N`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn base(&self, i: usize) -> Option<Base> {
        Base::from_ascii(self.data[i]).ok()
    }

    /// Appends a base.
    pub fn push(&mut self, base: Base) {
        self.data.push(base.to_ascii());
    }

    /// Appends an ambiguous position.
    pub fn push_ambiguous(&mut self) {
        self.data.push(b'N');
    }

    /// Extracts a sub-range as a new sequence.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn slice(&self, start: usize, len: usize) -> DnaSequence {
        DnaSequence {
            data: self.data[start..start + len].to_vec(),
        }
    }

    /// Iterator over all valid k-mer windows, as `(offset, kmer)` pairs.
    /// Windows containing `N` are skipped. Uses a rolling update, so the
    /// whole scan is O(len).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or greater than 32.
    pub fn kmers(&self, k: usize) -> Kmers<'_> {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..=32");
        Kmers {
            seq: &self.data,
            k,
            pos: 0,
            current: None,
        }
    }

    /// Appends the `2k`-bit word ([`Kmer::bits`]) of every valid k-mer
    /// window to `out`, in offset order, and returns how many it
    /// appended: the words of [`DnaSequence::kmers`], its reference.
    ///
    /// One pass over the bytes. Each byte rolls into the window's word
    /// through the ASCII identity `(byte >> 1) & 3`, which maps `A/C/G/T`
    /// to the paper's `00/01/11/10` codes, and extends the run of bases
    /// since the last `N`. An `N` rolls in a garbage code and restarts the
    /// run, and a window is emitted once the run covers all k of its
    /// bases, so exactly the k windows that hold an `N` are skipped. A
    /// sequence holds only `ACGTN`, so no other byte needs a case.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or greater than 32.
    pub fn extract_words_into(&self, k: usize, out: &mut Vec<u64>) -> usize {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..=32");
        let mask = u64::MAX >> (64 - 2 * k);
        let before = out.len();
        let (mut word, mut run) = (0u64, 0usize);
        for &b in &self.data {
            word = ((word << 2) | u64::from((b >> 1) & 3)) & mask;
            run = if b == b'N' { 0 } else { run + 1 };
            if run >= k {
                out.push(word);
            }
        }
        out.len() - before
    }

    /// Number of valid k-mers (equals `self.kmers(k).count()` but O(len)).
    #[must_use]
    pub fn kmer_count(&self, k: usize) -> usize {
        self.kmers(k).count()
    }
}

impl fmt::Display for DnaSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(std::str::from_utf8(&self.data).expect("sequence is ASCII"))
    }
}

impl FromStr for DnaSequence {
    type Err = GenomicsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::from_bytes(s.as_bytes())
    }
}

impl FromIterator<Base> for DnaSequence {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Self {
        Self::from_bases(iter)
    }
}

impl Extend<Base> for DnaSequence {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

/// Iterator over `(offset, kmer)` windows of a sequence.
/// Produced by [`DnaSequence::kmers`].
#[derive(Debug, Clone)]
pub struct Kmers<'a> {
    seq: &'a [u8],
    k: usize,
    pos: usize,
    current: Option<Kmer>,
}

impl Iterator for Kmers<'_> {
    type Item = (usize, Kmer);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(cur) = self.current {
                // Roll the window one base forward.
                if self.pos + self.k > self.seq.len() {
                    return None;
                }
                match Base::from_ascii(self.seq[self.pos + self.k - 1]) {
                    Ok(b) => {
                        let next = cur.shifted(b);
                        self.current = Some(next);
                        let off = self.pos;
                        self.pos += 1;
                        return Some((off, next));
                    }
                    Err(_) => {
                        // N at the end of the window: restart after it.
                        self.pos += self.k;
                        self.current = None;
                    }
                }
            } else {
                // (Re)build a full window starting at self.pos.
                if self.pos + self.k > self.seq.len() {
                    return None;
                }
                let window = &self.seq[self.pos..self.pos + self.k];
                if let Some(bad) = window.iter().rposition(|&c| Base::from_ascii(c).is_err()) {
                    self.pos += bad + 1;
                    continue;
                }
                let kmer = Kmer::from_bases(
                    window
                        .iter()
                        .map(|&c| Base::from_ascii(c).expect("window pre-validated")),
                )
                .expect("k validated in DnaSequence::kmers");
                // Store as if the *previous* roll produced it: next() rolls
                // from pos, so park current at pos-1 semantics.
                self.current = Some(kmer);
                let off = self.pos;
                self.pos += 1;
                return Some((off, kmer));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_validates_alphabet() {
        assert!("ACGTN".parse::<DnaSequence>().is_ok());
        assert!("ACGU".parse::<DnaSequence>().is_err());
    }

    #[test]
    fn alphabet_is_acgtn_in_either_case() {
        for byte in 0..=u8::MAX {
            let want = matches!(byte.to_ascii_uppercase(), b'A' | b'C' | b'G' | b'T' | b'N');
            let got = DnaSequence::from_bytes(&[b'A', byte]).is_ok();
            assert_eq!(got, want, "byte {byte:#04x}");
        }
        assert_eq!(
            DnaSequence::from_bytes(b"acgtn").unwrap().as_bytes(),
            b"ACGTN"
        );
    }

    #[test]
    fn invalid_base_names_the_first_offender_upper_cased() {
        assert_eq!(
            DnaSequence::from_bytes(b"acgnxu"),
            Err(GenomicsError::InvalidBase { byte: b'X' })
        );
        // Past the scan's vector width, in the last position.
        let mut long = vec![b'a'; 1000];
        long.push(b'!');
        assert_eq!(
            DnaSequence::from_bytes(&long),
            Err(GenomicsError::InvalidBase { byte: b'!' })
        );
    }

    #[test]
    fn golden_words() {
        // A=00 C=01 G=11 T=10, first base in the high bits:
        // "ACGT" is 0b00_01_11_10.
        let seq: DnaSequence = "ACGTNAC".parse().unwrap();
        let mut out = vec![7];
        assert_eq!(seq.extract_words_into(4, &mut out), 1);
        assert_eq!(out, [7, 0b0001_1110]);
        assert_eq!(seq.extract_words_into(2, &mut out), 4);
        assert_eq!(out[2..], [0b0001, 0b0111, 0b1110, 0b0001]);
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=32")]
    fn zero_k_extraction_panics() {
        let seq: DnaSequence = "ACGT".parse().unwrap();
        seq.extract_words_into(0, &mut Vec::new());
    }

    #[test]
    fn kmer_extraction_simple() {
        let seq: DnaSequence = "ACGTA".parse().unwrap();
        let kmers: Vec<String> = seq.kmers(3).map(|(_, k)| k.to_string()).collect();
        assert_eq!(kmers, vec!["ACG", "CGT", "GTA"]);
    }

    #[test]
    fn kmer_offsets_reported() {
        let seq: DnaSequence = "ACGTA".parse().unwrap();
        let offs: Vec<usize> = seq.kmers(2).map(|(o, _)| o).collect();
        assert_eq!(offs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn n_windows_are_skipped() {
        let seq: DnaSequence = "ACNGT".parse().unwrap();
        let kmers: Vec<String> = seq.kmers(2).map(|(_, k)| k.to_string()).collect();
        assert_eq!(kmers, vec!["AC", "GT"]);
    }

    #[test]
    fn leading_and_trailing_n() {
        let seq: DnaSequence = "NNACGTNN".parse().unwrap();
        let kmers: Vec<String> = seq.kmers(4).map(|(_, k)| k.to_string()).collect();
        assert_eq!(kmers, vec!["ACGT"]);
    }

    #[test]
    fn all_n_yields_nothing() {
        let seq: DnaSequence = "NNNNN".parse().unwrap();
        assert_eq!(seq.kmer_count(3), 0);
    }

    #[test]
    fn k_longer_than_sequence_yields_nothing() {
        let seq: DnaSequence = "ACG".parse().unwrap();
        assert_eq!(seq.kmers(4).count(), 0);
    }

    #[test]
    fn rolling_matches_naive_extraction() {
        let seq: DnaSequence = "ACGTACGTTGCANACGTACGAAACCCGGTT".parse().unwrap();
        for k in [1usize, 2, 5, 8] {
            let rolled: Vec<(usize, Kmer)> = seq.kmers(k).collect();
            let mut naive = Vec::new();
            for off in 0..=(seq.len().saturating_sub(k)) {
                let window = &seq.as_bytes()[off..off + k];
                if window.iter().all(|&c| Base::from_ascii(c).is_ok()) {
                    let kmer =
                        Kmer::from_bases(window.iter().map(|&c| Base::from_ascii(c).unwrap()))
                            .unwrap();
                    naive.push((off, kmer));
                }
            }
            assert_eq!(rolled, naive, "k={k}");
        }
    }

    #[test]
    fn display_round_trips() {
        let s = "ACGTNACGT";
        let seq: DnaSequence = s.parse().unwrap();
        assert_eq!(seq.to_string(), s);
    }

    #[test]
    fn collect_and_extend() {
        let mut seq: DnaSequence = [Base::A, Base::C].into_iter().collect();
        seq.extend([Base::G, Base::T]);
        assert_eq!(seq.to_string(), "ACGT");
        assert_eq!(seq.base(0), Some(Base::A));
        seq.push_ambiguous();
        assert_eq!(seq.base(4), None);
    }

    #[test]
    fn slice_extracts_range() {
        let seq: DnaSequence = "ACGTACGT".parse().unwrap();
        assert_eq!(seq.slice(2, 4).to_string(), "GTAC");
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=32")]
    fn zero_k_panics() {
        let seq: DnaSequence = "ACGT".parse().unwrap();
        let _ = seq.kmers(0);
    }
}
