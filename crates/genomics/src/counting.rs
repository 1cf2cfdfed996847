//! K-mer counting — the database-construction stage upstream of Sieve.
//!
//! Real reference pipelines (Jellyfish/KMC feeding Kraken-style builders)
//! count k-mers first and drop low-multiplicity ones (sequencing-error
//! artifacts) before the taxon-labelled set is built. This module provides
//! the counting stage and the k-mer spectrum used to pick the threshold.

use std::collections::HashMap;

use crate::error::GenomicsError;
use crate::kmer::Kmer;
use crate::sequence::DnaSequence;

/// A multiplicity counter over k-mers.
///
/// # Example
///
/// ```
/// use sieve_genomics::{counting::KmerCounter, DnaSequence};
///
/// let mut counter = KmerCounter::new(3)?;
/// let seq: DnaSequence = "ACGACG".parse()?;
/// counter.add_sequence(&seq);
/// assert_eq!(counter.count(&"ACG".parse()?), 2);
/// assert_eq!(counter.count(&"TTT".parse()?), 0);
/// # Ok::<(), sieve_genomics::GenomicsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KmerCounter {
    counts: HashMap<u64, u64>,
    k: usize,
    total: u64,
}

impl KmerCounter {
    /// Creates a counter for k-mers of length `k`.
    ///
    /// # Errors
    ///
    /// Returns [`GenomicsError::InvalidK`] for k outside `1..=32`.
    pub fn new(k: usize) -> Result<Self, GenomicsError> {
        if k == 0 || k > crate::kmer::MAX_K {
            return Err(GenomicsError::InvalidK { k });
        }
        Ok(Self {
            counts: HashMap::new(),
            k,
            total: 0,
        })
    }

    /// The k being counted.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Counts every valid k-mer window of `seq`.
    pub fn add_sequence(&mut self, seq: &DnaSequence) {
        for (_, kmer) in seq.kmers(self.k) {
            *self.counts.entry(kmer.bits()).or_insert(0) += 1;
            self.total += 1;
        }
    }

    /// Multiplicity of one k-mer.
    ///
    /// # Panics
    ///
    /// Panics if `kmer.k()` differs from the counter's k.
    #[must_use]
    pub fn count(&self, kmer: &Kmer) -> u64 {
        assert_eq!(kmer.k(), self.k, "k mismatch");
        self.counts.get(&kmer.bits()).copied().unwrap_or(0)
    }

    /// Distinct k-mers seen.
    #[must_use]
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total k-mer occurrences counted.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The k-mer spectrum: for each multiplicity, how many distinct k-mers
    /// occur exactly that often, sorted by multiplicity.
    #[must_use]
    pub fn spectrum(&self) -> Vec<(u64, u64)> {
        let mut hist: HashMap<u64, u64> = HashMap::new();
        for &c in self.counts.values() {
            *hist.entry(c).or_insert(0) += 1;
        }
        let mut out: Vec<(u64, u64)> = hist.into_iter().collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counted(text: &str, k: usize) -> KmerCounter {
        let mut c = KmerCounter::new(k).unwrap();
        c.add_sequence(&text.parse().unwrap());
        c
    }

    #[test]
    fn counts_multiplicities() {
        let c = counted("ACGACGACG", 3);
        assert_eq!(c.count(&"ACG".parse().unwrap()), 3);
        assert_eq!(c.count(&"CGA".parse().unwrap()), 2);
        assert_eq!(c.count(&"GAC".parse().unwrap()), 2);
        assert_eq!(c.total(), 7);
        assert_eq!(c.distinct(), 3);
    }

    #[test]
    fn n_windows_not_counted() {
        let c = counted("ACGNACG", 3);
        assert_eq!(c.count(&"ACG".parse().unwrap()), 2);
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn spectrum_sums_to_distinct() {
        let c = counted("ACGACGACGTTT", 3);
        let spectrum = c.spectrum();
        let distinct: u64 = spectrum.iter().map(|(_, n)| n).sum();
        assert_eq!(distinct as usize, c.distinct());
        let total: u64 = spectrum.iter().map(|(m, n)| m * n).sum();
        assert_eq!(total, c.total());
    }

    #[test]
    fn invalid_k_rejected() {
        assert!(KmerCounter::new(0).is_err());
        assert!(KmerCounter::new(33).is_err());
    }

    #[test]
    #[should_panic(expected = "k mismatch")]
    fn wrong_k_count_panics() {
        let c = counted("ACGT", 3);
        let _ = c.count(&"AC".parse().unwrap());
    }
}
