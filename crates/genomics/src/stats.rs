//! Sequence and dataset statistics (GC content, ambiguity rate, length
//! distributions) — the quick-look numbers a pipeline reports before
//! matching.

use crate::base::Base;
use crate::sequence::DnaSequence;

/// Composition statistics of one sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequenceStats {
    /// Length in bases (including `N`s).
    pub len: usize,
    /// Fraction of unambiguous bases that are G or C.
    pub gc_content: f64,
    /// Fraction of positions that are `N`.
    pub n_rate: f64,
}

/// Computes composition statistics for one sequence.
///
/// # Example
///
/// ```
/// use sieve_genomics::{stats, DnaSequence};
///
/// let seq: DnaSequence = "GGCCAATT".parse()?;
/// let s = stats::sequence_stats(&seq);
/// assert!((s.gc_content - 0.5).abs() < 1e-12);
/// # Ok::<(), sieve_genomics::GenomicsError>(())
/// ```
#[must_use]
pub fn sequence_stats(seq: &DnaSequence) -> SequenceStats {
    let mut gc = 0usize;
    let mut acgt = 0usize;
    let mut n = 0usize;
    for i in 0..seq.len() {
        match seq.base(i) {
            Some(Base::G | Base::C) => {
                gc += 1;
                acgt += 1;
            }
            Some(_) => acgt += 1,
            None => n += 1,
        }
    }
    SequenceStats {
        len: seq.len(),
        gc_content: if acgt == 0 {
            0.0
        } else {
            gc as f64 / acgt as f64
        },
        n_rate: if seq.is_empty() {
            0.0
        } else {
            n as f64 / seq.len() as f64
        },
    }
}

/// Length/composition summary of a read set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadSetStats {
    /// Number of reads.
    pub reads: usize,
    /// Total bases.
    pub total_bases: u64,
    /// Mean read length.
    pub mean_len: f64,
    /// Minimum and maximum read lengths.
    pub min_len: usize,
    /// Maximum read length.
    pub max_len: usize,
    /// Pooled GC content.
    pub gc_content: f64,
    /// Pooled `N` rate.
    pub n_rate: f64,
}

/// Summarizes a read set.
#[must_use]
pub fn read_set_stats(reads: &[DnaSequence]) -> ReadSetStats {
    let mut total = 0u64;
    let (mut min_len, mut max_len) = (usize::MAX, 0usize);
    let (mut gc, mut acgt, mut n) = (0u64, 0u64, 0u64);
    for read in reads {
        total += read.len() as u64;
        min_len = min_len.min(read.len());
        max_len = max_len.max(read.len());
        let s = sequence_stats(read);
        let read_acgt = (read.len() as f64 * (1.0 - s.n_rate)).round() as u64;
        gc += (s.gc_content * read_acgt as f64).round() as u64;
        acgt += read_acgt;
        n += (s.n_rate * read.len() as f64).round() as u64;
    }
    ReadSetStats {
        reads: reads.len(),
        total_bases: total,
        mean_len: if reads.is_empty() {
            0.0
        } else {
            total as f64 / reads.len() as f64
        },
        min_len: if reads.is_empty() { 0 } else { min_len },
        max_len,
        gc_content: if acgt == 0 {
            0.0
        } else {
            gc as f64 / acgt as f64
        },
        n_rate: if total == 0 {
            0.0
        } else {
            n as f64 / total as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gc_and_n_rates() {
        let seq: DnaSequence = "GGCCNNAATT".parse().unwrap();
        let s = sequence_stats(&seq);
        assert_eq!(s.len, 10);
        assert!((s.gc_content - 0.5).abs() < 1e-12);
        assert!((s.n_rate - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_sequence_is_zeroes() {
        let s = sequence_stats(&DnaSequence::new());
        assert_eq!(s.len, 0);
        assert_eq!(s.gc_content, 0.0);
        assert_eq!(s.n_rate, 0.0);
    }

    #[test]
    fn read_set_summary() {
        let reads: Vec<DnaSequence> = vec![
            "ACGT".parse().unwrap(),
            "GGGGGG".parse().unwrap(),
            "AT".parse().unwrap(),
        ];
        let s = read_set_stats(&reads);
        assert_eq!(s.reads, 3);
        assert_eq!(s.total_bases, 12);
        assert_eq!(s.min_len, 2);
        assert_eq!(s.max_len, 6);
        assert!((s.mean_len - 4.0).abs() < 1e-12);
        // GC: 2 (ACGT) + 6 (G×6) + 0 = 8 of 12.
        assert!((s.gc_content - 8.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn random_genomes_are_near_half_gc() {
        let mut rng = crate::rng::Xoshiro256pp::seed_from_u64(5);
        let g = crate::synth::random_genome(20_000, &mut rng);
        let s = sequence_stats(&g);
        assert!((s.gc_content - 0.5).abs() < 0.02, "{}", s.gc_content);
    }
}
