//! Bit-accurate subarray simulation: real transposed rows, real matcher
//! latches (Figure 7(d)), real per-row updates.
//!
//! This engine materializes Region 1 exactly as Sieve stores it — one DRAM
//! row per k-mer bit, references transposed onto bitlines per the pattern
//! group shape — and simulates each row activation as the hardware would:
//! every matcher XNORs its reference bit with the broadcast query bit and
//! ANDs the result into its latch. Match-Enable masks off query slots and
//! unused columns.
//!
//! It exists to *verify* the fast engine ([`crate::engine`]): both must
//! produce identical [`MatchOutcome`]s on any workload (see the crate's
//! property tests). Device simulations use the fast engine; this one is the
//! ground truth.

use sieve_genomics::{Kmer, TaxonId};

use crate::engine::MatchOutcome;
use crate::etm::rows_activated;
use crate::layout::SubarrayView;

/// A fully materialized Region 1 of one subarray.
#[derive(Debug, Clone)]
pub struct BitAccurateSubarray {
    /// `rows[j]` = the 2k Region-1 rows; each row is `cols/64` words of
    /// transposed reference bits.
    rows: Vec<Vec<u64>>,
    /// Match-Enable mask: 1 where a reference column lives.
    ref_mask: Vec<u64>,
    /// Payloads by rank.
    taxa: Vec<TaxonId>,
    /// Column → rank mapping for hit resolution.
    rank_of_col: Vec<Option<usize>>,
    bit_len: usize,
    cols: usize,
}

impl BitAccurateSubarray {
    /// Transposes `subarray`'s keys into row-major bit rows of width
    /// `cols` (the row-buffer width): row `j` holds bit `j` of every key,
    /// counted from the key's top (first-base) bit.
    ///
    /// # Panics
    ///
    /// Panics if the subarray is empty or a reference column exceeds `cols`.
    #[must_use]
    pub fn from_view(subarray: &SubarrayView<'_>, cols: u32) -> Self {
        assert!(!subarray.is_empty(), "cannot materialize an empty subarray");
        let bit_len = 2 * subarray.k();
        let words = (cols as usize).div_ceil(64);
        let mut rows = vec![vec![0u64; words]; bit_len];
        let mut ref_mask = vec![0u64; words];
        let mut rank_of_col = vec![None; cols as usize];
        for (rank, &key) in subarray.keys().iter().enumerate() {
            let col = subarray.col_of_rank(rank) as usize;
            assert!(col < cols as usize, "column {col} beyond row width {cols}");
            ref_mask[col / 64] |= 1u64 << (col % 64);
            rank_of_col[col] = Some(rank);
            for (j, row) in rows.iter_mut().enumerate() {
                if (key >> (bit_len - 1 - j)) & 1 == 1 {
                    row[col / 64] |= 1u64 << (col % 64);
                }
            }
        }
        Self {
            rows,
            ref_mask,
            taxa: subarray.taxa().to_vec(),
            rank_of_col,
            bit_len,
            cols: cols as usize,
        }
    }

    /// Simulates a full lookup: activates rows one by one, updating every
    /// latch, until the latches die (or all `2k` rows are done), then
    /// applies the same ETM row-count model as the fast engine.
    ///
    /// # Panics
    ///
    /// Panics if `query.k()` differs from the stored k.
    #[must_use]
    pub fn lookup(&self, query: Kmer, etm: bool, flush: u32) -> MatchOutcome {
        assert_eq!(query.bit_len(), self.bit_len, "query k mismatch");
        let mut latches = self.ref_mask.clone();
        // Row at which the last latch died; bit_len if any latch survives.
        let mut death_row = None;
        for j in 0..self.bit_len {
            let qbit = if query.bit(j) { u64::MAX } else { 0 };
            let mut alive = 0u64;
            for (latch, row_word) in latches.iter_mut().zip(&self.rows[j]) {
                // XNOR(ref, query) per column, ANDed into the latch.
                *latch &= !(row_word ^ qbit);
                alive |= *latch;
            }
            if alive == 0 {
                death_row = Some(j);
                break;
            }
        }
        match death_row {
            Some(j) => {
                // All latches dead during row j ⇒ max LCP over refs is j.
                let activity = rows_activated(j, self.bit_len, etm, flush);
                MatchOutcome {
                    hit: None,
                    max_lcp: j,
                    rows: activity.rows,
                }
            }
            None => {
                // A latch survived all rows: exact match. Exactly one
                // column can survive (stored k-mers are distinct).
                let col = latches
                    .iter()
                    .enumerate()
                    .find_map(|(w, &word)| {
                        (word != 0).then(|| w * 64 + word.trailing_zeros() as usize)
                    })
                    .expect("a latch survived");
                let survivors: u32 = latches.iter().map(|w| w.count_ones()).sum();
                assert_eq!(survivors, 1, "distinct references admit one survivor");
                let rank = self.rank_of_col[col].expect("surviving column is a reference");
                let activity = rows_activated(self.bit_len, self.bit_len, etm, flush);
                MatchOutcome {
                    hit: Some((rank, self.taxa[rank])),
                    max_lcp: self.bit_len,
                    rows: activity.rows,
                }
            }
        }
    }

    /// Per-segment death rows: for each `segment_len`-column segment, the
    /// row after which none of its latches is alive (`None` for segments
    /// with no references). Used to validate the fast engine's per-range
    /// LCP math and the Type-1 batch model.
    #[must_use]
    pub fn segment_death_rows(&self, query: Kmer, segment_len: usize) -> Vec<Option<usize>> {
        assert_eq!(query.bit_len(), self.bit_len, "query k mismatch");
        assert!(
            segment_len > 0 && segment_len.is_multiple_of(64),
            "segment_len must be a positive multiple of 64"
        );
        let segments = self.cols / segment_len;
        let words_per_seg = segment_len / 64;
        let mut deaths: Vec<Option<usize>> = (0..segments)
            .map(|s| {
                let w0 = s * words_per_seg;
                let any = self.ref_mask[w0..w0 + words_per_seg]
                    .iter()
                    .any(|&w| w != 0);
                any.then_some(self.bit_len) // survives everything by default
            })
            .collect();
        let mut latches = self.ref_mask.clone();
        for j in 0..self.bit_len {
            let qbit = if query.bit(j) { u64::MAX } else { 0 };
            for (latch, row_word) in latches.iter_mut().zip(&self.rows[j]) {
                *latch &= !(row_word ^ qbit);
            }
            for (s, death) in deaths.iter_mut().enumerate() {
                if *death == Some(self.bit_len) {
                    let w0 = s * words_per_seg;
                    if latches[w0..w0 + words_per_seg].iter().all(|&w| w == 0) {
                        *death = Some(j);
                    }
                }
            }
        }
        deaths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SieveConfig;
    use crate::engine;
    use crate::layout::DeviceLayout;
    use sieve_dram::Geometry;
    use sieve_genomics::synth;

    /// Reference `rank` of `sa` as a k-mer.
    fn stored(sa: &SubarrayView<'_>, rank: usize) -> Kmer {
        Kmer::from_u64(sa.keys()[rank], sa.k()).unwrap()
    }

    fn setup() -> (DeviceLayout, u32) {
        let ds = synth::make_dataset_with(4, 1024, 31, 31);
        let config = SieveConfig::type3(4).with_geometry(Geometry::scaled_medium());
        let cols = config.geometry.cols_per_row;
        (DeviceLayout::build(ds.entries, &config).unwrap(), cols)
    }

    #[test]
    fn hits_resolve_to_the_right_payload() {
        let (layout, cols) = setup();
        let sa = layout.subarray(0);
        let bits = BitAccurateSubarray::from_view(&sa, cols);
        for (rank, taxon) in sa.taxa().iter().enumerate().step_by(211) {
            let o = bits.lookup(stored(&sa, rank), true, 1);
            assert_eq!(o.hit, Some((rank, *taxon)));
        }
    }

    #[test]
    fn agrees_with_fast_engine_on_probes() {
        let (layout, cols) = setup();
        let sa = layout.subarray(0);
        let bits = BitAccurateSubarray::from_view(&sa, cols);
        let mut state = 0xdeadbeefu64;
        for i in 0..300 {
            let probe = if i % 3 == 0 {
                stored(&sa, (i * 37) % sa.len())
            } else {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Kmer::from_u64(state >> 2, 31).unwrap()
            };
            for etm in [true, false] {
                let fast = engine::lookup(&sa, probe, etm, 1);
                let exact = bits.lookup(probe, etm, 1);
                assert_eq!(fast, exact, "probe {probe} etm={etm}");
            }
        }
    }

    #[test]
    fn segment_death_rows_match_range_lcp() {
        let (layout, cols) = setup();
        let sa = layout.subarray(0);
        let bits = BitAccurateSubarray::from_view(&sa, cols);
        let probe = stored(&sa, 5).shifted(sieve_genomics::Base::T);
        let deaths = bits.segment_death_rows(probe, 256);
        assert_eq!(deaths.len(), cols as usize / 256);
        for (s, death) in deaths.iter().enumerate() {
            let range = sa.ranks_in_cols(s as u32 * 256, (s as u32 + 1) * 256);
            let expected = engine::max_lcp_in_range(&sa, range, probe);
            match (death, expected) {
                (None, None) => {}
                (Some(d), Some(lcp)) => {
                    assert_eq!(*d, lcp.min(62), "segment {s}");
                }
                other => panic!("segment {s}: mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn query_columns_never_survive() {
        // Match-Enable masks query slots: a query equal to garbage in a
        // query column must not produce a hit there. We verify no column
        // outside the reference mask can ever be reported.
        let (layout, cols) = setup();
        let sa = layout.subarray(0);
        let bits = BitAccurateSubarray::from_view(&sa, cols);
        let o = bits.lookup(stored(&sa, 0), true, 1);
        let (rank, _) = o.hit.unwrap();
        assert!(sa.rank_of_col(sa.col_of_rank(rank)).is_some());
    }

    #[test]
    #[should_panic(expected = "query k mismatch")]
    fn wrong_k_panics() {
        let (layout, cols) = setup();
        let bits = BitAccurateSubarray::from_view(&layout.subarray(0), cols);
        let probe = Kmer::from_u64(0, 21).unwrap();
        let _ = bits.lookup(probe, true, 1);
    }
}
