//! Early Termination Mechanism semantics (§III, §IV-A, Figures 9–10).
//!
//! This module is the **single source of truth** for how many Region-1 rows
//! a lookup activates; both the bit-accurate engine and the fast sorted-LCP
//! engine call into it, which is what makes their equivalence property
//! testable.
//!
//! ## Model
//!
//! A query k-mer of `2k` bits is compared one bit (row) at a time against
//! every column-resident reference. The latch of reference `r` dies during
//! row cycle `lcp_bits(q, r)` (0-indexed): the first row on which the bits
//! differ. The whole row buffer is *functionally dead* after row
//! `max_lcp = max_r lcp_bits(q, r)` has been activated — i.e. after
//! `max_lcp + 1` activations.
//!
//! The ETM's segmented OR completes within one row cycle per segment
//! (Table III: 43.6 ns < 50 ns) and the segment registers are checked the
//! following cycle, so the interrupt lags the functional death by
//! [`crate::SieveConfig::etm_flush_cycles`] row cycles (Figure 9's "an
//! extra cycle is needed to flush the result"). Without ETM, all `2k` rows
//! are always activated.
//!
//! On a **hit** (query present), no latch ever dies, all `2k` rows are
//! activated, and the ETM pipeline instead *identifies* the hit: the
//! segment-register state is drained (up to one pass over the segment
//! registers), then the Column Finder shifts the backup segment registers
//! (≤ `segments` positions) and the reserved segment (≤ `segment_len`
//! positions) — Figure 10(b). Only the drain is on the subarray's critical
//! path; CF shifting overlaps the next k-mer's matching, which is why the
//! paper sees no CF contention (§IV-A).

use sieve_dram::{TimePs, TimingParams};

/// Outcome of one lookup against one subarray, in rows and overlap terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowActivity {
    /// Region-1 rows actually activated.
    pub rows: u32,
    /// Whether the lookup is a hit (a column survived all rows).
    pub hit: bool,
}

/// Rows activated for a lookup whose best candidate survives `max_lcp` bits
/// (out of `bit_len = 2k`).
///
/// * `max_lcp == bit_len` means a hit: all rows are activated.
/// * With ETM on, a miss activates `max_lcp + 1` functional rows plus
///   `flush_cycles` extra rows (capped at `bit_len` — ETM can never
///   activate more rows than exist).
/// * With ETM off, every lookup activates all `bit_len` rows.
///
/// # Example
///
/// ```
/// use sieve_core::etm::rows_activated;
///
/// // k = 31 → 62 rows. First mismatch at bit 9 (10 shared bits is the
/// // paper's 97th percentile): 10 + 1 functional + 1 flush = 12 rows.
/// assert_eq!(rows_activated(10, 62, true, 1).rows, 12);
/// // Same lookup without ETM: all 62 rows.
/// assert_eq!(rows_activated(10, 62, false, 1).rows, 62);
/// // A hit always takes all rows.
/// assert!(rows_activated(62, 62, true, 1).hit);
/// ```
#[must_use]
pub fn rows_activated(max_lcp: usize, bit_len: usize, etm: bool, flush_cycles: u32) -> RowActivity {
    assert!(max_lcp <= bit_len, "LCP cannot exceed the k-mer length");
    let hit = max_lcp == bit_len;
    let rows = if !etm || hit {
        bit_len as u32
    } else {
        ((max_lcp as u32) + 1 + flush_cycles).min(bit_len as u32)
    };
    RowActivity { rows, hit }
}

/// Precomputed [`rows_activated`] results for every possible `max_lcp` at a
/// fixed `(bit_len, etm, flush_cycles)` — the three inputs that are constant
/// across an entire device run. The match kernel resolves ~700k lookups per
/// 10k-read chunk; indexing a 63-entry table replaces the branchy arithmetic
/// on that path while keeping [`rows_activated`] the single source of truth
/// (the table is *built* from it, and the equivalence is tested exhaustively).
#[derive(Debug, Clone)]
pub struct RowTable {
    rows: Box<[u32]>,
}

impl RowTable {
    /// Builds the table for lookups of `bit_len` bits under the given ETM
    /// setting: entry `l` is `rows_activated(l, bit_len, etm, flush_cycles)`.
    #[must_use]
    pub fn new(bit_len: usize, etm: bool, flush_cycles: u32) -> Self {
        let rows = (0..=bit_len)
            .map(|l| rows_activated(l, bit_len, etm, flush_cycles).rows)
            .collect();
        Self { rows }
    }

    /// Rows activated for a lookup that survives `max_lcp` bits.
    ///
    /// # Panics
    ///
    /// Panics if `max_lcp` exceeds the table's `bit_len`.
    #[inline]
    #[must_use]
    pub fn rows(&self, max_lcp: usize) -> u32 {
        self.rows[max_lcp]
    }

    /// The `bit_len` this table was built for.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.rows.len() - 1
    }
}

/// Critical-path time of the hit-identification sequence that follows the
/// last row activation (Figure 10(b)): draining the ETM segment pipeline.
/// One DRAM clock per segment register examined.
#[must_use]
pub fn hit_identify_ps(segments: u32, timing: &TimingParams) -> TimePs {
    TimePs::from(segments) * timing.t_ck
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rows_track_lcp() {
        for lcp in 0..61 {
            let a = rows_activated(lcp, 62, true, 1);
            assert_eq!(a.rows, (lcp as u32 + 2).min(62));
            assert!(!a.hit);
        }
    }

    #[test]
    fn near_full_lcp_is_capped() {
        let a = rows_activated(61, 62, true, 1);
        assert_eq!(a.rows, 62);
        assert!(!a.hit, "61 shared bits of 62 is still a miss");
    }

    #[test]
    fn hit_takes_all_rows() {
        let a = rows_activated(62, 62, true, 1);
        assert_eq!(a.rows, 62);
        assert!(a.hit);
        // Also without ETM.
        let a = rows_activated(62, 62, false, 0);
        assert!(a.hit);
    }

    #[test]
    fn etm_off_ignores_lcp() {
        for lcp in [0usize, 5, 30, 61] {
            assert_eq!(rows_activated(lcp, 62, false, 1).rows, 62);
        }
    }

    #[test]
    fn flush_cycles_add_rows() {
        assert_eq!(rows_activated(4, 62, true, 0).rows, 5);
        assert_eq!(rows_activated(4, 62, true, 3).rows, 8);
    }

    #[test]
    #[should_panic(expected = "LCP cannot exceed")]
    fn oversized_lcp_panics() {
        let _ = rows_activated(63, 62, true, 1);
    }

    #[test]
    fn row_table_matches_rows_activated_exhaustively() {
        // k = 31 → bit_len 62: every (max_lcp, etm, flush) combination.
        let bit_len = 62;
        for etm in [true, false] {
            for flush in [0u32, 1, 2, 3, 5] {
                let table = RowTable::new(bit_len, etm, flush);
                assert_eq!(table.bit_len(), bit_len);
                for lcp in 0..=bit_len {
                    assert_eq!(
                        table.rows(lcp),
                        rows_activated(lcp, bit_len, etm, flush).rows,
                        "lcp={lcp} etm={etm} flush={flush}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn row_table_rejects_oversized_lcp() {
        let table = RowTable::new(62, true, 1);
        let _ = table.rows(63);
    }

    #[test]
    fn hit_identify_is_submicrosecond() {
        let t = TimingParams::ddr4_paper();
        let ps = hit_identify_ps(32, &t);
        assert_eq!(ps, 32 * 1_250);
    }
}
