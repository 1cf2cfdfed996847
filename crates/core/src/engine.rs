//! The fast functional matching engine.
//!
//! A Sieve lookup's timing is fully determined by, per subarray:
//! whether the query is present (hit), and otherwise the **maximum LCP**
//! (longest common prefix, in bits) between the query and any stored
//! reference — the row at which the last latch dies (see [`crate::etm`]).
//!
//! Because each subarray stores a *sorted* slice of the reference set, the
//! maximum LCP against the whole slice equals the maximum LCP against the
//! two neighbours of the query's insertion point; and the maximum LCP
//! against any contiguous rank range (an ETM segment, a Type-1 batch)
//! equals the LCP against the range's element(s) nearest the insertion
//! point. This makes exact functional simulation O(log n) per lookup —
//! the bit-accurate engine in [`crate::bitsim`] verifies the equivalence.

use sieve_genomics::{Kmer, TaxonId};

use crate::etm::{rows_activated, RowActivity, RowTable};
use crate::layout::SubarrayView;

/// Functional + row-count outcome of one lookup against one subarray.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchOutcome {
    /// On a hit: the matching reference's subarray-local rank and payload.
    pub hit: Option<(usize, TaxonId)>,
    /// Maximum LCP (bits) against the subarray's references.
    pub max_lcp: usize,
    /// Region-1 rows activated (per the ETM model).
    pub rows: u32,
}

/// Looks up `query` in `subarray`, returning the functional outcome and the
/// number of rows activated under the given ETM setting.
///
/// # Panics
///
/// Panics if `query.k()` differs from the stored k-mers' k.
///
/// # Example
///
/// ```
/// use sieve_core::{DeviceLayout, SieveConfig, engine};
/// use sieve_dram::Geometry;
/// use sieve_genomics::synth;
///
/// let ds = synth::make_dataset_with(4, 1024, 31, 3);
/// let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
/// let present = ds.entries[0].0;
/// let layout = DeviceLayout::build(ds.entries, &config)?;
/// let outcome = engine::lookup(&layout.subarray(0), present, true, 1);
/// assert!(outcome.hit.is_some());
/// assert_eq!(outcome.rows, 62); // hits always activate all 2k rows
/// # Ok::<(), sieve_core::SieveError>(())
/// ```
#[must_use]
pub fn lookup(subarray: &SubarrayView<'_>, query: Kmer, etm: bool, flush: u32) -> MatchOutcome {
    let entries = subarray.entries();
    let bit_len = query.bit_len();
    if entries.is_empty() {
        let RowActivity { rows, .. } = rows_activated(0, bit_len, etm, flush);
        return MatchOutcome {
            hit: None,
            max_lcp: 0,
            rows,
        };
    }
    match entries.binary_search_by_key(&query.bits(), |(k, _)| k.bits()) {
        Ok(rank) => {
            let RowActivity { rows, .. } = rows_activated(bit_len, bit_len, etm, flush);
            MatchOutcome {
                hit: Some((rank, entries[rank].1)),
                max_lcp: bit_len,
                rows,
            }
        }
        Err(ins) => {
            let max_lcp = max_lcp_at_insertion(entries, ins, query);
            let RowActivity { rows, .. } = rows_activated(max_lcp, bit_len, etm, flush);
            MatchOutcome {
                hit: None,
                max_lcp,
                rows,
            }
        }
    }
}

/// Maximum LCP of `query` against a contiguous rank `range` of the
/// subarray's sorted entries (an ETM segment or a Type-1 batch).
/// Returns `None` for an empty range (no live latches to begin with).
///
/// A full-length LCP means the query *is* in the range (a hit for that
/// range).
#[must_use]
pub fn max_lcp_in_range(
    subarray: &SubarrayView<'_>,
    range: std::ops::Range<usize>,
    query: Kmer,
) -> Option<usize> {
    let entries = subarray.entries();
    if range.is_empty() {
        return None;
    }
    let slice = &entries[range.clone()];
    match slice.binary_search_by_key(&query.bits(), |(k, _)| k.bits()) {
        Ok(_) => Some(query.bit_len()),
        Err(ins) => Some(max_lcp_at_insertion(slice, ins, query)),
    }
}

/// Forward-only lookup cursor over one subarray's sorted entries.
///
/// For queries presented in non-decreasing bit order (as the shard plan
/// guarantees), each lookup resumes the scan from the previous query's
/// insertion point — galloping forward, then binary-searching the final
/// window — which costs O(log gap) instead of O(log n) per query and
/// touches neighbouring cache lines for consecutive queries. Every
/// outcome is identical to [`lookup`] on the same subarray: the stored
/// entries are deduplicated, so the leftmost match the cursor finds is
/// the same rank a binary search reports.
#[derive(Debug)]
pub struct MergeCursor<'a> {
    subarray: SubarrayView<'a>,
    /// Insertion point of the previous query: every entry before it
    /// sorts strictly below every query seen so far.
    pos: usize,
    /// Previous query bits, to enforce the non-decreasing contract.
    last_bits: Option<u64>,
}

impl<'a> MergeCursor<'a> {
    /// A cursor positioned at the start of `subarray`.
    #[must_use]
    pub fn new(subarray: SubarrayView<'a>) -> Self {
        Self {
            subarray,
            pos: 0,
            last_bits: None,
        }
    }

    /// Looks up `query`, which must not sort below any earlier query on
    /// this cursor. Equivalent to [`lookup`]`(subarray, query, etm, flush)`.
    ///
    /// # Panics
    ///
    /// Panics if `query.k()` differs from the stored k-mers' k, or (in
    /// debug builds) if queries arrive out of order.
    pub fn lookup(&mut self, query: Kmer, etm: bool, flush: u32) -> MatchOutcome {
        let entries = self.subarray.entries();
        let bit_len = query.bit_len();
        if entries.is_empty() {
            let RowActivity { rows, .. } = rows_activated(0, bit_len, etm, flush);
            return MatchOutcome {
                hit: None,
                max_lcp: 0,
                rows,
            };
        }
        let target = query.bits();
        debug_assert!(
            self.last_bits.is_none_or(|prev| prev <= target),
            "merge cursor requires non-decreasing queries"
        );
        self.last_bits = Some(target);
        let ins = lower_bound_from(entries, self.pos, target);
        self.pos = ins;
        if ins < entries.len() && entries[ins].0.bits() == target {
            let RowActivity { rows, .. } = rows_activated(bit_len, bit_len, etm, flush);
            MatchOutcome {
                hit: Some((ins, entries[ins].1)),
                max_lcp: bit_len,
                rows,
            }
        } else {
            let max_lcp = max_lcp_at_insertion(entries, ins, query);
            let RowActivity { rows, .. } = rows_activated(max_lcp, bit_len, etm, flush);
            MatchOutcome {
                hit: None,
                max_lcp,
                rows,
            }
        }
    }

    /// Looks up a block of queries given as raw packed bits, appending one
    /// [`MatchOutcome`] per key to `out`. Keys must be non-decreasing and
    /// continue the cursor's ordering contract, and must be `2k`-bit
    /// packings matching `table.bit_len()`. Each outcome is identical to
    /// [`MergeCursor::lookup`] with the ETM setting the table was built for.
    ///
    /// Hoisting the entries slice, the empty-subarray check, and the row
    /// arithmetic (via the [`RowTable`]) out of the per-query path is what
    /// makes this the kernel of choice for the device's match stage; the
    /// miss path's LCP is the branch-free first-diverging-bit formula.
    pub fn lookup_block(&mut self, keys: &[u64], table: &RowTable, out: &mut Vec<MatchOutcome>) {
        let entries = self.subarray.entries();
        let bit_len = table.bit_len();
        if entries.is_empty() {
            let rows = table.rows(0);
            for &key in keys {
                debug_assert!(
                    self.last_bits.is_none_or(|prev| prev <= key),
                    "merge cursor requires non-decreasing queries"
                );
                self.last_bits = Some(key);
                out.push(MatchOutcome {
                    hit: None,
                    max_lcp: 0,
                    rows,
                });
            }
            return;
        }
        debug_assert_eq!(entries[0].0.bit_len(), bit_len, "table/k mismatch");
        let mut pos = self.pos;
        let mut last = self.last_bits;
        for &target in keys {
            debug_assert!(
                last.is_none_or(|prev| prev <= target),
                "merge cursor requires non-decreasing queries"
            );
            last = Some(target);
            let ins = lower_bound_from(entries, pos, target);
            pos = ins;
            if ins < entries.len() && entries[ins].0.bits() == target {
                out.push(MatchOutcome {
                    hit: Some((ins, entries[ins].1)),
                    max_lcp: bit_len,
                    rows: table.rows(bit_len),
                });
            } else {
                let max_lcp = max_lcp_at_insertion_bits(entries, ins, target, bit_len);
                out.push(MatchOutcome {
                    hit: None,
                    max_lcp,
                    rows: table.rows(max_lcp),
                });
            }
        }
        self.pos = pos;
        self.last_bits = last;
    }
}

/// First index `>= from` whose entry sorts at or above `target` — the
/// insertion point of `target` in the whole slice, given that every entry
/// before `from` sorts strictly below it. Gallops forward from `from`,
/// then binary-searches the bracketed window, so the cost is logarithmic
/// in the distance advanced rather than in the slice length.
fn lower_bound_from(entries: &[(Kmer, TaxonId)], from: usize, target: u64) -> usize {
    if from >= entries.len() || entries[from].0.bits() >= target {
        return from;
    }
    // Invariant: entries[prev] < target; probe exponentially further.
    let mut prev = from;
    let mut step = 1usize;
    loop {
        let probe = prev.saturating_add(step);
        if probe >= entries.len() {
            return prev + 1 + entries[prev + 1..].partition_point(|(k, _)| k.bits() < target);
        }
        if entries[probe].0.bits() >= target {
            return prev + 1 + entries[prev + 1..probe].partition_point(|(k, _)| k.bits() < target);
        }
        prev = probe;
        step <<= 1;
    }
}

/// Max LCP given the insertion point in a sorted slice: the nearest
/// neighbour(s) achieve it. For sorted values `a < q < b`, any element left
/// of `a` shares no longer a prefix with `q` than `a` does (and likewise to
/// the right), because a longer shared prefix would sort it between `a`
/// and `q`.
fn max_lcp_at_insertion(entries: &[(Kmer, TaxonId)], ins: usize, query: Kmer) -> usize {
    let mut best = 0;
    if ins > 0 {
        best = best.max(entries[ins - 1].0.lcp_bits(&query));
    }
    if ins < entries.len() {
        best = best.max(entries[ins].0.lcp_bits(&query));
    }
    best
}

/// [`Kmer::lcp_bits`] on raw low-aligned packings of `bit_len` bits —
/// identical formula, minus the per-call unpacking. The scalar reference
/// the twin test holds [`lcp_bits_u64_swar`] to.
#[cfg(test)]
fn lcp_bits_u64(a: u64, b: u64, bit_len: usize) -> usize {
    let diff = a ^ b;
    if diff == 0 {
        bit_len
    } else {
        (diff.leading_zeros() - (64 - bit_len) as u32) as usize
    }
}

/// Branch-free [`Kmer::lcp_bits`] on raw packings: `leading_zeros` of an
/// all-zero diff is 64, which makes the first-diverging-bit formula come
/// out to `bit_len` exactly — no equality branch on the miss path. Both packings
/// are low-aligned, so the diff has no bits above `bit_len` and the
/// subtraction cannot underflow.
#[inline]
fn lcp_bits_u64_swar(a: u64, b: u64, bit_len: usize) -> usize {
    ((a ^ b).leading_zeros() as usize + bit_len) - 64
}

/// [`max_lcp_at_insertion`] on raw packed bits.
#[inline]
fn max_lcp_at_insertion_bits(
    entries: &[(Kmer, TaxonId)],
    ins: usize,
    target: u64,
    bit_len: usize,
) -> usize {
    let lcp = |a: u64| lcp_bits_u64_swar(a, target, bit_len);
    let mut best = 0;
    if ins > 0 {
        best = best.max(lcp(entries[ins - 1].0.bits()));
    }
    if ins < entries.len() {
        best = best.max(lcp(entries[ins].0.bits()));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SieveConfig;
    use crate::layout::DeviceLayout;
    use sieve_dram::Geometry;
    use sieve_genomics::synth;

    fn test_layout() -> DeviceLayout {
        let ds = synth::make_dataset_with(4, 2048, 31, 17);
        let config = SieveConfig::type3(4).with_geometry(Geometry::scaled_medium());
        DeviceLayout::build(ds.entries, &config).unwrap()
    }

    #[test]
    fn stored_kmers_hit_with_correct_payload() {
        let layout = test_layout();
        let sa = layout.subarray(0);
        for (rank, (kmer, taxon)) in sa.entries().iter().enumerate().step_by(97) {
            let o = lookup(&sa, *kmer, true, 1);
            assert_eq!(o.hit, Some((rank, *taxon)));
            assert_eq!(o.rows, 62);
            assert_eq!(o.max_lcp, 62);
        }
    }

    #[test]
    fn misses_match_brute_force_lcp() {
        let layout = test_layout();
        let sa = layout.subarray(0);
        let mut rng_state = 0x12345u64;
        for _ in 0..200 {
            // Simple LCG for deterministic probes.
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let probe = Kmer::from_u64(rng_state >> 2, 31).unwrap();
            let brute = sa
                .entries()
                .iter()
                .map(|(k, _)| k.lcp_bits(&probe))
                .max()
                .unwrap();
            let o = lookup(&sa, probe, true, 1);
            assert_eq!(o.max_lcp, brute);
            if brute < 62 {
                assert_eq!(o.hit, None);
                assert_eq!(o.rows, (brute as u32 + 2).min(62));
            }
        }
    }

    #[test]
    fn etm_off_activates_all_rows() {
        let layout = test_layout();
        let sa = layout.subarray(0);
        let probe = Kmer::from_u64(0, 31).unwrap();
        let o = lookup(&sa, probe, false, 1);
        assert_eq!(o.rows, 62);
    }

    #[test]
    fn empty_subarray_dies_immediately() {
        let config = SieveConfig::type3(4).with_geometry(Geometry::scaled_medium());
        let layout = DeviceLayout::build(Vec::new(), &config).unwrap();
        assert_eq!(layout.occupied_subarrays(), 0);
        let _ = layout; // empty layouts expose no subarray views
    }

    #[test]
    fn range_lcp_matches_brute_force() {
        let layout = test_layout();
        let sa = layout.subarray(0);
        let probes: Vec<Kmer> = sa
            .entries()
            .iter()
            .step_by(131)
            .map(|(k, _)| k.shifted(sieve_genomics::Base::G))
            .collect();
        for probe in probes {
            for (start, end) in [(0usize, 64), (64, 128), (100, 1000), (0, sa.len())] {
                let end = end.min(sa.len());
                if start >= end {
                    continue;
                }
                let brute = sa.entries()[start..end]
                    .iter()
                    .map(|(k, _)| k.lcp_bits(&probe))
                    .max()
                    .unwrap();
                let fast = max_lcp_in_range(&sa, start..end, probe).unwrap();
                assert_eq!(fast, brute, "range {start}..{end}");
            }
        }
    }

    #[test]
    fn empty_range_is_none() {
        let layout = test_layout();
        let sa = layout.subarray(0);
        let probe = Kmer::from_u64(1, 31).unwrap();
        assert_eq!(max_lcp_in_range(&sa, 5..5, probe), None);
    }

    #[test]
    fn merge_cursor_matches_binary_search_lookup() {
        let layout = test_layout();
        let sa = layout.subarray(0);
        // Mix of present k-mers, near-misses, duplicates, and extremes,
        // sorted as the shard plan would present them.
        let mut probes: Vec<Kmer> = sa.entries().iter().step_by(53).map(|(k, _)| *k).collect();
        probes.extend(
            sa.entries()
                .iter()
                .step_by(71)
                .map(|(k, _)| k.shifted(sieve_genomics::Base::T)),
        );
        probes.push(Kmer::from_u64(0, 31).unwrap());
        probes.push(Kmer::from_u64(u64::MAX >> 2, 31).unwrap());
        probes.push(probes[0]);
        probes.sort_unstable_by_key(Kmer::bits);
        for (etm, flush) in [(true, 1), (true, 0), (false, 1)] {
            let mut cursor = MergeCursor::new(sa);
            for probe in &probes {
                assert_eq!(
                    cursor.lookup(*probe, etm, flush),
                    lookup(&sa, *probe, etm, flush),
                    "probe {probe} etm={etm} flush={flush}"
                );
            }
        }
    }

    #[test]
    fn blocked_lookup_matches_per_query_cursor() {
        let layout = test_layout();
        let sa = layout.subarray(0);
        let mut probes: Vec<Kmer> = sa.entries().iter().step_by(53).map(|(k, _)| *k).collect();
        probes.extend(
            sa.entries()
                .iter()
                .step_by(71)
                .map(|(k, _)| k.shifted(sieve_genomics::Base::T)),
        );
        probes.push(Kmer::from_u64(0, 31).unwrap());
        probes.push(Kmer::from_u64(u64::MAX >> 2, 31).unwrap());
        probes.push(probes[0]);
        probes.sort_unstable_by_key(Kmer::bits);
        let keys: Vec<u64> = probes.iter().map(Kmer::bits).collect();
        for (etm, flush) in [(true, 1), (true, 0), (false, 1)] {
            let table = RowTable::new(62, etm, flush);
            // Feed the keys in uneven blocks to exercise cursor carry-over.
            for block in [1usize, 3, 7, keys.len()] {
                let mut cursor = MergeCursor::new(sa);
                let mut blocked = Vec::new();
                for chunk in keys.chunks(block) {
                    cursor.lookup_block(chunk, &table, &mut blocked);
                }
                let mut reference = MergeCursor::new(sa);
                for (probe, got) in probes.iter().zip(&blocked) {
                    assert_eq!(
                        *got,
                        reference.lookup(*probe, etm, flush),
                        "probe {probe} etm={etm} flush={flush} block={block}"
                    );
                }
            }
        }
    }

    #[test]
    fn swar_lcp_formula_matches_scalar() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for bit_len in [2usize, 30, 42, 62, 64] {
            let mask = if bit_len == 64 {
                u64::MAX
            } else {
                (1 << bit_len) - 1
            };
            let mut prev = 0u64;
            for _ in 0..500 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let a = x & mask;
                assert_eq!(
                    lcp_bits_u64(a, prev, bit_len),
                    lcp_bits_u64_swar(a, prev, bit_len),
                    "a={a:#x} b={prev:#x} bit_len={bit_len}"
                );
                // Equal packings: the branch the SWAR formula removes.
                assert_eq!(lcp_bits_u64_swar(a, a, bit_len), bit_len);
                prev = a;
            }
        }
    }

    #[test]
    fn blocked_lookup_on_empty_view_counts_zero_lcp() {
        let ds = synth::make_dataset_with(4, 2048, 31, 17);
        let config = SieveConfig::type3(4).with_geometry(Geometry::scaled_medium());
        let layout = DeviceLayout::build(ds.entries, &config).unwrap();
        let sa = layout.subarray(layout.occupied_subarrays() - 1);
        // Build a view with no entries by slicing past the end is not
        // possible through the public API; instead rely on the documented
        // empty-subarray branch via an empty keys slice plus a real one.
        let table = RowTable::new(62, true, 1);
        let mut cursor = MergeCursor::new(sa);
        let mut out = Vec::new();
        cursor.lookup_block(&[], &table, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn range_hit_reports_full_length() {
        let layout = test_layout();
        let sa = layout.subarray(0);
        let present = sa.entries()[10].0;
        assert_eq!(max_lcp_in_range(&sa, 0..20, present), Some(62));
        // And a range excluding it reports < 62.
        let lcp = max_lcp_in_range(&sa, 20..sa.len(), present).unwrap();
        assert!(lcp < 62);
    }
}
