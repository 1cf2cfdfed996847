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
//!
//! [`lookup`] is the per-query reference. Both functions here
//! binary-search a view's key column. The device's match pass uses the
//! layout's staged search instead: over a block of queries it finds each
//! query's insertion rank among *all* the reference keys
//! ([`crate::DeviceLayout::ranks`]), and that one rank both routes the
//! query to its subarray and names its neighbours there
//! ([`crate::DeviceLayout::resolve`]); a hit reads its payload from the
//! layout's payload column.

use sieve_genomics::{Kmer, TaxonId};

use crate::etm::{rows_activated, RowActivity};
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
    assert_eq!(query.k(), subarray.k(), "query k differs from the stored k");
    let keys = subarray.keys();
    let (key, bit_len) = (query.bits(), query.bit_len());
    if keys.is_empty() {
        let RowActivity { rows, .. } = rows_activated(0, bit_len, etm, flush);
        return MatchOutcome {
            hit: None,
            max_lcp: 0,
            rows,
        };
    }
    match keys.binary_search(&key) {
        Ok(rank) => {
            let RowActivity { rows, .. } = rows_activated(bit_len, bit_len, etm, flush);
            MatchOutcome {
                hit: Some((rank, subarray.taxa()[rank])),
                max_lcp: bit_len,
                rows,
            }
        }
        Err(ins) => {
            let max_lcp = max_lcp_at_insertion(keys, ins, key, bit_len);
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
/// subarray's sorted keys (an ETM segment or a Type-1 batch).
/// Returns `None` for an empty range (no live latches to begin with).
///
/// A full-length LCP means the query *is* in the range (a hit for that
/// range).
///
/// # Panics
///
/// Panics if `query.k()` differs from the stored k-mers' k.
#[must_use]
pub fn max_lcp_in_range(
    subarray: &SubarrayView<'_>,
    range: std::ops::Range<usize>,
    query: Kmer,
) -> Option<usize> {
    assert_eq!(query.k(), subarray.k(), "query k differs from the stored k");
    if range.is_empty() {
        return None;
    }
    let keys = &subarray.keys()[range];
    let (key, bit_len) = (query.bits(), query.bit_len());
    match keys.binary_search(&key) {
        Ok(_) => Some(bit_len),
        Err(ins) => Some(max_lcp_at_insertion(keys, ins, key, bit_len)),
    }
}

/// One query routed and resolved by [`crate::DeviceLayout::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routed {
    /// The occupied subarray the query routes to: the largest whose
    /// first key is at most the query, and 0 below all of them.
    pub subarray: usize,
    /// The query's insertion rank among that subarray's keys (its rank
    /// on a hit).
    pub rank: usize,
    /// The outcome against that subarray, equal to [`lookup`] on it.
    pub outcome: MatchOutcome,
}

/// Max LCP of `key`, a `bit_len`-bit packing, given its insertion point
/// in a sorted key slice: the nearest neighbour(s) achieve it. For sorted
/// values `a < q < b`, any element left of `a` shares no longer a prefix
/// with `q` than `a` does (and likewise to the right), because a longer
/// shared prefix would sort it between `a` and `q`.
fn max_lcp_at_insertion(keys: &[u64], ins: usize, key: u64, bit_len: usize) -> usize {
    let lcp = |i: usize| lcp_bits_u64_swar(keys[i], key, bit_len);
    let left = if ins > 0 { lcp(ins - 1) } else { 0 };
    let right = if ins < keys.len() { lcp(ins) } else { 0 };
    left.max(right)
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
pub(crate) fn lcp_bits_u64_swar(a: u64, b: u64, bit_len: usize) -> usize {
    ((a ^ b).leading_zeros() as usize + bit_len) - 64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SieveConfig;
    use crate::layout::DeviceLayout;
    use sieve_dram::Geometry;
    use sieve_genomics::synth;

    fn config() -> SieveConfig {
        SieveConfig::type3(4).with_geometry(Geometry::scaled_medium())
    }

    fn test_layout() -> DeviceLayout {
        let ds = synth::make_dataset_with(4, 2048, 31, 17);
        DeviceLayout::build(ds.entries, &config()).unwrap()
    }

    /// Reference `rank` of `sa` as a k-mer.
    fn stored(sa: &SubarrayView<'_>, rank: usize) -> Kmer {
        Kmer::from_u64(sa.keys()[rank], sa.k()).unwrap()
    }

    /// Brute-force max LCP of `probe` against `keys` through
    /// [`Kmer::lcp_bits`].
    fn brute_lcp(keys: &[u64], probe: Kmer) -> Option<usize> {
        keys.iter()
            .map(|&key| Kmer::from_u64(key, probe.k()).unwrap().lcp_bits(&probe))
            .max()
    }

    #[test]
    fn stored_kmers_hit_with_correct_payload() {
        let layout = test_layout();
        let sa = layout.subarray(0);
        for (rank, taxon) in sa.taxa().iter().enumerate().step_by(97) {
            let o = lookup(&sa, stored(&sa, rank), true, 1);
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
            let brute = brute_lcp(sa.keys(), probe).unwrap();
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
        let layout = DeviceLayout::build(Vec::new(), &config()).unwrap();
        assert_eq!(layout.occupied_subarrays(), 0);
        let _ = layout; // empty layouts expose no subarray views
    }

    #[test]
    fn range_lcp_matches_brute_force() {
        let layout = test_layout();
        let sa = layout.subarray(0);
        let probes: Vec<Kmer> = (0..sa.len())
            .step_by(131)
            .map(|rank| stored(&sa, rank).shifted(sieve_genomics::Base::G))
            .collect();
        for probe in probes {
            for (start, end) in [(0usize, 64), (64, 128), (100, 1000), (0, sa.len())] {
                let end = end.min(sa.len());
                if start >= end {
                    continue;
                }
                let brute = brute_lcp(&sa.keys()[start..end], probe);
                let fast = max_lcp_in_range(&sa, start..end, probe);
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

    /// A 31-mer layout whose keys fit in 42 bits, so a 21-mer can carry
    /// a stored key.
    fn small_key_layout() -> DeviceLayout {
        let entries = (0..100u64)
            .map(|i| (Kmer::from_u64(7 * i + 1, 31).unwrap(), TaxonId(3)))
            .collect();
        DeviceLayout::build(entries, &config()).unwrap()
    }

    /// `layout`'s first subarray and a 21-mer carrying its first key: a
    /// foreign-k query that would hit.
    fn small_key_view(layout: &DeviceLayout) -> (SubarrayView<'_>, Kmer) {
        let sa = layout.subarray(0);
        let q21 = Kmer::from_u64(sa.keys()[0], 21).unwrap();
        (sa, q21)
    }

    #[test]
    #[should_panic(expected = "query k differs from the stored k")]
    fn lookup_rejects_a_foreign_k_that_would_hit() {
        let layout = small_key_layout();
        let (sa, q21) = small_key_view(&layout);
        let _ = lookup(&sa, q21, true, 1);
    }

    #[test]
    #[should_panic(expected = "query k differs from the stored k")]
    fn max_lcp_in_range_rejects_a_foreign_k_that_would_hit() {
        let layout = small_key_layout();
        let (sa, q21) = small_key_view(&layout);
        let _ = max_lcp_in_range(&sa, 0..sa.len(), q21);
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
    fn range_hit_reports_full_length() {
        let layout = test_layout();
        let sa = layout.subarray(0);
        let present = stored(&sa, 10);
        assert_eq!(max_lcp_in_range(&sa, 0..20, present), Some(62));
        // And a range excluding it reports < 62.
        let lcp = max_lcp_in_range(&sa, 20..sa.len(), present).unwrap();
        assert!(lcp < 62);
    }
}
