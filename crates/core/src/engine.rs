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
use crate::layout::{DeviceLayout, SubarrayView};

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

/// Keys a [`Bucketed::lower_bound`] compares from the start of its
/// bucket before falling back to a binary search of the rest of it.
const WINDOW: usize = 4;

/// A sorted `u64` key array with a direct-mapped index over the keys' top
/// `b` bits, `2^b ≥ n`, so a bucket holds about one key: the search
/// structure behind both the match stage's [`KeyTable`] and the
/// planner's routing ([`crate::SubarrayIndex::locate`]).
///
/// A search reads its bucket's two `u32` offsets and counts the keys
/// below the query in a fixed [`WINDOW`] from the bucket's start. The
/// count is branch-free, so consecutive searches overlap in the
/// pipeline; only a crowded bucket searches on.
#[derive(Debug, Clone)]
pub(crate) struct Bucketed {
    /// The keys in ascending order, then [`WINDOW`] `u64::MAX` sentinels
    /// so no bucket's window runs off the end (a sentinel never counts
    /// as below a query).
    keys: Vec<u64>,
    /// `starts[b]..starts[b + 1]` holds the keys whose top bits are `b`.
    starts: Vec<u32>,
    /// Right shift from a key to its bucket.
    shift: u32,
}

impl Bucketed {
    /// Indexes `keys`, which must ascend and be `bit_len`-bit packings:
    /// one counting pass over the bucket of every key, then an in-place
    /// prefix sum.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` keys.
    pub(crate) fn new(keys: impl ExactSizeIterator<Item = u64>, bit_len: usize) -> Self {
        let n = keys.len();
        assert!(u32::try_from(n).is_ok(), "bucket offsets are u32");
        let mut sorted = Vec::with_capacity(n + WINDOW);
        sorted.extend(keys);
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "keys must ascend");
        let bit_len = bit_len as u32;
        let bucket_bits = n.next_power_of_two().trailing_zeros().clamp(1, bit_len);
        let shift = bit_len - bucket_bits;
        let mut starts = vec![0u32; (1 << bucket_bits) + 1];
        for &key in &sorted {
            starts[(key >> shift) as usize + 1] += 1;
        }
        let mut total = 0;
        for start in &mut starts {
            total += *start;
            *start = total;
        }
        sorted.extend([u64::MAX; WINDOW]);
        Self {
            keys: sorted,
            starts,
            shift,
        }
    }

    /// Number of keys (sentinels excluded).
    pub(crate) fn len(&self) -> usize {
        self.keys.len() - WINDOW
    }

    /// Key `i`.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> u64 {
        self.keys[i]
    }

    /// The index of the first key `≥ target`.
    #[inline]
    pub(crate) fn lower_bound(&self, target: u64) -> usize {
        let bucket = (target >> self.shift) as usize;
        let (s, e) = (
            self.starts[bucket] as usize,
            self.starts[bucket + 1] as usize,
        );
        // Keys past the bucket's end sort above the target, so the
        // window's count is the answer unless the whole window sits
        // below the target in a bucket that goes on.
        let ins = s + self.keys[s..s + WINDOW]
            .iter()
            .map(|&k| usize::from(k < target))
            .sum::<usize>();
        if ins == s + WINDOW && ins < e {
            ins + self.keys[ins..e].partition_point(|&k| k < target)
        } else {
            ins
        }
    }
}

/// The match stage's search table over a layout's globally sorted
/// reference keys, built once when a device loads: a packed `u64` copy
/// of every key, bucketed by its top bits. Host memory: 8 B per
/// reference k-mer for the keys plus 4–8 B for the bucket offsets.
///
/// A lookup finds the query's insertion point among all the keys, clamps
/// it to the routed subarray's key range, and takes the max LCP against
/// the (clamped) neighbours on either side. Clamping the global
/// insertion point to a contiguous slice of a sorted array gives exactly
/// the slice-local insertion point, so every outcome equals [`lookup`]
/// on the same subarray (twin-tested), whatever order the queries arrive
/// in. The keys are a copy because searching the 24-byte layout entries
/// instead touches three times the cache lines.
#[derive(Debug, Clone)]
pub struct KeyTable {
    keys: Bucketed,
}

impl KeyTable {
    /// Builds the table over `layout`'s entries.
    ///
    /// # Panics
    ///
    /// Panics if the layout holds more than `u32::MAX` references.
    #[must_use]
    pub fn new(layout: &DeviceLayout) -> Self {
        let keys = layout.entries().iter().map(|(k, _)| k.bits());
        Self {
            keys: Bucketed::new(keys, 2 * layout.k()),
        }
    }

    /// Looks up a block of queries given as raw packed bits against
    /// occupied subarray `subarray` of `layout` (the layout the table was
    /// built from), appending one [`MatchOutcome`] per key to `out`. The
    /// keys may arrive in any order and must be `2k`-bit packings
    /// matching `rows.bit_len()`. Each outcome is identical to
    /// [`lookup`]`(&layout.subarray(subarray), ..)` with the ETM setting
    /// the row table was built for.
    ///
    /// # Panics
    ///
    /// Panics if `subarray` is not an occupied subarray of `layout`.
    pub fn lookup_block(
        &self,
        layout: &DeviceLayout,
        subarray: usize,
        keys: &[u64],
        rows: &RowTable,
        out: &mut Vec<MatchOutcome>,
    ) {
        let entries = layout.subarray(subarray).entries();
        let lo = subarray * layout.refs_per_subarray() as usize;
        let hi = lo + entries.len();
        let bit_len = rows.bit_len();
        debug_assert_eq!(2 * layout.k(), bit_len, "row table/k mismatch");
        for &target in keys {
            let ins = self.keys.lower_bound(target).clamp(lo, hi);
            if ins < hi && self.keys.key(ins) == target {
                out.push(MatchOutcome {
                    hit: Some((ins - lo, entries[ins - lo].1)),
                    max_lcp: bit_len,
                    rows: rows.rows(bit_len),
                });
            } else {
                let lcp = |i: usize| lcp_bits_u64_swar(self.keys.key(i), target, bit_len);
                let left = if ins > lo { lcp(ins - 1) } else { 0 };
                let right = if ins < hi { lcp(ins) } else { 0 };
                let max_lcp = left.max(right);
                out.push(MatchOutcome {
                    hit: None,
                    max_lcp,
                    rows: rows.rows(max_lcp),
                });
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SieveConfig;
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

    /// Holds [`KeyTable::lookup_block`] to [`lookup`] for every probe
    /// against every occupied subarray — the one the probe routes to and
    /// all the others, whose key ranges the clamp must respect — under
    /// each ETM setting.
    fn assert_table_twins_lookup(layout: &DeviceLayout, probes: &[Kmer]) {
        let table = KeyTable::new(layout);
        let keys: Vec<u64> = probes.iter().map(Kmer::bits).collect();
        for (etm, flush) in [(true, 1), (true, 0), (false, 1)] {
            let rows = RowTable::new(2 * layout.k(), etm, flush);
            for s in 0..layout.occupied_subarrays() {
                let sa = layout.subarray(s);
                let mut out = Vec::new();
                table.lookup_block(layout, s, &keys, &rows, &mut out);
                assert_eq!(out.len(), probes.len());
                for (probe, got) in probes.iter().zip(&out) {
                    assert_eq!(
                        *got,
                        lookup(&sa, *probe, etm, flush),
                        "probe {probe} subarray {s} etm={etm} flush={flush}"
                    );
                }
            }
        }
    }

    /// Hits, their ±1 near-misses, the k-mers below the first and above
    /// the last reference, every subarray's first and last key, and the
    /// keys just inside each gap between consecutive subarrays.
    fn twin_probes(layout: &DeviceLayout) -> (Vec<Kmer>, usize) {
        let k = layout.k();
        let kmer = |bits: u64| Kmer::from_u64(bits, k).ok();
        let mut probes: Vec<Kmer> = Vec::new();
        for (key, _) in layout.entries().iter().step_by(29) {
            probes.push(*key);
            probes.extend(kmer(key.bits().wrapping_add(1)));
            probes.extend(kmer(key.bits().wrapping_sub(1)));
        }
        probes.extend(kmer(0));
        probes.extend(kmer(u64::MAX >> (64 - 2 * k)));
        let views: Vec<SubarrayView<'_>> = layout.subarrays().collect();
        let mut gaps = 0;
        for (i, sa) in views.iter().enumerate() {
            probes.extend([sa.first(), sa.last()]);
            if let Some(next) = views.get(i + 1) {
                let (last, first) = (sa.last().bits(), next.first().bits());
                if first - last > 1 {
                    gaps += 1;
                    probes.extend(kmer(last + 1));
                    probes.extend(kmer(first - 1));
                }
            }
        }
        (probes, gaps)
    }

    #[test]
    fn key_table_twins_lookup() {
        let ds = synth::make_dataset_with(8, 4096, 31, 7);
        let config = SieveConfig::type3(4).with_geometry(Geometry::scaled_medium());
        let layout = DeviceLayout::build(ds.entries, &config).unwrap();
        assert!(layout.occupied_subarrays() >= 2);
        let (probes, gaps) = twin_probes(&layout);
        assert!(gaps > 0, "no gap between consecutive subarrays to probe");
        assert_table_twins_lookup(&layout, &probes);
    }

    #[test]
    fn key_table_twins_lookup_on_a_crowded_bucket() {
        // Three references in four share their top 20 bits, so one
        // bucket holds most of the table and its search is a real
        // binary search rather than a one-key probe.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let entries: Vec<(Kmer, TaxonId)> = (0..12_000u32)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let bits = if i % 4 == 0 {
                    x >> 2
                } else {
                    (0x2_AAAA << 42) | (x & ((1 << 42) - 1))
                };
                (Kmer::from_u64(bits, 31).unwrap(), TaxonId(i % 7))
            })
            .collect();
        let config = SieveConfig::type3(4).with_geometry(Geometry::scaled_medium());
        let layout = DeviceLayout::build(entries, &config).unwrap();
        assert!(layout.occupied_subarrays() >= 2);
        let table = KeyTable::new(&layout);
        let crowd = table
            .keys
            .starts
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap();
        assert!(
            crowd as usize > layout.len() / 2,
            "the largest bucket holds only {crowd} of {} keys",
            layout.len()
        );
        let (probes, _) = twin_probes(&layout);
        assert_table_twins_lookup(&layout, &probes);
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
        let present = sa.entries()[10].0;
        assert_eq!(max_lcp_in_range(&sa, 0..20, present), Some(62));
        // And a range excluding it reports < 62.
        let lcp = max_lcp_in_range(&sa, 20..sa.len(), present).unwrap();
        assert!(lcp < 62);
    }
}
