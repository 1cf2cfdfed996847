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
//! [`lookup`] is the per-query reference. The device's match pass uses
//! [`KeyTable`] instead: a staged search over a block of queries finds
//! each query's insertion rank among *all* the reference keys, and that
//! one rank both routes the query to its subarray and names its
//! neighbours there ([`KeyTable::resolve`]); a hit reads its payload
//! from the table's own 4-byte column.

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
/// structure behind both the match pass's [`KeyTable`] and the
/// reference router [`crate::SubarrayIndex::locate`].
///
/// A search reads its bucket's start offset, then counts the keys below
/// the query in a fixed [`WINDOW`] from there. The count is branch-free;
/// only a crowded bucket reads its end offset and searches on. The two
/// reads are two steps, so a block search ([`Self::lower_bounds`]) runs
/// each as one sweep over the block and the block's cache misses
/// overlap.
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

    /// The index of the first key `≥ target`: [`Self::lower_bounds`] on
    /// one key.
    pub(crate) fn lower_bound(&self, target: u64) -> usize {
        self.rank_from(target, self.bucket_start(target))
    }

    /// [`Self::lower_bound`] of every target, staged: one sweep reads
    /// every target's bucket start, a second counts every target's window
    /// from it. Each sweep's loads are independent of one another, so the
    /// cache misses of a whole block are in flight together instead of
    /// one search's two dependent misses at a time.
    #[inline]
    pub(crate) fn lower_bounds(&self, targets: &[u64], out: &mut [usize]) {
        debug_assert_eq!(targets.len(), out.len());
        for (rank, &target) in out.iter_mut().zip(targets) {
            *rank = self.bucket_start(target);
        }
        for (rank, &target) in out.iter_mut().zip(targets) {
            *rank = self.rank_from(target, *rank);
        }
    }

    /// The first step of a search: the index of the first key in
    /// `target`'s bucket (or of the next key above it).
    #[inline(always)]
    fn bucket_start(&self, target: u64) -> usize {
        self.starts[(target >> self.shift) as usize] as usize
    }

    /// The second step: the first key `≥ target`, given its bucket's
    /// start `s`. Keys past the bucket's end sort above the target, so
    /// the window's count is the answer unless the whole window sits
    /// below the target in a bucket that goes on.
    #[inline(always)]
    fn rank_from(&self, target: u64, s: usize) -> usize {
        let ins = s + self.keys[s..s + WINDOW]
            .iter()
            .map(|&k| usize::from(k < target))
            .sum::<usize>();
        if ins == s + WINDOW {
            let end = self.starts[(target >> self.shift) as usize + 1] as usize;
            if ins < end {
                return ins + self.keys[ins..end].partition_point(|&k| k < target);
            }
        }
        ins
    }
}

/// The occupied subarray a query routes to, from its global insertion
/// rank `g` among the layout's sorted keys (`refs` per subarray, every
/// subarray but the last full): on a hit the subarray holding key `g`,
/// `g / refs`; on a miss the one holding the key just below the query,
/// `(g − 1) / refs`, and subarray 0 below the first key. That is
/// [`crate::SubarrayIndex::locate`]'s pick, the largest subarray whose
/// first key is at most the query.
#[inline]
fn route(g: usize, hit: bool, refs: usize) -> usize {
    if hit || g == 0 {
        g / refs
    } else {
        (g - 1) / refs
    }
}

/// One query routed and resolved by [`KeyTable::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routed {
    /// The occupied subarray the query routes to, as
    /// [`crate::SubarrayIndex::locate`] picks it.
    pub subarray: usize,
    /// The query's insertion rank among that subarray's keys (its rank
    /// on a hit).
    pub rank: usize,
    /// The outcome against that subarray, equal to [`lookup`] on it.
    pub outcome: MatchOutcome,
}

/// The match pass's search table over a layout's globally sorted
/// reference keys, built once when a device loads: a packed `u64` copy
/// of every key, bucketed by its top bits, and a column of the keys'
/// payloads. Host memory: 8 B per reference k-mer for the keys, 4 B for
/// its payload and 4–8 B for the bucket offsets.
///
/// A query's search finds its insertion rank among all the keys
/// ([`Self::ranks`], a block at a time); that one rank routes it to its
/// subarray and resolves it against the neighbours inside that subarray
/// ([`Self::resolve`]), so every outcome equals [`lookup`] on the
/// subarray [`crate::SubarrayIndex::locate`] picks (twin-tested),
/// whatever order the queries arrive in. The keys and payloads are
/// copies because searching the 24-byte layout entries instead touches
/// three times the cache lines, and a hit that read its payload from
/// its layout entry would touch a line of 24-byte entries for 4 bytes.
#[derive(Debug, Clone)]
pub struct KeyTable {
    keys: Bucketed,
    /// Reference `g`'s payload at index `g`.
    taxa: Vec<TaxonId>,
    /// The layout's references per subarray.
    refs: usize,
}

impl KeyTable {
    /// Builds the table over `layout`'s entries, keys and payloads in
    /// one pass.
    ///
    /// # Panics
    ///
    /// Panics if the layout holds more than `u32::MAX` references.
    #[must_use]
    pub fn new(layout: &DeviceLayout) -> Self {
        let mut taxa = Vec::with_capacity(layout.len());
        let keys = layout.entries().iter().map(|&(k, taxon)| {
            taxa.push(taxon);
            k.bits()
        });
        let keys = Bucketed::new(keys, 2 * layout.k());
        Self {
            keys,
            taxa,
            refs: layout.refs_per_subarray() as usize,
        }
    }

    /// The staged block search: writes each key's global insertion rank
    /// (the index of the first reference key `≥` it) to `ranks`. The
    /// keys are raw `2k`-bit packings in any order.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `ranks` is not as long as `keys`.
    #[inline]
    pub fn ranks(&self, keys: &[u64], ranks: &mut [usize]) {
        self.keys.lower_bounds(keys, ranks);
    }

    /// Routes `key` by its global insertion rank `g` (from
    /// [`Self::ranks`]) and resolves it against its subarray with the row
    /// costs of `rows`, whose `bit_len` must be `2k`: a hit when
    /// reference `g` is the key, with the payload from the table's own
    /// column, else the max LCP against the subarray's keys on either
    /// side of `g`. No second search.
    ///
    /// # Panics
    ///
    /// May panic if `g` is not `key`'s rank from [`Self::ranks`].
    #[inline]
    #[must_use]
    pub fn resolve(&self, key: u64, g: usize, rows: &RowTable) -> Routed {
        let n = self.keys.len();
        let bit_len = rows.bit_len();
        let hit = g < n && self.keys.key(g) == key;
        let subarray = route(g, hit, self.refs);
        let base = subarray * self.refs;
        let rank = g - base;
        let outcome = if hit {
            MatchOutcome {
                hit: Some((rank, self.taxa[g])),
                max_lcp: bit_len,
                rows: rows.rows(bit_len),
            }
        } else {
            let end = (base + self.refs).min(n);
            let lcp = |i: usize| lcp_bits_u64_swar(self.keys.key(i), key, bit_len);
            let left = if g > base { lcp(g - 1) } else { 0 };
            let right = if g < end { lcp(g) } else { 0 };
            let max_lcp = left.max(right);
            MatchOutcome {
                hit: None,
                max_lcp,
                rows: rows.rows(max_lcp),
            }
        };
        Routed {
            subarray,
            rank,
            outcome,
        }
    }

    /// Occupied subarray `subarray`'s packed keys in rank order (`layout`
    /// is the layout the table was built from).
    pub(crate) fn subarray_keys(&self, layout: &DeviceLayout, subarray: usize) -> &[u64] {
        let base = subarray * self.refs;
        &self.keys.keys[base..base + layout.subarray(subarray).len()]
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
pub(crate) fn lcp_bits_u64_swar(a: u64, b: u64, bit_len: usize) -> usize {
    ((a ^ b).leading_zeros() as usize + bit_len) - 64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SieveConfig;
    use crate::index::SubarrayIndex;
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

    /// Holds the staged search to its references under each ETM setting:
    /// [`KeyTable::ranks`] over blocks of 1, 7 and 512 probes, so block
    /// edges fall everywhere, then [`KeyTable::resolve`]. The global rank
    /// must equal a binary search of all the keys, the routed subarray
    /// [`SubarrayIndex::locate`], the local rank a binary search of that
    /// subarray, and the outcome [`lookup`] on it. Every probe arrives
    /// twice, once in order and once in reverse.
    fn assert_staged_search_twins_references(layout: &DeviceLayout, probes: &[Kmer]) {
        let table = KeyTable::new(layout);
        let index = SubarrayIndex::build(layout);
        let probes: Vec<Kmer> = probes.iter().chain(probes.iter().rev()).copied().collect();
        let keys: Vec<u64> = probes.iter().map(Kmer::bits).collect();
        let mut ranks = vec![0; keys.len()];
        for block in [1, 7, 512] {
            ranks.fill(usize::MAX);
            for (keys, ranks) in keys.chunks(block).zip(ranks.chunks_mut(block)) {
                table.ranks(keys, ranks);
            }
            for (etm, flush) in [(true, 1), (true, 0), (false, 1)] {
                let rows = RowTable::new(2 * layout.k(), etm, flush);
                for ((probe, &key), &g) in probes.iter().zip(&keys).zip(&ranks) {
                    let at = format!("probe {probe} block {block} etm={etm} flush={flush}");
                    let below = |entries: &[(Kmer, TaxonId)]| {
                        entries.partition_point(|(k, _)| k.bits() < key)
                    };
                    assert_eq!(g, below(layout.entries()), "{at}: global rank");
                    let got = table.resolve(key, g, &rows);
                    let sub = index.locate(*probe);
                    assert_eq!(got.subarray, sub, "{at}: routed");
                    let sa = layout.subarray(sub);
                    assert_eq!(got.rank, below(sa.entries()), "{at}: local rank");
                    assert_eq!(got.outcome, lookup(&sa, *probe, etm, flush), "{at}");
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
        assert_staged_search_twins_references(&layout, &probes);
    }

    #[test]
    fn key_table_twins_lookup_on_partly_and_wholly_filled_last_subarrays() {
        // Three subarrays: the last holds a third of its capacity, then
        // exactly all of it, so a probe above every key routes to a
        // partial last subarray and to a full one.
        let ds = synth::make_dataset_with(8, 4096, 31, 23);
        let config = SieveConfig::type3(4).with_geometry(Geometry::scaled_medium());
        let refs = config.refs_per_subarray() as usize;
        let all = DeviceLayout::build(ds.entries, &config).unwrap();
        assert!(
            all.len() >= 3 * refs,
            "too few references for three subarrays"
        );
        for len in [2 * refs + refs / 3, 3 * refs] {
            let layout = DeviceLayout::build(all.entries()[..len].to_vec(), &config).unwrap();
            assert_eq!(layout.occupied_subarrays(), 3);
            let (probes, _) = twin_probes(&layout);
            assert_staged_search_twins_references(&layout, &probes);
        }
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
        assert_staged_search_twins_references(&layout, &probes);
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
