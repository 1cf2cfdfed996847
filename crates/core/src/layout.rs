//! Column-major data layout (§IV-A, Figure 7(e)), and the device's one
//! reference store.
//!
//! Reference k-mers are globally **sorted** and partitioned across
//! subarrays in order; within a subarray they are transposed onto bitlines,
//! organized in *pattern groups* of 576 columns: 256 reference columns, a
//! 64-column query block in the middle (Figure 7(e): BL256–BL319), then 256
//! more reference columns. Region 1 (rows 0..2k) holds the interleaved
//! reference/query bits; Region 2 holds 4-byte payload offsets; Region 3
//! holds payloads.
//!
//! Because the sorted order is laid out in increasing column order, every
//! ETM segment (a contiguous range of 256 columns) contains a
//! **contiguous, sorted range of references** — the property that lets the
//! fast engine compute per-segment and per-batch aliveness by binary search.
//!
//! [`DeviceLayout`] holds each reference once, in two columns indexed by
//! its global rank: its key, the `2k`-bit packing of the k-mer, in a
//! sorted `u64` column bucketed by its top bits, and its payload in a
//! [`TaxonId`] column. k is stored once. That is 8 B of key, 4 B of
//! payload and 4–8 B of bucket offsets per reference. A [`SubarrayView`]
//! is one subarray's slice of both columns. Queries use the keys'
//! encoding too: the host hands the match pass bare `2k`-bit words
//! ([`DeviceLayout::ranks`], [`DeviceLayout::resolve`]), and k is checked
//! once, where a [`Kmer`] of any k enters ([`DeviceLayout::check_queries`]).

use sieve_genomics::{Kmer, TaxonId};

use crate::config::{DeviceKind, SieveConfig, QUERIES_PER_GROUP};
use crate::engine::{lcp_bits_u64_swar, MatchOutcome, Routed};
use crate::error::SieveError;
use crate::etm::RowTable;

/// How reference and query columns share a pattern group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupShape {
    /// Total columns per group.
    pub cols: u32,
    /// Query-slot columns per group (0 for Type-1).
    pub query_cols: u32,
}

impl GroupShape {
    /// Reference columns per group.
    #[must_use]
    pub fn ref_cols(&self) -> u32 {
        self.cols - self.query_cols
    }

    /// Column (within the group) of the reference with in-group rank `r`.
    /// The query block sits in the middle (after the first half of the
    /// references), per Figure 7(e).
    #[must_use]
    pub fn col_of_rank(&self, r: u32) -> u32 {
        debug_assert!(r < self.ref_cols());
        let first_block = self.ref_cols() / 2;
        if r < first_block {
            r
        } else {
            r + self.query_cols
        }
    }

    /// In-group reference rank at column `c`, or `None` for a query slot.
    #[must_use]
    pub fn rank_of_col(&self, c: u32) -> Option<u32> {
        debug_assert!(c < self.cols);
        let first_block = self.ref_cols() / 2;
        if c < first_block {
            Some(c)
        } else if c < first_block + self.query_cols {
            None
        } else {
            Some(c - self.query_cols)
        }
    }
}

/// Bytes per entry of the paper's host-side index table (§IV-D): 8
/// (subarray id) + 2 × 8 (the subarray's first and last k-mer).
pub const ENTRY_BYTES: usize = 24;

/// Keys a search compares from the start of its bucket before falling
/// back to a binary search of the rest of it.
const WINDOW: usize = 4;

/// A sorted `u64` key array with a direct-mapped index over the keys' top
/// `b` bits, `2^b ≥ n`, so a bucket holds about one key: the layout's key
/// column.
///
/// A search reads its bucket's start offset, then counts the keys below
/// the query in a fixed [`WINDOW`] from there. The count is branch-free;
/// only a crowded bucket reads its end offset and searches on. The two
/// reads are two steps, so a block search ([`Self::lower_bounds`]) runs
/// each as one sweep over the block and the block's cache misses
/// overlap.
#[derive(Debug, Clone)]
struct Bucketed {
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
    fn new(keys: impl ExactSizeIterator<Item = u64>, bit_len: usize) -> Self {
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
    fn len(&self) -> usize {
        self.keys.len() - WINDOW
    }

    /// The keys in ascending order (sentinels excluded).
    fn keys(&self) -> &[u64] {
        &self.keys[..self.len()]
    }

    /// Key `i`.
    #[inline]
    fn key(&self, i: usize) -> u64 {
        self.keys[i]
    }

    /// The index of the first key `≥` each target, staged: one sweep
    /// reads every target's bucket start, a second counts every target's
    /// window from it. Each sweep's loads are independent of one another,
    /// so the cache misses of a whole block are in flight together
    /// instead of one search's two dependent misses at a time.
    #[inline]
    fn lower_bounds(&self, targets: &[u64], out: &mut [usize]) {
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
/// `(g − 1) / refs`, and subarray 0 below the first key. That is the
/// pick of the paper's host-side index table (§IV-D), the largest
/// subarray whose first key is at most the query.
#[inline]
fn route(g: usize, hit: bool, refs: usize) -> usize {
    if hit || g == 0 {
        g / refs
    } else {
        (g - 1) / refs
    }
}

/// How `config` lays references out, for both [`DeviceLayout::build`] and
/// [`DeviceLayout::check_config`]: k, references per subarray and the
/// group shape (Type-1's whole row is one group of reference columns).
fn shape(config: &SieveConfig) -> (usize, u32, GroupShape) {
    let (cols, query_cols) = match config.device {
        DeviceKind::Type1 => (config.geometry.cols_per_row, 0),
        _ => (config.pattern_group_cols, QUERIES_PER_GROUP),
    };
    let group = GroupShape { cols, query_cols };
    (config.k, config.refs_per_subarray(), group)
}

/// Checks that `n` references fit the device `config` describes.
fn check_capacity(n: usize, config: &SieveConfig) -> Result<(), SieveError> {
    if n > config.capacity_kmers() {
        return Err(SieveError::CapacityExceeded {
            needed_kmers: n,
            capacity_kmers: config.capacity_kmers(),
        });
    }
    Ok(())
}

/// The data layout of a whole device, and its reference store: the
/// sorted keys and their payloads, partitioned over subarrays.
///
/// # Example
///
/// ```
/// use sieve_core::{DeviceLayout, SieveConfig};
/// use sieve_dram::Geometry;
/// use sieve_genomics::synth;
///
/// let dataset = synth::make_dataset_with(4, 2048, 31, 1);
/// let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
/// let layout = DeviceLayout::build(dataset.entries.clone(), &config)?;
/// assert!(layout.occupied_subarrays() >= 1);
/// # Ok::<(), sieve_core::SieveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeviceLayout {
    /// Every reference's key, in ascending order.
    keys: Bucketed,
    /// Reference `g`'s payload at index `g`.
    taxa: Vec<TaxonId>,
    refs_per_subarray: u32,
    group: GroupShape,
    k: usize,
}

impl DeviceLayout {
    /// Partitions `entries` (sorted or not; sorted and deduplicated
    /// internally, keeping the first of equal keys) across the device
    /// described by `config`. The sorted entries fill the key and payload
    /// columns in one pass and are then dropped.
    ///
    /// # Errors
    ///
    /// * [`SieveError::InvalidConfig`] if `config` is inconsistent;
    /// * [`SieveError::KMismatch`] if any entry's k differs from `config.k`;
    /// * [`SieveError::CapacityExceeded`] if the set does not fit.
    ///
    /// # Panics
    ///
    /// Panics if the set holds more than `u32::MAX` references.
    pub fn build(
        mut entries: Vec<(Kmer, TaxonId)>,
        config: &SieveConfig,
    ) -> Result<Self, SieveError> {
        config.validate()?;
        for (kmer, _) in &entries {
            if kmer.k() != config.k {
                return Err(SieveError::KMismatch {
                    expected: config.k,
                    actual: kmer.k(),
                });
            }
        }
        entries.sort_by_key(|(k, _)| k.bits());
        entries.dedup_by_key(|(k, _)| k.bits());
        check_capacity(entries.len(), config)?;
        let mut taxa = Vec::with_capacity(entries.len());
        let keys = entries.iter().map(|&(kmer, taxon)| {
            taxa.push(taxon);
            kmer.bits()
        });
        let keys = Bucketed::new(keys, 2 * config.k);
        let (k, refs_per_subarray, group) = shape(config);
        Ok(Self {
            keys,
            taxa,
            refs_per_subarray,
            group,
            k,
        })
    }

    /// Checks that `config` is valid, lays these references out as they
    /// lie and holds them all, so a run may read it in place of the config
    /// the layout was built under ([`crate::SieveDevice::run_as`]).
    pub(crate) fn check_config(&self, config: &SieveConfig) -> Result<(), SieveError> {
        config.validate()?;
        let (loaded, wanted) = ((self.k, self.refs_per_subarray, self.group), shape(config));
        if wanted != loaded {
            return Err(SieveError::InvalidConfig {
                field: "layout",
                reason: format!("(k, refs, group) {wanted:?}; loaded as {loaded:?}"),
            });
        }
        check_capacity(self.len(), config)
    }

    /// Checks every query's k against the stored k, once per batch, where
    /// a [`Kmer`] of any k enters. The scan has no early exit, so it
    /// vectorizes; only a failing batch looks for the first offender.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::KMismatch`] naming the first query of
    /// another k.
    pub fn check_queries(&self, queries: &[Kmer]) -> Result<(), SieveError> {
        let k = self.k;
        if queries.iter().fold(false, |bad, q| bad | (q.k() != k)) {
            let actual = queries.iter().map(Kmer::k).find(|&actual| actual != k);
            return Err(SieveError::KMismatch {
                expected: k,
                actual: actual.expect("the scan found a query of another k"),
            });
        }
        Ok(())
    }

    /// The k of every stored k-mer.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total reference k-mers stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.taxa.len()
    }

    /// Whether the layout holds no references.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.taxa.is_empty()
    }

    /// Reference capacity of one subarray.
    #[must_use]
    pub fn refs_per_subarray(&self) -> u32 {
        self.refs_per_subarray
    }

    /// Number of subarrays that hold at least one reference.
    #[must_use]
    pub fn occupied_subarrays(&self) -> usize {
        self.len().div_ceil(self.refs_per_subarray as usize)
    }

    /// Host memory the paper's index table takes for this layout, bytes:
    /// [`ENTRY_BYTES`] per occupied subarray. The table scales with
    /// capacity, not with k (§IV-D). The simulated match pass routes by
    /// each query's global rank instead ([`Self::resolve`]), so no such
    /// table is built.
    #[must_use]
    pub fn index_table_bytes(&self) -> usize {
        self.occupied_subarrays() * ENTRY_BYTES
    }

    /// The layout view of occupied subarray `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= occupied_subarrays()`.
    #[must_use]
    pub fn subarray(&self, index: usize) -> SubarrayView<'_> {
        assert!(
            index < self.occupied_subarrays(),
            "subarray {index} beyond the {} occupied",
            self.occupied_subarrays()
        );
        let start = index * self.refs_per_subarray as usize;
        let end = (start + self.refs_per_subarray as usize).min(self.len());
        SubarrayView {
            keys: &self.keys.keys()[start..end],
            taxa: &self.taxa[start..end],
            k: self.k,
            group: self.group,
        }
    }

    /// Iterator over all occupied subarray views.
    pub fn subarrays(&self) -> impl Iterator<Item = SubarrayView<'_>> {
        (0..self.occupied_subarrays()).map(|i| self.subarray(i))
    }

    /// The match pass's staged block search: writes each key's global
    /// insertion rank (the index of the first reference key `≥` it) to
    /// `ranks`. The keys are raw `2k`-bit packings in any order.
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
    /// reference `g` is the key, with the payload from the payload
    /// column, else the max LCP against the subarray's keys on either
    /// side of `g`. No second search. Every outcome equals
    /// [`crate::engine::lookup`] on the largest subarray whose first key
    /// is at most `key` (twin-tested), whatever order the queries arrive
    /// in.
    ///
    /// # Panics
    ///
    /// May panic if `g` is not `key`'s rank from [`Self::ranks`].
    #[inline]
    #[must_use]
    pub fn resolve(&self, key: u64, g: usize, rows: &RowTable) -> Routed {
        let n = self.keys.len();
        let refs = self.refs_per_subarray as usize;
        let bit_len = rows.bit_len();
        let hit = g < n && self.keys.key(g) == key;
        let subarray = route(g, hit, refs);
        let base = subarray * refs;
        let rank = g - base;
        let outcome = if hit {
            MatchOutcome {
                hit: Some((rank, self.taxa[g])),
                max_lcp: bit_len,
                rows: rows.rows(bit_len),
            }
        } else {
            let end = (base + refs).min(n);
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
}

/// One subarray's slices of the layout's key and payload columns, plus k
/// and the column math.
#[derive(Debug, Clone, Copy)]
pub struct SubarrayView<'a> {
    keys: &'a [u64],
    taxa: &'a [TaxonId],
    k: usize,
    group: GroupShape,
}

impl<'a> SubarrayView<'a> {
    /// This subarray's keys in ascending order: the `2k`-bit packing of
    /// the reference with (subarray-local) rank `r` at index `r`.
    #[must_use]
    pub fn keys(&self) -> &'a [u64] {
        self.keys
    }

    /// This subarray's payloads, by rank.
    #[must_use]
    pub fn taxa(&self) -> &'a [TaxonId] {
        self.taxa
    }

    /// The k of every stored key.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// References stored here.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the subarray holds no references.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The group shape in effect.
    #[must_use]
    pub fn group(&self) -> GroupShape {
        self.group
    }

    /// Physical column of the reference with (subarray-local, sorted)
    /// rank `rank`. Monotone increasing in `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= len()`.
    #[must_use]
    pub fn col_of_rank(&self, rank: usize) -> u32 {
        assert!(rank < self.len(), "rank {rank} out of range");
        let per_group = self.group.ref_cols() as usize;
        let g = (rank / per_group) as u32;
        let within = (rank % per_group) as u32;
        g * self.group.cols + self.group.col_of_rank(within)
    }

    /// The rank stored at physical column `col`, or `None` for query slots,
    /// unused columns, and columns past the stored set.
    #[must_use]
    pub fn rank_of_col(&self, col: u32) -> Option<usize> {
        let g = col / self.group.cols;
        let within_col = col % self.group.cols;
        let within = self.group.rank_of_col(within_col)?;
        let rank = g as usize * self.group.ref_cols() as usize + within as usize;
        (rank < self.len()).then_some(rank)
    }

    /// The contiguous rank range whose columns fall in `[col_start,
    /// col_end)` — e.g. one ETM segment or one Type-1 batch. Exploits the
    /// monotonicity of [`Self::col_of_rank`].
    #[must_use]
    pub fn ranks_in_cols(&self, col_start: u32, col_end: u32) -> std::ops::Range<usize> {
        let lo = self.partition_rank(col_start);
        let hi = self.partition_rank(col_end);
        lo..hi
    }

    /// Smallest rank whose column is ≥ `col` (== len() if none).
    fn partition_rank(&self, col: u32) -> usize {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.col_of_rank(mid) < col {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use sieve_dram::Geometry;
    use sieve_genomics::synth;

    fn small_config() -> SieveConfig {
        SieveConfig::type3(4).with_geometry(Geometry::scaled_medium())
    }

    fn layout_with(n_entries_hint: usize) -> DeviceLayout {
        let ds = synth::make_dataset_with(8, n_entries_hint / 7, 31, 99);
        DeviceLayout::build(ds.entries, &small_config()).unwrap()
    }

    /// The layout's references as `(Kmer, TaxonId)` entries, in rank
    /// order.
    fn stored(layout: &DeviceLayout) -> Vec<(Kmer, TaxonId)> {
        let kmer = |key: u64| Kmer::from_u64(key, layout.k()).unwrap();
        layout
            .keys
            .keys()
            .iter()
            .zip(&layout.taxa)
            .map(|(&key, &taxon)| (kmer(key), taxon))
            .collect()
    }

    #[test]
    fn group_shape_matches_figure_7e() {
        let g = GroupShape {
            cols: 576,
            query_cols: 64,
        };
        assert_eq!(g.ref_cols(), 512);
        // BL0..BL255 are refs 0..255.
        assert_eq!(g.col_of_rank(0), 0);
        assert_eq!(g.col_of_rank(255), 255);
        // BL256..BL319 are query slots.
        assert_eq!(g.rank_of_col(256), None);
        assert_eq!(g.rank_of_col(319), None);
        // BL320..BL575 are refs 256..511.
        assert_eq!(g.col_of_rank(256), 320);
        assert_eq!(g.col_of_rank(511), 575);
        assert_eq!(g.rank_of_col(575), Some(511));
    }

    #[test]
    fn group_col_rank_round_trip() {
        let g = GroupShape {
            cols: 576,
            query_cols: 64,
        };
        for r in 0..g.ref_cols() {
            assert_eq!(g.rank_of_col(g.col_of_rank(r)), Some(r));
        }
    }

    #[test]
    fn build_sorts_and_dedups() {
        let ds = synth::make_dataset_with(4, 512, 31, 5);
        let mut entries = ds.entries.clone();
        entries.extend_from_slice(&ds.entries[..10]); // duplicates
        entries.reverse(); // unsorted
        let layout = DeviceLayout::build(entries, &small_config()).unwrap();
        assert_eq!(layout.len(), ds.entries.len());
        let mut want = ds.entries.clone();
        want.sort_unstable();
        assert_eq!(stored(&layout), want, "payloads follow their keys");
    }

    #[test]
    fn dedup_keeps_the_first_of_equal_keys() {
        let kmer = Kmer::from_u64(42, 31).unwrap();
        let other = Kmer::from_u64(7, 31).unwrap();
        let entries = vec![(kmer, TaxonId(3)), (other, TaxonId(1)), (kmer, TaxonId(5))];
        let layout = DeviceLayout::build(entries, &small_config()).unwrap();
        assert_eq!(
            stored(&layout),
            vec![(other, TaxonId(1)), (kmer, TaxonId(3))]
        );
    }

    #[test]
    fn k_mismatch_rejected() {
        let ds = synth::make_dataset_with(4, 512, 21, 5);
        let err = DeviceLayout::build(ds.entries, &small_config()).unwrap_err();
        assert!(matches!(
            err,
            SieveError::KMismatch {
                expected: 31,
                actual: 21
            }
        ));
    }

    #[test]
    fn capacity_enforced() {
        let config = SieveConfig::type3(4).with_geometry(Geometry::scaled_small());
        // scaled_small: 1024-col rows → 1 group → 512 refs/subarray ×
        // 16 subarrays = 8,192 capacity.
        assert_eq!(config.capacity_kmers(), 8_192);
        let ds = synth::make_dataset_with(8, 4096, 31, 5);
        assert!(ds.entries.len() > 8_192);
        let err = DeviceLayout::build(ds.entries, &config).unwrap_err();
        assert!(matches!(err, SieveError::CapacityExceeded { .. }));
    }

    /// The store's heap, summed column by column: the key column with
    /// its sentinels, the bucket offsets and the payload column. With
    /// `2^b` buckets for `n ≤ 2^b` keys, the offsets cost ~8 B per
    /// reference just above a power of two and ~4 B just below one.
    #[test]
    fn store_holds_at_most_20_bytes_per_reference() {
        use std::mem::size_of;
        for (n, offsets_per_ref) in [(4_096 + 256, 7.0..8.0), (4_096 - 256, 4.0..4.5)] {
            let entries = (0..n as u64)
                .map(|i| (Kmer::from_u64(i << 40, 31).unwrap(), TaxonId(1)))
                .collect();
            let layout = DeviceLayout::build(entries, &small_config()).unwrap();
            assert_eq!(layout.len(), n);
            let keys = layout.keys.keys.capacity() * size_of::<u64>();
            let offsets = layout.keys.starts.capacity() * size_of::<u32>();
            let taxa = layout.taxa.capacity() * size_of::<TaxonId>();
            let per_ref = |bytes: usize| bytes as f64 / n as f64;
            assert!(
                offsets_per_ref.contains(&per_ref(offsets)),
                "{n} references: offsets take {} B each",
                per_ref(offsets)
            );
            let total = per_ref(keys + offsets + taxa);
            assert!(total <= 20.0, "{n} references: {total} B each");
        }
    }

    #[test]
    fn subarrays_partition_in_sorted_order() {
        let layout = layout_with(30_000);
        assert!(layout.occupied_subarrays() >= 2);
        let mut prev_last: Option<u64> = None;
        let mut total = 0;
        for sa in layout.subarrays() {
            assert_eq!(sa.taxa().len(), sa.len());
            assert_eq!(sa.k(), 31);
            if let Some(prev) = prev_last {
                assert!(sa.keys()[0] > prev, "subarrays out of order");
            }
            prev_last = sa.keys().last().copied();
            total += sa.len();
        }
        assert_eq!(total, layout.len());
    }

    #[test]
    fn col_of_rank_is_monotone_and_invertible() {
        let layout = layout_with(30_000);
        let sa = layout.subarray(0);
        let mut prev = None;
        for rank in 0..sa.len() {
            let col = sa.col_of_rank(rank);
            if let Some(p) = prev {
                assert!(col > p, "columns must increase with rank");
            }
            prev = Some(col);
            assert_eq!(sa.rank_of_col(col), Some(rank));
        }
    }

    #[test]
    fn query_columns_hold_no_rank() {
        let layout = layout_with(30_000);
        let sa = layout.subarray(0);
        // First group's query block: cols 256..320.
        for col in 256..320 {
            assert_eq!(sa.rank_of_col(col), None);
        }
    }

    #[test]
    fn ranks_in_cols_covers_segments_exactly() {
        let layout = layout_with(30_000);
        let sa = layout.subarray(0);
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for seg in 0..(8192 / 256) {
            let r = sa.ranks_in_cols(seg * 256, (seg + 1) * 256);
            assert_eq!(r.start, prev_end, "segment ranges must tile");
            prev_end = r.end;
            // Every rank in range has its column inside the segment.
            for rank in r.clone() {
                let col = sa.col_of_rank(rank);
                assert!(col >= seg * 256 && col < (seg + 1) * 256);
            }
            covered += r.len();
        }
        assert_eq!(covered, sa.len());
    }

    #[test]
    fn type1_layout_has_no_query_columns() {
        let config = SieveConfig::type1().with_geometry(Geometry::scaled_medium());
        let ds = synth::make_dataset_with(4, 1024, 31, 5);
        let layout = DeviceLayout::build(ds.entries, &config).unwrap();
        let sa = layout.subarray(0);
        assert_eq!(sa.group().query_cols, 0);
        // Dense mapping: rank == column.
        for rank in 0..sa.len().min(100) {
            assert_eq!(sa.col_of_rank(rank), rank as u32);
        }
    }

    #[test]
    fn empty_layout_is_valid() {
        let layout = DeviceLayout::build(Vec::new(), &small_config()).unwrap();
        assert!(layout.is_empty());
        assert_eq!(layout.occupied_subarrays(), 0);
        assert_eq!(layout.index_table_bytes(), 0);
    }

    #[test]
    fn index_table_scales_with_occupied_subarrays() {
        let layout = layout_with(30_000);
        assert!(layout.occupied_subarrays() >= 2);
        assert_eq!(
            layout.index_table_bytes(),
            layout.occupied_subarrays() * ENTRY_BYTES
        );
        // The paper keeps its index under 2 MB by indexing only occupied
        // subarrays with 8-byte packed entries. Our 24-byte entries over
        // the paper's 65,536 subarrays (32 GB) come to 1.5 MB, the same
        // order.
        let paper_32gb_entries = 65_536;
        assert!(paper_32gb_entries * ENTRY_BYTES <= 2 * 1024 * 1024);
    }

    /// The reference router: the paper's host-side index table (§IV-D)
    /// as a search of every subarray's first key. It picks the largest
    /// subarray whose first key is at most `query`, and subarray 0 below
    /// all of them.
    fn first_key_route(firsts: &[u64], query: u64) -> usize {
        firsts
            .partition_point(|&first| first <= query)
            .saturating_sub(1)
    }

    /// Holds the staged search to its references under each ETM setting:
    /// [`DeviceLayout::ranks`] over blocks of 1, 7 and 512 probes, so
    /// block edges fall everywhere, then [`DeviceLayout::resolve`]. The
    /// global rank must equal a binary search of all the keys, the routed
    /// subarray [`first_key_route`], the local rank a binary search of
    /// that subarray, and the outcome [`engine::lookup`] on it. Every
    /// probe arrives twice, once in order and once in reverse.
    fn assert_staged_search_twins_references(layout: &DeviceLayout, probes: &[Kmer]) {
        let firsts: Vec<u64> = layout.subarrays().map(|sa| sa.keys()[0]).collect();
        let probes: Vec<Kmer> = probes.iter().chain(probes.iter().rev()).copied().collect();
        let keys: Vec<u64> = probes.iter().map(Kmer::bits).collect();
        let mut ranks = vec![0; keys.len()];
        for block in [1, 7, 512] {
            ranks.fill(usize::MAX);
            for (keys, ranks) in keys.chunks(block).zip(ranks.chunks_mut(block)) {
                layout.ranks(keys, ranks);
            }
            for (etm, flush) in [(true, 1), (true, 0), (false, 1)] {
                let rows = RowTable::new(2 * layout.k(), etm, flush);
                for ((probe, &key), &g) in probes.iter().zip(&keys).zip(&ranks) {
                    let at = format!("probe {probe} block {block} etm={etm} flush={flush}");
                    let below = |keys: &[u64]| keys.partition_point(|&k| k < key);
                    assert_eq!(g, below(layout.keys.keys()), "{at}: global rank");
                    let got = layout.resolve(key, g, &rows);
                    let sub = first_key_route(&firsts, key);
                    assert_eq!(got.subarray, sub, "{at}: routed");
                    let sa = layout.subarray(sub);
                    assert_eq!(got.rank, below(sa.keys()), "{at}: local rank");
                    assert_eq!(got.outcome, engine::lookup(&sa, *probe, etm, flush), "{at}");
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
        for &key in layout.keys.keys().iter().step_by(29) {
            probes.extend(kmer(key));
            probes.extend(kmer(key.wrapping_add(1)));
            probes.extend(kmer(key.wrapping_sub(1)));
        }
        probes.extend(kmer(0));
        probes.extend(kmer(u64::MAX >> (64 - 2 * k)));
        let views: Vec<SubarrayView<'_>> = layout.subarrays().collect();
        let mut gaps = 0;
        for (i, sa) in views.iter().enumerate() {
            let (first, last) = (sa.keys()[0], sa.keys()[sa.len() - 1]);
            probes.extend(kmer(first));
            probes.extend(kmer(last));
            if let Some(next) = views.get(i + 1) {
                let next_first = next.keys()[0];
                if next_first - last > 1 {
                    gaps += 1;
                    probes.extend(kmer(last + 1));
                    probes.extend(kmer(next_first - 1));
                }
            }
        }
        (probes, gaps)
    }

    #[test]
    fn staged_search_twins_lookup() {
        let ds = synth::make_dataset_with(8, 4096, 31, 7);
        let layout = DeviceLayout::build(ds.entries, &small_config()).unwrap();
        assert!(layout.occupied_subarrays() >= 2);
        let (probes, gaps) = twin_probes(&layout);
        assert!(gaps > 0, "no gap between consecutive subarrays to probe");
        assert_staged_search_twins_references(&layout, &probes);
    }

    #[test]
    fn staged_search_twins_lookup_on_partly_and_wholly_filled_last_subarrays() {
        // Three subarrays: the last holds a third of its capacity, then
        // exactly all of it, so a probe above every key routes to a
        // partial last subarray and to a full one.
        let ds = synth::make_dataset_with(8, 4096, 31, 23);
        let config = small_config();
        let refs = config.refs_per_subarray() as usize;
        let all = stored(&DeviceLayout::build(ds.entries, &config).unwrap());
        assert!(
            all.len() >= 3 * refs,
            "too few references for three subarrays"
        );
        for len in [2 * refs + refs / 3, 3 * refs] {
            let layout = DeviceLayout::build(all[..len].to_vec(), &config).unwrap();
            assert_eq!(layout.occupied_subarrays(), 3);
            let (probes, _) = twin_probes(&layout);
            assert_staged_search_twins_references(&layout, &probes);
        }
    }

    #[test]
    fn staged_search_twins_lookup_on_a_crowded_bucket() {
        // Three references in four share their top 20 bits, so one
        // bucket holds most of the keys and its search is a real binary
        // search rather than a one-key probe.
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
        let layout = DeviceLayout::build(entries, &small_config()).unwrap();
        assert!(layout.occupied_subarrays() >= 2);
        let crowd = layout
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
}
