//! The k-mer → subarray index table (§IV-D).
//!
//! Reference k-mers are sorted and partitioned across subarrays, so routing
//! a query takes one binary search over `(first, last)` ranges. Each entry
//! is an 8-byte subarray id plus the integer values of the subarray's first
//! and last k-mers — the table scales with *capacity*, not with k (the
//! paper: < 2 MB even for a 500 GB device). Routing reads only the first
//! keys, so [`SubarrayIndex`] keeps those alone, and
//! [`SubarrayIndex::table_bytes`] sizes the paper's table.
//!
//! The simulated device does not search this table per query: its match
//! pass finds each query's rank among all the reference keys anyway, and
//! that rank names the same subarray ([`crate::DeviceLayout::resolve`]).
//! [`SubarrayIndex::locate`] is the reference that routing is tested
//! against, and serves [`crate::SieveDevice::lookup`].

use sieve_genomics::Kmer;

use crate::layout::{Bucketed, DeviceLayout};

/// Bytes per index entry: 8 (subarray id) + 2 × 8 (first/last k-mer).
pub const ENTRY_BYTES: usize = 24;

/// The host-side routing table.
///
/// # Example
///
/// ```
/// use sieve_core::{DeviceLayout, SieveConfig, SubarrayIndex};
/// use sieve_dram::Geometry;
/// use sieve_genomics::synth;
///
/// let ds = synth::make_dataset_with(8, 4096, 31, 2);
/// let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
/// let layout = DeviceLayout::build(ds.entries.clone(), &config)?;
/// let index = SubarrayIndex::build(&layout);
/// // Every stored k-mer routes to the subarray that stores it.
/// let (kmer, _) = ds.entries[0];
/// let sa = index.locate(kmer);
/// assert!(layout.subarray(sa).keys().contains(&kmer.bits()));
/// # Ok::<(), sieve_core::SieveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SubarrayIndex {
    /// First key per occupied subarray, bucketed so routing a query is a
    /// bucket probe instead of a binary search over every range.
    firsts: Bucketed,
}

impl SubarrayIndex {
    /// Builds the table from a device layout.
    #[must_use]
    pub fn build(layout: &DeviceLayout) -> Self {
        let firsts: Vec<u64> = layout.subarrays().map(|sa| sa.keys()[0]).collect();
        Self {
            firsts: Bucketed::new(firsts.into_iter(), 2 * layout.k()),
        }
    }

    /// Number of indexed subarrays.
    #[must_use]
    pub fn len(&self) -> usize {
        self.firsts.len()
    }

    /// Whether the index is empty (no subarray holds data).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Host memory the paper's table takes, bytes: [`ENTRY_BYTES`] per
    /// occupied subarray.
    #[must_use]
    pub fn table_bytes(&self) -> usize {
        self.len() * ENTRY_BYTES
    }

    /// The occupied-subarray index `query` routes to: the subarray whose
    /// `[first, last]` range contains it, or — for queries falling in the
    /// (tiny) gaps between consecutive ranges or outside all ranges — the
    /// nearest preceding range (conservative: the lookup proceeds and
    /// misses there). That is the largest `i` with `first[i] ≤ query`,
    /// and subarray 0 below the first range. The device's match pass
    /// routes by the same rule from a query's rank among all the keys
    /// ([`crate::DeviceLayout::resolve`]); this search of the first keys
    /// is its reference.
    ///
    /// # Panics
    ///
    /// Panics if the index is empty.
    #[must_use]
    pub fn locate(&self, query: Kmer) -> usize {
        assert!(!self.is_empty(), "cannot route against an empty index");
        let q = query.bits();
        let i = self.firsts.lower_bound(q);
        if i < self.firsts.len() && self.firsts.key(i) == q {
            i
        } else {
            i.saturating_sub(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SieveConfig;
    use sieve_dram::Geometry;
    use sieve_genomics::synth;

    fn kmer(key: u64) -> Kmer {
        Kmer::from_u64(key, 31).unwrap()
    }

    fn setup() -> (DeviceLayout, SubarrayIndex) {
        let ds = synth::make_dataset_with(8, 4096, 31, 7);
        let config = SieveConfig::type3(4).with_geometry(Geometry::scaled_medium());
        let layout = DeviceLayout::build(ds.entries, &config).unwrap();
        let index = SubarrayIndex::build(&layout);
        (layout, index)
    }

    #[test]
    fn every_stored_kmer_routes_home() {
        let (layout, index) = setup();
        assert!(index.len() >= 2, "need multiple subarrays for this test");
        for (i, sa) in layout.subarrays().enumerate() {
            for &key in sa.keys().iter().step_by(503) {
                assert_eq!(index.locate(kmer(key)), i);
            }
        }
    }

    #[test]
    fn boundary_kmers_route_correctly() {
        let (layout, index) = setup();
        for (i, sa) in layout.subarrays().enumerate() {
            assert_eq!(index.locate(kmer(sa.keys()[0])), i);
            assert_eq!(index.locate(kmer(sa.keys()[sa.len() - 1])), i);
        }
    }

    #[test]
    fn below_first_range_routes_to_subarray_zero() {
        let (layout, index) = setup();
        if 0 < layout.subarray(0).keys()[0] {
            assert_eq!(index.locate(kmer(0)), 0);
        }
    }

    #[test]
    fn gap_queries_route_to_preceding_range() {
        let (layout, index) = setup();
        // A value just above subarray 0's last k-mer but below subarray 1's
        // first is in the gap.
        let sa0 = layout.subarray(0);
        let last0 = sa0.keys()[sa0.len() - 1];
        let first1 = layout.subarray(1).keys()[0];
        if first1 > last0 + 1 {
            assert_eq!(index.locate(kmer(last0 + 1)), 0);
        }
    }

    #[test]
    fn table_size_matches_paper_scaling() {
        let (_, index) = setup();
        assert_eq!(index.table_bytes(), index.len() * 24);
        // The paper keeps its index under 2 MB by indexing only occupied
        // subarrays with 8-byte packed entries. Our 24-byte entries over
        // the paper's 65,536 subarrays (32 GB) come to 1.5 MB, the same
        // order.
        let paper_32gb_entries = 65_536;
        assert!(paper_32gb_entries * ENTRY_BYTES <= 2 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "empty index")]
    fn empty_index_panics_on_locate() {
        let config = SieveConfig::type3(4).with_geometry(Geometry::scaled_medium());
        let layout = DeviceLayout::build(Vec::new(), &config).unwrap();
        let index = SubarrayIndex::build(&layout);
        let _ = index.locate(Kmer::from_u64(0, 31).unwrap());
    }
}
