//! Property tests: the fast sorted-LCP engine is exactly equivalent to the
//! bit-accurate latch-level engine, on arbitrary reference sets and
//! queries. This is the load-bearing verification of the whole simulator —
//! every timing number flows from these row counts.

use proptest::prelude::*;
use sieve::core::{bitsim::BitAccurateSubarray, engine, DeviceLayout, SieveConfig};
use sieve::dram::Geometry;
use sieve::genomics::{Kmer, TaxonId};

/// Strategy: a sorted set of distinct k-mers (k = 15 keeps the space dense
/// enough that random hits/near-misses occur) plus query k-mers.
fn kmer_set(k: usize, max_len: usize) -> impl Strategy<Value = Vec<(Kmer, TaxonId)>> {
    let max_bits = 1u64 << (2 * k);
    prop::collection::btree_set(0..max_bits, 1..max_len).prop_map(move |set| {
        set.into_iter()
            .enumerate()
            .map(|(i, bits)| {
                (
                    Kmer::from_u64(bits, k).expect("bits in range"),
                    TaxonId(i as u32),
                )
            })
            .collect()
    })
}

fn tiny_config(k: usize) -> SieveConfig {
    // 1024-column rows keep the bit-accurate engine fast; one pattern group
    // of 576 columns per row (512 refs + 64 query slots).
    SieveConfig::type3(4)
        .with_geometry(Geometry::scaled_small())
        .with_k(k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_engine_equals_bit_accurate(
        entries in kmer_set(15, 400),
        queries in prop::collection::vec(0u64..(1 << 30), 1..50),
        etm in any::<bool>(),
        flush in 0u32..3,
    ) {
        let k = 15;
        let config = tiny_config(k);
        let layout = DeviceLayout::build(entries, &config).expect("fits");
        for sub in 0..layout.occupied_subarrays() {
            let sa = layout.subarray(sub);
            let bits = BitAccurateSubarray::from_view(&sa, config.geometry.cols_per_row);
            for &qbits in &queries {
                let q = Kmer::from_u64(qbits, k).expect("in range");
                let fast = engine::lookup(&sa, q, etm, flush);
                let exact = bits.lookup(q, etm, flush);
                prop_assert_eq!(fast, exact, "query {} etm={} flush={}", q, etm, flush);
            }
        }
    }

    #[test]
    fn stored_kmers_always_hit_with_their_payload(
        entries in kmer_set(15, 300),
    ) {
        let config = tiny_config(15);
        let expected: Vec<(Kmer, TaxonId)> = entries.clone();
        let layout = DeviceLayout::build(entries, &config).expect("fits");
        for (kmer, taxon) in expected {
            // Find the subarray holding it through the sorted partition.
            let mut found = false;
            for sa in layout.subarrays() {
                let (first, last) = (sa.keys()[0], sa.keys()[sa.len() - 1]);
                if first <= kmer.bits() && kmer.bits() <= last {
                    let outcome = engine::lookup(&sa, kmer, true, 1);
                    prop_assert_eq!(outcome.hit.map(|(_, t)| t), Some(taxon));
                    prop_assert_eq!(outcome.rows as usize, kmer.bit_len());
                    found = true;
                }
            }
            prop_assert!(found, "k-mer {} not covered by any subarray range", kmer);
        }
    }

    #[test]
    fn max_lcp_in_range_matches_brute_force(
        entries in kmer_set(12, 200),
        qbits in 0u64..(1 << 24),
        start in 0usize..100,
        len in 1usize..100,
    ) {
        let config = tiny_config(12);
        let layout = DeviceLayout::build(entries, &config).expect("fits");
        let sa = layout.subarray(0);
        let start = start % sa.len();
        let end = (start + len).min(sa.len());
        let q = Kmer::from_u64(qbits, 12).expect("in range");
        let fast = engine::max_lcp_in_range(&sa, start..end, q);
        let brute = sa.keys()[start..end]
            .iter()
            .map(|&key| Kmer::from_u64(key, 12).expect("in range").lcp_bits(&q))
            .max();
        prop_assert_eq!(fast, brute);
    }

    #[test]
    fn type1_batch_etm_matches_bit_accurate_64col_segments(
        entries in kmer_set(15, 500),
        qbits in 0u64..(1 << 30),
    ) {
        // Type-1's skip-bit registers prune at 64-column batch
        // granularity; its scheduler computes per-batch max-LCP with the
        // fast engine. Verify against the latch-level ground truth.
        let config = SieveConfig::type1()
            .with_geometry(Geometry::scaled_small())
            .with_k(15);
        let layout = DeviceLayout::build(entries, &config).expect("fits");
        let sa = layout.subarray(0);
        let bits = BitAccurateSubarray::from_view(&sa, config.geometry.cols_per_row);
        let q = Kmer::from_u64(qbits, 15).expect("in range");
        let deaths = bits.segment_death_rows(q, 64);
        for (b, death) in deaths.iter().enumerate() {
            let range = sa.ranks_in_cols(b as u32 * 64, (b as u32 + 1) * 64);
            let expected = engine::max_lcp_in_range(&sa, range, q);
            prop_assert_eq!(*death, expected, "batch {}", b);
        }
    }

    #[test]
    fn segment_death_rows_match_fast_ranges(
        entries in kmer_set(15, 400),
        qbits in 0u64..(1 << 30),
    ) {
        let config = tiny_config(15);
        let layout = DeviceLayout::build(entries, &config).expect("fits");
        let sa = layout.subarray(0);
        let cols = config.geometry.cols_per_row;
        let bits = BitAccurateSubarray::from_view(&sa, cols);
        let q = Kmer::from_u64(qbits, 15).expect("in range");
        let seg_len = 256u32;
        let deaths = bits.segment_death_rows(q, seg_len as usize);
        for (s, death) in deaths.iter().enumerate() {
            let range = sa.ranks_in_cols(s as u32 * seg_len, (s as u32 + 1) * seg_len);
            let expected = engine::max_lcp_in_range(&sa, range, q)
                .map(|lcp| lcp.min(q.bit_len()));
            prop_assert_eq!(*death, expected, "segment {}", s);
        }
    }
}
