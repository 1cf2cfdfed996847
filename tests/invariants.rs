//! Property tests on the core data structures: packed k-mers, LCP algebra,
//! sequences, databases, the ETM row-count model, and the layout's rank
//! router.

use proptest::prelude::*;
use sieve::core::etm::{rows_activated, RowTable};
use sieve::core::{DeviceLayout, SieveConfig};
use sieve::dram::Geometry;
use sieve::genomics::db::{HashDb, HybridDb, KmerDatabase, SortedDb};
use sieve::genomics::{revcomp_bits, Base, DnaSequence, Kmer, TaxonId};

fn kmer(k: usize) -> impl Strategy<Value = Kmer> {
    let max = if k == 32 {
        u64::MAX
    } else {
        (1u64 << (2 * k)) - 1
    };
    (0..=max).prop_map(move |bits| Kmer::from_u64(bits, k).expect("in range"))
}

fn dna_string() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(vec!['A', 'C', 'G', 'T', 'N']), 0..200)
        .prop_map(|v| v.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn kmer_display_parse_round_trip(k in kmer(31)) {
        let text = k.to_string();
        let back: Kmer = text.parse().expect("valid text");
        prop_assert_eq!(k, back);
    }

    #[test]
    fn kmer_order_is_lexicographic(a in kmer(16), b in kmer(16)) {
        let lex = a
            .bases()
            .map(Base::to_bits)
            .collect::<Vec<_>>()
            .cmp(&b.bases().map(Base::to_bits).collect::<Vec<_>>());
        prop_assert_eq!(a.cmp(&b), lex);
    }

    #[test]
    fn lcp_is_symmetric_and_bounded(a in kmer(31), b in kmer(31)) {
        let l = a.lcp_bits(&b);
        prop_assert_eq!(l, b.lcp_bits(&a));
        prop_assert!(l <= 62);
        prop_assert_eq!(l == 62, a == b);
        // The first l bits agree; bit l differs (when l < 62).
        for j in 0..l {
            prop_assert_eq!(a.bit(j), b.bit(j));
        }
        if l < 62 {
            prop_assert_ne!(a.bit(l), b.bit(l));
        }
    }

    #[test]
    fn lcp_triangle_on_sorted_triples(mut xs in prop::collection::vec(0u64..(1 << 40), 3)) {
        // For sorted a <= b <= c: lcp(a, c) == min(lcp(a, b), lcp(b, c)).
        xs.sort_unstable();
        let (a, b, c) = (
            Kmer::from_u64(xs[0], 20).expect("in range"),
            Kmer::from_u64(xs[1], 20).expect("in range"),
            Kmer::from_u64(xs[2], 20).expect("in range"),
        );
        prop_assert_eq!(a.lcp_bits(&c), a.lcp_bits(&b).min(b.lcp_bits(&c)));
    }

    #[test]
    fn reverse_complement_involution(k in kmer(31)) {
        prop_assert_eq!(revcomp_bits(revcomp_bits(k.bits(), 31), 31), k.bits());
        let canon = k.canonical();
        prop_assert!(canon.bits() <= k.bits());
        prop_assert_eq!(canon, k.reverse_complement_scalar().canonical());
    }

    #[test]
    fn sequence_kmers_are_windows(text in dna_string(), k in 1usize..8) {
        if let Ok(seq) = text.parse::<DnaSequence>() {
            for (off, km) in seq.kmers(k) {
                // Window content equals the k-mer's bases.
                let window: String = seq.to_string()[off..off + k].to_string();
                prop_assert_eq!(km.to_string(), window);
            }
        }
    }

    #[test]
    fn dbs_agree_on_membership(
        bits in prop::collection::btree_set(0u64..(1 << 30), 1..200),
        probes in prop::collection::vec(0u64..(1 << 30), 1..50),
    ) {
        let entries: Vec<(Kmer, TaxonId)> = bits
            .iter()
            .enumerate()
            .map(|(i, b)| (Kmer::from_u64(*b, 15).expect("in range"), TaxonId(i as u32)))
            .collect();
        let sorted = SortedDb::from_entries(entries.clone(), 15);
        let hash = HashDb::from_entries(&entries, 15);
        let hybrid = HybridDb::from_entries(&entries, 15);
        for p in probes {
            let q = Kmer::from_u64(p, 15).expect("in range");
            let expected = sorted.get(q);
            prop_assert_eq!(hash.get(q), expected);
            prop_assert_eq!(hybrid.get(q), expected);
        }
    }

    #[test]
    fn etm_rows_monotone_in_lcp(bit_len in 2usize..64, flush in 0u32..4) {
        let mut prev = 0;
        for lcp in 0..=bit_len {
            let a = rows_activated(lcp, bit_len, true, flush);
            prop_assert!(a.rows as usize >= prev);
            prop_assert!(a.rows as usize <= bit_len);
            prop_assert_eq!(a.hit, lcp == bit_len);
            // ETM never activates more rows than the no-ETM design.
            let no_etm = rows_activated(lcp, bit_len, false, flush);
            prop_assert!(a.rows <= no_etm.rows);
            prev = a.rows as usize;
        }
    }

    /// A stored k-mer's rank among all the keys routes it to the
    /// subarray that stores it, and resolves it there as a hit with its
    /// payload.
    #[test]
    fn rank_routes_every_stored_kmer_home(
        bits in prop::collection::btree_set(0u64..(1 << 30), 600..1500),
    ) {
        let entries: Vec<(Kmer, TaxonId)> = bits
            .iter()
            .enumerate()
            .map(|(i, b)| (Kmer::from_u64(*b, 15).expect("in range"), TaxonId(i as u32)))
            .collect();
        let config = SieveConfig::type3(4)
            .with_geometry(Geometry::scaled_small())
            .with_k(15);
        let layout = DeviceLayout::build(entries.clone(), &config).expect("fits");
        let rows = RowTable::new(2 * layout.k(), true, 1);
        let stored: Vec<&(Kmer, TaxonId)> = entries.iter().step_by(29).collect();
        let keys: Vec<u64> = stored.iter().map(|(kmer, _)| kmer.bits()).collect();
        let mut ranks = vec![0; keys.len()];
        layout.ranks(&keys, &mut ranks);
        for ((&&(_, taxon), &key), &g) in stored.iter().zip(&keys).zip(&ranks) {
            let routed = layout.resolve(key, g, &rows);
            let sa = layout.subarray(routed.subarray);
            let found = sa.keys().binary_search(&key).ok();
            prop_assert_eq!(found.map(|rank| sa.taxa()[rank]), Some(taxon));
            prop_assert_eq!(routed.outcome.hit, found.map(|rank| (rank, taxon)));
        }
    }
}
