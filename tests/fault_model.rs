//! Property tests for `bitsim::FaultModel`, the defective-latch study the
//! paper's SPICE validation rules out for healthy parts:
//!
//! * a **stuck-at-zero** column can never be reported as a match, so the
//!   only queries it corrupts are those whose own match column is stuck;
//! * a **stuck-at-one** column survives to full depth, defeating early
//!   termination for every query;
//! * divergence between the fast engine (fault-free by construction) and
//!   the bit-accurate engine under faults is **exactly** the injected
//!   column set — predictable from Column Finder semantics alone.

use proptest::prelude::*;
use sieve::core::bitsim::{BitAccurateSubarray, FaultModel};
use sieve::core::{engine, etm, SieveConfig, SieveDevice, SubarrayView};
use sieve::dram::Geometry;
use sieve::genomics::{synth, Kmer};

const FLUSH: u32 = 1;

fn fixture() -> (SieveDevice, u32) {
    let ds = synth::make_dataset_with(4, 1024, 31, 31);
    let config = SieveConfig::type3(4).with_geometry(Geometry::scaled_medium());
    let cols = config.geometry.cols_per_row;
    (
        SieveDevice::new(config, ds.entries).expect("dataset fits"),
        cols,
    )
}

/// Reference `rank` of `sa` as a k-mer.
fn stored(sa: &SubarrayView<'_>, rank: usize) -> Kmer {
    Kmer::from_u64(sa.keys()[rank], sa.k()).expect("stored keys are valid")
}

/// Sampled stored ranks: spread across the subarray, deterministic.
fn probe_ranks(len: usize, salt: u64) -> Vec<usize> {
    (0..24usize)
        .map(|i| {
            i.wrapping_mul(977)
                .wrapping_add((salt % 131) as usize * 131)
                % len
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Stuck-at-zero columns never match: probing every sampled stored
    /// entry, the lookup is corrupted exactly when the entry's own match
    /// column is stuck — and then it is a false miss (the CF can never
    /// land on a stuck-zero column). Everything else agrees with the
    /// fault-free fast engine bit for bit.
    #[test]
    fn stuck_zero_corrupts_exactly_its_own_columns(raw in prop::collection::vec(any::<u64>(), 1..6)) {
        let (device, cols) = fixture();
        let sa = device.layout().subarray(0);
        let bits = BitAccurateSubarray::from_view(&sa, cols);
        // Fault set: reference columns of arbitrary ranks.
        let stuck_zero_cols: Vec<u32> = raw
            .iter()
            .map(|&r| sa.col_of_rank(r as usize % sa.len()))
            .collect();
        let faults = FaultModel {
            stuck_zero_cols: stuck_zero_cols.clone(),
            ..FaultModel::default()
        };
        for rank in probe_ranks(sa.len(), raw[0]) {
            let (kmer, taxon) = (stored(&sa, rank), sa.taxa()[rank]);
            let own_col = sa.col_of_rank(rank);
            let healthy = engine::lookup(&sa, kmer, true, FLUSH);
            prop_assert_eq!(healthy.hit, Some((rank, taxon)));
            let f = bits.lookup_with_faults(kmer, true, FLUSH, &faults);
            let injected = stuck_zero_cols.contains(&own_col);
            prop_assert_eq!(
                f.corrupted, injected,
                "rank {} col {}: divergence must be exactly the injected set",
                rank, own_col
            );
            if injected {
                prop_assert_eq!(f.outcome.hit, None, "stuck-zero can only cause false misses");
            } else {
                prop_assert_eq!(f.outcome, healthy, "untouched columns must match the fast engine");
            }
        }
    }

    /// Stuck-at-one columns survive to full depth: any lookup against a
    /// faulty part with at least one stuck-one latch burns all 2k rows —
    /// ETM never fires — and reports max LCP = 2k.
    #[test]
    fn stuck_one_survives_to_full_depth(
        raw_cols in prop::collection::vec(any::<u64>(), 1..5),
        probe_bits in any::<u64>(),
    ) {
        let (device, cols) = fixture();
        let sa = device.layout().subarray(0);
        let bits = BitAccurateSubarray::from_view(&sa, cols);
        let mut stuck_one_cols: Vec<u32> =
            raw_cols.iter().map(|&c| (c % u64::from(cols)) as u32).collect();
        stuck_one_cols.sort_unstable();
        stuck_one_cols.dedup();
        let faults = FaultModel {
            stuck_one_cols,
            ..FaultModel::default()
        };
        let full_depth = etm::rows_activated(62, 62, true, FLUSH).rows;
        // A guaranteed miss (random probe) and a guaranteed hit both
        // burn the full depth under a stuck-one latch.
        let probes = [
            Kmer::from_u64(probe_bits >> 2, 31).unwrap(),
            stored(&sa, probe_bits as usize % sa.len()),
        ];
        for probe in probes {
            let f = bits.lookup_with_faults(probe, true, FLUSH, &faults);
            prop_assert_eq!(f.outcome.max_lcp, 62, "a stuck-one latch survives every row");
            prop_assert_eq!(f.outcome.rows, full_depth, "ETM must never fire");
        }
    }

    /// Full Column Finder semantics under mixed (disjoint) fault sets:
    /// the surviving set is `{own column} \ stuck_zero ∪ stuck_one`, the
    /// CF reports its lowest column, and the corruption flag is exactly
    /// `reported ≠ fault-free` — so fast-engine vs. bitsim divergence is
    /// a pure function of the injected columns.
    #[test]
    fn divergence_is_predicted_by_column_finder_semantics(
        raw_sz in prop::collection::vec(any::<u64>(), 0..4),
        raw_so in prop::collection::vec(any::<u64>(), 0..4),
    ) {
        let (device, cols) = fixture();
        let sa = device.layout().subarray(0);
        let bits = BitAccurateSubarray::from_view(&sa, cols);
        let sz: Vec<u32> = raw_sz.iter().map(|&r| sa.col_of_rank(r as usize % sa.len())).collect();
        // Keep the sets disjoint: a latch cannot be stuck both ways.
        let so: Vec<u32> = raw_so
            .iter()
            .map(|&c| (c % u64::from(cols)) as u32)
            .filter(|c| !sz.contains(c))
            .collect();
        let faults = FaultModel {
            stuck_zero_cols: sz.clone(),
            stuck_one_cols: so.clone(),
        };
        for rank in probe_ranks(sa.len(), 7) {
            let kmer = stored(&sa, rank);
            let own_col = sa.col_of_rank(rank);
            let healthy = engine::lookup(&sa, kmer, true, FLUSH);
            // Predicted survivors after all 62 rows.
            let mut survivors: Vec<u32> = so.clone();
            if !sz.contains(&own_col) {
                survivors.push(own_col);
            }
            let predicted_hit = survivors.iter().min().and_then(|&c| {
                sa.rank_of_col(c).map(|r| (r, sa.taxa()[r]))
            });
            let f = bits.lookup_with_faults(kmer, true, FLUSH, &faults);
            prop_assert_eq!(f.outcome.hit, predicted_hit, "rank {}: CF must pick the lowest survivor", rank);
            prop_assert_eq!(
                f.corrupted,
                predicted_hit != healthy.hit,
                "rank {}: corruption flag must equal fast-engine divergence",
                rank
            );
        }
    }
}

#[test]
fn empty_fault_model_never_diverges_from_the_fast_engine() {
    let (device, cols) = fixture();
    let sa = device.layout().subarray(0);
    let bits = BitAccurateSubarray::from_view(&sa, cols);
    let faults = FaultModel::default();
    let mut state = 0x5eedu64;
    for i in 0..100 {
        let probe = if i % 2 == 0 {
            stored(&sa, (i * 53) % sa.len())
        } else {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Kmer::from_u64(state >> 2, 31).unwrap()
        };
        let f = bits.lookup_with_faults(probe, true, FLUSH, &faults);
        assert!(!f.corrupted);
        assert_eq!(f.outcome, engine::lookup(&sa, probe, true, FLUSH));
    }
}
