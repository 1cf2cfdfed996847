//! The multi-core CPU baseline (Table I workstation running a Kraken-style
//! k-mer matcher).
//!
//! The model drives the *real* hybrid database structure
//! ([`sieve_genomics::db::HybridDb`]): for every query it synthesizes the
//! memory trace a lookup performs — one bucket-table probe, then the binary
//! search over the signature bucket — and walks it through the cache
//! hierarchy. Because our scaled databases are far smaller than the paper's
//! 4–8 GB references (which is what makes real CPUs miss), addresses are
//! spread over a configurable *modelled working set* so L3 behaves as it
//! would at paper scale.
//!
//! Throughput combines the measured average memory time with the
//! workstation's parallelism and its memory-level-parallelism limit — the
//! paper's point (§VI-B) that depleted MSHRs, not bandwidth, bound CPUs.

use sieve_genomics::db::{HybridDb, KmerDatabase};
use sieve_genomics::Kmer;

use crate::cachesim::Hierarchy;
use crate::report::BaselineReport;

/// Table I workstation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Physical cores (Table I: 14). Throughput grants each core 1.2
    /// lookup streams for SMT, so Table I's 24 hardware threads and its
    /// 2.8 GHz clock are not parameters.
    pub cores: u32,
    /// Effective overlapped misses per thread — the paper's MSHR argument:
    /// dependent probes leave little MLP (we model 1.2).
    pub mlp: f64,
    /// Non-memory work per lookup, ns (hashing, compare, loop).
    pub compute_ns_per_lookup: f64,
    /// Package power while running the kernel, watts (the paper scales the
    /// measured CPU power by 70 % to isolate the kernel).
    pub power_w: f64,
    /// Modelled database working-set size, bytes (the paper's references
    /// are 4–6.24 GB; misses are what matter).
    pub working_set_bytes: u64,
    /// Minimum memory probes per lookup, modelling paper-scale bucket
    /// depth (hundreds of entries per signature bucket → a deeper binary
    /// search than our scaled databases exhibit).
    pub min_probes_per_lookup: u32,
    /// Extra latency per DRAM-served access for TLB misses + page walks
    /// (random 4 KB-page accesses over a multi-GB mmap'd database miss the
    /// STLB nearly every time), ns.
    pub tlb_miss_ns: u64,
}

impl CpuConfig {
    /// The Table I workstation.
    #[must_use]
    pub fn xeon_e5_2658v4() -> Self {
        Self {
            cores: 14,
            mlp: 1.2,
            compute_ns_per_lookup: 12.0,
            power_w: 105.0,
            working_set_bytes: 4 << 30,
            min_probes_per_lookup: 18,
            tlb_miss_ns: 60,
        }
    }

    /// Same workstation with a different modelled working set (e.g. the
    /// 8 GB MiniKraken or 6.24 GB NCBI Bacteria references).
    #[must_use]
    pub fn with_working_set(mut self, bytes: u64) -> Self {
        self.working_set_bytes = bytes;
        self
    }
}

/// Detailed outcome of a CPU run.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuRunDetail {
    /// The summary report.
    pub report: BaselineReport,
    /// Average memory-stall time per lookup, ns.
    pub avg_memory_ns: f64,
    /// Average hierarchy accesses per lookup.
    pub avg_accesses: f64,
    /// Fraction of accesses served by DRAM.
    pub dram_fraction: f64,
}

/// TLB penalty for an access served at `level`.
fn tlb(level: crate::cachesim::ServedBy, config: &CpuConfig) -> u64 {
    if level == crate::cachesim::ServedBy::Dram {
        config.tlb_miss_ns
    } else {
        0
    }
}

/// Runs the k-mer matching kernel on the CPU model.
///
/// Each query performs the hybrid database's real probe sequence; its
/// addresses are scattered over [`CpuConfig::working_set_bytes`] so cache
/// behaviour matches paper-scale databases.
///
/// # Panics
///
/// Panics if `queries` is empty or the database is empty.
#[must_use]
pub fn run_kmer_matching(db: &HybridDb, queries: &[Kmer], config: CpuConfig) -> CpuRunDetail {
    assert!(!queries.is_empty(), "need at least one query");
    assert!(db.len() > 0, "need a non-empty database");
    let mut hierarchy = Hierarchy::xeon_e5_2658v4();

    // Address synthesis: spread the db's storage AND its bucket table over
    // the modelled working set, keeping the real relative structure. At
    // paper scale (hundreds of millions of k-mers) the bucket table itself
    // is hundreds of megabytes — far beyond L3 — so it gets a working-set
    // share (1/8) rather than its literal scaled size.
    let entry_stride = (config.working_set_bytes * 7 / 8 / (db.len() as u64 + 1)).max(24);
    let bucket_stride = (config.working_set_bytes / 8 / db.bucket_count().max(1) as u64).max(16);
    let bucket_table_base = 0u64;
    let storage_base = config.working_set_bytes / 8;
    let mut total_memory_ns = 0u64;
    let mut total_accesses = 0u64;

    for q in queries {
        let sig = db.signature(*q);
        // Bucket-table probe (hash slot).
        let slot = sig.wrapping_mul(0x9e37_79b9_7f4a_7c15) % db.bucket_count().max(1) as u64;
        let (level, lat) = hierarchy.access(bucket_table_base + slot * bucket_stride);
        total_memory_ns += lat + tlb(level, &config);
        total_accesses += 1;
        let mut probes = 1u32;
        // Binary search over the bucket: each probe touches one entry.
        if let Some((off, len)) = db.bucket(sig) {
            let (mut lo, mut hi) = (0u64, u64::from(len));
            while lo < hi {
                let mid = (lo + hi) / 2;
                let idx = u64::from(off) + mid;
                let (level, lat) = hierarchy.access(storage_base + idx * entry_stride);
                total_memory_ns += lat + tlb(level, &config);
                total_accesses += 1;
                probes += 1;
                let probe = db.storage()[idx as usize].1;
                match probe.cmp(&q.bits()) {
                    std::cmp::Ordering::Less => lo = mid + 1,
                    std::cmp::Ordering::Greater => hi = mid,
                    std::cmp::Ordering::Equal => break,
                }
            }
        }
        // Pad to the paper-scale search depth: deeper buckets mean extra
        // dependent probes that our scaled database does not exhibit.
        // The deeper search levels at paper scale touch an address space
        // our scaled database cannot populate, so pad probes draw from the
        // whole modelled working set.
        let span = (config.working_set_bytes * 7 / 8).max(64);
        let mut pad = q.bits().wrapping_mul(0xd130_2193_446b_7cd5);
        while probes < config.min_probes_per_lookup {
            pad = pad.wrapping_mul(6364136223846793005).wrapping_add(1);
            let (level, lat) = hierarchy.access(storage_base + (pad % span) / 64 * 64);
            total_memory_ns += lat + tlb(level, &config);
            total_accesses += 1;
            probes += 1;
        }
    }

    let n = queries.len() as f64;
    let avg_memory_ns = total_memory_ns as f64 / n;
    let avg_accesses = total_accesses as f64 / n;
    // Per-thread lookup time: compute + memory/MLP; machine throughput uses
    // physical cores (the kernel saturates memory, SMT adds ~threads/cores
    // scaling damped to the paper's observation — we grant cores × 1.2).
    let per_lookup_ns = config.compute_ns_per_lookup + avg_memory_ns / config.mlp;
    let parallel = f64::from(config.cores) * 1.2;
    let time_s = queries.len() as f64 * per_lookup_ns * 1e-9 / parallel;
    let report = BaselineReport {
        label: "CPU".to_string(),
        queries: queries.len() as u64,
        time_ps: (time_s * 1e12) as u128,
        energy_fj: (config.power_w * time_s * 1e15) as u128,
    };
    CpuRunDetail {
        report,
        avg_memory_ns,
        avg_accesses,
        dram_fraction: hierarchy.dram_fraction(),
    }
}

/// Runs the CLARK-style kernel: an open-addressing hash table (k-mer →
/// taxon) probed linearly. Fewer dependent probes per lookup than Kraken's
/// bucket search, but every probe is a full-table-width random access.
///
/// # Panics
///
/// Panics if `queries` is empty or the database is empty.
#[must_use]
pub fn run_clark_matching(
    db: &sieve_genomics::db::HashDb,
    queries: &[Kmer],
    config: CpuConfig,
) -> CpuRunDetail {
    use sieve_genomics::db::KmerDatabase as _;
    assert!(!queries.is_empty(), "need at least one query");
    assert!(db.len() > 0, "need a non-empty database");
    let mut hierarchy = Hierarchy::xeon_e5_2658v4();
    // CLARK sizes its table at ~2x the k-mer count; model slots spread
    // over the whole working set.
    let slots = (db.len() as u64 * 2).next_power_of_two();
    let slot_stride = (config.working_set_bytes / slots).max(16);
    let mut total_memory_ns = 0u64;
    let mut total_accesses = 0u64;
    for q in queries {
        let mut slot = q.bits().wrapping_mul(0x9e37_79b9_7f4a_7c15) % slots;
        // Linear probing at ~0.5 load: hits resolve in ~2 probes, misses
        // scan a short cluster — still several dependent accesses at
        // paper-scale table sizes.
        let probes =
            if db.get(*q).is_some() { 2u32 } else { 3 }.max(config.min_probes_per_lookup / 2);
        for _ in 0..probes {
            let (level, lat) = hierarchy.access(slot * slot_stride);
            total_memory_ns += lat + tlb(level, &config);
            total_accesses += 1;
            slot = (slot + 1) % slots;
        }
    }
    let n = queries.len() as f64;
    let avg_memory_ns = total_memory_ns as f64 / n;
    let avg_accesses = total_accesses as f64 / n;
    // CLARK's shallower probe chains expose somewhat more MLP than Kraken's
    // dependent binary search.
    let per_lookup_ns = config.compute_ns_per_lookup + avg_memory_ns / (config.mlp * 1.25);
    let parallel = f64::from(config.cores) * 1.2;
    let time_s = queries.len() as f64 * per_lookup_ns * 1e-9 / parallel;
    CpuRunDetail {
        report: BaselineReport {
            label: "CPU".to_string(),
            queries: queries.len() as u64,
            time_ps: (time_s * 1e12) as u128,
            energy_fj: (config.power_w * time_s * 1e15) as u128,
        },
        avg_memory_ns,
        avg_accesses,
        dram_fraction: hierarchy.dram_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_genomics::synth;

    fn setup() -> (HybridDb, Vec<Kmer>) {
        let ds = synth::make_dataset_with(8, 4096, 31, 3);
        let db = HybridDb::from_entries(&ds.entries, 31);
        let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 100, 4);
        let queries: Vec<Kmer> = reads
            .iter()
            .flat_map(|r| r.kmers(31).map(|(_, k)| k))
            .collect();
        (db, queries)
    }

    #[test]
    fn paper_scale_working_set_misses() {
        let (db, queries) = setup();
        let detail = run_kmer_matching(&db, &queries, CpuConfig::xeon_e5_2658v4());
        assert!(
            detail.dram_fraction > 0.5,
            "paper-scale DB must be DRAM-bound: {}",
            detail.dram_fraction
        );
        // Memory-bound regime: per-lookup memory time far exceeds compute.
        assert!(detail.avg_memory_ns > 250.0);
    }

    #[test]
    fn throughput_is_in_the_realistic_band() {
        let (db, queries) = setup();
        let detail = run_kmer_matching(&db, &queries, CpuConfig::xeon_e5_2658v4());
        let qps = detail.report.throughput_qps();
        // Real Kraken-class tools: a few M lookups/s on a 14-core Xeon.
        assert!(
            qps > 5e5 && qps < 2e8,
            "CPU throughput out of band: {qps:.3e} q/s"
        );
    }

    #[test]
    fn small_working_set_is_faster() {
        let (db, queries) = setup();
        let big = run_kmer_matching(&db, &queries, CpuConfig::xeon_e5_2658v4());
        let small = run_kmer_matching(
            &db,
            &queries,
            CpuConfig::xeon_e5_2658v4().with_working_set(8 << 20),
        );
        assert!(small.report.time_ps < big.report.time_ps);
        assert!(small.dram_fraction < big.dram_fraction);
    }

    #[test]
    fn clark_kernel_is_faster_but_still_memory_bound() {
        let (db, queries) = setup();
        let ds = synth::make_dataset_with(8, 4096, 31, 3);
        let hash = sieve_genomics::db::HashDb::from_entries(&ds.entries, 31);
        let clark = run_clark_matching(&hash, &queries, CpuConfig::xeon_e5_2658v4());
        let kraken = run_kmer_matching(&db, &queries, CpuConfig::xeon_e5_2658v4());
        // Fewer probes + more MLP: CLARK's kernel outpaces Kraken's.
        assert!(clark.report.time_ps < kraken.report.time_ps);
        // But it is still DRAM-bound at paper scale.
        assert!(clark.dram_fraction > 0.5, "got {}", clark.dram_fraction);
        assert!(clark.avg_accesses >= 2.0);
    }

    #[test]
    fn energy_scales_with_time() {
        let (db, queries) = setup();
        let detail = run_kmer_matching(&db, &queries, CpuConfig::xeon_e5_2658v4());
        let expected = 105.0 * detail.report.time_ps as f64 * 1e-12 * 1e15;
        let got = detail.report.energy_fj as f64;
        assert!((got - expected).abs() / expected < 1e-6);
    }

    #[test]
    fn accesses_reflect_binary_search_depth() {
        let (db, queries) = setup();
        let detail = run_kmer_matching(&db, &queries, CpuConfig::xeon_e5_2658v4());
        // 1 bucket probe + log2(avg bucket) search probes; buckets are
        // small, so this sits in a narrow band.
        assert!(
            detail.avg_accesses >= 9.0 && detail.avg_accesses < 24.0,
            "avg accesses {}",
            detail.avg_accesses
        );
    }
}
