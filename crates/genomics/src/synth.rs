//! Seeded synthetic datasets standing in for the paper's real inputs.
//!
//! The paper evaluates with the MiniKraken 4 GB / 8 GB databases, the NCBI
//! Bacteria reference (2,785 genomes, 6.24 GB), and six Illumina-style query
//! files (Table II). Those artifacts are not redistributable here, so this
//! module generates **seeded, deterministic** stand-ins that preserve the
//! properties the evaluation depends on:
//!
//! * reference k-mer sets that are sparse in the 4^k space (so the Expected
//!   Shared Prefix of a random query against the set is tiny — Figure 6),
//! * reads of the paper's query-file lengths (92/157/100 bases) with a low
//!   (~1 %) k-mer hit rate, the regime the paper reports for real data,
//! * a taxonomy so classification (hit-majority / LCA) is meaningful.
//!
//! Scale: the reference presets are scaled-down stand-ins
//! ([`ReferencePreset::dimensions`]), and the query presets divide the
//! paper's read counts by a caller's factor ([`QueryPreset::scaled_count`]);
//! DESIGN.md §5 explains why speedup ratios are scale-invariant in this
//! simulator.

use crate::base::Base;
use crate::db::{build_entries, DbOptions};
use crate::kmer::Kmer;
use crate::rng::Xoshiro256pp;
use crate::sequence::DnaSequence;
use crate::taxonomy::{TaxonId, Taxonomy};

/// Generates a uniformly random genome of `len` bases.
#[must_use]
pub(crate) fn random_genome(len: usize, rng: &mut Xoshiro256pp) -> DnaSequence {
    (0..len).map(|_| random_base(rng)).collect()
}

fn random_base(rng: &mut Xoshiro256pp) -> Base {
    Base::from_bits(rng.below(4) as u8)
}

/// Applies substitution errors at `rate` and turns a small fraction of
/// positions into `N`, mimicking Illumina base-calling artifacts.
#[must_use]
pub(crate) fn corrupt(
    seq: &DnaSequence,
    rate: f64,
    n_rate: f64,
    rng: &mut Xoshiro256pp,
) -> DnaSequence {
    let mut out = DnaSequence::new();
    for i in 0..seq.len() {
        if rng.chance(n_rate) {
            out.push_ambiguous();
        } else {
            match seq.base(i) {
                Some(b) if rng.chance(rate) => {
                    // Substitute with a different base.
                    let mut nb = random_base(rng);
                    while nb == b {
                        nb = random_base(rng);
                    }
                    out.push(nb);
                }
                Some(b) => out.push(b),
                None => out.push_ambiguous(),
            }
        }
    }
    out
}

/// The reference-database presets of §V, scaled down.
///
/// | Preset | Paper artifact | Scaled stand-in |
/// |--------|----------------|-----------------|
/// | `MiniKraken4` | MiniKraken 4 GB | 32 taxa × 8 kb |
/// | `MiniKraken8` | MiniKraken 8 GB | 64 taxa × 8 kb |
/// | `NcbiBacteria` | 2,785 genomes, 6.24 GB | 48 taxa × 8 kb |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReferencePreset {
    /// Stand-in for the MiniKraken 4 GB database.
    MiniKraken4,
    /// Stand-in for the MiniKraken 8 GB database.
    MiniKraken8,
    /// Stand-in for the NCBI Bacteria reference genomes.
    NcbiBacteria,
}

impl ReferencePreset {
    /// `(taxa, genome_len)` for this preset at scale 1.
    #[must_use]
    pub fn dimensions(self) -> (usize, usize) {
        match self {
            Self::MiniKraken4 => (32, 8192),
            Self::MiniKraken8 => (64, 8192),
            Self::NcbiBacteria => (48, 8192),
        }
    }

    /// Short label used in workload names (`4`, `8`, `BG`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::MiniKraken4 => "4",
            Self::MiniKraken8 => "8",
            Self::NcbiBacteria => "BG",
        }
    }
}

/// The query-file presets of Table II, scaled down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryPreset {
    /// `HiSeq_Accuracy.fa`: 10^4 sequences × 92 bases.
    HiSeqAccuracy,
    /// `MiSeq_Accuracy.fa`: 10^4 sequences × 157 bases.
    MiSeqAccuracy,
    /// `simBA5_Accuracy.fa`: 10^4 sequences × 100 bases.
    SimBa5Accuracy,
    /// `HiSeq_Timing.fa`: 10^8 sequences × 92 bases.
    HiSeqTiming,
    /// `MiSeq_Timing.fa`: 10^8 sequences × 157 bases.
    MiSeqTiming,
    /// `simBA5_Timing.fa`: 10^8 sequences × 100 bases.
    SimBa5Timing,
}

impl QueryPreset {
    /// All six presets, in Table II order.
    pub const ALL: [QueryPreset; 6] = [
        QueryPreset::HiSeqAccuracy,
        QueryPreset::MiSeqAccuracy,
        QueryPreset::SimBa5Accuracy,
        QueryPreset::HiSeqTiming,
        QueryPreset::MiSeqTiming,
        QueryPreset::SimBa5Timing,
    ];

    /// `(paper sequence count, read length)`.
    #[must_use]
    pub fn paper_dimensions(self) -> (u64, usize) {
        match self {
            Self::HiSeqAccuracy => (10_000, 92),
            Self::MiSeqAccuracy => (10_000, 157),
            Self::SimBa5Accuracy => (10_000, 100),
            Self::HiSeqTiming => (100_000_000, 92),
            Self::MiSeqTiming => (100_000_000, 157),
            Self::SimBa5Timing => (100_000_000, 100),
        }
    }

    /// The Table II file-name stem.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::HiSeqAccuracy => "HiSeq_Accuracy.fa",
            Self::MiSeqAccuracy => "MiSeq_Accuracy.fa",
            Self::SimBa5Accuracy => "simBA5_Accuracy.fa",
            Self::HiSeqTiming => "HiSeq_Timing.fa",
            Self::MiSeqTiming => "MiSeq_Timing.fa",
            Self::SimBa5Timing => "simBA5_Timing.fa",
        }
    }

    /// Short label used in workload names (`HA`, `MT`, …).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::HiSeqAccuracy => "HA",
            Self::MiSeqAccuracy => "MA",
            Self::SimBa5Accuracy => "SA",
            Self::HiSeqTiming => "HT",
            Self::MiSeqTiming => "MT",
            Self::SimBa5Timing => "ST",
        }
    }

    /// Sequence count after dividing the paper's count by `scale_divisor`
    /// (minimum 64 so small scales still exercise batching).
    #[must_use]
    pub fn scaled_count(self, scale_divisor: u64) -> usize {
        let (n, _) = self.paper_dimensions();
        (n / scale_divisor.max(1)).max(64) as usize
    }
}

/// A fully built synthetic dataset: taxonomy, genomes, and the sorted
/// reference entry list.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The taxonomy tree (genus → species structure).
    pub taxonomy: Taxonomy,
    /// Labelled genomes.
    pub genomes: Vec<(TaxonId, DnaSequence)>,
    /// Sorted, deduplicated reference k-mer entries.
    pub entries: Vec<(Kmer, TaxonId)>,
    /// The k used.
    pub k: usize,
}

/// Builds a synthetic reference dataset of `taxa` genomes of `genome_len`
/// bases with k-mer length `k` ([`ReferencePreset::dimensions`] gives the
/// presets' dimensions).
///
/// Genomes are grouped into genera of four species; species within a genus
/// are 3 %-mutated copies of a genus ancestor, so LCA-based classification
/// has real structure to find.
///
/// # Panics
///
/// Panics if `taxa` is 0 or `k` is outside `1..=32` (checked by the entry
/// builder).
#[must_use]
pub fn make_dataset_with(taxa: usize, genome_len: usize, k: usize, seed: u64) -> SyntheticDataset {
    assert!(taxa > 0, "need at least one taxon");
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut taxonomy = Taxonomy::new();
    let mut genomes = Vec::with_capacity(taxa);
    let genera = taxa.div_ceil(4);
    for g in 0..genera {
        let genus = taxonomy
            .add_child(TaxonId::ROOT, format!("genus-{g}"))
            .expect("root exists");
        let ancestor = random_genome(genome_len, &mut rng);
        for s in 0..4 {
            if genomes.len() == taxa {
                break;
            }
            let species = taxonomy
                .add_child(genus, format!("species-{g}-{s}"))
                .expect("genus exists");
            let genome = corrupt(&ancestor, 0.03, 0.0, &mut rng);
            genomes.push((species, genome));
        }
    }
    let entries = build_entries(
        &genomes,
        DbOptions {
            k,
            ..DbOptions::default()
        },
        Some(&taxonomy),
    )
    .expect("k validated by caller");
    SyntheticDataset {
        taxonomy,
        genomes,
        entries,
        k,
    }
}

/// Read-simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadSimConfig {
    /// Read length in bases.
    pub read_len: usize,
    /// Fraction of reads sampled from reference genomes (the rest are
    /// random — organisms absent from the database).
    pub from_reference: f64,
    /// Per-base substitution error rate for sampled reads.
    pub error_rate: f64,
    /// Per-base probability of an `N` call in a sampled read. Novel reads
    /// never carry an `N`.
    pub n_rate: f64,
}

impl Default for ReadSimConfig {
    fn default() -> Self {
        // These rates land the ~1 % k-mer hit rate the paper reports for
        // real metagenomic samples (most reads are novel; sampled reads
        // carry errors that break most 31-mers).
        Self {
            read_len: 100,
            from_reference: 0.02,
            error_rate: 0.02,
            n_rate: 0.001,
        }
    }
}

/// Simulates a set of reads against `dataset`'s genomes.
///
/// Each read is sampled from a genome with probability
/// `config.from_reference`, and then carries substitutions at
/// `config.error_rate` and `N` calls at `config.n_rate` per base; every
/// other read is novel: uniformly random `ACGT` bases, with neither.
/// Returns `(reads, true_taxa)` where `true_taxa[i]` is `Some(taxon)` for
/// reads sampled from a genome and `None` for random (novel) reads.
///
/// # Panics
///
/// Panics if `read_len` exceeds every genome length or `count == 0`.
#[must_use]
pub fn simulate_reads(
    dataset: &SyntheticDataset,
    config: ReadSimConfig,
    count: usize,
    seed: u64,
) -> (Vec<DnaSequence>, Vec<Option<TaxonId>>) {
    assert!(count > 0, "need at least one read");
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut reads = Vec::with_capacity(count);
    let mut truth = Vec::with_capacity(count);
    for _ in 0..count {
        if rng.chance(config.from_reference) {
            let (taxon, genome) =
                &dataset.genomes[rng.below(dataset.genomes.len() as u64) as usize];
            assert!(
                genome.len() >= config.read_len,
                "read length {} exceeds genome length {}",
                config.read_len,
                genome.len()
            );
            let start = rng.below((genome.len() - config.read_len + 1) as u64) as usize;
            let window = genome.slice(start, config.read_len);
            reads.push(corrupt(&window, config.error_rate, config.n_rate, &mut rng));
            truth.push(Some(*taxon));
        } else {
            reads.push(random_genome(config.read_len, &mut rng));
            truth.push(None);
        }
    }
    (reads, truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{KmerDatabase, SortedDb};

    #[test]
    fn generation_is_deterministic() {
        let (taxa, len) = ReferencePreset::MiniKraken4.dimensions();
        let a = make_dataset_with(taxa, len, 11, 42);
        let b = make_dataset_with(taxa, len, 11, 42);
        assert_eq!(a.entries, b.entries);
        let c = make_dataset_with(taxa, len, 11, 43);
        assert_ne!(a.entries, c.entries);
    }

    #[test]
    fn presets_have_expected_shape() {
        let ds = make_dataset_with(8, 2048, 15, 7);
        assert_eq!(ds.genomes.len(), 8);
        assert!(ds.entries.len() > 8_000, "got {}", ds.entries.len());
        // Genus structure: 8 species → 2 genera → taxonomy has
        // 1 root + 2 genera + 8 species.
        assert_eq!(ds.taxonomy.len(), 11);
    }

    #[test]
    fn species_in_genus_share_kmers() {
        // 3 % mutation leaves many shared k-mers, which must be labelled
        // with the genus (LCA), not a species.
        let ds = make_dataset_with(4, 2048, 9, 11);
        let genus_labelled = ds
            .entries
            .iter()
            .filter(|(_, t)| ds.taxonomy.depth(*t).unwrap() == 1)
            .count();
        assert!(genus_labelled > 0, "no LCA-labelled k-mers");
    }

    #[test]
    fn read_truth_tracks_origin() {
        let ds = make_dataset_with(4, 1024, 13, 3);
        let (reads, truth) = simulate_reads(
            &ds,
            ReadSimConfig {
                read_len: 80,
                from_reference: 1.0,
                error_rate: 0.0,
                n_rate: 0.0,
            },
            50,
            9,
        );
        assert_eq!(reads.len(), 50);
        assert!(truth.iter().all(Option::is_some));
        // Error-free sampled reads: every k-mer hits the database.
        let db = SortedDb::from_entries(ds.entries.clone(), 13);
        for read in &reads {
            for (_, kmer) in read.kmers(13) {
                assert!(db.get(kmer).is_some());
            }
        }
    }

    #[test]
    fn default_config_gives_low_hit_rate() {
        let ds = make_dataset_with(16, 4096, 31, 5);
        let (reads, _) = simulate_reads(&ds, ReadSimConfig::default(), 300, 6);
        let db = SortedDb::from_entries(ds.entries.clone(), 31);
        let mut hits = 0u64;
        let mut total = 0u64;
        for read in &reads {
            for (_, kmer) in read.kmers(31) {
                total += 1;
                if db.get(kmer).is_some() {
                    hits += 1;
                }
            }
        }
        let rate = hits as f64 / total as f64;
        assert!(
            rate > 0.001 && rate < 0.12,
            "hit rate {rate} outside the paper's low-hit-rate regime"
        );
    }

    #[test]
    fn query_presets_scale() {
        assert_eq!(QueryPreset::HiSeqTiming.scaled_count(1_000_000), 100);
        assert_eq!(QueryPreset::HiSeqAccuracy.scaled_count(1), 10_000);
        // Floor kicks in.
        assert_eq!(QueryPreset::HiSeqAccuracy.scaled_count(u64::MAX), 64);
    }

    #[test]
    fn corrupt_preserves_length() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let g = random_genome(500, &mut rng);
        let c = corrupt(&g, 0.5, 0.01, &mut rng);
        assert_eq!(c.len(), g.len());
        assert_ne!(c, g);
    }

    #[test]
    fn labels_cover_fig13_axis() {
        // Workload naming used across Figures 13–15: kernel.query.size.
        assert_eq!(QueryPreset::HiSeqAccuracy.label(), "HA");
        assert_eq!(ReferencePreset::NcbiBacteria.label(), "BG");
    }
}
