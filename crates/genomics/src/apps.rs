//! Instrumented mini-pipelines for the six applications of Figure 1.
//!
//! Each pipeline performs real (scaled-down) work and reports wall-clock
//! time per stage, reproducing the paper's observation that k-mer matching
//! dominates end-to-end runtime. Stage names follow Figure 1's legend.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::db::{HashDb, HybridDb, KmerDatabase, SortedDb};
use crate::sequence::DnaSequence;
use crate::synth::SyntheticDataset;
use crate::taxonomy::TaxonId;

/// The applications profiled in Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Kraken: hybrid signature-bucket database + taxonomy-tree scoring.
    Kraken,
    /// CLARK: hash-table database + per-read classification tables.
    Clark,
    /// stringMLST: hash lookups + read filtering.
    StringMlst,
    /// PhyMer: haplogroup scoring over k-mer hits.
    Phymer,
    /// LMAT: hash lookups + taxonomy walk.
    Lmat,
    /// BLASTN: k-mer seeding + word extension + verification.
    Blastn,
}

impl AppKind {
    /// All six apps in Figure 1 order.
    pub const ALL: [AppKind; 6] = [
        AppKind::Kraken,
        AppKind::Clark,
        AppKind::StringMlst,
        AppKind::Phymer,
        AppKind::Lmat,
        AppKind::Blastn,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Kraken => "Kraken",
            AppKind::Clark => "CLARK",
            AppKind::StringMlst => "stringMLST",
            AppKind::Phymer => "Phymer",
            AppKind::Lmat => "LMAT",
            AppKind::Blastn => "BLASTN",
        }
    }
}

/// Pipeline stages, matching Figure 1's legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Looking up query k-mers in the reference database.
    KmerMatching,
    /// Building per-read pruned taxonomy trees (Kraken/LMAT).
    BuildTaxonomyTrees,
    /// Building per-read classification tables (CLARK).
    BuildClassificationTable,
    /// Extending word hits (BLASTN).
    WordExtendingHits,
    /// Updating per-read state (CLARK).
    UpdateReads,
    /// Filtering reads by hit coverage (stringMLST).
    ReadsFiltering,
    /// Final per-read classification decision.
    Classification,
    /// Verifying candidate alignments (BLASTN).
    Verification,
    /// Everything else (parsing, bookkeeping).
    Other,
}

impl Stage {
    /// Display name matching Figure 1's legend.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::KmerMatching => "K-mer Matching",
            Stage::BuildTaxonomyTrees => "Build Taxonomy Trees",
            Stage::BuildClassificationTable => "Build Classification Table",
            Stage::WordExtendingHits => "Word Extending Hits",
            Stage::UpdateReads => "Update Reads",
            Stage::ReadsFiltering => "Reads Filtering",
            Stage::Classification => "Classification",
            Stage::Verification => "Verification",
            Stage::Other => "Other",
        }
    }
}

/// A profiled run of one application.
#[derive(Debug, Clone)]
pub struct AppProfile {
    /// Which application ran.
    pub app: AppKind,
    /// Wall-clock time per stage.
    pub stages: Vec<(Stage, Duration)>,
    /// Reads classified (for sanity checks).
    pub reads_classified: usize,
}

impl AppProfile {
    /// Total time across stages.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|(_, d)| *d).sum()
    }

    /// Fraction of total time in `stage`, in `[0, 1]`.
    #[must_use]
    pub fn fraction(&self, stage: Stage) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        self.stages
            .iter()
            .filter(|(s, _)| *s == stage)
            .map(|(_, d)| d.as_secs_f64())
            .sum::<f64>()
            / total
    }
}

/// Profiles `app` over `reads` against `dataset`, returning per-stage times.
///
/// # Panics
///
/// Panics if the dataset's taxonomy is inconsistent with its entries
/// (cannot happen for datasets built by [`crate::synth::make_dataset_with`]).
#[must_use]
pub fn profile_app(app: AppKind, dataset: &SyntheticDataset, reads: &[DnaSequence]) -> AppProfile {
    match app {
        AppKind::Kraken => profile_kraken(dataset, reads),
        AppKind::Clark => profile_clark(dataset, reads),
        AppKind::StringMlst => profile_stringmlst(dataset, reads),
        AppKind::Phymer => profile_phymer(dataset, reads),
        AppKind::Lmat => profile_lmat(dataset, reads),
        AppKind::Blastn => profile_blastn(dataset, reads),
    }
}

/// The "Other" stage: real input parsing work (serialize + reparse the
/// reads as FASTA, as the apps' readers do). Database construction is NOT
/// included — it is offline in every app, and Figure 1 shows online time.
fn parse_stage(reads: &[DnaSequence]) -> Duration {
    let records: Vec<crate::fasta::FastaRecord> = reads
        .iter()
        .enumerate()
        .map(|(i, seq)| crate::fasta::FastaRecord {
            id: format!("read-{i}"),
            sequence: seq.clone(),
        })
        .collect();
    let text = crate::fasta::write(&records);
    let start = Instant::now();
    let parsed = crate::fasta::parse(&text).expect("round-trip parse");
    assert_eq!(parsed.len(), reads.len());
    start.elapsed()
}

/// Collects the k-mer hits of each read, timed as the matching stage.
fn match_stage<D: KmerDatabase>(db: &D, reads: &[DnaSequence]) -> (Vec<Vec<TaxonId>>, Duration) {
    let start = Instant::now();
    let mut all_hits = Vec::with_capacity(reads.len());
    for read in reads {
        let mut hits = Vec::new();
        for (_, kmer) in read.kmers(db.k()) {
            if let Some(taxon) = db.get(kmer) {
                hits.push(taxon);
            }
        }
        all_hits.push(hits);
    }
    (all_hits, start.elapsed())
}

fn profile_kraken(dataset: &SyntheticDataset, reads: &[DnaSequence]) -> AppProfile {
    let db = HybridDb::from_entries(&dataset.entries, dataset.k);
    let other = parse_stage(reads);

    let (all_hits, matching) = match_stage(&db, reads);

    // Build per-read pruned taxonomy trees (hit-weight maps over ancestry).
    let t1 = Instant::now();
    let mut trees: Vec<HashMap<TaxonId, usize>> = Vec::with_capacity(reads.len());
    for hits in &all_hits {
        let mut weights: HashMap<TaxonId, usize> = HashMap::new();
        for &taxon in hits {
            for node in dataset.taxonomy.path_to_root(taxon).expect("valid taxon") {
                *weights.entry(node).or_insert(0) += 1;
            }
        }
        trees.push(weights);
    }
    let build_trees = t1.elapsed();

    // Classification: max root-to-leaf weight over the per-read tree.
    let t2 = Instant::now();
    let mut classified = 0;
    for (hits, weights) in all_hits.iter().zip(&trees) {
        let best = hits
            .iter()
            .map(|taxon| {
                let score: usize = dataset
                    .taxonomy
                    .path_to_root(*taxon)
                    .expect("valid taxon")
                    .iter()
                    .filter_map(|n| weights.get(n))
                    .sum();
                (score, *taxon)
            })
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        if best.is_some() {
            classified += 1;
        }
    }
    let classification = t2.elapsed();

    AppProfile {
        app: AppKind::Kraken,
        stages: vec![
            (Stage::KmerMatching, matching),
            (Stage::BuildTaxonomyTrees, build_trees),
            (Stage::Classification, classification),
            (Stage::Other, other),
        ],
        reads_classified: classified,
    }
}

fn profile_clark(dataset: &SyntheticDataset, reads: &[DnaSequence]) -> AppProfile {
    let db = HashDb::from_entries(&dataset.entries, dataset.k);
    let other = parse_stage(reads);

    let (all_hits, matching) = match_stage(&db, reads);

    // Build per-read classification tables (taxon → count).
    let t1 = Instant::now();
    let mut tables: Vec<HashMap<TaxonId, usize>> = Vec::with_capacity(reads.len());
    for hits in &all_hits {
        let mut table: HashMap<TaxonId, usize> = HashMap::new();
        for &t in hits {
            *table.entry(t).or_insert(0) += 1;
        }
        tables.push(table);
    }
    let build_table = t1.elapsed();

    // Update reads: record the best assignment back onto each read.
    let t2 = Instant::now();
    let mut classified = 0;
    let mut assignments = Vec::with_capacity(reads.len());
    for table in &tables {
        let best = table
            .iter()
            .max_by_key(|(t, c)| (**c, std::cmp::Reverse(t.0)))
            .map(|(t, _)| *t);
        if best.is_some() {
            classified += 1;
        }
        assignments.push(best);
    }
    let update = t2.elapsed();
    let _ = assignments;

    AppProfile {
        app: AppKind::Clark,
        stages: vec![
            (Stage::KmerMatching, matching),
            (Stage::BuildClassificationTable, build_table),
            (Stage::UpdateReads, update),
            (Stage::Other, other),
        ],
        reads_classified: classified,
    }
}

fn profile_stringmlst(dataset: &SyntheticDataset, reads: &[DnaSequence]) -> AppProfile {
    let db = HashDb::from_entries(&dataset.entries, dataset.k);
    let other = parse_stage(reads);

    let (all_hits, matching) = match_stage(&db, reads);

    // Reads filtering: keep reads whose hit coverage clears a threshold.
    let t1 = Instant::now();
    let mut kept = 0;
    for (read, hits) in reads.iter().zip(&all_hits) {
        let total = read.kmer_count(dataset.k).max(1);
        if hits.len() * 10 >= total {
            kept += 1;
        }
    }
    let filtering = t1.elapsed();

    AppProfile {
        app: AppKind::StringMlst,
        stages: vec![
            (Stage::KmerMatching, matching),
            (Stage::ReadsFiltering, filtering),
            (Stage::Other, other),
        ],
        reads_classified: kept,
    }
}

fn profile_phymer(dataset: &SyntheticDataset, reads: &[DnaSequence]) -> AppProfile {
    let db = SortedDb::from_entries(dataset.entries.clone(), dataset.k);
    let other = parse_stage(reads);

    let (all_hits, matching) = match_stage(&db, reads);

    // Classification: majority vote per read (haplogroup scoring).
    let t1 = Instant::now();
    let mut classified = 0;
    for hits in &all_hits {
        let mut counts: HashMap<TaxonId, usize> = HashMap::new();
        for &t in hits {
            *counts.entry(t).or_insert(0) += 1;
        }
        if counts
            .iter()
            .max_by_key(|(t, c)| (**c, std::cmp::Reverse(t.0)))
            .is_some()
        {
            classified += 1;
        }
    }
    let classification = t1.elapsed();

    AppProfile {
        app: AppKind::Phymer,
        stages: vec![
            (Stage::KmerMatching, matching),
            (Stage::Classification, classification),
            (Stage::Other, other),
        ],
        reads_classified: classified,
    }
}

fn profile_lmat(dataset: &SyntheticDataset, reads: &[DnaSequence]) -> AppProfile {
    let db = HashDb::from_entries(&dataset.entries, dataset.k);
    let other = parse_stage(reads);

    let (all_hits, matching) = match_stage(&db, reads);

    // Taxonomy walk per hit (LMAT's per-hit LCA bookkeeping).
    let t1 = Instant::now();
    let mut classified = 0;
    for hits in &all_hits {
        let mut current: Option<TaxonId> = None;
        for &t in hits {
            current = Some(match current {
                None => t,
                Some(prev) => dataset.taxonomy.lca(prev, t).expect("valid taxa"),
            });
        }
        if current.is_some() {
            classified += 1;
        }
    }
    let walk = t1.elapsed();

    AppProfile {
        app: AppKind::Lmat,
        stages: vec![
            (Stage::KmerMatching, matching),
            (Stage::BuildTaxonomyTrees, walk),
            (Stage::Other, other),
        ],
        reads_classified: classified,
    }
}

fn profile_blastn(dataset: &SyntheticDataset, reads: &[DnaSequence]) -> AppProfile {
    let db = HashDb::from_entries(&dataset.entries, dataset.k);
    // Offline seed index: k-mer bits → (genome, position), as BLAST builds
    // word-position lists when formatting the database.
    let mut seed_index: HashMap<u64, (usize, usize)> = HashMap::new();
    for (gi, (_, genome)) in dataset.genomes.iter().enumerate() {
        for (pos, kmer) in genome.kmers(dataset.k) {
            seed_index.entry(kmer.bits()).or_insert((gi, pos));
        }
    }
    let other = parse_stage(reads);

    let start = Instant::now();
    let mut seed_hits: Vec<(usize, usize, u64)> = Vec::new(); // (read, offset, kmer bits)
    for (ri, read) in reads.iter().enumerate() {
        for (off, kmer) in read.kmers(dataset.k) {
            if db.get(kmer).is_some() {
                seed_hits.push((ri, off, kmer.bits()));
            }
        }
    }
    let matching = start.elapsed();

    // Word extension: extend each seed rightward against the source genome.
    let t1 = Instant::now();
    let mut extended = 0usize;
    for &(ri, off, bits) in &seed_hits {
        if let Some(&(gi, gpos)) = seed_index.get(&bits) {
            let read_bytes = reads[ri].as_bytes();
            let gen_bytes = dataset.genomes[gi].1.as_bytes();
            let mut len = dataset.k;
            while off + len < read_bytes.len()
                && gpos + len < gen_bytes.len()
                && read_bytes[off + len] == gen_bytes[gpos + len]
            {
                len += 1;
            }
            extended += len;
        }
    }
    let extension = t1.elapsed();

    // Verification: score the extended candidates.
    let t2 = Instant::now();
    let classified = seed_hits
        .iter()
        .map(|(ri, ..)| *ri)
        .collect::<std::collections::HashSet<_>>()
        .len();
    let verification = t2.elapsed();
    let _ = extended;

    AppProfile {
        app: AppKind::Blastn,
        stages: vec![
            (Stage::KmerMatching, matching),
            (Stage::WordExtendingHits, extension),
            (Stage::Verification, verification),
            (Stage::Other, other),
        ],
        reads_classified: classified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{make_dataset_with, simulate_reads, ReadSimConfig};

    fn setup() -> (SyntheticDataset, Vec<DnaSequence>) {
        let ds = make_dataset_with(8, 2048, 15, 21);
        let (reads, _) = simulate_reads(
            &ds,
            ReadSimConfig {
                read_len: 92,
                from_reference: 0.5,
                error_rate: 0.01,
                n_rate: 0.001,
            },
            200,
            22,
        );
        (ds, reads)
    }

    #[test]
    fn every_app_profiles_and_sums() {
        let (ds, reads) = setup();
        for app in AppKind::ALL {
            let p = profile_app(app, &ds, &reads);
            assert_eq!(p.app, app);
            assert!(p.total() > Duration::ZERO, "{:?} total is zero", app);
            let covered: f64 = p.stages.iter().map(|(s, _)| p.fraction(*s)).sum();
            assert!(
                (covered - 1.0).abs() < 1e-9,
                "{:?} fractions {covered}",
                app
            );
        }
    }

    #[test]
    fn kmer_matching_dominates() {
        // The Figure-1 claim: matching is the largest stage in every app.
        // One run times each stage once, so one preemption can decide
        // it: compare each stage's fastest time over several runs.
        let (ds, reads) = setup();
        for app in AppKind::ALL {
            let runs: Vec<AppProfile> = (0..5).map(|_| profile_app(app, &ds, &reads)).collect();
            let fastest = |stage: Stage| {
                runs.iter()
                    .map(|p| {
                        p.stages
                            .iter()
                            .filter(|(s, _)| *s == stage)
                            .map(|(_, d)| *d)
                            .sum::<Duration>()
                    })
                    .min()
                    .expect("five runs")
            };
            let matching = fastest(Stage::KmerMatching);
            for (stage, _) in &runs[0].stages {
                if *stage != Stage::KmerMatching {
                    assert!(
                        matching >= fastest(*stage),
                        "{:?}: {} ({matching:?}) not dominant over {:?} ({:?})",
                        app,
                        Stage::KmerMatching.name(),
                        stage,
                        fastest(*stage)
                    );
                }
            }
        }
    }

    #[test]
    fn sampled_reads_get_classified() {
        let (ds, reads) = setup();
        let p = profile_app(AppKind::Clark, &ds, &reads);
        // Half the reads came from reference genomes; most should classify.
        assert!(
            p.reads_classified > reads.len() / 4,
            "only {} of {} classified",
            p.reads_classified,
            reads.len()
        );
    }

    #[test]
    fn stage_names_match_figure_1_legend() {
        assert_eq!(Stage::KmerMatching.name(), "K-mer Matching");
        assert_eq!(Stage::WordExtendingHits.name(), "Word Extending Hits");
        assert_eq!(AppKind::StringMlst.name(), "stringMLST");
    }
}
