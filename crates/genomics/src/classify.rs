//! Sequence classification from k-mer hits.
//!
//! Mirrors the two strategies the paper's workloads use (Figure 3): CLARK
//! keeps a per-taxon hit counter and picks the majority; Kraken maps hits
//! onto the taxonomy and scores root-to-leaf paths.

use std::collections::HashMap;

use crate::db::KmerDatabase;
use crate::error::GenomicsError;
use crate::sequence::DnaSequence;
use crate::taxonomy::{TaxonId, Taxonomy};

/// The outcome of classifying one read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    /// The assigned taxon, or `None` if no k-mer hit the database.
    pub taxon: Option<TaxonId>,
    /// Number of query k-mers that hit the database.
    pub hit_kmers: usize,
    /// Total query k-mers examined.
    pub total_kmers: usize,
    /// Hits per taxon (the histogram of Figure 3, step 3).
    pub histogram: Vec<(TaxonId, usize)>,
}

/// Builds the per-taxon hit histogram for a read.
fn histogram<D: KmerDatabase>(db: &D, read: &DnaSequence) -> (Vec<(TaxonId, usize)>, usize, usize) {
    let mut counts: HashMap<TaxonId, usize> = HashMap::new();
    let mut hits = 0;
    let mut total = 0;
    for (_, kmer) in read.kmers(db.k()) {
        total += 1;
        if let Some(taxon) = db.get(kmer) {
            hits += 1;
            *counts.entry(taxon).or_insert(0) += 1;
        }
    }
    let mut hist: Vec<(TaxonId, usize)> = counts.into_iter().collect();
    // Deterministic order: by count descending, then taxon id.
    hist.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    (hist, hits, total)
}

/// CLARK-style classifier: the taxon with the most k-mer hits wins.
///
/// # Example
///
/// ```
/// use sieve_genomics::{classify::ClarkClassifier, db::{HashDb, KmerDatabase},
///                      TaxonId, Kmer, DnaSequence};
///
/// let entries = vec![("ACG".parse::<Kmer>()?, TaxonId(5))];
/// let db = HashDb::from_entries(&entries, 3);
/// let read: DnaSequence = "TACGT".parse()?;
/// let result = ClarkClassifier::new(&db).classify(&read);
/// assert_eq!(result.taxon, Some(TaxonId(5)));
/// # Ok::<(), sieve_genomics::GenomicsError>(())
/// ```
#[derive(Debug)]
pub struct ClarkClassifier<'a, D> {
    db: &'a D,
}

impl<'a, D: KmerDatabase> ClarkClassifier<'a, D> {
    /// Creates a classifier over `db`.
    #[must_use]
    pub fn new(db: &'a D) -> Self {
        Self { db }
    }

    /// Classifies one read by majority vote.
    #[must_use]
    pub fn classify(&self, read: &DnaSequence) -> Classification {
        let (hist, hits, total) = histogram(self.db, read);
        Classification {
            taxon: hist.first().map(|(t, _)| *t),
            hit_kmers: hits,
            total_kmers: total,
            histogram: hist,
        }
    }
}

/// Kraken-style classifier: hits are weights on taxonomy nodes; the leaf
/// maximizing the summed weight of its root-to-leaf path wins.
#[derive(Debug)]
pub struct KrakenClassifier<'a, D> {
    db: &'a D,
    taxonomy: &'a Taxonomy,
}

impl<'a, D: KmerDatabase> KrakenClassifier<'a, D> {
    /// Creates a classifier over `db` with taxonomy `taxonomy`.
    #[must_use]
    pub fn new(db: &'a D, taxonomy: &'a Taxonomy) -> Self {
        Self { db, taxonomy }
    }

    /// Classifies one read by maximum root-to-leaf path weight.
    ///
    /// # Errors
    ///
    /// Returns [`GenomicsError::UnknownTaxon`] if the database contains a
    /// taxon missing from the taxonomy.
    pub fn classify(&self, read: &DnaSequence) -> Result<Classification, GenomicsError> {
        let (hist, hits, total) = histogram(self.db, read);
        if hist.is_empty() {
            return Ok(Classification {
                taxon: None,
                hit_kmers: hits,
                total_kmers: total,
                histogram: hist,
            });
        }
        // Score each hit taxon by the weight of its root-to-leaf path
        // (every hit on an ancestor supports the descendant).
        let weights: HashMap<TaxonId, usize> = hist.iter().copied().collect();
        let mut best: Option<(usize, TaxonId)> = None;
        for &(candidate, _) in &hist {
            let path = self.taxonomy.path_to_root(candidate)?;
            let score: usize = path.iter().filter_map(|t| weights.get(t)).sum();
            let better = match best {
                None => true,
                Some((best_score, best_taxon)) => {
                    score > best_score || (score == best_score && candidate < best_taxon)
                }
            };
            if better {
                best = Some((score, candidate));
            }
        }
        Ok(Classification {
            taxon: best.map(|(_, t)| t),
            hit_kmers: hits,
            total_kmers: total,
            histogram: hist,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::HashDb;
    use crate::kmer::Kmer;

    fn kmer(s: &str) -> Kmer {
        s.parse().unwrap()
    }

    #[test]
    fn clark_majority_wins() {
        let entries = vec![
            (kmer("ACG"), TaxonId(1)),
            (kmer("CGT"), TaxonId(1)),
            (kmer("GTA"), TaxonId(2)),
        ];
        let db = HashDb::from_entries(&entries, 3);
        let read: DnaSequence = "ACGTA".parse().unwrap();
        let c = ClarkClassifier::new(&db).classify(&read);
        assert_eq!(c.taxon, Some(TaxonId(1)));
        assert_eq!(c.hit_kmers, 3);
        assert_eq!(c.total_kmers, 3);
        assert_eq!(c.histogram[0], (TaxonId(1), 2));
    }

    #[test]
    fn no_hits_gives_none() {
        let db = HashDb::from_entries(&[], 3);
        let read: DnaSequence = "ACGTA".parse().unwrap();
        let c = ClarkClassifier::new(&db).classify(&read);
        assert_eq!(c.taxon, None);
        assert_eq!(c.hit_kmers, 0);
    }

    #[test]
    fn tie_breaks_to_smaller_taxon() {
        let entries = vec![(kmer("ACG"), TaxonId(9)), (kmer("CGT"), TaxonId(2))];
        let db = HashDb::from_entries(&entries, 3);
        let read: DnaSequence = "ACGT".parse().unwrap();
        let c = ClarkClassifier::new(&db).classify(&read);
        assert_eq!(c.taxon, Some(TaxonId(2)));
    }

    #[test]
    fn kraken_ancestor_hits_support_leaf() {
        let mut tax = Taxonomy::new();
        let genus = tax.add_child(TaxonId::ROOT, "g").unwrap();
        let sp1 = tax.add_child(genus, "s1").unwrap();
        let sp2 = tax.add_child(genus, "s2").unwrap();
        // Two hits on the genus + one on sp1: sp1's path scores 3,
        // sp2's path scores 2, genus scores 2.
        let entries = vec![
            (kmer("ACG"), genus),
            (kmer("CGT"), genus),
            (kmer("GTA"), sp1),
        ];
        let db = HashDb::from_entries(&entries, 3);
        let read: DnaSequence = "ACGTA".parse().unwrap();
        let c = KrakenClassifier::new(&db, &tax).classify(&read).unwrap();
        assert_eq!(c.taxon, Some(sp1));
        let _ = sp2;
    }

    #[test]
    fn kraken_no_hits_gives_none() {
        let tax = Taxonomy::new();
        let db = HashDb::from_entries(&[], 3);
        let read: DnaSequence = "ACGTA".parse().unwrap();
        let c = KrakenClassifier::new(&db, &tax).classify(&read).unwrap();
        assert_eq!(c.taxon, None);
    }

    #[test]
    fn kraken_unknown_taxon_errors() {
        let tax = Taxonomy::new(); // only root
        let entries = vec![(kmer("ACG"), TaxonId(42))];
        let db = HashDb::from_entries(&entries, 3);
        let read: DnaSequence = "ACG".parse().unwrap();
        assert!(KrakenClassifier::new(&db, &tax).classify(&read).is_err());
    }
}
