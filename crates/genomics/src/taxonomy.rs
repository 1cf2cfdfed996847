//! Taxon identifiers and a rooted taxonomy tree with LCA queries.
//!
//! Kraken-style classifiers place each reference k-mer at the lowest common
//! ancestor (LCA) of all genomes containing it, then classify a read by
//! walking the taxonomy with the per-taxon hit weights. This module provides
//! the tree and LCA machinery.

use std::fmt;

use crate::error::GenomicsError;

/// A taxon label — the payload Sieve stores per reference k-mer
/// (Region 3 of a subarray).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaxonId(pub u32);

impl TaxonId {
    /// The root of every taxonomy.
    pub const ROOT: TaxonId = TaxonId(0);
}

impl fmt::Display for TaxonId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "taxon:{}", self.0)
    }
}

/// A rooted taxonomy tree. Node 0 is always the root.
///
/// # Example
///
/// ```
/// use sieve_genomics::{Taxonomy, TaxonId};
///
/// let mut tax = Taxonomy::new();
/// let bacteria = tax.add_child(TaxonId::ROOT, "Bacteria")?;
/// let ecoli = tax.add_child(bacteria, "E. coli")?;
/// let salmonella = tax.add_child(bacteria, "Salmonella")?;
/// assert_eq!(tax.lca(ecoli, salmonella)?, bacteria);
/// # Ok::<(), sieve_genomics::GenomicsError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Taxonomy {
    parent: Vec<u32>,
    depth: Vec<u32>,
    names: Vec<String>,
}

impl Taxonomy {
    /// A taxonomy containing only the root.
    #[must_use]
    pub fn new() -> Self {
        Self {
            parent: vec![0],
            depth: vec![0],
            names: vec!["root".to_string()],
        }
    }

    /// Number of taxa, including the root.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether only the root exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Adds a child of `parent` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`GenomicsError::UnknownTaxon`] if `parent` does not exist.
    pub fn add_child(
        &mut self,
        parent: TaxonId,
        name: impl Into<String>,
    ) -> Result<TaxonId, GenomicsError> {
        self.check(parent)?;
        let id = TaxonId(self.parent.len() as u32);
        self.parent.push(parent.0);
        self.depth.push(self.depth[parent.0 as usize] + 1);
        self.names.push(name.into());
        Ok(id)
    }

    /// The name of `taxon`.
    ///
    /// # Errors
    ///
    /// Returns [`GenomicsError::UnknownTaxon`] if the taxon does not exist.
    pub fn name(&self, taxon: TaxonId) -> Result<&str, GenomicsError> {
        self.check(taxon)?;
        Ok(&self.names[taxon.0 as usize])
    }

    /// Depth of `taxon` (root = 0).
    ///
    /// # Errors
    ///
    /// Returns [`GenomicsError::UnknownTaxon`] if the taxon does not exist.
    pub fn depth(&self, taxon: TaxonId) -> Result<u32, GenomicsError> {
        self.check(taxon)?;
        Ok(self.depth[taxon.0 as usize])
    }

    /// Lowest common ancestor of two taxa.
    ///
    /// # Errors
    ///
    /// Returns [`GenomicsError::UnknownTaxon`] if either taxon is missing.
    pub fn lca(&self, a: TaxonId, b: TaxonId) -> Result<TaxonId, GenomicsError> {
        self.check(a)?;
        self.check(b)?;
        let (mut x, mut y) = (a.0 as usize, b.0 as usize);
        while self.depth[x] > self.depth[y] {
            x = self.parent[x] as usize;
        }
        while self.depth[y] > self.depth[x] {
            y = self.parent[y] as usize;
        }
        while x != y {
            x = self.parent[x] as usize;
            y = self.parent[y] as usize;
        }
        Ok(TaxonId(x as u32))
    }

    /// Path from `taxon` up to (and including) the root.
    ///
    /// # Errors
    ///
    /// Returns [`GenomicsError::UnknownTaxon`] if the taxon does not exist.
    pub fn path_to_root(&self, taxon: TaxonId) -> Result<Vec<TaxonId>, GenomicsError> {
        self.check(taxon)?;
        let mut path = vec![taxon];
        let mut cur = taxon.0 as usize;
        while cur != 0 {
            cur = self.parent[cur] as usize;
            path.push(TaxonId(cur as u32));
        }
        Ok(path)
    }

    /// `Ok` if `taxon` exists.
    pub(crate) fn check(&self, taxon: TaxonId) -> Result<(), GenomicsError> {
        if (taxon.0 as usize) < self.len() {
            Ok(())
        } else {
            Err(GenomicsError::UnknownTaxon { taxon: taxon.0 })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Taxonomy, TaxonId, TaxonId, TaxonId, TaxonId) {
        let mut t = Taxonomy::new();
        let bact = t.add_child(TaxonId::ROOT, "Bacteria").unwrap();
        let entero = t.add_child(bact, "Enterobacteriaceae").unwrap();
        let ecoli = t.add_child(entero, "E. coli").unwrap();
        let salm = t.add_child(entero, "Salmonella").unwrap();
        (t, bact, entero, ecoli, salm)
    }

    #[test]
    fn lca_of_siblings_is_parent() {
        let (t, _, entero, ecoli, salm) = sample();
        assert_eq!(t.lca(ecoli, salm).unwrap(), entero);
    }

    #[test]
    fn lca_with_ancestor_is_ancestor() {
        let (t, bact, _, ecoli, _) = sample();
        assert_eq!(t.lca(ecoli, bact).unwrap(), bact);
        assert_eq!(t.lca(bact, ecoli).unwrap(), bact);
    }

    #[test]
    fn lca_with_self_is_self() {
        let (t, _, _, ecoli, _) = sample();
        assert_eq!(t.lca(ecoli, ecoli).unwrap(), ecoli);
    }

    #[test]
    fn lca_with_root() {
        let (t, _, _, ecoli, _) = sample();
        assert_eq!(t.lca(ecoli, TaxonId::ROOT).unwrap(), TaxonId::ROOT);
    }

    #[test]
    fn path_to_root_walks_ancestry() {
        let (t, bact, entero, ecoli, _) = sample();
        assert_eq!(
            t.path_to_root(ecoli).unwrap(),
            vec![ecoli, entero, bact, TaxonId::ROOT]
        );
    }

    #[test]
    fn unknown_taxon_is_error() {
        let (t, ..) = sample();
        assert!(t.lca(TaxonId(99), TaxonId::ROOT).is_err());
        assert!(t.name(TaxonId(99)).is_err());
    }

    #[test]
    fn depth_and_names() {
        let (t, bact, entero, ecoli, _) = sample();
        assert_eq!(t.depth(TaxonId::ROOT).unwrap(), 0);
        assert_eq!(t.depth(bact).unwrap(), 1);
        assert_eq!(t.depth(entero).unwrap(), 2);
        assert_eq!(t.name(ecoli).unwrap(), "E. coli");
    }

    #[test]
    fn display_taxon() {
        assert_eq!(TaxonId(7).to_string(), "taxon:7");
    }
}
