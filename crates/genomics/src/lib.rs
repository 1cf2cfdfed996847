//! # sieve-genomics
//!
//! The genomics substrate for the [Sieve] reproduction (ISCA 2021): the
//! paper accelerates **k-mer matching** — looking up fixed-length DNA
//! subsequences in a reference database — so this crate provides everything
//! upstream and downstream of the accelerator:
//!
//! * [`Base`] / [`Kmer`] / [`DnaSequence`] — the paper's 2-bit encoding
//!   (`A:00, C:01, T:10, G:11`), packed 64-bit k-mers whose integer order is
//!   lexicographic (the property Sieve's subarray index exploits), and
//!   sequences with `N`-aware k-mer extraction;
//! * [`fasta`] / [`fastq`] — minimal readers/writers for the paper's file
//!   formats;
//! * [`Taxonomy`] / [`TaxonId`] — the taxon labels Sieve stores as payloads,
//!   with LCA queries for Kraken-style databases;
//! * [`db`] — the three reference-database organizations of §II
//!   (hash table, sorted list, Kraken-style signature-bucket hybrid);
//! * [`synth`] — seeded synthetic stand-ins for the paper's datasets
//!   (Table II query files, MiniKraken/NCBI references), all drawn from
//!   [`rng::Xoshiro256pp`];
//! * [`classify`] — CLARK-style majority and Kraken-style path-weight
//!   classification (Figure 3);
//! * [`apps`] — the six instrumented pipelines of Figure 1.
//!
//! ## Example
//!
//! ```
//! use sieve_genomics::{synth, db::{SortedDb, KmerDatabase}};
//!
//! let dataset = synth::make_dataset_with(4, 1024, 31, 42);
//! let db = SortedDb::from_entries(dataset.entries.clone(), 31);
//! let (reads, _) = synth::simulate_reads(
//!     &dataset, synth::ReadSimConfig::default(), 10, 7);
//! let hits: usize = reads
//!     .iter()
//!     .flat_map(|r| r.kmers(31))
//!     .filter(|(_, kmer)| db.get(*kmer).is_some())
//!     .count();
//! println!("{hits} k-mer hits");
//! ```
//!
//! [Sieve]: https://doi.org/10.1109/ISCA52012.2021.00022

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps;
mod base;
pub mod classify;
pub mod counting;
pub mod db;
mod error;
pub mod fasta;
pub mod fastq;
mod kmer;
pub mod rng;
mod sequence;
pub mod stats;
pub mod synth;
mod taxonomy;

pub use base::Base;
pub use error::GenomicsError;
pub use kmer::{canonical_bits, revcomp_bits, Kmer, MAX_K};
pub use sequence::{DnaSequence, Kmers};
pub use taxonomy::{TaxonId, Taxonomy};
