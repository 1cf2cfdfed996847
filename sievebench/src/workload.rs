//! The five workloads: what each one generates from the seed, how its
//! device is set up, the software oracle it is checked against, and the
//! one public-API call it times.

use std::time::Instant;

use sieve_core::{trace, HostPipeline, PipelineOutput, ReadResult, SieveConfig, SieveDevice};
use sieve_dram::Geometry;
use sieve_genomics::classify::ClarkClassifier;
use sieve_genomics::db::{self, DbOptions, SortedDb};
use sieve_genomics::fastq::{self, FastqRecord};
use sieve_genomics::synth::{self, ReadSimConfig, SyntheticDataset};
use sieve_genomics::DnaSequence;

const K: usize = 31;
/// Keeps the reference's occupied-subarray count the same for every seed:
/// 16 taxa give ~104k k-mers, mid-way through the 15-subarray band of
/// 7,168 references each. At 8,192 bp the count straddles 15/16 and flips
/// between seeds, and with it the streams' peak heap by 14%.
const GENOME_LEN: usize = 7950;
const READ_LEN: usize = 100;

/// Which public entry point a call goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `classify_reads` on the whole sample.
    Batch,
    /// `classify_stream` in ten chunks.
    Stream,
    /// `fastq::parse` of the sample's FASTQ text, then `classify_stream`.
    FastqStream,
}

/// One workload. Each changes one axis of `mg_batch`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// Reference taxa, each a 7,950 bp genome.
    pub taxa: usize,
    pub reads: usize,
    /// Error-free reads sampled from the reference (every k-mer hits)
    /// instead of the metagenomic mix of `ReadSimConfig::default()` (~1%
    /// of k-mers hit).
    pub from_reference: bool,
    /// Type-1 design point instead of T3.8SA.
    pub type1: bool,
    pub path: Path,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "mg_batch",
        taxa: 16,
        reads: 10_000,
        from_reference: false,
        type1: false,
        path: Path::Batch,
    },
    Spec {
        name: "mg_fastq_stream",
        taxa: 16,
        reads: 10_000,
        from_reference: false,
        type1: false,
        path: Path::FastqStream,
    },
    Spec {
        name: "hot_stream",
        taxa: 16,
        reads: 10_000,
        from_reference: true,
        type1: false,
        path: Path::Stream,
    },
    Spec {
        name: "large_ref",
        taxa: 128,
        reads: 10_000,
        from_reference: false,
        type1: false,
        path: Path::Batch,
    },
    Spec {
        name: "t1_batch",
        taxa: 16,
        reads: 1_000,
        from_reference: false,
        type1: true,
        path: Path::Batch,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    /// Streams run in ten chunks: 1,000 reads at full size.
    pub fn chunk_reads(&self) -> usize {
        (self.reads / 10).max(1)
    }

    pub fn config(&self) -> SieveConfig {
        let base = if self.type1 {
            SieveConfig::type1()
        } else {
            SieveConfig::type3(8)
        };
        base.with_geometry(Geometry::scaled_medium())
            .with_threads(1)
    }

    /// No `N` calls, so every read yields exactly 70 k-mers and every
    /// stream chunk the same count. With `N`s, chunk sizes vary, and
    /// whether a later chunk outgrows the scratch buffers the first one
    /// sized changes the streams' peak heap by 14% from seed to seed.
    fn read_config(&self) -> ReadSimConfig {
        let base = ReadSimConfig {
            read_len: READ_LEN,
            n_rate: 0.0,
            ..ReadSimConfig::default()
        };
        if self.from_reference {
            ReadSimConfig {
                from_reference: 1.0,
                error_rate: 0.0,
                ..base
            }
        } else {
            base
        }
    }
}

/// Everything a workload generates from the seed, before any timing.
pub struct Inputs {
    pub dataset: SyntheticDataset,
    pub reads: Vec<DnaSequence>,
    /// The reads as FASTQ text (`FastqStream` only).
    pub fastq: Option<String>,
}

impl Inputs {
    /// Reference seed `1000 + seed`, read seed `1001 + seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let dataset = synth::make_dataset_with(spec.taxa, GENOME_LEN, K, 1000 + seed);
        let (reads, _) =
            synth::simulate_reads(&dataset, spec.read_config(), spec.reads, 1001 + seed);
        let fastq = (spec.path == Path::FastqStream).then(|| {
            let records: Vec<FastqRecord> = reads
                .iter()
                .enumerate()
                .map(|(i, r)| FastqRecord {
                    id: format!("read{i}"),
                    sequence: r.clone(),
                    quality: "I".repeat(r.len()),
                })
                .collect();
            fastq::write(&records)
        });
        Inputs {
            dataset,
            reads,
            fastq,
        }
    }

    pub fn bases(&self) -> usize {
        self.reads.iter().map(DnaSequence::len).sum()
    }

    /// The expected result of every read: CLARK's majority vote over a
    /// sorted software database. Ties go to the lowest taxon id in both
    /// CLARK and the device's vote, so the comparison is exact.
    pub fn oracle(&self) -> Vec<ReadResult> {
        let db = SortedDb::from_entries(self.dataset.entries.clone(), K);
        let clark = ClarkClassifier::new(&db);
        self.reads
            .iter()
            .map(|read| {
                let c = clark.classify(read);
                ReadResult {
                    taxon: c.taxon,
                    hit_kmers: c.hit_kmers,
                    total_kmers: c.total_kmers,
                }
            })
            .collect()
    }
}

/// One timed set-up: the database build, then the device load.
pub struct SetupTimes {
    pub build_s: f64,
    pub load_s: f64,
}

/// Builds the reference database from the genomes and loads it into a
/// device. Fails if the build does not reproduce the generator's entries.
pub fn set_up(spec: &Spec, inputs: &Inputs) -> Result<(HostPipeline, SetupTimes), String> {
    let ds = &inputs.dataset;
    let options = DbOptions {
        k: K,
        ..DbOptions::default()
    };
    let t0 = Instant::now();
    let entries =
        db::build_entries(&ds.genomes, options, Some(&ds.taxonomy)).map_err(|e| e.to_string())?;
    let build_s = t0.elapsed().as_secs_f64();
    if entries != ds.entries {
        return Err(format!("{}: database build is not reproducible", spec.name));
    }
    let t1 = Instant::now();
    let device = SieveDevice::new(spec.config(), entries).map_err(|e| e.to_string())?;
    let host = HostPipeline::new(device);
    let load_s = t1.elapsed().as_secs_f64();
    Ok((host, SetupTimes { build_s, load_s }))
}

/// The timed call: one sample through the workload's entry point.
pub fn call(spec: &Spec, inputs: &Inputs, host: &HostPipeline) -> Result<PipelineOutput, String> {
    match spec.path {
        Path::Batch => host
            .classify_reads(&inputs.reads)
            .map_err(|e| e.to_string()),
        Path::Stream => host
            .classify_stream(&inputs.reads, spec.chunk_reads())
            .map_err(|e| e.to_string()),
        Path::FastqStream => {
            let reads = parse(inputs)?;
            host.classify_stream(&reads, spec.chunk_reads())
                .map_err(|e| e.to_string())
        }
    }
}

/// Parses the sample's FASTQ text into reads, under the benchmark's
/// `fastq.parse` span (a single relaxed load while tracing is off).
pub fn parse(inputs: &Inputs) -> Result<Vec<DnaSequence>, String> {
    let _span = trace::span("fastq.parse");
    let text = inputs
        .fastq
        .as_deref()
        .ok_or("workload has no FASTQ text")?;
    let records = fastq::parse(text).map_err(|e| e.to_string())?;
    Ok(records.into_iter().map(|r| r.sequence).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_by_seed() {
        let spec = Spec {
            taxa: 2,
            reads: 30,
            ..SPECS[1]
        };
        let a = Inputs::generate(&spec, 7);
        let b = Inputs::generate(&spec, 7);
        let c = Inputs::generate(&spec, 8);
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.fastq, b.fastq);
        assert_eq!(a.dataset.entries, b.dataset.entries);
        assert_ne!(a.reads, c.reads);
        assert_ne!(a.dataset.entries, c.dataset.entries);
    }

    #[test]
    fn fastq_text_parses_back_to_the_reads() {
        let _globals = crate::lock_globals();
        let spec = Spec {
            taxa: 1,
            reads: 20,
            ..SPECS[1]
        };
        let inputs = Inputs::generate(&spec, 1);
        assert_eq!(parse(&inputs), Ok(inputs.reads.clone()));
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        for spec in SPECS {
            assert_eq!(Spec::by_name(spec.name), Some(spec));
        }
        assert_eq!(Spec::by_name("nope"), None);
    }
}
