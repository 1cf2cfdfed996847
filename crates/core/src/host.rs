//! The host-side pipeline (§IV-E): read scanning, k-mer generation,
//! dispatch to the device, and post-processing of responses into per-read
//! classifications.
//!
//! The paper pipelines pre-processing (k-mer generation, PCIe transfer) and
//! post-processing (payload accumulation, classification) on the CPU with
//! k-mer matching on Sieve, and finds Sieve is the pipeline's limiting
//! stage; the host model therefore reports the device's makespan as the
//! end-to-end time and tracks the host stages for sanity.
//!
//! The *simulator's* host work runs its stages one after another: k-mer
//! extraction fans out over read chunks and the device's match pass over
//! ranges of the batch, and `classify_stream` extracts, runs and votes
//! each chunk in turn. Batches, streams and read pairs record the same
//! counters and open the same `host.*` spans. The modeled overlap is the
//! device makespan the report carries, not a wall-clock property of the
//! simulator.

use sieve_genomics::{pack, DnaSequence, Kmer, TaxonId};

use crate::device::SieveDevice;
use crate::error::SieveError;
use crate::obs;
use crate::par;
use crate::prof;
use crate::stats::SimReport;
use crate::trace;

/// Below this many reads, extraction fan-out costs more than it saves.
const PARALLEL_EXTRACT_READS: usize = 128;

/// Bytes extraction writes per k-mer: the packed `Kmer` and its `u32`
/// owner tag (the `host.extract` traffic charge).
const KMER_RECORD_BYTES: u64 = (std::mem::size_of::<Kmer>() + std::mem::size_of::<u32>()) as u64;

/// Per-read classification assembled from device responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadResult {
    /// Majority taxon over the read's k-mer hits, if any hit.
    pub taxon: Option<TaxonId>,
    /// K-mer hits for the read.
    pub hit_kmers: usize,
    /// K-mers the read produced.
    pub total_kmers: usize,
}

/// Output of a host-pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Per-read classifications, in input order.
    pub reads: Vec<ReadResult>,
    /// The device's simulation report.
    pub report: SimReport,
}

/// The host pipeline wrapping a loaded device.
///
/// # Example
///
/// ```
/// use sieve_core::{HostPipeline, SieveConfig, SieveDevice};
/// use sieve_dram::Geometry;
/// use sieve_genomics::synth;
///
/// let ds = synth::make_dataset_with(4, 2048, 31, 1);
/// let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
/// let device = SieveDevice::new(config, ds.entries.clone())?;
/// let host = HostPipeline::new(device);
/// let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 20, 3);
/// let out = host.classify_reads(&reads)?;
/// assert_eq!(out.reads.len(), 20);
/// # Ok::<(), sieve_core::SieveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HostPipeline {
    device: SieveDevice,
}

impl HostPipeline {
    /// Wraps a loaded device.
    #[must_use]
    pub fn new(device: SieveDevice) -> Self {
        Self { device }
    }

    /// The wrapped device.
    #[must_use]
    pub fn device(&self) -> &SieveDevice {
        &self.device
    }

    /// Extracts every valid k-mer from `reads`, tagged with its read index.
    #[must_use]
    pub fn extract_kmers(&self, reads: &[DnaSequence]) -> (Vec<Kmer>, Vec<u32>) {
        let mut kmers = Vec::new();
        let mut owners = Vec::new();
        self.extract_kmers_into(reads, &mut kmers, &mut owners);
        (kmers, owners)
    }

    /// Appends `reads`' k-mers and owner tags into caller-owned buffers,
    /// reserving exact worst-case capacity up front (windows containing
    /// `N` are skipped, so the reservation is an upper bound).
    ///
    /// Large batches fan the extraction out over contiguous read chunks;
    /// concatenating per-chunk output in chunk order reproduces the
    /// serial read-by-read order exactly, so the result is independent of
    /// the thread count.
    fn extract_kmers_into(
        &self,
        reads: &[DnaSequence],
        kmers: &mut Vec<Kmer>,
        owners: &mut Vec<u32>,
    ) {
        let k = self.device.config().k;
        let upper: usize = reads.iter().map(|r| (r.len() + 1).saturating_sub(k)).sum();
        kmers.reserve(upper);
        owners.reserve(upper);
        // Extraction traffic: one byte per scanned base in, one packed
        // k-mer plus its owner tag out — pure functions of the reads, so
        // the charge is identical for every thread count.
        let before = kmers.len();
        let base_bytes: u64 = if prof::active() {
            reads.iter().map(|r| r.len() as u64).sum()
        } else {
            0
        };
        let threads = par::effective_threads(self.device.config().threads);
        if threads == 1 || reads.len() < PARALLEL_EXTRACT_READS {
            let mut scratch = pack::Extractor::new();
            extract_reads(reads, 0, k, &mut scratch, kmers, owners);
            let produced = (kmers.len() - before) as u64;
            prof::record(
                prof::Phase::HostExtract,
                base_bytes,
                produced * KMER_RECORD_BYTES,
                produced,
            );
            return;
        }
        // A few chunks per worker smooths out read-length imbalance.
        let chunk = reads.len().div_ceil(threads * 4).max(16);
        let n_chunks = reads.len().div_ceil(chunk);
        let parts: Vec<(Vec<Kmer>, Vec<u32>)> = par::map_indexed(threads, n_chunks, |c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(reads.len());
            let cap: usize = reads[lo..hi]
                .iter()
                .map(|r| (r.len() + 1).saturating_sub(k))
                .sum();
            let mut chunk_kmers = Vec::with_capacity(cap);
            let mut chunk_owners = Vec::with_capacity(cap);
            let mut scratch = pack::Extractor::new();
            extract_reads(
                &reads[lo..hi],
                lo as u32,
                k,
                &mut scratch,
                &mut chunk_kmers,
                &mut chunk_owners,
            );
            (chunk_kmers, chunk_owners)
        });
        for (chunk_kmers, chunk_owners) in parts {
            kmers.extend_from_slice(&chunk_kmers);
            owners.extend_from_slice(&chunk_owners);
        }
        let produced = (kmers.len() - before) as u64;
        prof::record(
            prof::Phase::HostExtract,
            base_bytes,
            produced * KMER_RECORD_BYTES,
            produced,
        );
    }

    /// Classifies reads end to end: k-mer generation → device run →
    /// per-read majority vote (Figure 2's loop).
    ///
    /// # Errors
    ///
    /// Propagates device errors (k mismatch).
    pub fn classify_reads(&self, reads: &[DnaSequence]) -> Result<PipelineOutput, SieveError> {
        obs::global().add(obs::CounterId::HostReads, reads.len() as u64);
        let (kmers, owners) = {
            let _wall = trace::span("host.extract");
            self.extract_kmers(reads)
        };
        self.run_batch(reads.len(), &kmers, &owners)
    }

    /// Runs one extracted batch on the device and votes its `n_reads`
    /// reads, under the `host.device` and `host.vote` spans. A batch run
    /// is one maximal chunk; recording it as such keeps batch and
    /// streaming snapshots comparable.
    fn run_batch(
        &self,
        n_reads: usize,
        kmers: &[Kmer],
        owners: &[u32],
    ) -> Result<PipelineOutput, SieveError> {
        let rec = obs::global();
        rec.add(obs::CounterId::HostChunks, 1);
        rec.add(obs::CounterId::HostKmers, kmers.len() as u64);
        rec.record(obs::HistId::ChunkKmers, kmers.len() as u64);
        let run = {
            let _wall = trace::span("host.device");
            self.device.run(kmers)?
        };
        let _wall = trace::span("host.vote");
        Ok(PipelineOutput {
            reads: vote_reads(n_reads, owners, &run.results),
            report: run.report,
        })
    }

    /// Streaming classification: processes `reads` in chunks of
    /// `chunk_reads`, bounding host-side memory (k-mer buffers, response
    /// queues) the way a real driver drains the RRQ. Chunks execute back
    /// to back on the *modeled* device, so the merged report's makespan
    /// is the sum. Each chunk is extracted, run and voted before the
    /// next, with the k-mer and owner buffers reused across chunks so the
    /// steady state allocates nothing on the host side. Results, reports,
    /// and deterministic observations are bit-identical for every chunk
    /// size and thread count.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] for `chunk_reads == 0`, and
    /// propagates device errors (k mismatch).
    pub fn classify_stream(
        &self,
        reads: &[DnaSequence],
        chunk_reads: usize,
    ) -> Result<PipelineOutput, SieveError> {
        if chunk_reads == 0 {
            return Err(SieveError::InvalidConfig {
                field: "chunk_reads",
                reason: "need a positive chunk size".to_string(),
            });
        }
        let rec = obs::global();
        rec.add(obs::CounterId::HostReads, reads.len() as u64);
        let mut all_reads = Vec::with_capacity(reads.len());
        let mut merged: Option<SimReport> = None;
        let mut kmers = Vec::new();
        let mut owners = Vec::new();
        for chunk in reads.chunks(chunk_reads) {
            let _wall = trace::span("host.chunk");
            kmers.clear();
            owners.clear();
            {
                let _wall = trace::span("host.extract");
                self.extract_kmers_into(chunk, &mut kmers, &mut owners);
            }
            rec.add(obs::CounterId::HostChunks, 1);
            rec.add(obs::CounterId::HostKmers, kmers.len() as u64);
            rec.record(obs::HistId::ChunkKmers, kmers.len() as u64);
            let run = {
                let _wall = trace::span("host.device");
                self.device.run(&kmers)?
            };
            {
                let _wall = trace::span("host.vote");
                all_reads.extend(vote_reads(chunk.len(), &owners, &run.results));
            }
            match &mut merged {
                None => merged = Some(run.report),
                Some(m) => m.accumulate(&run.report),
            }
        }
        let report = match merged {
            Some(report) => report,
            // No reads: synthesize an empty report via an empty run.
            None => self.device.run(&[])?.report,
        };
        Ok(PipelineOutput {
            reads: all_reads,
            report,
        })
    }

    /// Classifies paired-end reads: mate 2 is reverse-complemented onto
    /// the forward strand and both mates' k-mers vote in a single per-pair
    /// histogram — the standard paired-end treatment in Kraken-family
    /// tools. Records what [`Self::classify_reads`] records, each mate
    /// counting as a read, under the same spans.
    ///
    /// # Errors
    ///
    /// Propagates device errors (k mismatch).
    pub fn classify_pairs(
        &self,
        pairs: &[(DnaSequence, DnaSequence)],
    ) -> Result<PipelineOutput, SieveError> {
        obs::global().add(obs::CounterId::HostReads, 2 * pairs.len() as u64);
        let (kmers, owners) = {
            let _wall = trace::span("host.extract");
            self.extract_pairs(pairs)
        };
        self.run_batch(pairs.len(), &kmers, &owners)
    }

    /// Extracts both mates' k-mers of every pair, tagged with the pair's
    /// index, mate 2 reverse-complemented onto the forward strand.
    fn extract_pairs(&self, pairs: &[(DnaSequence, DnaSequence)]) -> (Vec<Kmer>, Vec<u32>) {
        let k = self.device.config().k;
        let upper: usize = pairs
            .iter()
            .map(|(m1, m2)| (m1.len() + 1).saturating_sub(k) + (m2.len() + 1).saturating_sub(k))
            .sum();
        let mut kmers = Vec::with_capacity(upper);
        let mut owners = Vec::with_capacity(upper);
        let mut scratch = pack::Extractor::new();
        for (ri, (m1, m2)) in pairs.iter().enumerate() {
            let ri = ri as u32;
            extract_reads(
                std::slice::from_ref(m1),
                ri,
                k,
                &mut scratch,
                &mut kmers,
                &mut owners,
            );
            let rc = m2.reverse_complement();
            extract_reads(
                std::slice::from_ref(&rc),
                ri,
                k,
                &mut scratch,
                &mut kmers,
                &mut owners,
            );
        }
        // The same charge as extract_kmers_into's: every mate's bases in,
        // one record per k-mer out.
        let base_bytes: u64 = if prof::active() {
            pairs
                .iter()
                .map(|(m1, m2)| (m1.len() + m2.len()) as u64)
                .sum()
        } else {
            0
        };
        let produced = kmers.len() as u64;
        prof::record(
            prof::Phase::HostExtract,
            base_bytes,
            produced * KMER_RECORD_BYTES,
            produced,
        );
        (kmers, owners)
    }
}

/// Appends the k-mers of `reads` — owner tags starting at `first_owner` —
/// through the SWAR extractor: each read is packed to 2 bits per base and
/// its windows come out 32 per `u64` ([`pack::Extractor`], reusing
/// `scratch` across the whole slice). The rolling per-base iterator
/// ([`DnaSequence::kmers`]) is its scalar reference;
/// `tests/kernel_equivalence.rs` proves the two streams identical.
fn extract_reads(
    reads: &[DnaSequence],
    first_owner: u32,
    k: usize,
    scratch: &mut pack::Extractor,
    kmers: &mut Vec<Kmer>,
    owners: &mut Vec<u32>,
) {
    for (ri, read) in reads.iter().enumerate() {
        let n = scratch.extract_forward_into(read, k, kmers);
        owners.resize(owners.len() + n, first_owner + ri as u32);
    }
}

/// Majority vote over each read's k-mer responses.
///
/// Responses arrive out of order in hardware; sequence ids let the host
/// accumulate them per read — order does not matter for the vote, which
/// is why the paper needs no reorder buffer. Here `owners` is
/// non-decreasing (k-mers are generated read by read), so each read's
/// responses form one contiguous run: the hit taxa of a run are gathered
/// into a reused scratch buffer, sorted, and the winner read off the
/// longest streak by the branchless counter `majority_swar` — most
/// votes, ties to the lowest taxon id, exactly the rule the per-read
/// `HashMap` histograms applied, without any per-read allocation.
///
/// Public so benches can drive the vote kernel directly.
///
/// # Panics
///
/// Debug builds panic if `owners` and `results` disagree in length or
/// `owners` is not non-decreasing.
#[must_use]
pub fn vote_reads(n_reads: usize, owners: &[u32], results: &[Option<TaxonId>]) -> Vec<ReadResult> {
    vote_with(n_reads, owners, results, majority_swar)
}

/// [`vote_reads`] with the streak counter as a parameter, so the twin
/// tests can run the scalar reference through the same gather.
fn vote_with(
    n_reads: usize,
    owners: &[u32],
    results: &[Option<TaxonId>],
    majority: impl Fn(&[TaxonId]) -> Option<(usize, TaxonId)>,
) -> Vec<ReadResult> {
    debug_assert_eq!(owners.len(), results.len());
    debug_assert!(owners.windows(2).all(|w| w[0] <= w[1]));
    let mut out = Vec::with_capacity(n_reads);
    let mut scratch: Vec<TaxonId> = Vec::new();
    let mut pos = 0usize;
    for ri in 0..n_reads {
        let start = pos;
        while pos < owners.len() && owners[pos] as usize == ri {
            pos += 1;
        }
        scratch.clear();
        scratch.extend(results[start..pos].iter().flatten());
        scratch.sort_unstable();
        let best = majority(&scratch);
        out.push(ReadResult {
            taxon: best.map(|(_, taxon)| taxon),
            hit_kmers: scratch.len(),
            total_kmers: pos - start,
        });
    }
    out
}

/// The scalar majority reference: scan for streak boundaries, compare
/// streak lengths at each boundary.
#[cfg(test)]
fn majority_scalar(sorted: &[TaxonId]) -> Option<(usize, TaxonId)> {
    let mut best: Option<(usize, TaxonId)> = None;
    let mut run_start = 0usize;
    for j in 0..sorted.len() {
        if j + 1 == sorted.len() || sorted[j + 1] != sorted[j] {
            let count = j + 1 - run_start;
            // Streaks come out in ascending taxon order, so a strict
            // comparison implements "ties to the lowest taxon".
            if best.is_none_or(|(c, _)| count > c) {
                best = Some((count, sorted[j]));
            }
            run_start = j + 1;
        }
    }
    best
}

/// The branchless majority counter: every element updates a run counter
/// and the running best through conditional moves — no streak-boundary
/// branch for the predictor to miss on hit-dense reads. Ties still
/// resolve to the lowest taxon: runs arrive in ascending order and only a
/// strictly longer run displaces the best.
fn majority_swar(sorted: &[TaxonId]) -> Option<(usize, TaxonId)> {
    let first = *sorted.first()?;
    let mut prev = first;
    let mut run = 0usize;
    let mut best_count = 0usize;
    let mut best_taxon = first;
    for &t in sorted {
        let same = t == prev;
        run = if same { run + 1 } else { 1 };
        let better = run > best_count;
        best_count = if better { run } else { best_count };
        best_taxon = if better { t } else { best_taxon };
        prev = t;
    }
    Some((best_count, best_taxon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SieveConfig;
    use proptest::prelude::*;
    use sieve_dram::Geometry;
    use sieve_genomics::synth;

    fn pipeline() -> (synth::SyntheticDataset, HostPipeline) {
        let ds = synth::make_dataset_with(8, 2048, 31, 55);
        let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
        let device = SieveDevice::new(config, ds.entries.clone()).unwrap();
        (ds, HostPipeline::new(device))
    }

    #[test]
    fn classification_matches_software_clark() {
        let (ds, host) = pipeline();
        let (reads, _) = synth::simulate_reads(
            &ds,
            synth::ReadSimConfig {
                read_len: 100,
                from_reference: 0.6,
                error_rate: 0.01,
                n_rate: 0.001,
            },
            40,
            8,
        );
        let out = host.classify_reads(&reads).unwrap();
        // Compare against the software classifier over the same DB.
        let db = sieve_genomics::db::SortedDb::from_entries(ds.entries.clone(), 31);
        let clark = sieve_genomics::classify::ClarkClassifier::new(&db);
        for (read, result) in reads.iter().zip(&out.reads) {
            let sw = clark.classify(read);
            assert_eq!(result.hit_kmers, sw.hit_kmers, "hit count differs");
            assert_eq!(result.total_kmers, sw.total_kmers);
            // Majority taxon must agree when there is a unique maximum.
            if let Some(top) = sw.histogram.first() {
                let unique = sw.histogram.len() == 1 || sw.histogram[1].1 < top.1;
                if unique {
                    assert_eq!(result.taxon, Some(top.0));
                }
            }
        }
    }

    #[test]
    fn error_free_reads_classify_to_origin() {
        let (ds, host) = pipeline();
        let (reads, truth) = synth::simulate_reads(
            &ds,
            synth::ReadSimConfig {
                read_len: 120,
                from_reference: 1.0,
                error_rate: 0.0,
                n_rate: 0.0,
            },
            30,
            99,
        );
        let out = host.classify_reads(&reads).unwrap();
        let mut correct = 0;
        for (result, t) in out.reads.iter().zip(&truth) {
            // Every k-mer hits, so the read classifies; the winner is the
            // origin species or (for conserved regions) its genus.
            assert!(result.taxon.is_some());
            assert_eq!(result.hit_kmers, result.total_kmers);
            if result.taxon == *t {
                correct += 1;
            }
        }
        assert!(
            correct >= 20,
            "only {correct}/30 reads recovered their origin"
        );
    }

    #[test]
    fn streaming_matches_batch_classification() {
        let (ds, host) = pipeline();
        let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 50, 23);
        let batch = host.classify_reads(&reads).unwrap();
        for chunk in [1usize, 7, 50, 1000] {
            let streamed = host.classify_stream(&reads, chunk).unwrap();
            assert_eq!(streamed.reads, batch.reads, "chunk {chunk}");
            assert_eq!(streamed.report.queries, batch.report.queries);
            assert_eq!(streamed.report.hits, batch.report.hits);
            // Sequential chunks can only take longer than one big batch
            // (less cross-read packing into 64-query device batches).
            assert!(streamed.report.makespan_ps >= batch.report.makespan_ps);
        }
    }

    #[test]
    fn stream_is_identical_across_thread_counts() {
        // threads=4 fans extraction and matching out within each chunk;
        // output and report must be bit-identical to threads=1.
        let ds = synth::make_dataset_with(8, 2048, 31, 55);
        let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 40, 11);
        let host_for = |threads: usize| {
            let config = SieveConfig::type3(8)
                .with_geometry(Geometry::scaled_medium())
                .with_threads(threads);
            HostPipeline::new(SieveDevice::new(config, ds.entries.clone()).unwrap())
        };
        let one = host_for(1);
        let four = host_for(4);
        for chunk in [1usize, 7, 40] {
            let a = one.classify_stream(&reads, chunk).unwrap();
            let b = four.classify_stream(&reads, chunk).unwrap();
            assert_eq!(a.reads, b.reads, "chunk {chunk}");
            assert_eq!(a.report, b.report, "chunk {chunk}");
        }
    }

    #[test]
    fn zero_chunk_stream_is_a_typed_error() {
        let (ds, host) = pipeline();
        let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 5, 3);
        for reads in [&reads[..], &[]] {
            match host.classify_stream(reads, 0) {
                Err(SieveError::InvalidConfig { field, .. }) => assert_eq!(field, "chunk_reads"),
                other => panic!("expected a chunk_reads error, got {other:?}"),
            }
        }
    }

    #[test]
    fn paired_classification_beats_single_end() {
        let (ds, host) = pipeline();
        let config = synth::ReadSimConfig {
            read_len: 80,
            from_reference: 1.0,
            error_rate: 0.02,
            n_rate: 0.0,
        };
        let (pairs, truth) = synth::simulate_paired_reads(&ds, config, 300, 40, 17);
        let paired = host.classify_pairs(&pairs).unwrap();
        // Single-end: mate 1 only.
        let singles: Vec<_> = pairs.iter().map(|(m1, _)| m1.clone()).collect();
        let single = host.classify_reads(&singles).unwrap();
        let correct = |out: &crate::host::PipelineOutput| {
            out.reads
                .iter()
                .zip(&truth)
                .filter(|(r, t)| r.taxon.is_some() && r.taxon == **t)
                .count()
        };
        // Two mates double the evidence: never worse, usually better.
        assert!(correct(&paired) >= correct(&single));
        // And the paired histogram covers both mates' k-mers.
        assert!(
            paired.reads[0].total_kmers > single.reads[0].total_kmers,
            "pairs must contribute more k-mers"
        );
    }

    #[test]
    fn kmer_extraction_counts() {
        let (_, host) = pipeline();
        let reads: Vec<DnaSequence> = vec!["A".repeat(92).parse().unwrap()];
        let (kmers, owners) = host.extract_kmers(&reads);
        assert_eq!(kmers.len(), 92 - 31 + 1);
        assert!(owners.iter().all(|&o| o == 0));
    }

    #[test]
    fn report_propagates() {
        let (ds, host) = pipeline();
        let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 10, 3);
        let out = host.classify_reads(&reads).unwrap();
        assert!(out.report.queries > 0);
        assert!(out.report.makespan_ps > 0);
    }

    /// Builds a non-decreasing `owners` run plus per-k-mer outcomes from a
    /// seed: taxon ids are drawn from a small range so ties are common.
    fn vote_inputs(n_reads: usize, seed: u64) -> (Vec<u32>, Vec<Option<TaxonId>>) {
        let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(7);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut owners = Vec::new();
        let mut results = Vec::new();
        for ri in 0..n_reads {
            for _ in 0..(next() % 7) {
                owners.push(ri as u32);
                let r = next();
                results.push((r % 3 != 0).then_some(TaxonId((r >> 8) as u32 % 5)));
            }
        }
        (owners, results)
    }

    #[test]
    fn vote_twins_agree_over_seeded_runs() {
        for seed in 0..200u64 {
            let n_reads = (seed as usize % 9) + 1;
            let (owners, results) = vote_inputs(n_reads, seed);
            assert_eq!(
                vote_with(n_reads, &owners, &results, majority_scalar),
                vote_reads(n_reads, &owners, &results),
                "vote diverged at seed {seed}"
            );
        }
    }

    #[test]
    fn vote_ties_resolve_to_lowest_taxon_in_both_kernels() {
        // Two-way tie (2 vs 1): both counters must pick taxon 1, and a
        // read with no hits must stay unclassified.
        let owners = vec![0, 0, 0, 0, 1];
        let results = vec![
            Some(TaxonId(2)),
            Some(TaxonId(1)),
            Some(TaxonId(2)),
            Some(TaxonId(1)),
            None,
        ];
        for majority in [majority_scalar, majority_swar] {
            let out = vote_with(2, &owners, &results, majority);
            assert_eq!(out[0].taxon, Some(TaxonId(1)));
            assert_eq!(out[0].hit_kmers, 4);
            assert_eq!(out[0].total_kmers, 4);
            assert_eq!(out[1].taxon, None);
            assert_eq!(out[1].total_kmers, 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Random vote inputs: run lengths, misses, and heavy taxon ties.
        #[test]
        fn prop_vote_twins_agree(n_reads in 1usize..12, seed in any::<u64>()) {
            let (owners, results) = vote_inputs(n_reads, seed);
            prop_assert_eq!(
                vote_with(n_reads, &owners, &results, majority_scalar),
                vote_reads(n_reads, &owners, &results)
            );
        }
    }
}
