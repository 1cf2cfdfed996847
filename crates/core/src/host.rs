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
//! The *simulator's* host streams the same way, in blocks: every call
//! (a batch, or each chunk of a stream) is one device run, taken block by
//! block. A block extracts whole reads into reused
//! buffers until it holds [`HOST_BLOCK`] k-mers, each a bare `2k`-bit
//! word at the device's k rolled straight off the read's bytes, matches
//! them through the device's match pass,
//! which carries the run's per-subarray sums from block to block, and
//! votes its reads; the run is scheduled once, after the last block. A
//! call therefore holds one block of k-mers, not the whole batch, and a
//! block's words, owner tags and results stay in cache from extraction
//! to the vote. With `threads > 1`, a call of at least
//! [`PARALLEL_READS`] reads splits them into one contiguous range per
//! worker, each with its own buffers and match pass. The modeled overlap
//! is the device makespan the report carries, not a wall-clock property
//! of the simulator.

use sieve_genomics::{DnaSequence, Kmer, TaxonId};

use crate::device::{self, MatchPass, SieveDevice};
use crate::error::SieveError;
use crate::obs;
use crate::par;
use crate::stats::SimReport;
use crate::trace;

/// Below this many reads, a call runs on one worker: the read-range
/// fan-out costs more than it saves.
const PARALLEL_READS: usize = 128;

/// A block takes whole reads while it holds fewer k-mers than this, so
/// it never splits a read and holds at most this many plus one read's.
/// Eight match blocks ([`device::MATCH_BLOCK`]): at 20 B per k-mer (its
/// word, its owner tag and its result) a block is ~83 KB, which stays in
/// L2 from extraction through the vote.
const HOST_BLOCK: usize = 8 * device::MATCH_BLOCK;

/// Per-read classification assembled from device responses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

/// The most k-mers extraction can take from `read` at `k` (windows
/// containing `N` are skipped).
fn max_kmers(read: &DnaSequence, k: usize) -> usize {
    (read.len() + 1).saturating_sub(k)
}

/// One worker's block buffers, reused across the blocks of a call and
/// the chunks of a stream.
#[derive(Default)]
struct Blocks {
    /// The block's k-mers as `2k`-bit words.
    kmers: Vec<u64>,
    /// Each k-mer's read, counted from the block's first.
    owners: Vec<u32>,
    /// Match results, kept as long as `kmers`' capacity so a block
    /// never refills it.
    results: Vec<Option<TaxonId>>,
    /// The vote's gather of one read's hit taxa.
    votes: Vec<TaxonId>,
}

impl Blocks {
    /// Makes room for `upper` more k-mers. The buffers grow only when
    /// they would not fit, and then to a whole block plus `upper`, so
    /// they hold at most [`HOST_BLOCK`] plus the longest read's k-mers.
    fn reserve(&mut self, upper: usize) {
        if self.kmers.len() + upper > self.kmers.capacity() {
            let cap = HOST_BLOCK + upper;
            self.kmers.reserve_exact(cap - self.kmers.len());
            self.owners.reserve_exact(cap - self.owners.len());
            let cap = self.kmers.capacity();
            self.results.reserve_exact(cap - self.results.len());
            self.results.resize(cap, None);
        }
    }
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

    /// Extracts every valid k-mer from `reads`, tagged with its read
    /// index, in one serial pass of the rolling per-base iterator
    /// ([`DnaSequence::kmers`]): the whole batch that the classify calls
    /// never materialize. With [`SieveDevice::run`] and [`vote_reads`] it
    /// composes the reference the block pass is held to, so that
    /// reference also holds the block pass's extractor to the iterator.
    #[must_use]
    pub fn extract_kmers(&self, reads: &[DnaSequence]) -> (Vec<Kmer>, Vec<u32>) {
        let k = self.device.config().k;
        let upper: usize = reads.iter().map(|r| max_kmers(r, k)).sum();
        let mut kmers = Vec::with_capacity(upper);
        let mut owners = Vec::with_capacity(upper);
        for (ri, read) in reads.iter().enumerate() {
            kmers.extend(read.kmers(k).map(|(_, kmer)| kmer));
            owners.resize(kmers.len(), ri as u32);
        }
        (kmers, owners)
    }

    /// Classifies reads end to end: k-mer generation → device run →
    /// per-read majority vote (Figure 2's loop), block by block.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::BatchTooLarge`] for a batch of more than
    /// `u32::MAX` k-mers.
    pub fn classify_reads(&self, reads: &[DnaSequence]) -> Result<PipelineOutput, SieveError> {
        obs::global().add(obs::CounterId::HostReads, reads.len() as u64);
        let mut out = vec![ReadResult::default(); reads.len()];
        let report = self.classify_run(reads, &mut out, &mut self.workers())?;
        Ok(PipelineOutput { reads: out, report })
    }

    /// Streaming classification: processes `reads` in chunks of
    /// `chunk_reads`, each one device run, the way a real driver drains
    /// the RRQ. Chunks execute back to back on the *modeled* device, so
    /// the merged report's makespan is the sum. The block buffers are
    /// reused across chunks, so the steady state allocates nothing on
    /// the host side. Results, reports, and deterministic observations
    /// are bit-identical for every thread count, and per-read results
    /// for every chunk size.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] for `chunk_reads == 0`, and
    /// [`SieveError::BatchTooLarge`] for a chunk of more than `u32::MAX`
    /// k-mers.
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
        obs::global().add(obs::CounterId::HostReads, reads.len() as u64);
        let mut all_reads = vec![ReadResult::default(); reads.len()];
        let mut workers = self.workers();
        let mut merged: Option<SimReport> = None;
        for (chunk, out) in reads
            .chunks(chunk_reads)
            .zip(all_reads.chunks_mut(chunk_reads))
        {
            let _wall = trace::span("host.chunk");
            let report = self.classify_run(chunk, out, &mut workers)?;
            match &mut merged {
                None => merged = Some(report),
                Some(m) => m.accumulate(&report),
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

    /// One set of block buffers per worker the device's `threads`
    /// allows; each allocates when its worker first fills a block.
    fn workers(&self) -> Vec<Blocks> {
        let threads = par::effective_threads(self.device.config().threads);
        (0..threads).map(|_| Blocks::default()).collect()
    }

    /// Classifies `reads` as one device run, writing `out[i]` for
    /// `reads[i]`. With more than one worker and at least
    /// [`PARALLEL_READS`] reads, each worker takes one contiguous range
    /// of them through its own block loop and match pass. Then, from the
    /// call's totals: the batch bound, the host records (the bases
    /// scanned and the run's k-mers) and the per-run step, which merges
    /// the passes in range order and schedules the run. Every total is
    /// an integer sum, so nothing depends on the split.
    fn classify_run(
        &self,
        reads: &[DnaSequence],
        out: &mut [ReadResult],
        workers: &mut [Blocks],
    ) -> Result<SimReport, SieveError> {
        let fan_out = if reads.len() < PARALLEL_READS {
            1
        } else {
            workers.len().min(reads.len())
        };
        let config = self.device.config();
        let mut passes: Vec<(&mut Blocks, MatchPass<'_>)> = workers[..fan_out]
            .iter_mut()
            .map(|blocks| (blocks, self.device.pass(config)))
            .collect();
        let totals = par::map_ranges_mut(&mut passes, out, |(blocks, pass), offset, out| {
            let reads = &reads[offset..offset + out.len()];
            self.classify_blocks(reads, out, blocks, pass)
        });
        let _wall = trace::span("host.device");
        let (mut kmers, mut bases) = (0u64, 0u64);
        for (k, b) in totals {
            kmers += k;
            bases += b;
        }
        device::check_batch_len(usize::try_from(kmers).unwrap_or(usize::MAX))?;
        let rec = obs::global();
        rec.add(obs::CounterId::HostBases, bases);
        rec.record(obs::HistId::ChunkKmers, kmers);
        Ok(self
            .device
            .finish_run(config, passes.into_iter().map(|(_, pass)| pass)))
    }

    /// One worker's block loop over `reads`, writing `out[i]` for
    /// `reads[i]`: each block extracts whole reads while it holds fewer
    /// than [`HOST_BLOCK`] k-mers, matches their words through `pass`,
    /// and votes its reads. Returns the k-mers and bases it took.
    ///
    /// Extraction rolls each read's words straight off its bytes, one
    /// shift, OR and mask per base, with a run counter that an `N`
    /// resets ([`DnaSequence::extract_words_into`]). The rolling per-base
    /// iterator ([`DnaSequence::kmers`]) is its reference;
    /// `tests/kernel_equivalence.rs` proves the two streams identical.
    fn classify_blocks(
        &self,
        reads: &[DnaSequence],
        out: &mut [ReadResult],
        blocks: &mut Blocks,
        pass: &mut MatchPass<'_>,
    ) -> (u64, u64) {
        let k = self.device.config().k;
        let (mut kmers, mut bases) = (0u64, 0u64);
        let mut next = 0;
        while next < reads.len() {
            let first = next;
            {
                let _wall = trace::span("host.extract");
                blocks.kmers.clear();
                blocks.owners.clear();
                while next < reads.len() && blocks.kmers.len() < HOST_BLOCK {
                    let read = &reads[next];
                    blocks.reserve(max_kmers(read, k));
                    read.extract_words_into(k, &mut blocks.kmers);
                    blocks
                        .owners
                        .resize(blocks.kmers.len(), (next - first) as u32);
                    bases += read.len() as u64;
                    next += 1;
                }
            }
            let n = blocks.kmers.len();
            {
                let _wall = trace::span("host.device");
                pass.match_keys(&blocks.kmers, &mut blocks.results[..n]);
            }
            {
                let _wall = trace::span("host.vote");
                vote_into(
                    &blocks.owners,
                    &blocks.results[..n],
                    &mut blocks.votes,
                    &mut out[first..next],
                    majority_swar,
                );
            }
            kmers += n as u64;
        }
        (kmers, bases)
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
    let mut out = vec![ReadResult::default(); n_reads];
    vote_into(owners, results, &mut Vec::new(), &mut out, majority_swar);
    out
}

/// [`vote_reads`] into caller-owned rows, one per read of `out` (owner
/// `i` votes into `out[i]`), gathering through `scratch`, with the
/// streak counter as a parameter so the twin tests can run the scalar
/// reference through the same gather.
fn vote_into(
    owners: &[u32],
    results: &[Option<TaxonId>],
    scratch: &mut Vec<TaxonId>,
    out: &mut [ReadResult],
    majority: impl Fn(&[TaxonId]) -> Option<(usize, TaxonId)>,
) {
    debug_assert_eq!(owners.len(), results.len());
    debug_assert!(owners.windows(2).all(|w| w[0] <= w[1]));
    let mut pos = 0usize;
    for (ri, row) in out.iter_mut().enumerate() {
        let start = pos;
        while pos < owners.len() && owners[pos] as usize == ri {
            pos += 1;
        }
        scratch.clear();
        scratch.extend(results[start..pos].iter().flatten());
        scratch.sort_unstable();
        let best = majority(scratch);
        *row = ReadResult {
            taxon: best.map(|(_, taxon)| taxon),
            hit_kmers: scratch.len(),
            total_kmers: pos - start,
        };
    }
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
        // Output and report at threads=4 must be bit-identical to
        // threads=1 (these chunks are below the read-range fan-out;
        // `block_pass_twins_extract_run_vote` covers it).
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

    /// The composition the block pass replaces, and its reference: the
    /// whole batch extracted ([`HostPipeline::extract_kmers`]), run
    /// ([`SieveDevice::run`]) and voted ([`vote_reads`]).
    fn reference(host: &HostPipeline, reads: &[DnaSequence]) -> PipelineOutput {
        let (kmers, owners) = host.extract_kmers(reads);
        let run = host.device().run(&kmers).unwrap();
        PipelineOutput {
            reads: vote_reads(reads.len(), &owners, &run.results),
            report: run.report,
        }
    }

    /// [`reference`] chunk by chunk, the reports accumulated.
    fn reference_stream(
        host: &HostPipeline,
        reads: &[DnaSequence],
        chunk: usize,
    ) -> PipelineOutput {
        let mut out = reference(host, &reads[..chunk.min(reads.len())]);
        for chunk in reads.chunks(chunk).skip(1) {
            let next = reference(host, chunk);
            out.reads.extend(next.reads);
            out.report.accumulate(&next.report);
        }
        out
    }

    /// Over 1,000 reads whose k-mers put block edges everywhere:
    /// 100-base reads, half of them from the reference (only those carry
    /// `N`s); every 37th followed by a read of 0, k − 1 or k bases; and one
    /// read of 5,000 bases, longer than a block, in the middle.
    fn block_edge_reads(ds: &synth::SyntheticDataset, k: usize) -> Vec<DnaSequence> {
        let config = synth::ReadSimConfig {
            read_len: 100,
            from_reference: 0.5,
            error_rate: 0.01,
            n_rate: 0.01,
        };
        let (simulated, _) = synth::simulate_reads(ds, config, 1_000, 31);
        let long: Vec<u8> = simulated[..50]
            .iter()
            .flat_map(|r| r.as_bytes().iter().copied())
            .collect();
        let mut reads = Vec::new();
        for (i, read) in simulated.iter().enumerate() {
            reads.push(read.clone());
            if i % 37 == 0 {
                let len = [0, k - 1, k][(i / 37) % 3];
                reads.push(DnaSequence::from_bytes(&read.as_bytes()[..len]).unwrap());
            }
            if i == 500 {
                reads.push(DnaSequence::from_bytes(&long).unwrap());
            }
        }
        assert!(reads.iter().any(|r| r.as_bytes().contains(&b'N')));
        reads
    }

    /// The block pass against its reference, bit for bit in every
    /// `ReadResult` and the `SimReport`: `classify_reads` and
    /// `classify_stream` in chunks of 1, 7 and 1,000 over
    /// [`block_edge_reads`], at one thread and at four, on every design point, with ETM off, with an ESP override,
    /// behind a PCIe link, and on an empty device.
    #[test]
    fn block_pass_twins_extract_run_vote() {
        let ds = synth::make_dataset_with(8, 2048, 31, 55);
        let reads = block_edge_reads(&ds, 31);
        let entries = || ds.entries.clone();
        let cases = [
            (SieveConfig::type1(), entries()),
            (SieveConfig::type2(8), entries()),
            (SieveConfig::type3(8), entries()),
            (SieveConfig::type3(8).with_etm(false), entries()),
            (SieveConfig::type3(8).with_esp_override(10), entries()),
            (
                SieveConfig::type3(8).with_pcie(crate::PcieConfig::gen4_x16()),
                entries(),
            ),
            (SieveConfig::type3(8), Vec::new()),
        ];
        for (case, (config, entries)) in cases.into_iter().enumerate() {
            for threads in [1, 4] {
                let config = config
                    .clone()
                    .with_geometry(Geometry::scaled_medium())
                    .with_threads(threads);
                let at = format!("case {case} ({}) threads={threads}", config.device.label());
                let host = HostPipeline::new(SieveDevice::new(config, entries.clone()).unwrap());
                let same = |got: PipelineOutput, want: PipelineOutput, call: &str| {
                    assert_eq!(got.reads, want.reads, "{at} {call}: reads");
                    assert_eq!(got.report, want.report, "{at} {call}: report");
                };
                same(
                    host.classify_reads(&reads).unwrap(),
                    reference(&host, &reads),
                    "classify_reads",
                );
                for chunk in [1, 7, 1_000] {
                    same(
                        host.classify_stream(&reads, chunk).unwrap(),
                        reference_stream(&host, &reads, chunk),
                        &format!("classify_stream chunk {chunk}"),
                    );
                }
            }
        }
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

    /// [`vote_reads`] with the streak counter `majority`.
    fn vote_with(
        n_reads: usize,
        owners: &[u32],
        results: &[Option<TaxonId>],
        majority: fn(&[TaxonId]) -> Option<(usize, TaxonId)>,
    ) -> Vec<ReadResult> {
        let mut out = vec![ReadResult::default(); n_reads];
        vote_into(owners, results, &mut Vec::new(), &mut out, majority);
        out
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
