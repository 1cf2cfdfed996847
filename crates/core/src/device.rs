//! The public device model: load a reference set, run query batches,
//! get functional results plus a timing/energy report.
//!
//! A run is two stages. The **match** pass walks the queries in arrival
//! order, 512 at a time, as bare `2k`-bit words: a staged search of the
//! layout's key column ([`DeviceLayout::ranks`]) finds every query's
//! rank among all the reference keys, and that rank routes the query to
//! its subarray, resolves it there ([`DeviceLayout::resolve`]) and
//! charges it to the subarray's load. The pass carries its per-subarray
//! sums from one call to the next, so the host pipeline matches a run
//! block by block as it extracts it, and [`SieveDevice::run`] drives the
//! same pass over a whole batch, once it has checked the batch's k. The
//! **schedule** then times the per-subarray totals on the configured
//! design point, once per run. With `threads > 1` each worker takes one
//! contiguous range of the run through its own pass, and the passes'
//! integer sums merge in range order.

use sieve_genomics::{Kmer, TaxonId, MAX_K};

use crate::config::{DeviceKind, SieveConfig};
use crate::error::SieveError;
use crate::etm;
use crate::layout::DeviceLayout;
use crate::obs;
use crate::par;
use crate::sched;
use crate::stats::SimReport;
use crate::trace;

/// Largest batch a run accepts, `u32::MAX` queries; a larger one is a
/// [`SieveError::BatchTooLarge`].
const MAX_BATCH: usize = u32::MAX as usize;

/// Queries per block of the match pass: big enough that a block's
/// searches keep many cache misses in flight, small enough that the
/// block's words and ranks stay in L1.
pub(crate) const MATCH_BLOCK: usize = 512;

/// Checks the batch bound without allocating anything.
pub(crate) fn check_batch_len(n: usize) -> Result<(), SieveError> {
    if n > MAX_BATCH {
        return Err(SieveError::BatchTooLarge {
            queries: n,
            max: MAX_BATCH,
        });
    }
    Ok(())
}

/// Functional results and the simulation report of one run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Per-query payloads, in input order (`None` = miss).
    pub results: Vec<Option<TaxonId>>,
    /// Timing/energy report.
    pub report: SimReport,
}

/// What the match pass hands the schedule: per-subarray sums over the
/// whole run, merged from every worker's [`MatchPass`] in range order.
struct Matched {
    /// Queries the run matched (on an empty device, its only sum).
    queries: u64,
    /// Queries, rows, hits and deepest row count per subarray.
    loads: Vec<sched::SubLoad>,
    /// Type-1 with ETM on: each subarray's Region-1 streams, charged
    /// query by query. Empty otherwise.
    type1: Vec<sched::Type1Partial>,
}

impl Matched {
    /// Adds the sums of a later range of the same run.
    fn absorb(mut self, other: Self) -> Self {
        self.queries += other.queries;
        for (load, o) in self.loads.iter_mut().zip(&other.loads) {
            load.absorb(o);
        }
        for (p, o) in self.type1.iter_mut().zip(other.type1) {
            p.absorb(o);
        }
        self
    }
}

/// Rows activated per resolved lookup, tallied for the
/// `etm_rows_activated` histogram and merged in one step. A lookup
/// activates at most `2k ≤ 64` rows ([`etm::RowTable`] caps every count
/// at the bit length), so the per-query hot loop bumps one slot of a
/// direct-indexed count array — or skips entirely while the recorder is
/// off. Each range of the match pass keeps its own tally; the merges are
/// integer sums, so the histogram does not depend on the split.
struct RowsTally {
    observing: bool,
    counts: [u64; 2 * MAX_K + 1],
}

impl RowsTally {
    fn new() -> Self {
        Self {
            observing: obs::global().is_enabled(),
            counts: [0; 2 * MAX_K + 1],
        }
    }

    /// Counts one lookup that activated `rows` rows.
    #[inline]
    fn add(&mut self, rows: u32) {
        if self.observing {
            self.counts[rows as usize] += 1;
        }
    }

    /// Folds the tally into the recorder's histogram.
    fn merge(self) {
        if self.observing {
            let mut rows = obs::Histogram::new();
            for (n, &c) in self.counts.iter().enumerate() {
                rows.record_n(n as u64, c);
            }
            obs::global().merge(obs::HistId::EtmRowsActivated, &rows);
        }
    }
}

/// One worker's share of a run's match pass: its row table, its
/// per-subarray sums, its Type-1 charges and its row tally, carried from
/// one [`Self::match_keys`] call to the next, so a run can be matched
/// block by block as its queries are produced. [`SieveDevice::run`]
/// drives one pass per range of its batch, and the host pipeline one per
/// worker over the blocks it extracts; [`SieveDevice::finish_run`]
/// merges the passes and schedules the run.
pub(crate) struct MatchPass<'d> {
    layout: &'d DeviceLayout,
    /// The run's ESP cap on a miss's shared prefix, in bits.
    esp: Option<usize>,
    /// The per-lookup `rows_activated` arithmetic, hoisted out of the
    /// match loop.
    rows: etm::RowTable,
    matched: Matched,
    type1: Option<sched::Type1Pass<'d>>,
    tally: RowsTally,
}

impl MatchPass<'_> {
    /// Matches `keys`, the `2k`-bit words of the run's queries, in
    /// arrival order, writing `out[i]` for `keys[i]`, and adds their work
    /// to the pass's sums: per [`MATCH_BLOCK`] of words, the staged
    /// search gives every word's global rank, then each word is routed,
    /// resolved and accounted from its rank. The words are read in
    /// place. On an empty device every query misses.
    pub(crate) fn match_keys(&mut self, keys: &[u64], out: &mut [Option<TaxonId>]) {
        let _wall = trace::span("device.match");
        debug_assert_eq!(keys.len(), out.len());
        let Self {
            layout,
            esp,
            rows,
            matched,
            type1,
            tally,
        } = self;
        // Copied out of the pass, so the loop keeps them in registers.
        let (layout, esp) = (*layout, *esp);
        matched.queries += keys.len() as u64;
        if layout.is_empty() {
            out.fill(None);
            return;
        }
        let mut ranks = [0usize; MATCH_BLOCK];
        for (block, out) in keys.chunks(MATCH_BLOCK).zip(out.chunks_mut(MATCH_BLOCK)) {
            let ranks = &mut ranks[..block.len()];
            layout.ranks(block, ranks);
            for ((&key, &g), result) in block.iter().zip(ranks.iter()).zip(out) {
                let routed = layout.resolve(key, g, rows);
                let (sub, outcome) = (routed.subarray, routed.outcome);
                let hit = outcome.hit.is_some();
                let rows = match (esp, hit) {
                    // Paper-ESP assumption: a miss terminates after at
                    // most `esp` shared bits.
                    (Some(esp), false) => rows.rows(outcome.max_lcp.min(esp)),
                    _ => outcome.rows,
                };
                let load = &mut matched.loads[sub];
                load.queries += 1;
                load.rows += u64::from(rows);
                load.hits += u64::from(hit);
                load.deepest_rows = load.deepest_rows.max(rows);
                tally.add(rows);
                *result = outcome.hit.map(|(_, taxon)| taxon);
                if let Some(type1) = type1 {
                    type1.charge(sub, key, routed.rank, hit);
                }
            }
        }
    }

    /// The pass's sums, its row tally merged into the recorder and its
    /// Type-1 charges folded into per-subarray partials.
    fn finish(self) -> Matched {
        let Self {
            mut matched,
            type1,
            tally,
            ..
        } = self;
        tally.merge();
        if let Some(type1) = type1 {
            matched.type1 = type1.into_partials();
        }
        matched
    }
}

/// A loaded Sieve device.
///
/// # Example
///
/// ```
/// use sieve_core::{SieveConfig, SieveDevice};
/// use sieve_dram::Geometry;
/// use sieve_genomics::synth;
///
/// let ds = synth::make_dataset_with(4, 2048, 31, 1);
/// let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
/// let device = SieveDevice::new(config, ds.entries.clone())?;
/// let queries: Vec<_> = ds.entries.iter().take(100).map(|(k, _)| *k).collect();
/// let out = device.run(&queries)?;
/// assert_eq!(out.report.hits, 100);
/// assert!(out.results.iter().all(Option::is_some));
/// # Ok::<(), sieve_core::SieveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SieveDevice {
    config: SieveConfig,
    layout: DeviceLayout,
}

impl SieveDevice {
    /// Validates `config` and lays out `entries` in the reference store.
    ///
    /// # Errors
    ///
    /// Propagates configuration, k-mismatch, and capacity errors from
    /// [`DeviceLayout::build`].
    pub fn new(config: SieveConfig, entries: Vec<(Kmer, TaxonId)>) -> Result<Self, SieveError> {
        let layout = DeviceLayout::build(entries, &config)?;
        Ok(Self { config, layout })
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &SieveConfig {
        &self.config
    }

    /// The data layout.
    #[must_use]
    pub fn layout(&self) -> &DeviceLayout {
        &self.layout
    }

    /// Runs a query batch: checks every query's k once, routes and
    /// matches the queries' `2k`-bit words in arrival order, then
    /// schedules the per-subarray totals on the configured design point,
    /// charging every occurrence of a repeated k-mer in full, as the
    /// device would. The host pipeline drives the same match pass over
    /// the words it extracts ([`crate::HostPipeline`]), so a batch it
    /// classifies and the same k-mers run here give one report. This is
    /// [`Self::run_as`] under the device's own configuration.
    ///
    /// The match → schedule structure is deterministic: each result is
    /// written at its query's index and every merged quantity is an
    /// integer sum or max, so the output is bit-identical for any
    /// [`SieveConfig::threads`] setting.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::KMismatch`] if any query's k differs from
    /// the loaded database's, and [`SieveError::BatchTooLarge`] if the
    /// batch holds more than `u32::MAX` queries.
    pub fn run(&self, queries: &[Kmer]) -> Result<RunOutput, SieveError> {
        self.run_as(&self.config, queries)
    }

    /// Runs a query batch on the loaded references under `config` in place
    /// of the device's own configuration, without loading them again.
    /// `config` must lay them out as they lie (the same k, references per
    /// subarray and [`crate::GroupShape`]) and hold them all: Type-2 and
    /// Type-3 devices of one row and pattern group do, whatever their SALP,
    /// buffers, timing, energy, ETM, ESP cap or PCIe; Type-1 shares only
    /// with Type-1. The match and the schedule read `config` alone, so the
    /// output is a fresh device's [`Self::run`] under `config`, bit for bit.
    ///
    /// # Errors
    ///
    /// As [`Self::run`], and [`SieveError::InvalidConfig`] or
    /// [`SieveError::CapacityExceeded`] for a config that is invalid, lays
    /// the references out differently or cannot hold them.
    pub fn run_as(&self, config: &SieveConfig, queries: &[Kmer]) -> Result<RunOutput, SieveError> {
        self.layout.check_config(config)?;
        check_batch_len(queries.len())?;
        self.layout.check_queries(queries)?;
        let keys: Vec<u64> = queries.iter().map(Kmer::bits).collect();
        // `map_ranges_mut` runs at most one range per query, so no more
        // passes than that are built.
        let threads = par::effective_threads(config.threads).min(queries.len().max(1));
        let mut passes: Vec<MatchPass<'_>> = (0..threads).map(|_| self.pass(config)).collect();
        let mut results = vec![None; queries.len()];
        par::map_ranges_mut(&mut passes, &mut results, |pass, offset, out| {
            pass.match_keys(&keys[offset..offset + out.len()], out);
        });
        let report = self.finish_run(config, passes);
        Ok(RunOutput { results, report })
    }

    /// A fresh match pass under `config` (one that
    /// [`DeviceLayout::check_config`] accepts), for one worker of one run.
    pub(crate) fn pass<'d>(&'d self, config: &'d SieveConfig) -> MatchPass<'d> {
        // Type-1 charges no ETM flush (its scheduler recomputes each
        // query's rows from the per-batch skip bits, `min(lcp, esp) +
        // 1`), so its table, which the ESP cap reads too, is built with
        // zero flush.
        let type1 = matches!(config.device, DeviceKind::Type1);
        let etm = config.etm_enabled;
        let flush = if type1 { 0 } else { config.etm_flush_cycles };
        MatchPass {
            layout: &self.layout,
            esp: config.esp_override.map(|bits| bits as usize),
            rows: etm::RowTable::new(2 * config.k, etm, flush),
            matched: Matched {
                queries: 0,
                loads: vec![sched::SubLoad::default(); self.layout.occupied_subarrays()],
                type1: Vec::new(),
            },
            type1: (type1 && etm).then(|| sched::Type1Pass::new(config, &self.layout)),
            tally: RowsTally::new(),
        }
    }

    /// The per-run step, once after a run's last block: merges the run's
    /// passes in range order, records the run, and schedules it under
    /// `config`, the passes' own, from the merged sums. The match
    /// observations (the hit counter, the per-subarray histogram and
    /// model events) come from those sums, so they do not depend on the
    /// split. An empty device's run takes zero time.
    pub(crate) fn finish_run<'d>(
        &'d self,
        config: &'d SieveConfig,
        passes: impl IntoIterator<Item = MatchPass<'d>>,
    ) -> SimReport {
        let matched = passes
            .into_iter()
            .map(MatchPass::finish)
            .reduce(Matched::absorb)
            .unwrap_or_else(|| self.pass(config).finish());
        obs::global().add(obs::CounterId::DeviceRuns, 1);
        let t0 = trace::global().model_ps();
        self.observe_match(t0, &matched);
        self.schedule_stage(config, t0, &matched)
    }

    /// Records the match pass's observations from its merged sums, in
    /// subarray order: the hit counter, the per-subarray query histogram,
    /// and one `shard.dispatch` and one `etm.terminate` model event per
    /// subarray that received queries.
    fn observe_match(&self, t0: u64, matched: &Matched) {
        let rec = obs::global();
        let tr = trace::global();
        rec.add(
            obs::CounterId::MatchHits,
            matched.loads.iter().map(|l| l.hits).sum(),
        );
        let reached = || {
            matched
                .loads
                .iter()
                .enumerate()
                .filter(|(_, l)| l.queries > 0)
        };
        if rec.is_enabled() {
            for (_, load) in reached() {
                rec.record(obs::HistId::ShardQueries, load.queries);
            }
        }
        if tr.is_enabled() {
            for (sub, load) in reached() {
                tr.emit_model("shard.dispatch", sub as u32, t0, 0, load.queries, 0);
            }
            // Each subarray's deepest lookup is where ETM let the whole
            // subarray stop activating rows — the per-subarray analogue
            // of the paper's ~62 → ~10 claim.
            for (sub, load) in reached() {
                tr.emit_model(
                    "etm.terminate",
                    sub as u32,
                    t0,
                    0,
                    u64::from(load.deepest_rows),
                    load.queries,
                );
            }
        }
    }

    /// Schedule: times the merged work on `config`'s design point, emits
    /// the run's model interval, and advances the model clock.
    fn schedule_stage(&self, config: &SieveConfig, t0: u64, matched: &Matched) -> SimReport {
        let tr = trace::global();
        let _wall = tr.span("device.schedule");
        let report = match config.device {
            DeviceKind::Type1 => {
                sched::simulate_type1(config, &self.layout, &matched.loads, &matched.type1)
            }
            _ => sched::simulate_type23(config, &matched.loads),
        };
        tr.emit_model(
            "device.run",
            0,
            t0,
            report.makespan_ps,
            matched.queries,
            report.hits,
        );
        tr.advance_model_ps(report.makespan_ps);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_dram::Geometry;
    use sieve_genomics::synth;

    fn dataset() -> synth::SyntheticDataset {
        synth::make_dataset_with(8, 2048, 31, 13)
    }

    fn device(config: SieveConfig) -> SieveDevice {
        SieveDevice::new(
            config.with_geometry(Geometry::scaled_medium()),
            dataset().entries,
        )
        .unwrap()
    }

    fn probes(ds: &synth::SyntheticDataset, n: usize) -> Vec<Kmer> {
        let (reads, _) = synth::simulate_reads(ds, synth::ReadSimConfig::default(), n, 5);
        reads
            .iter()
            .flat_map(|r| r.kmers(31).map(|(_, k)| k))
            .take(n * 10)
            .collect()
    }

    #[test]
    fn functional_results_match_sorted_db_on_all_types() {
        let ds = dataset();
        let queries = probes(&ds, 50);
        let reference = sieve_genomics::db::SortedDb::from_entries(ds.entries.clone(), 31);
        use sieve_genomics::db::KmerDatabase;
        for config in [
            SieveConfig::type1(),
            SieveConfig::type2(4),
            SieveConfig::type3(8),
        ] {
            let dev = device(config);
            let out = dev.run(&queries).unwrap();
            for (q, r) in queries.iter().zip(&out.results) {
                assert_eq!(*r, reference.get(*q), "query {q}");
            }
        }
    }

    #[test]
    fn hits_counted_in_report() {
        let ds = dataset();
        let dev = device(SieveConfig::type3(8));
        let present: Vec<Kmer> = ds.entries.iter().step_by(111).map(|(k, _)| *k).collect();
        let out = dev.run(&present).unwrap();
        assert_eq!(out.report.hits, present.len() as u64);
        assert_eq!(out.report.queries, present.len() as u64);
    }

    #[test]
    fn empty_device_misses_everything_in_zero_time() {
        let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
        let dev = SieveDevice::new(config, Vec::new()).unwrap();
        let q = Kmer::from_u64(123, 31).unwrap();
        let out = dev.run(&[q]).unwrap();
        assert_eq!(out.results, vec![None]);
        assert_eq!(out.report.row_activations, 0);
    }

    #[test]
    fn k_mismatch_rejected_everywhere() {
        let dev = device(SieveConfig::type3(8));
        let q21 = Kmer::from_u64(5, 21).unwrap();
        assert!(dev.run(&[q21]).is_err());
    }

    #[test]
    fn oversized_batch_is_a_typed_error_not_a_panic() {
        // Purely synthetic: exercise the guard on the count alone, no
        // 4-billion-query allocation anywhere.
        assert_eq!(check_batch_len(0), Ok(()));
        assert_eq!(check_batch_len(MAX_BATCH), Ok(()));
        assert_eq!(
            check_batch_len(MAX_BATCH + 1),
            Err(SieveError::BatchTooLarge {
                queries: MAX_BATCH + 1,
                max: MAX_BATCH,
            })
        );
        let msg = check_batch_len(MAX_BATCH + 1).unwrap_err().to_string();
        assert!(msg.contains("4294967296"), "{msg}");
    }

    #[test]
    fn running_a_batch_twice_is_identical() {
        let ds = dataset();
        let dev = device(SieveConfig::type3(8));
        let queries = probes(&ds, 30);
        let first = dev.run(&queries).unwrap();
        let second = dev.run(&queries).unwrap();
        assert_eq!(first.results, second.results);
        assert_eq!(first.report, second.report);
    }

    #[test]
    fn etm_reduces_activations() {
        let ds = dataset();
        let queries = probes(&ds, 100);
        let with = device(SieveConfig::type3(8)).run(&queries).unwrap();
        let without = device(SieveConfig::type3(8).with_etm(false))
            .run(&queries)
            .unwrap();
        assert!(
            with.report.row_activations < without.report.row_activations / 2,
            "ETM should prune most activations: {} vs {}",
            with.report.row_activations,
            without.report.row_activations
        );
        assert!(with.report.makespan_ps < without.report.makespan_ps);
        // Functional results identical.
        assert_eq!(with.results, without.results);
    }
}
