//! The public device model: load a reference set, run query batches,
//! get functional results plus a timing/energy report.

use std::sync::Mutex;

use sieve_genomics::{Kmer, TaxonId};

use crate::config::{DeviceKind, SieveConfig};
use crate::engine;
use crate::error::SieveError;
use crate::etm;
use crate::index::SubarrayIndex;
use crate::layout::DeviceLayout;
use crate::obs;
use crate::par;
use crate::prof;
use crate::sched;
use crate::shard::{Pair, ShardPlan};
use crate::stats::SimReport;
use crate::trace;

/// Largest batch the pipeline can run: queries are tagged with `u32` ids
/// end to end (shard order, host read owners).
const MAX_BATCH: usize = u32::MAX as usize;

/// Queries per block of the blocked match kernel: big enough to amortize
/// the per-block bookkeeping, small enough that a block of keys plus its
/// outcomes stays cache-resident.
const MATCH_BLOCK: usize = 512;

/// Checks the `u32` indexing bound without allocating anything.
fn check_batch_len(n: usize) -> Result<(), SieveError> {
    if n > MAX_BATCH {
        return Err(SieveError::BatchTooLarge {
            queries: n,
            max: MAX_BATCH,
        });
    }
    Ok(())
}

/// Reusable per-run working memory: the plan stage's buffers and the
/// per-subarray loads. Checked out of the device's [`ScratchArena`] at
/// the top of [`SieveDevice::run`] and returned afterwards, so a
/// streaming host (`classify_stream`) reuses one allocation set across
/// all its chunks.
#[derive(Debug, Default)]
struct RunScratch {
    planned: PlanScratch,
    loads: Vec<sched::SubLoad>,
}

/// The plan stage's output and working memory: the `(bits, id)` pairs
/// (grouped by subarray once the stage returns), the scatter's
/// destination buffer, and the shard plan over the grouped pairs.
#[derive(Debug, Default)]
struct PlanScratch {
    pairs: Vec<Pair>,
    pairs_scratch: Vec<Pair>,
    shards: ShardPlan,
}

/// A mutex-guarded pool of [`RunScratch`] sets. One set per *concurrent*
/// run: sequential callers (the common case) recycle a single set
/// indefinitely; concurrent callers each check out their own.
#[derive(Debug, Default)]
struct ScratchArena {
    pool: Mutex<Vec<RunScratch>>,
}

/// Retain at most this many idle scratch sets.
const ARENA_CAP: usize = 8;

impl ScratchArena {
    fn take(&self) -> RunScratch {
        self.pool
            .lock()
            .ok()
            .and_then(|mut pool| pool.pop())
            .unwrap_or_default()
    }

    fn put(&self, scratch: RunScratch) {
        if let Ok(mut pool) = self.pool.lock() {
            if pool.len() < ARENA_CAP {
                pool.push(scratch);
            }
        }
    }
}

impl Clone for ScratchArena {
    /// Cloned devices start with an empty pool (scratch is plain working
    /// memory; there is nothing semantic to copy).
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Functional results and the simulation report of one run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Per-query payloads, in input order (`None` = miss).
    pub results: Vec<Option<TaxonId>>,
    /// Timing/energy report.
    pub report: SimReport,
}

/// One match task's resolved output: the task's contribution to its
/// subarray's aggregate load and its hits (tagged with query ids for the
/// deterministic scatter). Loads of tasks from the same (split) shard
/// are *accumulated* by the reduce, so the totals are independent of how
/// shards were split.
struct TaskOutcome {
    subarray: usize,
    load: sched::SubLoad,
    /// Deepest per-query row count in the task (the ETM-termination
    /// depth the trace reports).
    deepest_rows: u32,
    /// `(query id, payload)` per hit, in task order.
    hits: Vec<(u32, TaxonId)>,
}

/// What every stage reads, fixed for the whole run.
struct RunCtx<'r> {
    index: &'r SubarrayIndex,
    threads: usize,
    /// The model clock at the run's start, where its model events land.
    t0: u64,
    /// The batch, in input order.
    queries: &'r [Kmer],
    type1: bool,
}

/// Rows activated per resolved lookup, tallied for the
/// `etm_rows_activated` histogram and merged in one step. Row counts are
/// small (at most 2k plus flush cycles), so the per-query hot loop bumps
/// one slot of a direct-indexed count array — or skips entirely while
/// the recorder is off — and the histogram fallback only serves configs
/// that exceed the array: the deterministic-reduce shape at ~1 ns per
/// query.
struct RowsTally {
    observing: bool,
    small: [u64; 256],
    large: obs::LocalHistogram,
}

impl RowsTally {
    fn new() -> Self {
        Self {
            observing: obs::global().is_enabled(),
            small: [0; 256],
            large: obs::LocalHistogram::new(),
        }
    }

    /// Counts one lookup that activated `rows` rows.
    #[inline]
    fn add(&mut self, rows: u32) {
        if self.observing {
            match self.small.get_mut(rows as usize) {
                Some(slot) => *slot += 1,
                None => self.large.record(u64::from(rows)),
            }
        }
    }

    /// Folds the tally into the recorder's histogram.
    fn merge(mut self) {
        if self.observing {
            for (rows, &c) in self.small.iter().enumerate() {
                self.large.record_n(rows as u64, c);
            }
            obs::global().merge_local(obs::HistId::EtmRowsActivated, &self.large);
        }
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
    index: Option<SubarrayIndex>,
    keys: engine::KeyTable,
    scratch: ScratchArena,
}

impl SieveDevice {
    /// Validates `config`, lays out `entries`, and builds the index table
    /// and the match stage's key table.
    ///
    /// # Errors
    ///
    /// Propagates configuration, k-mismatch, and capacity errors from
    /// [`DeviceLayout::build`].
    pub fn new(config: SieveConfig, entries: Vec<(Kmer, TaxonId)>) -> Result<Self, SieveError> {
        let layout = DeviceLayout::build(entries, &config)?;
        let index = (!layout.is_empty()).then(|| SubarrayIndex::build(&layout));
        let keys = engine::KeyTable::new(&layout);
        Ok(Self {
            config,
            layout,
            index,
            keys,
            scratch: ScratchArena::default(),
        })
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

    /// The index table, if any data is loaded.
    #[must_use]
    pub fn index(&self) -> Option<&SubarrayIndex> {
        self.index.as_ref()
    }

    /// Functional-only lookup (no timing), for spot checks and tests.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::KMismatch`] for a query of the wrong k.
    pub fn lookup(&self, query: Kmer) -> Result<Option<TaxonId>, SieveError> {
        self.check_k(query)?;
        let Some(index) = &self.index else {
            return Ok(None);
        };
        let sa = self.layout.subarray(index.locate(query));
        Ok(engine::lookup(
            &sa,
            query,
            self.config.etm_enabled,
            self.config.etm_flush_cycles,
        )
        .hit
        .map(|(_, taxon)| taxon))
    }

    /// Runs a query batch: groups the queries into per-subarray shards
    /// by a counting scatter, resolves the shards — split into bounded
    /// tasks — functionally on worker threads, and schedules the merged
    /// work on the configured design point, charging every occurrence of
    /// a repeated k-mer in full, as the device would. Batches and the
    /// chunks of a stream (`classify_stream`) both come through here.
    ///
    /// The plan → match → reduce → schedule structure is deterministic:
    /// per-query results are scattered back by input index and every
    /// merged quantity is an integer sum, so the output is bit-identical
    /// for any [`SieveConfig::threads`] setting.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::KMismatch`] if any query's k differs from
    /// the loaded database's, and [`SieveError::BatchTooLarge`] if the
    /// batch exceeds the pipeline's `u32` indexing bound.
    pub fn run(&self, queries: &[Kmer]) -> Result<RunOutput, SieveError> {
        for q in queries {
            self.check_k(*q)?;
        }
        check_batch_len(queries.len())?;
        let mut scratch = self.scratch.take();
        let out = self.run_with(queries, &mut scratch);
        self.scratch.put(scratch);
        Ok(out)
    }

    /// One run, stage by stage: plan (pair build, route and group) →
    /// match → reduce → schedule. Each stage is its own function under
    /// its own span; this one threads the scratch buffers between them.
    fn run_with(&self, queries: &[Kmer], scratch: &mut RunScratch) -> RunOutput {
        obs::global().add(obs::CounterId::DeviceRuns, 1);
        let threads = par::effective_threads(self.config.threads);
        let t0 = trace::global().model_ps();
        let Some(index) = &self.index else {
            return self.run_empty(queries, threads, t0);
        };
        let RunScratch { planned, loads } = scratch;
        let ctx = RunCtx {
            index,
            threads,
            t0,
            queries,
            type1: matches!(self.config.device, DeviceKind::Type1),
        };
        self.plan_stage(&ctx, planned);
        let outcomes = self.match_stage(&ctx, planned);
        let mut results = vec![None; queries.len()];
        self.reduce_stage(&ctx, outcomes, &mut results, loads);
        let report = self.schedule_stage(&ctx, loads, &results, planned);
        RunOutput { results, report }
    }

    /// A run against an empty device: every query misses in zero time.
    fn run_empty(&self, queries: &[Kmer], threads: usize, t0: u64) -> RunOutput {
        let report = match self.config.device {
            DeviceKind::Type1 => sched::simulate_type1(
                &self.config,
                &self.layout,
                &self.keys,
                &[],
                &ShardPlan::empty(),
                &[],
                threads,
                0,
                0,
            ),
            _ => sched::simulate_type23(&self.config, &[]),
        };
        let tr = trace::global();
        tr.emit_model(
            "device.run",
            0,
            t0,
            report.makespan_ps,
            queries.len() as u64,
            0,
        );
        tr.advance_model_ps(report.makespan_ps);
        RunOutput {
            results: vec![None; queries.len()],
            report,
        }
    }

    /// Plan: builds one `(bits, id)` pair per query and groups the pairs
    /// by subarray into the shard plan.
    fn plan_stage(&self, ctx: &RunCtx<'_>, planned: &mut PlanScratch) {
        let _wall = trace::span("device.plan");
        // One exact-size extend. Pushing each pair instead measured ~1 ms
        // slower per 700k-pair batch.
        planned.pairs.clear();
        planned.pairs.extend(
            ctx.queries
                .iter()
                .enumerate()
                .map(|(i, q)| Pair::new(q.bits(), i as u32)),
        );
        planned
            .shards
            .rebuild(ctx.index, &mut planned.pairs, &mut planned.pairs_scratch);
    }

    /// Match: resolves every planned task — the pieces of a split shard
    /// included — on the worker threads; outcomes come back in task
    /// order.
    fn match_stage(&self, ctx: &RunCtx<'_>, planned: &PlanScratch) -> Vec<TaskOutcome> {
        let _wall = trace::span("device.match");
        // Row tables: the per-lookup `rows_activated` arithmetic hoisted
        // out of the match loop. Type-1 charges no ETM flush (its
        // scheduler recomputes each query's rows from the per-batch skip
        // bits, `min(lcp, esp) + 1`), so both of its tables, the ESP
        // cap's included, are built with zero flush.
        let bit_len = 2 * self.config.k;
        let etm = self.config.etm_enabled;
        let flush = if ctx.type1 {
            0
        } else {
            self.config.etm_flush_cycles
        };
        let table = etm::RowTable::new(bit_len, etm, flush);
        let esp_table = self
            .config
            .esp_override
            .map(|_| etm::RowTable::new(bit_len, etm, flush));
        par::map_indexed(ctx.threads, planned.shards.task_count(), |t| {
            let (subarray, range) = planned.shards.task(t);
            self.match_pairs(subarray, &planned.pairs[range], &table, esp_table.as_ref())
        })
    }

    /// Reduce: accumulates loads per subarray (tasks of a split shard
    /// sum) into `loads` and scatters hits by query id into `results`.
    fn reduce_stage(
        &self,
        ctx: &RunCtx<'_>,
        outcomes: Vec<TaskOutcome>,
        results: &mut [Option<TaxonId>],
        loads: &mut Vec<sched::SubLoad>,
    ) {
        let rec = obs::global();
        let tr = trace::global();
        let _wall = tr.span("device.reduce");
        let tracing = tr.is_enabled();
        // Indexed by subarray; the schedulers skip zero-query entries.
        loads.clear();
        loads.resize(ctx.index.len(), sched::SubLoad::default());
        let mut reduce_hits = 0u64;
        for outcome in outcomes {
            reduce_hits += outcome.hits.len() as u64;
            rec.add(obs::CounterId::MatchQueries, outcome.load.queries);
            rec.add(obs::CounterId::MatchHits, outcome.load.hits);
            if tracing {
                // Each task's deepest lookup is where ETM let the whole
                // task stop activating rows — the per-task analogue of
                // the paper's ~62 → ~10 claim. Tasks are consumed in plan
                // order, so the stream is identical for every thread
                // count.
                tr.emit_model(
                    "etm.terminate",
                    outcome.subarray as u32,
                    ctx.t0,
                    0,
                    u64::from(outcome.deepest_rows),
                    outcome.load.queries,
                );
            }
            let load = &mut loads[outcome.subarray];
            load.queries += outcome.load.queries;
            load.rows += outcome.load.rows;
            load.hits += outcome.load.hits;
            for &(id, taxon) in &outcome.hits {
                results[id as usize] = Some(taxon);
            }
        }
        // Reduce rereads each task's hit list and scatters it into the
        // result table: one read and one write per hit record.
        let hit_bytes = reduce_hits * std::mem::size_of::<(u32, TaxonId)>() as u64;
        prof::record(prof::Phase::DeviceReduce, hit_bytes, hit_bytes, reduce_hits);
        if rec.is_enabled() {
            // Per-subarray query counts, recorded in subarray order so
            // the histogram is independent of the task split and the
            // thread count. One record per subarray that received
            // queries, matching the MatchShards counter.
            let mut shards = 0u64;
            for load in loads.iter().filter(|l| l.queries > 0) {
                shards += 1;
                rec.record(obs::HistId::ShardQueries, load.queries);
            }
            rec.add(obs::CounterId::MatchShards, shards);
        }
    }

    /// Schedule: times the merged work on the configured design point,
    /// emits the run's model interval, and advances the model clock.
    /// Type-1 reads its hits from `results`, the run's payloads.
    fn schedule_stage(
        &self,
        ctx: &RunCtx<'_>,
        loads: &[sched::SubLoad],
        results: &[Option<TaxonId>],
        planned: &PlanScratch,
    ) -> SimReport {
        let tr = trace::global();
        let _wall = tr.span("device.schedule");
        let hits: u64 = loads.iter().map(|l| l.hits).sum();
        let report = match self.config.device {
            DeviceKind::Type1 => sched::simulate_type1(
                &self.config,
                &self.layout,
                &self.keys,
                results,
                &planned.shards,
                &planned.pairs,
                ctx.threads,
                ctx.queries.len() as u64,
                hits,
            ),
            _ => sched::simulate_type23(&self.config, loads),
        };
        debug_assert_eq!(report.hits, hits);
        tr.emit_model(
            "device.run",
            0,
            ctx.t0,
            report.makespan_ps,
            ctx.queries.len() as u64,
            hits,
        );
        tr.advance_model_ps(report.makespan_ps);
        report
    }

    /// Resolves one match task: looks the task's `(bits, id)` pairs up
    /// in the destination subarray through the key table, in fixed-size
    /// blocks ([`MATCH_BLOCK`]), producing the task's aggregate load and
    /// its hits.
    fn match_pairs(
        &self,
        subarray: usize,
        task_pairs: &[Pair],
        table: &etm::RowTable,
        esp_table: Option<&etm::RowTable>,
    ) -> TaskOutcome {
        let mut tally = RowsTally::new();
        let mut load = sched::SubLoad::default();
        let mut deepest_rows = 0u32;
        let mut hits = Vec::new();
        let esp = self.config.esp_override.unwrap_or(0) as usize;
        let mut keys = [0u64; MATCH_BLOCK];
        let mut outcomes: Vec<engine::MatchOutcome> = Vec::with_capacity(MATCH_BLOCK);
        for block in task_pairs.chunks(MATCH_BLOCK) {
            for (key, &p) in keys.iter_mut().zip(block) {
                *key = p.key();
            }
            outcomes.clear();
            self.keys.lookup_block(
                &self.layout,
                subarray,
                &keys[..block.len()],
                table,
                &mut outcomes,
            );
            for (&p, outcome) in block.iter().zip(&outcomes) {
                let hit = outcome.hit.is_some();
                let rows = match (esp_table, hit) {
                    // Paper-ESP assumption: a miss terminates after at
                    // most `esp` shared bits.
                    (Some(esp_table), false) => esp_table.rows(outcome.max_lcp.min(esp)),
                    _ => outcome.rows,
                };
                load.queries += 1;
                load.rows += u64::from(rows);
                load.hits += u64::from(hit);
                deepest_rows = deepest_rows.max(rows);
                tally.add(rows);
                if let Some((_, taxon)) = outcome.hit {
                    hits.push((p.id(), taxon));
                }
            }
        }
        tally.merge();
        // Canonical match traffic (DESIGN.md §10): every task streams its
        // pairs once, each lookup reads its bucket's two offsets and its
        // two neighbour keys, and each hit reads its payload and emits
        // one hit record. The per-task charges sum to the same totals no
        // matter how the plan split the shard.
        use std::mem::size_of;
        let lookup_bytes = size_of::<Pair>() + 2 * size_of::<u32>() + 2 * size_of::<u64>();
        let (n, h) = (task_pairs.len() as u64, hits.len() as u64);
        prof::record(
            prof::Phase::DeviceMatch,
            n * lookup_bytes as u64 + h * size_of::<TaxonId>() as u64,
            h * size_of::<(u32, TaxonId)>() as u64,
            n,
        );
        TaskOutcome {
            subarray,
            load,
            deepest_rows,
            hits,
        }
    }

    fn check_k(&self, query: Kmer) -> Result<(), SieveError> {
        if query.k() != self.config.k {
            return Err(SieveError::KMismatch {
                expected: self.config.k,
                actual: query.k(),
            });
        }
        Ok(())
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
        assert_eq!(dev.lookup(q).unwrap(), None);
        let out = dev.run(&[q]).unwrap();
        assert_eq!(out.results, vec![None]);
        assert_eq!(out.report.row_activations, 0);
    }

    #[test]
    fn k_mismatch_rejected_everywhere() {
        let dev = device(SieveConfig::type3(8));
        let q21 = Kmer::from_u64(5, 21).unwrap();
        assert!(dev.lookup(q21).is_err());
        assert!(dev.run(&[q21]).is_err());
    }

    #[test]
    fn lookup_agrees_with_run() {
        let ds = dataset();
        let dev = device(SieveConfig::type3(8));
        let queries = probes(&ds, 30);
        let out = dev.run(&queries).unwrap();
        for (q, r) in queries.iter().zip(&out.results) {
            assert_eq!(dev.lookup(*q).unwrap(), *r);
        }
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
    fn scratch_arena_recycles_across_runs() {
        let ds = dataset();
        let dev = device(SieveConfig::type3(8));
        let queries = probes(&ds, 30);
        let first = dev.run(&queries).unwrap();
        assert_eq!(dev.scratch.pool.lock().unwrap().len(), 1);
        let second = dev.run(&queries).unwrap();
        assert_eq!(dev.scratch.pool.lock().unwrap().len(), 1);
        assert_eq!(first.results, second.results);
        assert_eq!(first.report, second.report);
        // Cloning must not share (or copy) pooled scratch.
        let cloned = dev.clone();
        assert_eq!(cloned.scratch.pool.lock().unwrap().len(), 0);
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
