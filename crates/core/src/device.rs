//! The public device model: load a reference set, run query batches,
//! get functional results plus a timing/energy report.

use std::sync::{Mutex, MutexGuard};

use sieve_genomics::{Kmer, TaxonId};

use crate::cache;
use crate::config::{DeviceKind, SieveConfig};
use crate::dedup;
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
/// end to end (shard order, dedup mapping, host read owners).
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

/// Reusable per-run working memory: dedup tables, the plan stage's
/// buffers, and the match-space result arrays. Checked out of the
/// device's [`ScratchArena`] at the top of [`SieveDevice::run`] and
/// returned afterwards, so a streaming host (`classify_stream`) reuses
/// one allocation set across all its chunks.
#[derive(Debug, Default)]
struct RunScratch {
    dedup: dedup::DedupScratch,
    /// Distinct k-mers of the current batch (dedup on).
    uniq: Vec<Kmer>,
    /// `mult[g]` = occurrences of `uniq[g]`.
    mult: Vec<u32>,
    /// `uniq_of[i]` = index into `uniq` for query `i`.
    uniq_of: Vec<u32>,
    planned: PlanScratch,
    /// Match-space result/work arrays (dedup on; with dedup off the
    /// results scatter straight into the output vector).
    space_results: Vec<Option<TaxonId>>,
    space_work: Vec<QueryWork>,
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

/// The device's cross-chunk hot-k-mer cache (see [`crate::cache`]),
/// engaged only on the streaming path ([`SieveDevice::run_streamed`]).
#[derive(Debug)]
struct HotCache {
    cap: usize,
    inner: Mutex<cache::KmerCache>,
}

impl HotCache {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            inner: Mutex::new(cache::KmerCache::new(cap)),
        }
    }

    /// Locks the cache. A run holds the guard across its match fan-out,
    /// which re-raises a worker's panic on the calling thread, so one
    /// panic poisons the lock; the next lock then starts over from an
    /// empty cache instead of trusting (or refusing) the old contents.
    /// That is always safe: replays are bit-identical to re-matching, so
    /// an emptied cache only costs speed.
    fn lock(&self) -> MutexGuard<'_, cache::KmerCache> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            *guard = cache::KmerCache::new(self.cap);
            self.inner.clear_poison();
            guard
        })
    }
}

impl Clone for HotCache {
    /// Cloned devices start with an empty cache of the same capacity:
    /// contents are a pure acceleration structure (replays are
    /// bit-identical to re-matching), so there is nothing semantic to
    /// copy, and sharing would entangle the clones' streams.
    fn clone(&self) -> Self {
        Self::new(self.cap)
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

/// One query's resolved work, before scheduling. The destination
/// subarray lives in the shard plan, not here.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QueryWork {
    /// Region-1 rows this lookup activates.
    pub rows: u32,
    /// Whether it hit (payload retrieval follows).
    pub hit: bool,
}

/// One match task's resolved output: the task's contribution to its
/// subarray's aggregate load, its hits (tagged with match-space ids for
/// the deterministic scatter), and — only when the run needs per-query
/// work downstream (Type-1 scheduling, cache fill) — one [`QueryWork`]
/// per task query in task order. Loads of tasks from the same (split)
/// shard are *accumulated* by the reduce, so the totals are independent
/// of how shards were split.
struct TaskOutcome {
    subarray: usize,
    load: sched::SubLoad,
    /// Deepest per-query row count in the task (the ETM-termination
    /// depth the trace reports).
    deepest_rows: u32,
    /// `(match-space id, payload)` per hit, in task order.
    hits: Vec<(u32, TaxonId)>,
    /// Per-query work in task order; empty unless requested.
    work: Vec<QueryWork>,
}

/// The match space of one run: the distinct k-mers when dedup is on,
/// each charged once per occurrence through `mult`, else the batch.
#[derive(Clone, Copy)]
struct Space<'r> {
    queries: &'r [Kmer],
    /// `mult[g]` = occurrences of `queries[g]` (dedup on).
    mult: Option<&'r [u32]>,
}

/// What every stage after dedup reads, fixed for the whole run.
struct RunCtx<'r> {
    index: &'r SubarrayIndex,
    threads: usize,
    /// The model clock at the run's start, where its model events land.
    t0: u64,
    /// Queries in the batch, counting every occurrence.
    n: usize,
    type1: bool,
    space: Space<'r>,
}

/// Where resolved outcomes accumulate, in match space: cache replays
/// land here in the plan stage, matched tasks in the reduce.
struct Accum<'a> {
    /// Payload per match-space query (`None` = miss).
    results: &'a mut [Option<TaxonId>],
    /// Aggregate load per occupied subarray.
    loads: &'a mut [sched::SubLoad],
    /// Per-query work in match space (Type-1 only).
    work: &'a mut Vec<QueryWork>,
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

    /// Counts `m` lookups that each activated `rows` rows.
    #[inline]
    fn add(&mut self, rows: u32, m: u64) {
        if self.observing {
            match self.small.get_mut(rows as usize) {
                Some(slot) => *slot += m,
                None => self.large.record_n(u64::from(rows), m),
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
    cache: HotCache,
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
        let hot_kmers = config.hot_kmers;
        Ok(Self {
            config,
            layout,
            index,
            keys,
            scratch: ScratchArena::default(),
            cache: HotCache::new(hot_kmers),
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

    /// Runs a query batch: deduplicates it to distinct k-mers (unless
    /// [`SieveConfig::dedup`] is off), groups the distinct set into
    /// per-subarray shards by a counting scatter, resolves the shards —
    /// split into bounded tasks — functionally on worker threads,
    /// schedules the merged work on the configured design point with
    /// every duplicate charged its cached outcome's full cost, and
    /// scatters results back to all occurrences.
    ///
    /// The dedup → plan → match → reduce structure is deterministic:
    /// per-query results are scattered back by input index and every
    /// merged quantity is an integer sum, so the output is bit-identical
    /// for any [`SieveConfig::threads`] or [`SieveConfig::dedup`]
    /// setting.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::KMismatch`] if any query's k differs from
    /// the loaded database's, and [`SieveError::BatchTooLarge`] if the
    /// batch exceeds the pipeline's `u32` indexing bound.
    pub fn run(&self, queries: &[Kmer]) -> Result<RunOutput, SieveError> {
        self.run_checked(queries, false)
    }

    /// [`Self::run`] with the cross-chunk hot-k-mer cache engaged: repeat
    /// k-mers replay their cached per-subarray outcome instead of
    /// re-entering the route/group/match path. Used by the streaming host
    /// (`classify_stream`), where consecutive chunks share hot k-mers.
    /// Results and reports are bit-identical to [`Self::run`].
    pub(crate) fn run_streamed(&self, queries: &[Kmer]) -> Result<RunOutput, SieveError> {
        self.run_checked(queries, true)
    }

    fn run_checked(&self, queries: &[Kmer], use_cache: bool) -> Result<RunOutput, SieveError> {
        for q in queries {
            self.check_k(*q)?;
        }
        check_batch_len(queries.len())?;
        let mut scratch = self.scratch.take();
        let out = self.run_with(queries, &mut scratch, use_cache);
        self.scratch.put(scratch);
        Ok(out)
    }

    /// One run, stage by stage: dedup → plan (cache probe, pair build,
    /// route and group) → match → reduce → expand → schedule. Each stage
    /// is its own function under its own span; this one threads the
    /// scratch buffers between them.
    fn run_with(&self, queries: &[Kmer], scratch: &mut RunScratch, use_cache: bool) -> RunOutput {
        obs::global().add(obs::CounterId::DeviceRuns, 1);
        let threads = par::effective_threads(self.config.threads);
        let t0 = trace::global().model_ps();
        let Some(index) = &self.index else {
            return self.run_empty(queries, threads, t0);
        };
        let RunScratch {
            dedup,
            uniq,
            mult,
            uniq_of,
            planned,
            space_results,
            space_work,
            loads,
        } = scratch;
        let dedup_on = self.dedup_stage(queries, threads, dedup, uniq, mult, uniq_of);
        let ctx = RunCtx {
            index,
            threads,
            t0,
            n: queries.len(),
            type1: matches!(self.config.device, DeviceKind::Type1),
            space: if dedup_on {
                Space {
                    queries: uniq,
                    mult: Some(mult),
                }
            } else {
                Space {
                    queries,
                    mult: None,
                }
            },
        };

        let mut results = vec![None; ctx.n];
        // Loads span every occupied subarray: cache replays may land on
        // subarrays the current batch's plan never routes to. The
        // schedulers skip zero-query entries, so the extra length is
        // inert when the cache is off.
        loads.clear();
        loads.resize(index.len(), sched::SubLoad::default());
        let mut acc = Accum {
            // A deduplicated run resolves into the distinct k-mers' table
            // (expanded to every occurrence below), any other straight
            // into the output.
            results: if dedup_on {
                space_results.clear();
                space_results.resize(ctx.space.queries.len(), None);
                &mut space_results[..]
            } else {
                &mut results
            },
            loads,
            work: space_work,
        };
        // The cache serves only the streaming path, and never Type-1
        // (its per-batch ETM recomputes row counts from raw k-mers).
        let mut cache =
            (use_cache && self.config.hot_kmers > 0 && !ctx.type1).then(|| self.cache.lock());
        let inserting = self.plan_stage(&ctx, cache.as_deref_mut(), &mut acc, planned);
        let outcomes = self.match_stage(&ctx, planned, ctx.type1 || inserting);
        let inserts = cache.as_deref_mut().filter(|_| inserting);
        self.reduce_stage(&ctx, outcomes, inserts, &mut acc, planned);
        drop(cache);
        if dedup_on {
            expand_stage(threads, &mut results, space_results, uniq_of);
        }
        let report = self.schedule_stage(&ctx, loads, space_work, planned);
        RunOutput { results, report }
    }

    /// A run against an empty device: every query misses in zero time.
    fn run_empty(&self, queries: &[Kmer], threads: usize, t0: u64) -> RunOutput {
        let report = match self.config.device {
            DeviceKind::Type1 => sched::simulate_type1(
                &self.config,
                &self.layout,
                queries,
                &[],
                None,
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

    /// Dedup: collapses the batch to its distinct k-mers. `mult` then
    /// scales every accounted quantity back to occurrence counts, so the
    /// run's observable output is identical with the knob off — which is
    /// also why dedup may veto itself (returning false) when its sample
    /// probe finds too few duplicates to pay for the build.
    fn dedup_stage(
        &self,
        queries: &[Kmer],
        threads: usize,
        scratch: &mut dedup::DedupScratch,
        uniq: &mut Vec<Kmer>,
        mult: &mut Vec<u32>,
        uniq_of: &mut Vec<u32>,
    ) -> bool {
        self.config.dedup && !queries.is_empty() && {
            let _span = obs::global().span("device.dedup");
            dedup::dedup(queries, threads, scratch, uniq, mult, uniq_of)
        }
    }

    /// Plan: decides cache engagement from a strided sample, replays the
    /// cached queries (their loads and results land in `acc` here, and
    /// they skip the device stages), builds the `(bits, id)` pairs for
    /// the rest, and groups them by subarray into the shard plan. Returns
    /// whether the cache takes inserts from this run's outcomes.
    fn plan_stage(
        &self,
        ctx: &RunCtx<'_>,
        mut cache: Option<&mut cache::KmerCache>,
        acc: &mut Accum<'_>,
        planned: &mut PlanScratch,
    ) -> bool {
        let rec = obs::global();
        let tr = trace::global();
        let _span = rec.span("device.plan");
        let _wall = tr.span("device.plan");
        let space = ctx.space;
        let engagement = match cache.as_deref_mut() {
            Some(cache) if !space.queries.is_empty() => {
                let stride = (space.queries.len() / cache::ENGAGE_SAMPLE).max(1);
                cache.assess(space.queries.iter().step_by(stride).map(|q| q.bits()))
            }
            _ => cache::Engagement::Warm,
        };
        let probe = cache
            .as_deref()
            .filter(|_| engagement == cache::Engagement::Probe);
        let mut tally = RowsTally::new();
        let mut cached = 0u64;
        // Every query the cache does not replay becomes a `(bits, id)`
        // pair.
        let queries = space.queries.iter().enumerate();
        planned.pairs.clear();
        match probe {
            // Without replays every query is a pair: one exact-size
            // extend. Pushing each pair instead measured ~1 ms slower per
            // 700k-pair batch.
            None => planned
                .pairs
                .extend(queries.map(|(g, q)| Pair::new(q.bits(), g as u32))),
            Some(cache) => {
                for (g, q) in queries {
                    let bits = q.bits();
                    let Some(e) = cache.get(bits) else {
                        planned.pairs.push(Pair::new(bits, g as u32));
                        continue;
                    };
                    let m = space.mult.map_or(1, |m| u64::from(m[g]));
                    let load = &mut acc.loads[e.sub as usize];
                    load.queries += m;
                    load.rows += u64::from(e.rows) * m;
                    load.hits += u64::from(e.taxon.is_some()) * m;
                    cached += m;
                    tally.add(e.rows, m);
                    acc.results[g] = e.taxon;
                }
            }
        }
        tally.merge();
        if probe.is_some() {
            // Weighted (occurrence) counts: identical with dedup on or
            // off, and across thread counts.
            let missed = ctx.n as u64 - cached;
            rec.add(obs::CounterId::CacheHits, cached);
            rec.add(obs::CounterId::CacheMisses, missed);
            rec.record(obs::HistId::CacheHitKmers, cached);
            tr.emit_model("cache.probe", 0, ctx.t0, 0, cached, missed);
        }
        rec.add(obs::CounterId::MatchQueries, cached);
        rec.add(
            obs::CounterId::MatchHits,
            acc.loads.iter().map(|l| l.hits).sum::<u64>(),
        );
        planned
            .shards
            .rebuild(ctx.index, &mut planned.pairs, &mut planned.pairs_scratch);
        cache.is_some_and(|cache| cache.accepts_inserts())
    }

    /// Match: resolves every planned task — the pieces of a split shard
    /// included — on the worker threads; outcomes come back in task
    /// order.
    fn match_stage(
        &self,
        ctx: &RunCtx<'_>,
        planned: &PlanScratch,
        keep_work: bool,
    ) -> Vec<TaskOutcome> {
        let _span = obs::global().span("device.match");
        let _wall = trace::global().span("device.match");
        // Row tables: the per-lookup `rows_activated` arithmetic hoisted
        // out of the match loop. Type-1 row counts come from per-batch
        // ETM (the scheduler recomputes them), so its functional matching
        // runs with zero flush; the ESP cap path charges the configured
        // flush on every design point.
        let bit_len = 2 * self.config.k;
        let (etm, flush) = (self.config.etm_enabled, self.config.etm_flush_cycles);
        let table = etm::RowTable::new(bit_len, etm, if ctx.type1 { 0 } else { flush });
        let esp_table = self
            .config
            .esp_override
            .map(|_| etm::RowTable::new(bit_len, etm, flush));
        par::map_indexed(ctx.threads, planned.shards.task_count(), |t| {
            let (subarray, range) = planned.shards.task(t);
            self.match_pairs(
                subarray,
                &planned.pairs[range],
                ctx.space.mult,
                &table,
                esp_table.as_ref(),
                keep_work,
            )
        })
    }

    /// Reduce: accumulates loads per subarray (tasks of a split shard
    /// sum), scatters hits by id, records per-query work for the Type-1
    /// scheduler, and feeds `inserts` (the cache, when it takes inserts)
    /// in task order.
    fn reduce_stage(
        &self,
        ctx: &RunCtx<'_>,
        outcomes: Vec<TaskOutcome>,
        mut inserts: Option<&mut cache::KmerCache>,
        acc: &mut Accum<'_>,
        planned: &PlanScratch,
    ) {
        let rec = obs::global();
        let tr = trace::global();
        let _span = rec.span("device.reduce");
        let _wall = tr.span("device.reduce");
        let tracing = tr.is_enabled();
        if ctx.type1 {
            acc.work.clear();
            acc.work
                .resize(ctx.space.queries.len(), QueryWork::default());
        }
        let mut inserted = 0u64;
        let mut reduce_hits = 0u64;
        for (t, outcome) in outcomes.into_iter().enumerate() {
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
            let load = &mut acc.loads[outcome.subarray];
            load.queries += outcome.load.queries;
            load.rows += outcome.load.rows;
            load.hits += outcome.load.hits;
            for &(id, taxon) in &outcome.hits {
                acc.results[id as usize] = Some(taxon);
            }
            if outcome.work.is_empty() {
                continue;
            }
            let (_, range) = planned.shards.task(t);
            let task_pairs = &planned.pairs[range];
            debug_assert_eq!(task_pairs.len(), outcome.work.len());
            if ctx.type1 {
                for (&p, &w) in task_pairs.iter().zip(&outcome.work) {
                    acc.work[p.id() as usize] = w;
                }
            }
            if let Some(cache) = inserts.as_deref_mut() {
                let mut hit_iter = outcome.hits.iter();
                for (&p, w) in task_pairs.iter().zip(&outcome.work) {
                    let taxon = if w.hit {
                        Some(hit_iter.next().expect("hit per flagged query").1)
                    } else {
                        None
                    };
                    let entry = cache::Cached {
                        sub: outcome.subarray as u32,
                        rows: w.rows,
                        taxon,
                    };
                    inserted += u64::from(cache.insert(p.key(), entry));
                }
            }
        }
        if inserts.is_some() {
            rec.add(obs::CounterId::CacheInserts, inserted);
        }
        // Reduce rereads each task's hit list and scatters it into the
        // result table: one read and one write per hit record.
        let hit_bytes = reduce_hits * std::mem::size_of::<(u32, TaxonId)>() as u64;
        prof::record(prof::Phase::DeviceReduce, hit_bytes, hit_bytes, reduce_hits);
        if rec.is_enabled() {
            // Per-subarray query counts (occurrence-expanded, cache
            // replays included), recorded in subarray order so the
            // histogram is independent of the task split and the thread
            // count. One record per subarray that received queries,
            // matching the MatchShards counter.
            let mut shards = 0u64;
            for load in acc.loads.iter().filter(|l| l.queries > 0) {
                shards += 1;
                rec.record(obs::HistId::ShardQueries, load.queries);
            }
            rec.add(obs::CounterId::MatchShards, shards);
        }
    }

    /// Schedule: times the merged work on the configured design point,
    /// emits the run's model interval, and advances the model clock.
    fn schedule_stage(
        &self,
        ctx: &RunCtx<'_>,
        loads: &[sched::SubLoad],
        work: &[QueryWork],
        planned: &PlanScratch,
    ) -> SimReport {
        let hits: u64 = loads.iter().map(|l| l.hits).sum();
        let report = match self.config.device {
            DeviceKind::Type1 => sched::simulate_type1(
                &self.config,
                &self.layout,
                ctx.space.queries,
                work,
                ctx.space.mult,
                &planned.shards,
                &planned.pairs,
                ctx.threads,
                ctx.n as u64,
                hits,
            ),
            _ => sched::simulate_type23(&self.config, loads),
        };
        debug_assert_eq!(report.hits, hits);
        let tr = trace::global();
        tr.emit_model(
            "device.run",
            0,
            ctx.t0,
            report.makespan_ps,
            ctx.n as u64,
            hits,
        );
        tr.advance_model_ps(report.makespan_ps);
        report
    }

    /// Resolves one match task: looks the task's `(bits, id)` pairs up
    /// in the destination subarray through the key table, in fixed-size
    /// blocks ([`MATCH_BLOCK`]), producing the task's aggregate load, its
    /// hits, and (when `keep_work`) per-query work. `mult` (dedup on)
    /// charges each distinct k-mer's outcome once per occurrence.
    fn match_pairs(
        &self,
        subarray: usize,
        task_pairs: &[Pair],
        mult: Option<&[u32]>,
        table: &etm::RowTable,
        esp_table: Option<&etm::RowTable>,
        keep_work: bool,
    ) -> TaskOutcome {
        let mut tally = RowsTally::new();
        let mut load = sched::SubLoad::default();
        let mut deepest_rows = 0u32;
        let mut hits = Vec::new();
        let mut work = Vec::with_capacity(if keep_work { task_pairs.len() } else { 0 });
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
                let id = p.id();
                let m = mult.map_or(1u64, |m| u64::from(m[id as usize]));
                let hit = outcome.hit.is_some();
                let rows = match (esp_table, hit) {
                    // Paper-ESP assumption: a miss terminates after at
                    // most `esp` shared bits.
                    (Some(esp_table), false) => esp_table.rows(outcome.max_lcp.min(esp)),
                    _ => outcome.rows,
                };
                load.queries += m;
                load.rows += u64::from(rows) * m;
                load.hits += u64::from(hit) * m;
                deepest_rows = deepest_rows.max(rows);
                tally.add(rows, m);
                if let Some((_, taxon)) = outcome.hit {
                    hits.push((id, taxon));
                }
                if keep_work {
                    work.push(QueryWork { rows, hit });
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
            work,
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

/// Expand: scatters each distinct k-mer's result to its occurrences.
fn expand_stage(
    threads: usize,
    results: &mut [Option<TaxonId>],
    space_results: &[Option<TaxonId>],
    uniq_of: &[u32],
) {
    let _span = obs::global().span("device.expand");
    let _wall = trace::global().span("device.expand");
    let chunk = results.len().div_ceil(threads).max(1);
    let mut items: Vec<(&mut [Option<TaxonId>], &[u32])> = results
        .chunks_mut(chunk)
        .zip(uniq_of.chunks(chunk))
        .collect();
    par::for_each_mut(threads, &mut items, |(out, uniq_of)| {
        for (slot, &g) in out.iter_mut().zip(uniq_of.iter()) {
            *slot = space_results[g as usize];
        }
    });
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
    fn dedup_on_and_off_produce_identical_output() {
        let ds = dataset();
        // Heavy duplication: every probe appears several times.
        let base = probes(&ds, 40);
        let mut queries = Vec::new();
        for _ in 0..3 {
            queries.extend_from_slice(&base);
        }
        for config in [
            SieveConfig::type1(),
            SieveConfig::type2(4),
            SieveConfig::type3(8),
        ] {
            let on = device(config.clone().with_dedup(true))
                .run(&queries)
                .unwrap();
            let off = device(config.with_dedup(false)).run(&queries).unwrap();
            assert_eq!(on.results, off.results);
            assert_eq!(on.report, off.report);
        }
    }

    #[test]
    fn streamed_cache_replays_are_bit_identical() {
        let ds = dataset();
        let queries = probes(&ds, 60);
        let dev = device(SieveConfig::type3(8));
        // First streamed run fills the cache; the second replays most of
        // the batch from it. Both must equal the uncached batch run.
        let batch = dev.run(&queries).unwrap();
        let first = dev.run_streamed(&queries).unwrap();
        let second = dev.run_streamed(&queries).unwrap();
        assert!(!dev.cache.inner.lock().unwrap().is_empty());
        for out in [&first, &second] {
            assert_eq!(out.results, batch.results);
            assert_eq!(out.report, batch.report);
        }
        // The batch API must never touch the cache.
        let cached = dev.cache.inner.lock().unwrap().len();
        let _ = dev.run(&queries).unwrap();
        assert_eq!(dev.cache.inner.lock().unwrap().len(), cached);
    }

    #[test]
    fn poisoned_cache_lock_restarts_from_an_empty_cache() {
        let ds = dataset();
        let queries = probes(&ds, 60);
        let dev = device(SieveConfig::type3(8));
        let batch = dev.run(&queries).unwrap();
        let _ = dev.run_streamed(&queries).unwrap();
        // A panic while the guard is held — what a match worker's panic
        // re-raised on the calling thread does — poisons the lock.
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = dev.cache.inner.lock().unwrap();
            panic!("worker panicked while the cache was held");
        }));
        assert!(poisoner.is_err());
        assert!(dev.cache.inner.is_poisoned());
        // The next streamed runs recover: the first from an emptied
        // cache, the second replaying what the first refilled.
        for _ in 0..2 {
            let streamed = dev.run_streamed(&queries).unwrap();
            assert_eq!(streamed.results, batch.results);
            assert_eq!(streamed.report, batch.report);
        }
        assert!(!dev.cache.inner.is_poisoned());
        assert!(!dev.cache.inner.lock().unwrap().is_empty());
    }

    #[test]
    fn zero_capacity_cache_disables_replay() {
        let ds = dataset();
        let queries = probes(&ds, 30);
        let dev = device(SieveConfig::type3(8).with_hot_kmers(0));
        let batch = dev.run(&queries).unwrap();
        let streamed = dev.run_streamed(&queries).unwrap();
        assert_eq!(streamed.results, batch.results);
        assert_eq!(streamed.report, batch.report);
        assert!(dev.cache.inner.lock().unwrap().is_empty());
    }

    #[test]
    fn long_period_redundancy_reengages_the_cache() {
        let dev = device(SieveConfig::type3(8));
        let batch = |b: u64| -> Vec<Kmer> {
            (0..2_000u64)
                .map(|i| Kmer::from_u64(b * 1_000_000 + i, 31).unwrap())
                .collect()
        };
        // Four batches of entirely novel k-mers: every engagement sample
        // runs cold, so no full probe fires, but the cache keeps warming
        // (all four batches fit under the warm cap).
        let mut outputs = Vec::new();
        for b in 0..4 {
            outputs.push(dev.run_streamed(&batch(b)).unwrap());
        }
        assert!(!dev.cache.inner.lock().unwrap().is_proven());
        // Batch 0 recurs with a period longer than any fixed strike
        // budget could tolerate: the sample hits its warmed entries, the
        // run replays from the cache, and the replay is bit-identical.
        let replay = dev.run_streamed(&batch(0)).unwrap();
        assert!(dev.cache.inner.lock().unwrap().is_proven());
        assert_eq!(replay.results, outputs[0].results);
        assert_eq!(replay.report, outputs[0].report);
    }

    #[test]
    fn cloned_device_starts_with_an_empty_cache() {
        let ds = dataset();
        let queries = probes(&ds, 30);
        let dev = device(SieveConfig::type3(8));
        let _ = dev.run_streamed(&queries).unwrap();
        assert!(!dev.cache.inner.lock().unwrap().is_empty());
        let cloned = dev.clone();
        assert!(cloned.cache.inner.lock().unwrap().is_empty());
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
