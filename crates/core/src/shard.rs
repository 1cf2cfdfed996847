//! Query sharding for the parallel simulation core.
//!
//! A run shards its query batch by destination subarray — the same
//! sorted-partition routing the index table performs in hardware — so
//! that each shard can be matched and its timeline accounted
//! independently on a worker thread. Planning is near-linear: the
//! radix pipeline ([`crate::radix`]) fully orders the
//! `(k-mer bits, id)` pairs (skipping constant digit windows, staging
//! scatters through write-combining buffers), then routing is a handful
//! of binary searches of the sorted sequence against the index's
//! subarray boundaries (one `partition_point` per occupied subarray,
//! not a walk over every query). Shards are further split into bounded
//! *tasks* so a handful of fat shards cannot cap parallelism: each task
//! restarts its own forward-only merge cursor at the split boundary.
//!
//! The reduce step scatters per-query results back by id and merges
//! per-subarray resource loads with integer sums, so the run's output is
//! bit-identical for every thread count.

use crate::index::SubarrayIndex;
use crate::obs;
use crate::radix;
use crate::trace;

/// Target task size: big enough that a merge-cursor restart (one gallop
/// from the subarray's first entry) amortizes to nothing, small enough
/// that bench-scale batches produce far more tasks than cores. Fixed —
/// not derived from the thread count — so the task list, and with it
/// every per-shard observation, is thread-count independent.
const TASK_TARGET: usize = 4_096;

/// Queries bucketed by destination (occupied) subarray, split into
/// bounded per-worker tasks.
///
/// The plan does not own the routed queries: it describes contiguous
/// ranges of the caller's radix-sorted `(k-mer bits, id)` pair array.
/// Within a shard, pairs are ordered by `(bits, id)`: the matcher can
/// then walk the subarray's sorted entries with a forward-only merge
/// cursor ([`crate::engine::MergeCursor`]) instead of an independent
/// binary search per query.
#[derive(Debug, Default)]
pub(crate) struct ShardPlan {
    /// Shard `s` covers sorted pairs `starts[s]..starts[s + 1]`.
    starts: Vec<usize>,
    /// Destination subarray of each shard, strictly ascending.
    subarrays: Vec<u32>,
    /// Work units for the match fan-out: `(shard, lo, hi)` positions in
    /// the sorted pair array. Tasks partition every shard in order.
    tasks: Vec<(u32, u32, u32)>,
}

impl ShardPlan {
    /// The plan of an empty device: no routing, zero shards.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Rebuilds the plan in place (all buffers reuse their capacity),
    /// sorting and routing the caller-filled `pairs` through `index`.
    /// `pairs_scratch` is the sort's ping-pong buffer and `sort` its
    /// count/staging tables, both owned by the caller's scratch arena.
    /// `diff` optionally carries the batch's precomputed OR-fold of
    /// `key ^ first_key` (see [`radix::sort_pairs`]) so the sort can
    /// skip its own scan over the keys.
    ///
    /// The sort is stable on k-mer bits whenever ids are assigned in
    /// input order, and the boundary searches are pure functions of the
    /// sorted sequence, so the plan is identical for every `threads`
    /// value.
    pub fn rebuild(
        &mut self,
        index: &SubarrayIndex,
        pairs: &mut Vec<radix::Pair>,
        pairs_scratch: &mut Vec<radix::Pair>,
        sort: &mut radix::SortScratch,
        threads: usize,
        diff: Option<u64>,
    ) {
        self.starts.clear();
        self.subarrays.clear();
        self.tasks.clear();
        debug_assert!(
            u32::try_from(pairs.len()).is_ok(),
            "callers bound batches to u32 ids (SieveError::BatchTooLarge)"
        );
        if pairs.is_empty() {
            return;
        }

        {
            let _span = obs::span("shard.sort");
            let _wall = trace::span("shard.sort");
            radix::sort_pairs(pairs, pairs_scratch, sort, threads, diff);
        }
        {
            let _span = obs::span("shard.route");
            let _wall = trace::span("shard.route");
            self.route(index, pairs);
        }
        self.emit_trace();
    }

    /// Routes the sorted pair array by boundary: subarray d's shard is
    /// the sorted range below `firsts[d + 1]` that earlier subarrays did
    /// not claim (queries below the first range conservatively route to
    /// subarray 0, exactly like `SubarrayIndex::locate`). One binary
    /// search per occupied subarray replaces the per-query merge-join
    /// walk.
    fn route(&mut self, index: &SubarrayIndex, pairs: &[radix::Pair]) {
        let firsts = index.first_bits();
        let n = pairs.len();
        let mut lo = 0usize;
        for d in 0..firsts.len() {
            let hi = if d + 1 < firsts.len() {
                lo + pairs[lo..].partition_point(|p| p.key() < firsts[d + 1])
            } else {
                n
            };
            if hi > lo {
                self.subarrays.push(d as u32);
                self.starts.push(lo);
                self.split_tasks(lo, hi);
                lo = hi;
            }
            if lo == n {
                break;
            }
        }
        self.starts.push(n);
    }

    /// Splits shard range `[lo, hi)` into near-equal tasks of at most
    /// [`TASK_TARGET`], appended to `tasks` for the just-pushed shard.
    fn split_tasks(&mut self, lo: usize, hi: usize) {
        let s = (self.subarrays.len() - 1) as u32;
        let len = hi - lo;
        let pieces = len.div_ceil(TASK_TARGET).max(1);
        for p in 0..pieces {
            let t_lo = lo + len * p / pieces;
            let t_hi = lo + len * (p + 1) / pieces;
            self.tasks.push((s, t_lo as u32, t_hi as u32));
        }
    }

    /// Emits the plan to the model trace in shard/task order. The plan is
    /// a pure function of the batch (thread-count independent, proven by
    /// tests below), so emitting it in one place keeps the model stream
    /// deterministic even when tasks were dispatched concurrently.
    fn emit_trace(&self) {
        let tr = trace::global();
        if !tr.is_enabled() {
            return;
        }
        let ts = tr.model_ps();
        for s in 0..self.subarrays.len() {
            let len = (self.starts[s + 1] - self.starts[s]) as u64;
            tr.emit_model("shard.dispatch", self.subarrays[s], ts, 0, len, 0);
        }
        for &(s, lo, hi) in &self.tasks {
            tr.emit_model(
                "task.split",
                self.subarrays[s as usize],
                ts,
                0,
                u64::from(hi - lo),
                u64::from(lo),
            );
        }
    }

    /// Number of shards (= occupied subarrays that received queries).
    #[cfg(test)]
    pub fn shard_count(&self) -> usize {
        self.subarrays.len()
    }

    /// Shard `s`: its destination subarray and its range of the sorted
    /// pair array.
    #[cfg(test)]
    pub fn shard(&self, s: usize) -> (usize, std::ops::Range<usize>) {
        (
            self.subarrays[s] as usize,
            self.starts[s]..self.starts[s + 1],
        )
    }

    /// Number of match tasks (shards split to at most [`TASK_TARGET`]
    /// queries; ≥ `shard_count`).
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Task `t`: its destination subarray and its range of the sorted
    /// pair array (a contiguous sub-range of one shard).
    pub fn task(&self, t: usize) -> (usize, std::ops::Range<usize>) {
        let (s, lo, hi) = self.tasks[t];
        (
            self.subarrays[s as usize] as usize,
            lo as usize..hi as usize,
        )
    }

    /// One past the highest routed subarray (the length a per-subarray
    /// load table needs).
    #[cfg(test)]
    pub fn subarray_span(&self) -> usize {
        self.subarrays.last().map_or(0, |&s| s as usize + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SieveConfig;
    use crate::layout::DeviceLayout;
    use sieve_dram::Geometry;
    use sieve_genomics::{synth, Kmer};

    fn make_pairs(queries: &[Kmer]) -> Vec<radix::Pair> {
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| radix::Pair::new(q.bits(), i as u32))
            .collect()
    }

    fn build(
        index: &SubarrayIndex,
        queries: &[Kmer],
        threads: usize,
    ) -> (ShardPlan, Vec<radix::Pair>) {
        let mut plan = ShardPlan::empty();
        let mut pairs = make_pairs(queries);
        let mut scratch = Vec::new();
        let mut sort = radix::SortScratch::default();
        plan.rebuild(index, &mut pairs, &mut scratch, &mut sort, threads, None);
        (plan, pairs)
    }

    fn plan_inputs() -> (SubarrayIndex, Vec<Kmer>) {
        let ds = synth::make_dataset_with(8, 2048, 31, 5);
        let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
        let layout = DeviceLayout::build(ds.entries.clone(), &config).unwrap();
        let index = SubarrayIndex::build(&layout);
        let queries: Vec<Kmer> = ds.entries.iter().step_by(17).map(|(k, _)| *k).collect();
        (index, queries)
    }

    #[test]
    fn plan_is_thread_count_independent() {
        let (index, queries) = plan_inputs();
        let (base, base_pairs) = build(&index, &queries, 1);
        for threads in [2, 3, 8] {
            let (plan, pairs) = build(&index, &queries, threads);
            assert_eq!(pairs, base_pairs);
            assert_eq!(plan.starts, base.starts);
            assert_eq!(plan.subarrays, base.subarrays);
            assert_eq!(plan.tasks, base.tasks);
        }
    }

    #[test]
    fn plan_covers_every_query_exactly_once() {
        let (index, queries) = plan_inputs();
        let (plan, pairs) = build(&index, &queries, 4);
        let mut seen = vec![false; queries.len()];
        for s in 0..plan.shard_count() {
            let (sub, range) = plan.shard(s);
            assert!(sub < plan.subarray_span());
            let shard_pairs = &pairs[range];
            for window in shard_pairs.windows(2) {
                assert!(
                    window[0].key() <= window[1].key(),
                    "shard not sorted by k-mer bits"
                );
            }
            for &p in shard_pairs {
                let (bits, i) = (p.key(), p.id());
                assert_eq!(queries[i as usize].bits(), bits);
                assert_eq!(index.locate(queries[i as usize]), sub);
                assert!(!seen[i as usize], "query routed twice");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn tasks_partition_shards_in_order() {
        let (index, queries) = plan_inputs();
        // Duplicate the batch several times so at least one shard exceeds
        // TASK_TARGET and splits.
        let mut big: Vec<Kmer> = Vec::new();
        while big.len() < 3 * TASK_TARGET {
            big.extend_from_slice(&queries);
        }
        let (plan, _pairs) = build(&index, &big, 4);
        assert!(plan.task_count() >= plan.shard_count());
        assert!(
            plan.task_count() > plan.shard_count(),
            "expected at least one split shard"
        );
        // Concatenating tasks shard by shard reproduces each shard's
        // range, and no task exceeds the target size.
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); plan.shard_count()];
        for t in 0..plan.task_count() {
            let (sub, range) = plan.task(t);
            assert!(range.len() <= TASK_TARGET);
            let s = plan
                .subarrays
                .iter()
                .position(|&x| x as usize == sub)
                .unwrap();
            by_shard[s].extend(range);
        }
        for (s, positions) in by_shard.iter().enumerate() {
            assert_eq!(positions.len(), plan.shard(s).1.len());
            assert!(positions
                .iter()
                .zip(plan.shard(s).1)
                .all(|(&got, want)| got == want));
        }
    }

    #[test]
    fn routing_matches_locate_with_duplicates() {
        let (index, queries) = plan_inputs();
        // Force duplicates: every query twice, plus an off-range probe.
        let mut dup: Vec<Kmer> = queries.iter().flat_map(|&q| [q, q]).collect();
        dup.push(Kmer::from_u64(0, 31).unwrap());
        let (plan, pairs) = build(&index, &dup, 2);
        for s in 0..plan.shard_count() {
            let (sub, range) = plan.shard(s);
            for &p in &pairs[range] {
                assert_eq!(index.locate(dup[p.id() as usize]), sub);
            }
        }
    }

    #[test]
    fn empty_inputs_make_empty_plans() {
        let (index, _) = plan_inputs();
        let (plan, _) = build(&index, &[], 4);
        assert_eq!(plan.shard_count(), 0);
        assert_eq!(plan.subarray_span(), 0);
        assert_eq!(plan.task_count(), 0);
        assert_eq!(ShardPlan::empty().shard_count(), 0);
    }
}
