//! Query sharding for the parallel simulation core.
//!
//! A run shards its query batch by destination subarray — the same
//! sorted-partition routing the index table performs in hardware — so
//! that each shard can be matched and its timeline accounted
//! independently on a worker thread. Planning is one stable two-pass
//! counting scatter on the destination subarray, the host-side shape of
//! the paper's "one binary search over the `(first, last)` index, then
//! group per subarray": the histogram pass routes every
//! `(k-mer bits, id)` pair by [`SubarrayIndex::locate`]'s rule (one
//! `partition_point` over the subarrays' first keys), a prefix sum turns
//! the counts into shard offsets, and the scatter pass routes again and
//! writes each pair to its shard in arrival order. Routing twice costs
//! less than remembering each pair's destination, whose buffer would
//! raise the run's peak heap. Nothing needs the queries sorted: the
//! matcher resolves each one through the device's direct-mapped key
//! table ([`crate::engine::KeyTable`]). Shards are further split into
//! bounded *tasks* so a handful of fat shards cannot cap parallelism.
//!
//! The reduce step scatters per-query results back by id and merges
//! per-subarray resource loads with integer sums, so the run's output is
//! bit-identical for every thread count.

use crate::index::SubarrayIndex;
use crate::obs;
use crate::prof;
use crate::trace;

/// Target task size: small enough that bench-scale batches produce far
/// more tasks than cores. Fixed — not derived from the thread count — so
/// the task list, and with it every per-shard observation, is
/// thread-count independent.
const TASK_TARGET: usize = 4_096;

/// A planner record: the 2-bit-packed k-mer value and the query id it
/// came from, packed to 12 bytes (`#[repr(C, packed(4))]`, `u64` key +
/// `u32` id; ids fit because `SieveError::BatchTooLarge` caps batches at
/// `u32::MAX`), so each scatter pass moves a quarter fewer bytes than
/// the naturally aligned 16-byte tuple. Fields are private because a
/// packed struct cannot hand out field references; the by-value
/// accessors copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(C, packed(4))]
pub(crate) struct Pair {
    key: u64,
    id: u32,
}

impl Pair {
    /// Builds a record.
    #[inline]
    pub(crate) fn new(key: u64, id: u32) -> Self {
        Self { key, id }
    }

    /// The k-mer bits (routing key).
    #[inline]
    pub(crate) fn key(self) -> u64 {
        self.key
    }

    /// The query id (scatter target of the reduce).
    #[inline]
    pub(crate) fn id(self) -> u32 {
        self.id
    }
}

/// Bytes of one [`Pair`], the unit of the `shard.sort` traffic charge.
const PAIR_BYTES: u64 = std::mem::size_of::<Pair>() as u64;

/// Queries grouped by destination (occupied) subarray, split into
/// bounded per-worker tasks.
///
/// The plan does not own the routed queries: it describes contiguous
/// ranges of the caller's grouped `(k-mer bits, id)` pair array. Within
/// a shard, pairs keep their arrival order, so ids strictly ascend
/// whenever the caller assigns them in input order.
#[derive(Debug, Default)]
pub(crate) struct ShardPlan {
    /// Shard `s` covers grouped pairs `starts[s]..starts[s + 1]`.
    starts: Vec<usize>,
    /// Destination subarray of each shard, strictly ascending.
    subarrays: Vec<u32>,
    /// Work units for the match fan-out: `(shard, lo, hi)` positions in
    /// the grouped pair array. Tasks partition every shard in order.
    tasks: Vec<(u32, u32, u32)>,
    /// Per-subarray histogram, then the scatter's write cursors.
    cursors: Vec<u32>,
}

impl ShardPlan {
    /// The plan of an empty device: no routing, zero shards.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Rebuilds the plan in place (all buffers reuse their capacity),
    /// grouping the caller-filled `pairs` by the subarray `index` routes
    /// them to. `pairs_scratch` is the scatter's destination, owned by
    /// the caller's scratch arena; the two swap, so the grouped pairs
    /// end up in `pairs`. The plan is a pure function of the batch and
    /// the index.
    pub fn rebuild(
        &mut self,
        index: &SubarrayIndex,
        pairs: &mut Vec<Pair>,
        pairs_scratch: &mut Vec<Pair>,
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
            self.group(index, pairs, pairs_scratch);
        }
        self.emit_trace();
    }

    /// The stable two-pass counting scatter, routing each pair by
    /// `SubarrayIndex::locate`'s rule in both passes.
    fn group(&mut self, index: &SubarrayIndex, pairs: &mut Vec<Pair>, scratch: &mut Vec<Pair>) {
        let n = pairs.len();
        let mut cursors = std::mem::take(&mut self.cursors);
        cursors.clear();
        cursors.resize(index.len(), 0);
        for p in pairs.iter() {
            cursors[index.locate_bits(p.key())] += 1;
        }
        // Exclusive prefix sum: each occupied subarray's count becomes its
        // shard's first position, the scatter's write cursor.
        let mut at = 0usize;
        for (d, cursor) in cursors.iter_mut().enumerate() {
            let len = *cursor as usize;
            *cursor = at as u32;
            if len > 0 {
                self.subarrays.push(d as u32);
                self.starts.push(at);
                self.split_tasks(at, at + len);
                at += len;
            }
        }
        self.starts.push(n);
        // Only a grown tail is initialized: the scatter overwrites all n.
        scratch.resize(n, Pair::default());
        for &p in pairs.iter() {
            let cursor = &mut cursors[index.locate_bits(p.key())];
            scratch[*cursor as usize] = p;
            *cursor += 1;
        }
        std::mem::swap(pairs, scratch);
        self.cursors = cursors;
        // The histogram scan reads every pair; the scatter reads and
        // writes every pair once more.
        let bytes = n as u64 * PAIR_BYTES;
        prof::record(prof::Phase::ShardSort, 2 * bytes, bytes, n as u64);
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
    /// a pure function of the batch (one sequential scatter for every
    /// thread count), so emitting it in one place keeps the model stream
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

    /// Shard `s`: its destination subarray and its range of the grouped
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

    /// Task `t`: its destination subarray and its range of the grouped
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

    fn build(index: &SubarrayIndex, queries: &[Kmer]) -> (ShardPlan, Vec<Pair>) {
        let mut plan = ShardPlan::empty();
        let mut pairs: Vec<Pair> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| Pair::new(q.bits(), i as u32))
            .collect();
        plan.rebuild(index, &mut pairs, &mut Vec::new());
        (plan, pairs)
    }

    /// Every 17th stored k-mer, in a seeded shuffle: arrival order that
    /// differs from key order, so a scatter that reorders within a shard
    /// cannot go unnoticed.
    fn plan_inputs() -> (SubarrayIndex, Vec<Kmer>) {
        let ds = synth::make_dataset_with(8, 2048, 31, 5);
        let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
        let layout = DeviceLayout::build(ds.entries.clone(), &config).unwrap();
        let index = SubarrayIndex::build(&layout);
        let mut queries: Vec<Kmer> = ds.entries.iter().step_by(17).map(|(k, _)| *k).collect();
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..queries.len()).rev() {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            queries.swap(i, (s >> 33) as usize % (i + 1));
        }
        (index, queries)
    }

    #[test]
    fn plan_covers_every_query_exactly_once() {
        let (index, queries) = plan_inputs();
        assert!(
            queries.windows(2).any(|w| w[0].bits() > w[1].bits()),
            "the input must arrive out of key order"
        );
        let (plan, pairs) = build(&index, &queries);
        assert!(plan.shard_count() > 1);
        let mut seen = vec![false; queries.len()];
        for s in 0..plan.shard_count() {
            let (sub, range) = plan.shard(s);
            assert!(sub < plan.subarray_span());
            let shard_pairs = &pairs[range];
            for window in shard_pairs.windows(2) {
                assert!(
                    window[0].id() < window[1].id(),
                    "shard lost the arrival order"
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
        let (plan, _pairs) = build(&index, &big);
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
        let (plan, pairs) = build(&index, &dup);
        for s in 0..plan.shard_count() {
            let (sub, range) = plan.shard(s);
            for &p in &pairs[range] {
                assert_eq!(index.locate(dup[p.id() as usize]), sub);
            }
        }
    }

    #[test]
    fn rebuilding_reuses_the_plan_without_residue() {
        let (index, queries) = plan_inputs();
        let (fresh, fresh_pairs) = build(&index, &queries[..queries.len() / 3]);
        // A bigger batch first, then the small one on the same buffers.
        let (mut plan, mut pairs) = build(&index, &queries);
        let mut scratch = Vec::new();
        pairs.clear();
        pairs.extend(
            queries[..queries.len() / 3]
                .iter()
                .enumerate()
                .map(|(i, q)| Pair::new(q.bits(), i as u32)),
        );
        plan.rebuild(&index, &mut pairs, &mut scratch);
        assert_eq!(pairs, fresh_pairs);
        assert_eq!(plan.starts, fresh.starts);
        assert_eq!(plan.subarrays, fresh.subarrays);
        assert_eq!(plan.tasks, fresh.tasks);
    }

    #[test]
    fn empty_inputs_make_empty_plans() {
        let (index, _) = plan_inputs();
        let (plan, _) = build(&index, &[]);
        assert_eq!(plan.shard_count(), 0);
        assert_eq!(plan.subarray_span(), 0);
        assert_eq!(plan.task_count(), 0);
        assert_eq!(ShardPlan::empty().shard_count(), 0);
    }
}
