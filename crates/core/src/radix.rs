//! Multi-pass radix sort for the shard planner's `(k-mer bits, id)`
//! pairs.
//!
//! The planner needs its query batch ordered by k-mer integer value so
//! that routing degenerates to a streaming merge-join and each shard can
//! be matched with a forward-only merge cursor. Per-bucket comparison
//! sorts ran at ~38 ns/key at bench scale, so this module sorts with
//! **counting passes**, planned over the *varying-bit window* of the
//! batch:
//!
//! * **pass planning** — the OR-fold of `key ^ first_key` (`diff`) marks
//!   every bit position where at least two keys differ. The window
//!   `[trailing_zeros(diff), 64 - leading_zeros(diff))` is carved into
//!   near-equal digits of at most [`MAX_DIGIT_BITS`] bits, and any digit
//!   whose `diff` slice is zero is **skipped** outright: a stable
//!   counting pass on a constant digit is the identity permutation. The
//!   [`crate::obs::CounterId::SortPassesRun`] /
//!   [`crate::obs::CounterId::SortPassesSkipped`] counters report the
//!   split;
//! * **one global pass, then cache-resident segments** — a counting
//!   scatter over the full batch is DRAM-bound: every pass reads the
//!   whole pair array and write-allocates the whole destination, so its
//!   cost is nearly independent of digit width (measured ~9 ns/key here
//!   against ~1.3 ns/key for the histogram). The pipeline therefore runs
//!   exactly **one** global pass — an MSD scatter on the *most
//!   significant* planned window — and finishes each resulting bucket
//!   segment on its own, where its buffers fit in cache. Within a bucket
//!   the top window is constant, so each segment *replans* from its own
//!   diff fold, and a segment whose keys are all equal does no work;
//! * **tie-ranked narrow segments** — a counting pass is pure data
//!   movement, so bytes-per-record is the whole cost model. A segment
//!   that earns counting passes runs them on 8-byte [`NarrowPair`]s
//!   (`u32` key window + `u32` rank) instead of 12-byte [`Pair`]s: the
//!   window holds the segment's top ~log₂ m + [`TIE_WINDOW_SLACK`]
//!   varying bits, the payload is the pair's segment-local rank, the
//!   repack pass streams a shadow copy of the segment, and the emit pass
//!   gathers whole pairs back by rank. Pairs equal in the window but
//!   differing below it land in a run that a final scan re-sorts by
//!   `(key, id)` — the stable order, because ids are assigned in input
//!   order; with the slack bits such runs stay rare (~m/256 expected
//!   collisions). The repack fuses into the first pass and the emit into
//!   the last, so a narrowed segment needs at least two planned passes,
//!   and it narrows only when its closed-form byte total beats the
//!   12-byte plan's. Every other segment the cost model hands to
//!   counting passes takes the comparison sort instead: on the
//!   benchmark workloads, 61 pairs in 23 segments per `hot_stream` call
//!   (DESIGN.md §6);
//! * **adaptive cutover** — per segment and for the whole batch, a cost
//!   model built from measured constants ([`lsd_is_cheaper`], calibrated
//!   by the `plan_sort` bench) decides between counting passes and a
//!   comparison sort: tiny inputs can't amortize their digit tables, so
//!   a full-span batch below ~1k pairs sorts by comparison as a whole;
//! * **multi-lane and fused histograms** — a single count table
//!   serializes on store-to-load forwarding whenever consecutive keys
//!   share a bucket. The global counting scan therefore fills four
//!   independent lane tables, one key per lane per iteration, and
//!   column-sums the lanes at close — same integer totals, same output,
//!   fewer same-slot stalls. Inputs under 4 × buckets keep the single
//!   table: zeroing 4× the buckets costs more than it saves on a short
//!   scan. Segment sorts go further: a digit histogram is an
//!   order-independent integer sum, so **one scan of the segment fills
//!   every planned pass's table at once** ([`count_all`]);
//! * **ping-pong buffers** — the global pass scatters `pairs → scratch`
//!   and the two `Vec`s swap (an O(1) pointer exchange); a narrowed
//!   segment keeps its shadow copy in the same index range of `scratch`,
//!   ping-pongs two worker-private `NarrowPair` buffers, and emits
//!   straight back into `pairs`. No pass allocates: the buffers and
//!   every count/staging table live in the caller's [`SortScratch`],
//!   recycled through the device's scratch arena;
//! * **write-combining scatter** — a naive counting scatter writes one
//!   12-byte pair at a time to `buckets` random cursors, which is
//!   bandwidth-bound on partial cache lines. The global pass stages
//!   pairs in a per-worker, per-bucket buffer of [`STAGE`] slots (~1.5
//!   cache lines) and flushes full groups with one wide
//!   `copy_from_slice`, so the destination sees mostly full-line writes.
//!   A pair's final position is `starts[digit] + rank-in-input-order`,
//!   fixed by the histogram alone — staging changes *when* bytes move,
//!   never *where*. Segment passes skip the staging (their destinations
//!   are already cache-resident) and instead issue a [`LOOKAHEAD`]-element
//!   touch of the source (`black_box` load — the crate forbids `unsafe`,
//!   so no prefetch intrinsics) to keep the next source lines in flight
//!   ahead of the random-destination writes;
//! * **compact pairs** — [`Pair`] packs to 12 bytes
//!   (`#[repr(C, packed(4))]`, `u64` key + `u32` id; ids fit because
//!   `SieveError::BatchTooLarge` caps batches at `u32::MAX`), so each
//!   global pass moves 25% fewer bytes than a 16-byte tuple;
//! * **parallel machinery** — at [`PARALLEL_SORT`] pairs and up, the
//!   global pass keeps the owned-run design: per-worker chunk
//!   histograms, then buckets cut into contiguous runs of near-equal
//!   pair mass, each worker re-scanning the source and writing only its
//!   run's pairs into its own disjoint region (`split_at_mut`, no
//!   `unsafe`). Because each worker re-reads the full source, the
//!   fan-out is capped at the host's *physical* core count
//!   ([`par::host_parallelism`]). The segment sorts are dealt
//!   round-robin over a [`par::StealQueue`] of disjoint segment slices,
//!   so a worker that drains its stripe steals the heaviest remainder of
//!   a neighbour.
//!
//! Determinism: every pass is a stable counting scatter whose
//! destinations are pure functions of the key bits and input ranks, and
//! segment boundaries and plans depend only on the histogram and the
//! keys, so the output equals a stable sort by key — and, since callers
//! assign ids in input order, `sort_unstable_by_key` on `(key, id)` — for
//! every thread count and scatter-worker count.

use crate::obs;
use crate::par;
use crate::prof;
use crate::trace;

/// A sort record: the 2-bit-packed k-mer value and the query id it came
/// from, packed to 12 bytes so each radix pass moves 25% fewer bytes than
/// the naturally-aligned 16-byte tuple. Ids are unique, so `(key, id)` is
/// a total order and `sort_unstable_by_key` on it equals a stable sort by
/// `key` whenever ids are assigned in input order — the property the
/// radix pipeline guarantees by construction and the comparison fallback
/// relies on. Fields are private because a packed struct cannot hand out
/// field references; the by-value accessors copy.
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

    /// The k-mer bits (sort key).
    #[inline]
    pub(crate) fn key(self) -> u64 {
        self.key
    }

    /// The query id (tie order / scatter target).
    #[inline]
    pub(crate) fn id(self) -> u32 {
        self.id
    }
}

/// An 8-byte record of a narrowed segment pass: a 32-bit window of the
/// key plus the pair's segment-local rank, by which the emit pass
/// gathers the full pair back. Each narrowed scan moves a third less
/// than a [`Pair`] scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(C)]
struct NarrowPair {
    key: u32,
    rank: u32,
}

/// Widest digit a single pass may cover. 11 bits (≤ 2048 buckets) keeps a
/// worker's staging area (`2048 × STAGE × 12 B = 192 KB`) plus its count
/// tables cache-resident, which is what makes the write-combining staging
/// pay; a wider digit would trade pass count for staging that thrashes.
const MAX_DIGIT_BITS: u32 = 11;

/// Narrowest digit a segment replan may choose: below 16 buckets the
/// extra passes cost more than the table overhead they avoid.
const MIN_DIGIT_BITS: u32 = 4;

/// Most passes any plan can hold (a full 64-bit span at minimum width).
const MAX_PASSES: usize = 64usize.div_ceil(MIN_DIGIT_BITS as usize);

/// Pair slots staged per bucket before a wide flush: 8 × 12 B = 96 B,
/// 1.5 cache lines — enough that most destination traffic moves in full
/// lines, small enough that the whole staging area stays cache-resident.
const STAGE: usize = 8;

/// Below this many pairs the per-pass fan-out (histograms, scatter, and
/// the segment queue) stays sequential: a spawn costs more than it saves.
const PARALLEL_SORT: usize = 1 << 14;

/// Bytes per [`Pair`] — the unit of every analytic traffic formula the
/// sort reports to [`crate::prof`] (a counting pass moves whole records).
const PAIR_BYTES: u64 = std::mem::size_of::<Pair>() as u64;

/// Extra bits a narrowed segment's key window carries beyond log₂ m:
/// with `s` slack bits, the expected number of same-window collisions in
/// an m-record segment is ~m²/2^(log₂ m + s) = m/2^s — at 8 bits, one
/// 2-element fixup sort per ~256 records, far below a counting pass.
const TIE_WINDOW_SLACK: u32 = 8;

/// Source look-ahead distance of the segment scatter scans, in records:
/// the scan touches the record this far ahead once per 4-record group
/// (≥ 2 cache lines), so source lines stream in ahead of the
/// random-destination writes.
const LOOKAHEAD: usize = 16;

/// One counting pass: a stable scatter on the `bits`-wide digit at bit
/// offset `shift`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Pass {
    shift: u32,
    bits: u32,
}

/// Digit of `key` under `pass`.
#[inline]
fn pdigit(key: u64, pass: Pass) -> usize {
    ((key >> pass.shift) as usize) & ((1usize << pass.bits) - 1)
}

/// Carves the varying-bit window of `diff` into balanced digits of at
/// most `width` bits and drops every digit whose `diff` slice is zero (a
/// stable scatter on a constant digit is the identity). Returns the
/// surviving passes in LSD order plus the skipped count. `diff` must be
/// nonzero; the window's edge digits always survive (the lowest and
/// highest set bits of `diff` land inside them).
fn plan_passes(diff: u64, width: u32) -> ([Pass; MAX_PASSES], usize, u64) {
    debug_assert_ne!(diff, 0);
    debug_assert!((MIN_DIGIT_BITS..=MAX_DIGIT_BITS).contains(&width));
    let lo = diff.trailing_zeros();
    let hi = 64 - diff.leading_zeros();
    let span = hi - lo;
    let windows = span.div_ceil(width);
    let mut passes = [Pass::default(); MAX_PASSES];
    let mut run = 0usize;
    let mut skipped = 0u64;
    for w in 0..windows {
        let start = lo + span * w / windows;
        let bits = lo + span * (w + 1) / windows - start;
        if (diff >> start) & ((1u64 << bits) - 1) == 0 {
            skipped += 1;
        } else {
            passes[run] = Pass { shift: start, bits };
            run += 1;
        }
    }
    debug_assert!(run >= 1);
    (passes, run, skipped)
}

/// Measured 1-thread cost constants for the adaptive cutover, in
/// sixteenths of a nanosecond (integer arithmetic, no floats on the plan
/// path). Calibrated against the `plan_sort` criterion group: the
/// comparison sort runs at ~2.3 ns/key per log₂ level; a cache-resident
/// counting pass costs ~1.9 ns/key of scan+scatter plus ~1 ns per table
/// entry for zeroing and prefix-summing — the charge that makes counting
/// passes lose on segments too small to fill their digit tables. The
/// exact crossover (a couple hundred keys under a full-width plan)
/// barely matters because both paths are microseconds there.
const CMP_NS_X16_PER_KEY_LEVEL: u64 = 36;
const LSD_NS_X16_PER_KEY_PASS: u64 = 30;
const LSD_NS_X16_PER_BUCKET_PASS: u64 = 16;

/// The adaptive cutover's cost model: predicted counting-pipeline time
/// vs. predicted comparison time for `n` pairs under `passes`. A pure
/// function of the batch (never of threads), so the choice — and with it
/// the output — is identical across thread counts. Segments are judged on
/// their 12-byte pass plan even when they then narrow: narrowing is a
/// traffic optimization of a sort already chosen.
fn lsd_is_cheaper(n: usize, passes: &[Pass]) -> bool {
    let n = n as u64;
    let levels = u64::from(64 - n.leading_zeros());
    let cmp = n * levels * CMP_NS_X16_PER_KEY_LEVEL;
    let lsd: u64 = passes
        .iter()
        .map(|p| n * LSD_NS_X16_PER_KEY_PASS + (1u64 << p.bits) * LSD_NS_X16_PER_BUCKET_PASS)
        .sum();
    lsd < cmp
}

/// Reusable tables of the sort pipeline, checked out of the device's
/// scratch arena alongside the pair buffers so no pass allocates once the
/// capacities are warm.
#[derive(Debug, Default)]
pub(crate) struct SortScratch {
    /// Histogram of the global pass (bucket counts).
    counts: Vec<u32>,
    /// Exclusive prefix sums of `counts` (bucket start offsets).
    starts: Vec<u32>,
    /// Owned-run cut points of the parallel scatter.
    cuts: Vec<usize>,
    /// Per-worker staging/cursor/count tables; index 0 serves the
    /// sequential path.
    workers: Vec<WorkerScratch>,
}

/// One worker's private tables (see [`scatter_run`] and
/// [`sort_segment`]).
#[derive(Debug, Default)]
struct WorkerScratch {
    /// Write-combining staging: [`STAGE`] pair slots per owned bucket.
    stage: Vec<Pair>,
    /// Staged-record count per owned bucket.
    fill: Vec<u32>,
    /// Write cursor per owned bucket, relative to the worker's region.
    cursors: Vec<u32>,
    /// Digit count table: a chunk histogram during the global pass, then
    /// the per-pass tables of every segment sort this worker runs.
    /// Counting scans grow it to 4 lane tables and fold back.
    table: Vec<u32>,
    /// Ping-pong buffers of this worker's narrowed segment sorts.
    na: Vec<NarrowPair>,
    nb: Vec<NarrowPair>,
}

/// Scatter fan-out for an `n`-pair batch at a given `threads` knob:
/// capped at the host's physical parallelism because each scatter worker
/// re-scans the full source (see the module docs), and 1 for batches too
/// small to amortize a spawn.
fn scatter_workers(threads: usize, n: usize) -> usize {
    if threads > 1 && n >= PARALLEL_SORT {
        threads.min(par::host_parallelism())
    } else {
        1
    }
}

/// Sorts `pairs` by `(key, id)` in place, leaving the result in `pairs`
/// for every pass count (the ping-pong swaps are O(1) pointer
/// exchanges). `scratch` is the alternate pass buffer and `ss` holds the
/// count/staging tables — both retain capacity across calls; `threads`
/// bounds the per-pass fan-out, and `diff` optionally carries the batch's
/// precomputed OR-fold of `key ^ first_key` (builders that stream every
/// key anyway compute it for free; `None` recomputes it here). Neither
/// affects the result.
pub(crate) fn sort_pairs(
    pairs: &mut Vec<Pair>,
    scratch: &mut Vec<Pair>,
    ss: &mut SortScratch,
    threads: usize,
    diff: Option<u64>,
) {
    // Histogram/scatter fan-out beyond physical cores is pure overhead
    // (the extra workers serialize the same scans behind spawn and merge
    // costs), so the in-sort parallelism follows the hardware; the
    // `threads` knob still governs everything downstream.
    let fan = threads.min(par::host_parallelism()).max(1);
    let workers = scatter_workers(threads, pairs.len());
    sort_pairs_with(pairs, scratch, ss, fan, workers, diff);
}

/// [`sort_pairs`] with the scatter/segment fan-out chosen by the caller —
/// the test seam that exercises the owned-run parallel scatter and the
/// stolen segment sorts on hosts whose physical core count would cap
/// [`sort_pairs`] to a sequential run. The output is identical for every
/// `workers` value.
pub(crate) fn sort_pairs_with(
    pairs: &mut Vec<Pair>,
    scratch: &mut Vec<Pair>,
    ss: &mut SortScratch,
    threads: usize,
    workers: usize,
    diff: Option<u64>,
) {
    let n = pairs.len();
    if n <= 1 {
        return;
    }

    // OR-fold of `key ^ first` finds the bit positions where at least two
    // keys differ — the pass plan's whole input. Callers that already
    // streamed every key pass the fold in; otherwise it costs one scan.
    let diff = diff.unwrap_or_else(|| fold_diff(pairs, threads));
    debug_assert_eq!(
        diff,
        fold_diff(pairs, 1),
        "caller-supplied diff mask must equal the batch's OR-fold"
    );
    if diff == 0 {
        // All keys equal: input order is already the stable order.
        return;
    }
    let GlobalPlan::Wide {
        passes,
        run,
        skipped,
    } = plan_global(n, diff)
    else {
        pairs.sort_unstable_by_key(|p| (p.key(), p.id()));
        return;
    };

    let workers = workers.clamp(1, n);
    let hist_workers = if threads > 1 && n >= PARALLEL_SORT {
        threads
    } else {
        1
    };
    if ss.workers.len() < workers.max(hist_workers) {
        ss.workers
            .resize_with(workers.max(hist_workers), WorkerScratch::default);
    }
    let local = radix_pipeline(pairs, scratch, ss, hist_workers, workers, &passes[..run]);

    let rec = obs::global();
    rec.add(obs::CounterId::SortPassesRun, 1 + local.run);
    rec.add(obs::CounterId::SortPassesSkipped, skipped + local.skipped);
    rec.add(obs::CounterId::SortNarrowSegments, local.narrow_segs);
}

/// The whole-batch decision: comparison fallback or the counting
/// pipeline. A pure function of `(n, diff)` shared by
/// [`sort_pairs_with`] and [`predict_traffic`], so the executed charges
/// and the analytic prediction cannot drift.
enum GlobalPlan {
    Comparison,
    Wide {
        passes: [Pass; MAX_PASSES],
        run: usize,
        skipped: u64,
    },
}

fn plan_global(n: usize, diff: u64) -> GlobalPlan {
    let (passes, run, skipped) = plan_passes(diff, MAX_DIGIT_BITS);
    if lsd_is_cheaper(n, &passes[..run]) {
        GlobalPlan::Wide {
            passes,
            run,
            skipped,
        }
    } else {
        GlobalPlan::Comparison
    }
}

/// The counting pipeline: one MSD scatter on the plan's most significant
/// window, then the bucket segments. Returns the segment phase's
/// [`SegStats`].
fn radix_pipeline(
    pairs: &mut Vec<Pair>,
    scratch: &mut Vec<Pair>,
    ss: &mut SortScratch,
    hist_workers: usize,
    workers: usize,
    plan: &[Pass],
) -> SegStats {
    let n = pairs.len();
    if scratch.len() < n {
        scratch.resize(n, Pair::default());
    } else {
        scratch.truncate(n);
    }
    let run_len = plan.len();
    let top = plan[run_len - 1];
    let buckets = 1usize << top.bits;
    {
        let _span = obs::span("sort.hist");
        let _wall = trace::span("sort.hist");
        histogram_into(pairs, top, hist_workers, ss);
    }
    // Exclusive prefix sum: `starts[b]` is bucket b's first offset.
    ss.starts.clear();
    let mut acc = 0u32;
    ss.starts.extend(ss.counts[..buckets].iter().map(|&c| {
        let s = acc;
        acc += c;
        s
    }));
    debug_assert_eq!(acc as usize, n);
    // Canonical traffic of the global pass, charged analytically (see the
    // prof module docs): the histogram reads every record once; the
    // scatter reads every record and writes all but the trailing
    // partial-line drains, which `sort.flush` moves out of staging. The
    // flush share is a pure function of the histogram (`count mod STAGE`
    // per bucket) — parallel workers split the drains differently between
    // their private staging areas, but the bytes drained in total are
    // fixed by the bucket counts, so the charge is identical for every
    // worker count.
    let flush_pairs: u64 = ss.counts[..buckets]
        .iter()
        .map(|&c| u64::from(c) % STAGE as u64)
        .sum();
    let batch_bytes = n as u64 * PAIR_BYTES;
    prof::record(prof::Phase::SortHist, batch_bytes, 0, n as u64);
    {
        let _span = obs::span("sort.scatter");
        let _wall = trace::span("sort.scatter");
        if workers <= 1 {
            scatter_run(
                pairs,
                scratch,
                &ss.starts,
                top,
                0,
                buckets,
                &mut ss.workers[0],
            );
        } else {
            scatter_parallel(
                pairs,
                scratch,
                &ss.starts,
                top,
                workers,
                &mut ss.cuts,
                &mut ss.workers,
            );
        }
    }
    prof::record(
        prof::Phase::SortScatter,
        batch_bytes,
        batch_bytes - flush_pairs * PAIR_BYTES,
        n as u64,
    );
    prof::record(
        prof::Phase::SortFlush,
        0,
        flush_pairs * PAIR_BYTES,
        flush_pairs,
    );
    // O(1): the partitioned records are now the segment phase's source.
    std::mem::swap(pairs, scratch);

    let mut local = SegStats::default();
    if run_len > 1 {
        let _span = obs::span("sort.local");
        let _wall = trace::span("sort.local");
        local = sort_segments(pairs, scratch, &ss.starts, workers, &mut ss.workers);
        prof::record(
            prof::Phase::SortLocal,
            local.read,
            local.written,
            local.items,
        );
    }
    local
}

/// Accumulated segment-phase totals: executed/skipped pass counts, the
/// analytic traffic of the executed passes, and the narrowed-segment
/// count. Plain integer sums over segments, so the totals are identical
/// for any worker count or steal interleaving.
#[derive(Debug, Default, Clone, Copy)]
struct SegStats {
    /// Counting passes executed.
    run: u64,
    /// Passes dropped by segment replans (constant digit windows).
    skipped: u64,
    /// Bytes read (see [`seg_traffic`]).
    read: u64,
    /// Bytes written.
    written: u64,
    /// Pairs in processed segments (including segments that replanned to
    /// nothing or took the comparison fallback — their pairs were the
    /// phase's input even when no counting pass moved them).
    items: u64,
    /// Segments sorted on tie-ranked 8-byte records.
    narrow_segs: u64,
}

impl SegStats {
    fn merge(&mut self, other: SegStats) {
        self.run += other.run;
        self.skipped += other.skipped;
        self.read += other.read;
        self.written += other.written;
        self.items += other.items;
        self.narrow_segs += other.narrow_segs;
    }
}

/// One bucket segment's plan: a pure function of `(m, diff fold)` shared
/// by the executor ([`sort_segment`]) and the predictor
/// ([`predict_traffic`]), so the two derive byte-identical traffic by
/// construction.
enum SegPlan {
    /// All keys equal — the stable global order is already sorted.
    Constant,
    /// Below the cost model's crossover, or counting passes that
    /// narrowing cannot make pay: comparison sort.
    Comparison,
    /// Counting passes on tie-ranked 8-byte records over the key window
    /// at `win_lo`.
    Narrowed {
        win_lo: u32,
        passes: [Pass; MAX_PASSES],
        run: usize,
        skipped: u64,
    },
}

fn plan_segment(m: usize, diff: u64) -> SegPlan {
    if diff == 0 {
        return SegPlan::Constant;
    }
    // Digit width tracks the segment size (table ≈ one entry per pair):
    // an oversized table spends more on zeroing and prefix-summing than
    // its fewer passes save, an undersized one multiplies passes.
    let log_m = usize::BITS - 1 - m.leading_zeros();
    let width = log_m.clamp(MIN_DIGIT_BITS, MAX_DIGIT_BITS);
    let (passes, run, _) = plan_passes(diff, width);
    if !lsd_is_cheaper(m, &passes[..run]) {
        return SegPlan::Comparison;
    }
    // Closed-form bytes per pair (see seg_traffic): the 12-byte plan
    // would move 24 per pass, 12 for its fused count scan and 24 for an
    // odd plan's pre-copy; the narrowed one moves 16 per pass plus 56 for
    // the count scan, repack, shadow copy, rank gather and fixup. The
    // window is just wide enough that same-window collisions stay rare,
    // leaving the rest to the fixup scan at a fraction of the passes.
    let hi = 64 - diff.leading_zeros();
    let span = hi - diff.trailing_zeros();
    let window = (log_m + TIE_WINDOW_SLACK).min(32);
    if window < span {
        let win_lo = hi - window;
        let (narrow, nrun, skipped) = plan_passes(diff >> win_lo, width);
        let wide_bytes = 24 * run as u64 + 12 + 24 * u64::from(run % 2 == 1);
        if nrun >= 2 && 16 * nrun as u64 + 56 < wide_bytes {
            return SegPlan::Narrowed {
                win_lo,
                passes: narrow,
                run: nrun,
                skipped,
            };
        }
    }
    SegPlan::Comparison
}

/// The analytic traffic of one planned segment of `m` pairs. A narrowed
/// segment's fused count scan and repack pass each read the 12-byte
/// segment once (the repack also writing the 12-byte shadow copy), its
/// passes move 8-byte records, the last pass's rank gather reads 12 bytes
/// per pair, and the fixup scan reads the segment once more. A
/// comparison fallback or constant segment contributes items only —
/// comparison-sort traffic is data-dependent, so the model does not
/// charge it.
fn seg_traffic(plan: &SegPlan, m: u64) -> SegStats {
    let base = SegStats {
        items: m,
        ..SegStats::default()
    };
    match *plan {
        SegPlan::Constant | SegPlan::Comparison => base,
        SegPlan::Narrowed { run, skipped, .. } => {
            let r = run as u64;
            SegStats {
                run: r,
                skipped,
                read: m * (8 * r + 40),
                written: m * (8 * r + 16),
                narrow_segs: 1,
                ..base
            }
        }
    }
}

/// OR-fold of `key ^ pairs[0].key()` over the batch, chunk-parallel for
/// large inputs (chunk boundaries never change an OR).
fn fold_diff(pairs: &[Pair], threads: usize) -> u64 {
    let n = pairs.len();
    let first = pairs[0].key();
    if threads > 1 && n >= PARALLEL_SORT {
        par::map_chunks(threads, n, |range| {
            pairs[range]
                .iter()
                .fold(0u64, |acc, &p| acc | (p.key() ^ first))
        })
        .into_iter()
        .fold(0, |acc, d| acc | d)
    } else {
        pairs.iter().fold(0u64, |acc, &p| acc | (p.key() ^ first))
    }
}

/// Four-lane digit count of `src` under `pass` into `table` (resized and
/// truncated to the bucket count). One key per lane per iteration, each
/// lane its own table slice, column-summed at close: the same integer
/// totals as a single-table scan — so the scatter destinations are
/// unchanged — without the store-to-load stall every time consecutive
/// keys share a bucket. Scans shorter than 4 × buckets keep a single
/// table: zeroing and folding three extra lane tables would cost more
/// than the stalls they remove, and the totals are the same integer sums
/// either way.
fn count4(src: &[Pair], table: &mut Vec<u32>, pass: Pass) {
    let buckets = 1usize << pass.bits;
    table.clear();
    if src.len() < 4 * buckets {
        table.resize(buckets, 0);
        for &p in src {
            table[pdigit(p.key(), pass)] += 1;
        }
        return;
    }
    table.resize(4 * buckets, 0);
    let mut groups = src.chunks_exact(4);
    for g in groups.by_ref() {
        table[pdigit(g[0].key(), pass)] += 1;
        table[buckets + pdigit(g[1].key(), pass)] += 1;
        table[2 * buckets + pdigit(g[2].key(), pass)] += 1;
        table[3 * buckets + pdigit(g[3].key(), pass)] += 1;
    }
    for &p in groups.remainder() {
        table[pdigit(p.key(), pass)] += 1;
    }
    let (sum, lanes) = table.split_at_mut(buckets);
    for (b, s) in sum.iter_mut().enumerate() {
        *s += lanes[b] + lanes[b + buckets] + lanes[b + 2 * buckets];
    }
    table.truncate(buckets);
}

/// One scan of `src` filling **every** pass's digit histogram at once,
/// over the keys shifted right by `shift`: pass `k`'s `1 << bits` buckets
/// live at the flat offset `Σ_{j<k} (1 << plan[j].bits)` in `tables`. A
/// digit count is an order-independent integer sum over the segment's
/// multiset of keys — which no scatter pass changes — so each per-pass
/// table equals the one a dedicated scan just before that pass would
/// produce, at one source read instead of one per pass.
fn count_all(src: &[Pair], tables: &mut Vec<u32>, plan: &[Pass], shift: u32) {
    let total: usize = plan.iter().map(|p| 1usize << p.bits).sum();
    tables.clear();
    tables.resize(total, 0);
    for &p in src {
        let k = p.key() >> shift;
        let mut off = 0usize;
        for &pass in plan {
            tables[off + pdigit(k, pass)] += 1;
            off += 1 << pass.bits;
        }
    }
}

/// In-place exclusive prefix sum; returns the total.
fn exclusive_prefix(table: &mut [u32]) -> u32 {
    let mut acc = 0u32;
    for c in table.iter_mut() {
        let v = *c;
        *c = acc;
        acc += v;
    }
    acc
}

/// Histograms `src` under `pass` into `ss.counts`, fanning disjoint index
/// chunks out over `workers` (each fills its own lane tables; the tables
/// column-sum at the end, so the result is a plain integer sum —
/// identical for every worker count).
fn histogram_into(src: &[Pair], pass: Pass, workers: usize, ss: &mut SortScratch) {
    let n = src.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        count4(src, &mut ss.workers[0].table, pass);
        merge_tables(ss, 1);
        return;
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        for (w, ws) in ss.workers[..workers].iter_mut().enumerate() {
            let table = &mut ws.table;
            let src = &src[(w * chunk).min(n)..((w + 1) * chunk).min(n)];
            scope.spawn(move || count4(src, table, pass));
        }
    });
    merge_tables(ss, workers);
}

/// Promotes the per-worker chunk histograms to the global pass's bucket
/// counts: worker 0's table swaps into `ss.counts` (O(1)) and the rest
/// column-sum in. At ≤ 2048 buckets the sum is a few microseconds even at
/// the widest fan-out — far below the cost of striping it.
fn merge_tables(ss: &mut SortScratch, workers: usize) {
    let (first, rest) = ss.workers.split_first_mut().expect("worker tables exist");
    std::mem::swap(&mut ss.counts, &mut first.table);
    for ws in &rest[..workers - 1] {
        for (total, &c) in ss.counts.iter_mut().zip(&ws.table) {
            *total += c;
        }
    }
}

/// Stable parallel scatter by bucket ownership: buckets are cut into
/// `workers` contiguous runs of near-equal record mass (from the
/// histogram), the output splits into the matching disjoint regions, and
/// each worker scans the full source writing only its run's records
/// through its own write-combining staging. Within a bucket, writes
/// happen in source order, so the result equals the sequential staged
/// scatter exactly, for any worker count.
fn scatter_parallel(
    src: &[Pair],
    dst: &mut [Pair],
    starts: &[u32],
    pass: Pass,
    workers: usize,
    cuts: &mut Vec<usize>,
    pool: &mut [WorkerScratch],
) {
    let n = src.len();
    let buckets = starts.len();
    let bound = |b: usize| -> u32 {
        if b < buckets {
            starts[b]
        } else {
            n as u32
        }
    };
    // Run r covers buckets `cuts[r]..cuts[r + 1]`; each cut lands on the
    // first bucket at or past the r-th equal slice of the record count,
    // so runs are contiguous in bucket (= digit) order and balanced by
    // the histogram, not by bucket count.
    cuts.clear();
    cuts.push(0);
    for r in 1..workers {
        let target = ((n as u64 * r as u64) / workers as u64) as u32;
        let cut = starts.partition_point(|&s| s < target).max(cuts[r - 1]);
        cuts.push(cut);
    }
    cuts.push(buckets);

    std::thread::scope(|scope| {
        let mut rest: &mut [Pair] = dst;
        for (w, ws) in pool[..workers].iter_mut().enumerate() {
            let (lo_b, hi_b) = (cuts[w], cuts[w + 1]);
            let taken = std::mem::take(&mut rest);
            let (region, tail) = taken.split_at_mut((bound(hi_b) - bound(lo_b)) as usize);
            rest = tail;
            scope.spawn(move || {
                scatter_run(src, region, starts, pass, lo_b, hi_b, ws);
            });
        }
        debug_assert!(rest.is_empty());
    });
}

/// One worker's stable scatter of bucket run `[lo_b, hi_b)` into
/// `region` (that run's disjoint slice of the destination), staged
/// through [`STAGE`]-slot write-combining buffers. The trailing
/// partial-bucket drain is the `sort.flush` span.
fn scatter_run(
    src: &[Pair],
    region: &mut [Pair],
    starts: &[u32],
    pass: Pass,
    lo_b: usize,
    hi_b: usize,
    ws: &mut WorkerScratch,
) {
    let WorkerScratch {
        stage,
        fill,
        cursors,
        ..
    } = ws;
    let run = hi_b - lo_b;
    let base = if run > 0 { starts[lo_b] } else { 0 };
    cursors.clear();
    cursors.extend(starts[lo_b..hi_b].iter().map(|&s| s - base));
    fill.clear();
    fill.resize(run, 0);
    if stage.len() < run * STAGE {
        stage.resize(run * STAGE, Pair::default());
    }

    for &p in src {
        let d = pdigit(p.key(), pass);
        if !(lo_b..hi_b).contains(&d) {
            continue;
        }
        let s = d - lo_b;
        let f = fill[s] as usize;
        stage[s * STAGE + f] = p;
        if f + 1 == STAGE {
            let c = cursors[s] as usize;
            region[c..c + STAGE].copy_from_slice(&stage[s * STAGE..s * STAGE + STAGE]);
            cursors[s] = (c + STAGE) as u32;
            fill[s] = 0;
        } else {
            fill[s] = (f + 1) as u32;
        }
    }

    // Drain the partial buckets: destinations are disjoint, so the drain
    // order is irrelevant to the result.
    let _span = obs::span("sort.flush");
    let _wall = trace::span("sort.flush");
    for s in 0..run {
        let f = fill[s] as usize;
        if f > 0 {
            let c = cursors[s] as usize;
            region[c..c + f].copy_from_slice(&stage[s * STAGE..s * STAGE + f]);
            cursors[s] = (c + f) as u32;
        }
    }
}

/// Finishes every bucket of the partitioned batch ([`sort_segment`]),
/// sequentially or over a [`par::StealQueue`] of disjoint `(pairs,
/// scratch)` segment slices dealt round-robin. Returns the summed
/// [`SegStats`] — plain integer sums, so identical for any worker count
/// or steal interleaving.
fn sort_segments(
    pairs: &mut [Pair],
    scratch: &mut [Pair],
    starts: &[u32],
    workers: usize,
    pool: &mut [WorkerScratch],
) -> SegStats {
    let n = pairs.len();
    let buckets = starts.len();
    let bound = |b: usize| -> usize {
        if b < buckets {
            starts[b] as usize
        } else {
            n
        }
    };
    if workers <= 1 {
        let ws = &mut pool[0];
        let mut stats = SegStats::default();
        for b in 0..buckets {
            let (lo, hi) = (bound(b), bound(b + 1));
            if hi - lo > 1 {
                stats.merge(sort_segment(&mut pairs[lo..hi], &mut scratch[lo..hi], ws));
            }
        }
        return stats;
    }

    // Deal the non-trivial segments round-robin; stealing rebalances the
    // inevitable heavy buckets. Each queue item carries the segment's
    // disjoint slices of both buffers, so no worker ever touches another
    // worker's indices.
    let mut queue = par::StealQueue::new(workers);
    {
        let (mut rest_a, mut rest_b) = (pairs, scratch);
        let mut dealt = 0usize;
        for b in 0..buckets {
            let m = bound(b + 1) - bound(b);
            let (seg_a, tail_a) = std::mem::take(&mut rest_a).split_at_mut(m);
            let (seg_b, tail_b) = std::mem::take(&mut rest_b).split_at_mut(m);
            (rest_a, rest_b) = (tail_a, tail_b);
            if m > 1 {
                queue.push(dealt % workers, (seg_a, seg_b));
                dealt += 1;
            }
        }
    }
    let queue = &queue;
    std::thread::scope(|scope| {
        let handles: Vec<_> = pool[..workers]
            .iter_mut()
            .enumerate()
            .map(|(w, ws)| {
                scope.spawn(move || {
                    let mut acc = SegStats::default();
                    while let Some((seg_a, seg_b)) = queue.pop(w) {
                        acc.merge(sort_segment(seg_a, seg_b, ws));
                    }
                    acc
                })
            })
            .collect();
        // Commutative integer sums: the totals ignore steal interleaving.
        let mut stats = SegStats::default();
        for handle in handles {
            match handle.join() {
                Ok(acc) => stats.merge(acc),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        stats
    })
}

/// Sorts one bucket segment `a` (with `b`, its range of the other pass
/// buffer, as shadow space), leaving the result in `a`.
fn sort_segment(a: &mut [Pair], b: &mut [Pair], ws: &mut WorkerScratch) -> SegStats {
    let m = a.len();
    debug_assert!(m > 1 && b.len() == m);
    let first = a[0].key();
    let diff = a.iter().fold(0u64, |acc, &p| acc | (p.key() ^ first));
    let plan = plan_segment(m, diff);
    match &plan {
        SegPlan::Constant => {}
        SegPlan::Comparison => a.sort_unstable_by_key(|p| (p.key(), p.id())),
        SegPlan::Narrowed {
            win_lo,
            passes,
            run,
            ..
        } => narrow_segment(a, b, ws, *win_lo, &passes[..*run]),
    }
    seg_traffic(&plan, m as u64)
}

/// One cache-resident counting scatter of narrowed records with the
/// [`LOOKAHEAD`] source touch (see the module docs): a `black_box` load
/// per 4-record group keeps the next source lines streaming in ahead of
/// the random-destination writes, without changing a single destination.
fn scatter_local(src: &[NarrowPair], dst: &mut [NarrowPair], table: &mut [u32], pass: Pass) {
    let len = src.len();
    let mut i = 0usize;
    while i < len {
        if let Some(&ahead) = src.get(i + LOOKAHEAD) {
            std::hint::black_box(ahead);
        }
        let end = (i + 4).min(len);
        while i < end {
            let p = src[i];
            let d = pdigit(u64::from(p.key), pass);
            dst[table[d] as usize] = p;
            table[d] += 1;
            i += 1;
        }
    }
}

/// The narrowed segment pipeline (see the module docs): one
/// [`count_all`] scan of the segment fills every pass's table, then a
/// fused repack first pass (pairs in, ranked narrow records out, the
/// shadow copy streamed into `b`), narrow ping-pong middle passes in the
/// worker's private buffers, and a fused emit last pass that gathers each
/// pair from the shadow copy by rank straight into `a`, plus the tie-run
/// fixup scan. `plan` is relative to the key window at `win_lo` and holds
/// at least two passes.
fn narrow_segment(
    a: &mut [Pair],
    b: &mut [Pair],
    ws: &mut WorkerScratch,
    win_lo: u32,
    plan: &[Pass],
) {
    let m = a.len();
    let run = plan.len();
    debug_assert!(run >= 2 && b.len() == m);
    let WorkerScratch { table, na, nb, .. } = ws;
    if na.len() < m {
        na.resize(m, NarrowPair::default());
    }
    let na = &mut na[..m];
    let nb: &mut [NarrowPair] = if run > 2 {
        if nb.len() < m {
            nb.resize(m, NarrowPair::default());
        }
        &mut nb[..m]
    } else {
        // No middle passes: the first pass writes `na`, the last reads it.
        &mut []
    };

    // One scan fills every pass's digit table (the pass windows all sit
    // below bit 32 of the shifted key, so counting the full shift equals
    // counting the truncated `u32` window).
    count_all(a, table, plan, win_lo);
    let mut off = 0usize;

    // First pass: scatter pairs into ranked narrow records, streaming
    // the shadow copy the emit pass gathers from.
    let p0 = plan[0];
    exclusive_prefix(&mut table[off..off + (1usize << p0.bits)]);
    {
        let mut i = 0usize;
        while i < m {
            if let Some(&ahead) = a.get(i + LOOKAHEAD) {
                std::hint::black_box(ahead);
            }
            let end = (i + 4).min(m);
            while i < end {
                let p = a[i];
                let nk = (p.key() >> win_lo) as u32;
                let d = off + pdigit(u64::from(nk), p0);
                na[table[d] as usize] = NarrowPair {
                    key: nk,
                    rank: i as u32,
                };
                table[d] += 1;
                b[i] = p;
                i += 1;
            }
        }
    }
    off += 1usize << p0.bits;

    // Middle passes: plain narrow ping-pong.
    let mut in_na = true;
    for &pass in &plan[1..run - 1] {
        let buckets = 1usize << pass.bits;
        let t = &mut table[off..off + buckets];
        exclusive_prefix(t);
        let (src, dst): (&mut [NarrowPair], &mut [NarrowPair]) =
            if in_na { (na, nb) } else { (nb, na) };
        scatter_local(src, dst, t, pass);
        in_na = !in_na;
        off += buckets;
    }

    // Last pass: emit straight into `a` — which no narrow buffer aliases,
    // and whose pre-pass contents survive in `b` for the gather.
    let pf = plan[run - 1];
    let src: &mut [NarrowPair] = if in_na { na } else { nb };
    exclusive_prefix(&mut table[off..off + (1usize << pf.bits)]);
    {
        let len = src.len();
        let mut i = 0usize;
        while i < len {
            if let Some(&ahead) = src.get(i + LOOKAHEAD) {
                std::hint::black_box(ahead);
            }
            let end = (i + 4).min(len);
            while i < end {
                let np = src[i];
                let d = off + pdigit(u64::from(np.key), pf);
                let pos = table[d] as usize;
                table[d] += 1;
                a[pos] = b[np.rank as usize];
                i += 1;
            }
        }
    }

    // Tie-run fixup: records equal in the window sit in input (= rank)
    // order but may differ below it; one scan re-sorts each run by
    // `(key, id)` — the stable key order, since ids rise in input order.
    let mut i = 0usize;
    while i < m {
        let w = (a[i].key() >> win_lo) as u32;
        let mut j = i + 1;
        while j < m && (a[j].key() >> win_lo) as u32 == w {
            j += 1;
        }
        if j - i > 1 {
            a[i..j].sort_unstable_by_key(|p| (p.key(), p.id()));
        }
        i = j;
    }
}

/// Predicts the analytic traffic [`sort_pairs`] will charge to
/// [`crate::prof`] for `keys`, **without sorting**: the planner's
/// decisions (pass plan, adaptive cutover, per-segment replans) are
/// re-derived from the key stream alone, through the same
/// [`plan_global`]/[`plan_segment`]/[`seg_traffic`] functions the
/// executor uses. Segment diffs fold directly off the input — a diff
/// fold is base-independent over its key set and a segment's membership
/// is a pure function of the top digit — so the prediction never needs
/// the scattered order. The differential seam for
/// `tests/prof_traffic.rs`: the recorded charges come from the executed
/// pipeline, this prediction from the formulas, and the two must agree
/// on arbitrary inputs.
pub(crate) fn predict_traffic(keys: &[u64]) -> [(prof::Phase, prof::Traffic); 4] {
    use prof::{Phase, Traffic};
    let mut out = [
        (Phase::SortHist, Traffic::default()),
        (Phase::SortScatter, Traffic::default()),
        (Phase::SortFlush, Traffic::default()),
        (Phase::SortLocal, Traffic::default()),
    ];
    let n = keys.len();
    if n <= 1 {
        return out;
    }
    let first = keys[0];
    let diff = keys.iter().fold(0u64, |acc, &k| acc | (k ^ first));
    if diff == 0 {
        return out;
    }
    let GlobalPlan::Wide { passes, run, .. } = plan_global(n, diff) else {
        return out;
    };
    let top = passes[run - 1];
    let buckets = 1usize << top.bits;
    let mut counts = vec![0u64; buckets];
    let mut bases = vec![0u64; buckets];
    let mut seg_diffs = vec![0u64; buckets];
    for &k in keys {
        let d = pdigit(k, top);
        if counts[d] == 0 {
            bases[d] = k;
        } else {
            seg_diffs[d] |= k ^ bases[d];
        }
        counts[d] += 1;
    }
    let batch_bytes = n as u64 * PAIR_BYTES;
    let flush_pairs: u64 = counts.iter().map(|&c| c % STAGE as u64).sum();
    out[0].1 = Traffic {
        bytes_read: batch_bytes,
        bytes_written: 0,
        items: n as u64,
    };
    out[1].1 = Traffic {
        bytes_read: batch_bytes,
        bytes_written: batch_bytes - flush_pairs * PAIR_BYTES,
        items: n as u64,
    };
    out[2].1 = Traffic {
        bytes_read: 0,
        bytes_written: flush_pairs * PAIR_BYTES,
        items: flush_pairs,
    };
    if run > 1 {
        let mut local = SegStats::default();
        for (&c, &sd) in counts.iter().zip(&seg_diffs) {
            if c > 1 {
                local.merge(seg_traffic(&plan_segment(c as usize, sd), c));
            }
        }
        out[3].1 = Traffic {
            bytes_read: local.read,
            bytes_written: local.written,
            items: local.items,
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference_sort(pairs: &[Pair]) -> Vec<Pair> {
        let mut v = pairs.to_vec();
        v.sort_by_key(|p| p.key()); // stable: ties keep input order
        v
    }

    fn sorted(input: &[Pair], threads: usize) -> Vec<Pair> {
        let mut pairs = input.to_vec();
        let mut scratch = Vec::new();
        let mut ss = SortScratch::default();
        sort_pairs(&mut pairs, &mut scratch, &mut ss, threads, None);
        pairs
    }

    /// [`sort_pairs_with`] at an explicit scatter/segment fan-out.
    fn sorted_with(input: &[Pair], workers: usize) -> Vec<Pair> {
        let mut pairs = input.to_vec();
        let mut scratch = Vec::new();
        let mut ss = SortScratch::default();
        sort_pairs_with(&mut pairs, &mut scratch, &mut ss, 4, workers, None);
        pairs
    }

    /// What sorting `input` reaches, read off the predictor: whether the
    /// global counting pass runs, and whether any segment narrows (only
    /// narrowed segments charge segment bytes).
    fn reach(input: &[Pair]) -> (bool, bool) {
        let keys: Vec<u64> = input.iter().map(|p| p.key()).collect();
        let t = predict_traffic(&keys);
        (t[0].1.items > 0, t[3].1.bytes_read > 0)
    }

    fn pseudo_random_pairs(n: usize, key_mask: u64, seed: u64) -> Vec<Pair> {
        // splitmix64 stream; masking concentrates keys to force duplicates.
        let mut state = seed;
        (0..n)
            .map(|i| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                Pair::new((z ^ (z >> 31)) & key_mask, i as u32)
            })
            .collect()
    }

    /// `n` pairs of which all but every 20th share their top 16 bits and
    /// vary in the low 48: one giant global bucket whose segment narrows.
    fn giant_bucket_pairs(n: usize, seed: u64) -> Vec<Pair> {
        pseudo_random_pairs(n, u64::MAX, seed)
            .into_iter()
            .map(|p| {
                if p.id() % 20 != 0 {
                    Pair::new((p.key() & 0xFFFF_FFFF_FFFF) | 0x3A00_0000_0000_0000, p.id())
                } else {
                    p
                }
            })
            .collect()
    }

    #[test]
    fn pair_packs_to_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Pair>(), 12);
        assert_eq!(std::mem::align_of::<Pair>(), 4);
        let p = Pair::new(u64::MAX - 5, 77);
        assert_eq!(p.key(), u64::MAX - 5);
        assert_eq!(p.id(), 77);
    }

    #[test]
    fn narrow_pair_packs_to_eight_bytes() {
        assert_eq!(std::mem::size_of::<NarrowPair>(), 8);
        assert_eq!(std::mem::align_of::<NarrowPair>(), 4);
    }

    /// Every planner branch is reachable from a chosen `(n, diff)`:
    /// global Comparison and Wide; segment Constant, Comparison and
    /// Narrowed.
    #[test]
    fn every_planner_branch_is_reachable() {
        // A full-span batch below ~1k pairs sorts by comparison as a
        // whole; above it, by counting passes.
        assert!(matches!(plan_global(800, u64::MAX), GlobalPlan::Comparison));
        assert!(matches!(
            plan_global(1_000, u64::MAX),
            GlobalPlan::Wide { run: 6, .. }
        ));
        // A narrow span earns counting passes far earlier.
        assert!(matches!(
            plan_global(100, 0xFF),
            GlobalPlan::Wide { run: 1, .. }
        ));
        assert!(matches!(plan_segment(500, 0), SegPlan::Constant));
        // Too small to fill its digit tables.
        assert!(matches!(
            plan_segment(20, u64::MAX >> 11),
            SegPlan::Comparison
        ));
        // Counting passes would win, but the span fits the tie window, so
        // narrowing cannot pay: comparison, not a 12-byte pass.
        assert!(matches!(plan_segment(64, 0xF0), SegPlan::Comparison));
        // A committed-workload segment (~340 pairs varying below the top
        // digit of a 62-bit key): a 16-bit window at the top of the span,
        // two 8-bit passes.
        match plan_segment(340, (1 << 51) - 1) {
            SegPlan::Narrowed {
                win_lo,
                run,
                passes,
                ..
            } => {
                assert_eq!(win_lo, 51 - 16);
                assert_eq!(run, 2);
                assert!(passes[..run].iter().all(|p| p.bits == 8));
            }
            _ => panic!("a wide segment above the cutover must narrow"),
        }
    }

    #[test]
    fn matches_stable_reference_across_sizes_and_threads() {
        for &n in &[0usize, 1, 2, 100, 2_047, 2_048, 40_000] {
            for &mask in &[u64::MAX, 0x3FFF_FFFF_FFFF_FFFF, 0xFF00, 0xFF] {
                let input = pseudo_random_pairs(n, mask, 42 + n as u64);
                let expected = reference_sort(&input);
                for threads in [1, 2, 4, 7] {
                    assert_eq!(
                        sorted(&input, threads),
                        expected,
                        "n={n} mask={mask:#x} threads={threads}"
                    );
                }
            }
        }
        // The grid crosses the cutover both ways.
        assert!(!reach(&pseudo_random_pairs(100, u64::MAX, 142)).0);
        assert!(reach(&pseudo_random_pairs(100, 0xFF, 142)).0);
        assert!(reach(&pseudo_random_pairs(40_000, u64::MAX, 40_042)).0);
    }

    /// Tie-ranked segments must sort exactly like the stable reference
    /// for every thread count: a giant bucket whose 48-bit tail narrows,
    /// and key shapes around the window edges (bit 63 set, a span
    /// straddling the 32-bit boundary, a 32-bit span ending at bit 63).
    #[test]
    fn tie_ranked_segments_match_the_stable_reference() {
        let giant = giant_bucket_pairs(30_000, 99);
        assert!(reach(&giant).1, "the giant bucket must narrow");
        let mut inputs = vec![giant];
        for mask in [
            0x8000_0000_0000_00FF,
            0x0000_00FF_FFF0_0000,
            0x7FFF_FFFF_8000_0000,
        ] {
            inputs.push(pseudo_random_pairs(30_000, mask, 0xC0FFEE ^ mask));
        }
        for input in &inputs {
            let expected = reference_sort(input);
            for threads in [1, 4] {
                assert_eq!(sorted(input, threads), expected, "threads={threads}");
            }
        }
    }

    #[test]
    fn shared_high_bits_do_not_waste_the_digit_window() {
        // Every key carries the same high prefix; only low bits differ, so
        // the pass plan must cover exactly the differing range.
        let input: Vec<Pair> = pseudo_random_pairs(30_000, 0x3FFFF, 3)
            .into_iter()
            .map(|p| Pair::new(p.key() | 0xABCD_0000_0000_0000, p.id()))
            .collect();
        assert!(reach(&input).0);
        let expected = reference_sort(&input);
        for threads in [1, 4] {
            assert_eq!(sorted(&input, threads), expected, "threads={threads}");
        }
    }

    #[test]
    fn pass_plan_skips_constant_digit_windows() {
        // diff varies only in bits 0..4 and 40..44: the 44-bit span splits
        // into four 11-bit windows, and the middle two are all-zero.
        let diff = 0xF | (0xF << 40);
        let (passes, run, skipped) = plan_passes(diff, MAX_DIGIT_BITS);
        assert_eq!(run, 2);
        assert_eq!(skipped, 2);
        for p in &passes[..run] {
            assert_ne!((diff >> p.shift) & ((1u64 << p.bits) - 1), 0, "{p:?}");
        }
        // A full-width diff skips nothing and tiles [0, 64).
        let (passes, run, skipped) = plan_passes(u64::MAX, MAX_DIGIT_BITS);
        assert_eq!(skipped, 0);
        let covered: u32 = passes[..run].iter().map(|p| p.bits).sum();
        assert_eq!(covered, 64);
        assert!(passes[..run].iter().all(|p| p.bits <= MAX_DIGIT_BITS));
    }

    #[test]
    fn sparse_diff_sorts_identically_and_skips_passes() {
        // Keys vary only in two narrow islands of bits — the shape the
        // pass-skip rule exists for.
        let input: Vec<Pair> = pseudo_random_pairs(20_000, u64::MAX, 9)
            .into_iter()
            .map(|p| {
                Pair::new(
                    p.key() & (0xF | (0xF << 40)) | 0x5000_0000_0000_0000,
                    p.id(),
                )
            })
            .collect();
        assert!(reach(&input).0);
        let expected = reference_sort(&input);
        for threads in [1, 4] {
            assert_eq!(sorted(&input, threads), expected, "threads={threads}");
        }
    }

    #[test]
    fn duplicate_keys_preserve_input_order() {
        // All keys equal: stability demands untouched input order.
        let input: Vec<Pair> = (0..10_000).map(|i| Pair::new(7, i as u32)).collect();
        assert_eq!(sorted(&input, 4), input);
    }

    #[test]
    fn scratch_capacity_is_reused() {
        let mut ss = SortScratch::default();
        let mut scratch = Vec::new();
        let mut pairs = giant_bucket_pairs(30_000, 1);
        sort_pairs(&mut pairs, &mut scratch, &mut ss, 2, None);
        assert!(scratch.capacity() >= 30_000);
        // The global-pass swap trades the two buffers, so measure the
        // pair: a second, smaller sort must keep serving from the two
        // existing allocations rather than growing either one.
        let total = pairs.capacity() + scratch.capacity();
        pairs.clear();
        pairs.extend(giant_bucket_pairs(20_000, 2));
        sort_pairs(&mut pairs, &mut scratch, &mut ss, 2, None);
        assert_eq!(
            pairs.capacity() + scratch.capacity(),
            total,
            "second sort must not reallocate"
        );
    }

    /// The owned-run parallel scatter and the stolen segment sorts must
    /// be byte-identical to the sequential pipeline for every worker
    /// count — including more workers than occupied buckets.
    /// `sort_pairs_with` is the seam: the public `sort_pairs` caps the
    /// fan-out at physical cores, which on a 1-core CI host would never
    /// exercise the parallel path.
    #[test]
    fn parallel_scatter_matches_sequential_for_any_worker_count() {
        for input in [
            pseudo_random_pairs(40_000, u64::MAX, 7),
            pseudo_random_pairs(40_000, 0x3FFFF, 8),
            // 3 occupied buckets — fewer buckets than workers.
            pseudo_random_pairs(PARALLEL_SORT, 0x3_0000_0000_0000u64, 9),
            giant_bucket_pairs(40_000, 10),
        ] {
            let seq = sorted_with(&input, 1);
            assert_eq!(seq, reference_sort(&input), "sequential");
            for workers in [2usize, 3, 4, 8] {
                assert_eq!(sorted_with(&input, workers), seq, "workers={workers}");
            }
        }
    }

    /// One giant bucket plus a fringe of tiny ones: the owned-run cuts
    /// collapse around the heavy bucket, its segment sort dominates one
    /// steal-queue stripe, and the output must still be exact for every
    /// fan-out (the imbalance shape the mass-balanced cuts and the steal
    /// queue exist for).
    #[test]
    fn forced_imbalance_sorts_identically_across_workers() {
        // ~90% of keys share one top digit; the rest spread out.
        let input: Vec<Pair> = pseudo_random_pairs(30_000, u64::MAX, 11)
            .into_iter()
            .map(|p| {
                if p.id() % 10 != 0 {
                    Pair::new((p.key() & 0xFFFF_FFFF) | 0x7777_0000_0000, p.id())
                } else {
                    p
                }
            })
            .collect();
        assert!(reach(&input).1);
        let expected = reference_sort(&input);
        for threads in [2, 4, 8] {
            assert_eq!(sorted(&input, threads), expected, "threads={threads}");
        }
        for workers in [2, 5, 8] {
            assert_eq!(sorted_with(&input, workers), expected, "workers={workers}");
        }
    }

    /// The property tests below draw up to 3,000 pairs so the adaptive
    /// gate is crossed within their range: a full-span draw of that size
    /// takes the counting pipeline, and a giant-bucket draw narrows its
    /// heavy segment.
    #[test]
    fn property_shapes_reach_the_counting_passes() {
        assert_eq!(
            reach(&pseudo_random_pairs(3_000, u64::MAX, 5)),
            (true, false)
        );
        assert_eq!(reach(&giant_bucket_pairs(3_000, 6)), (true, true));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Counting pipeline ≡ stable comparison sort on arbitrary
        /// batches, including duplicate keys, narrow/holey diff masks
        /// (random `mask` ANDs punch unpredictable constant-bit windows),
        /// giant buckets that narrow, and empty/singleton inputs (`len`
        /// starts at 0).
        #[test]
        fn counting_pipeline_equals_stable_comparison_sort(
            keys in proptest::collection::vec(any::<u64>(), 0..3_000),
            mask in any::<u64>(),
            giant in any::<bool>(),
            threads in 1usize..5,
        ) {
            let input: Vec<Pair> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| {
                    if giant && i % 20 != 0 {
                        Pair::new((k & 0xFFFF_FFFF_FFFF) | 0x3A00_0000_0000_0000, i as u32)
                    } else {
                        Pair::new(k & mask, i as u32)
                    }
                })
                .collect();
            prop_assert_eq!(sorted(&input, threads), reference_sort(&input));
        }

        /// Duplicate-heavy batches (tiny key alphabet, always above the
        /// cutover) stay stable under the forced parallel-scatter seam.
        #[test]
        fn duplicate_heavy_batches_stay_stable(
            keys in proptest::collection::vec(0u64..7, 0..600),
            workers in 1usize..6,
        ) {
            let input: Vec<Pair> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| Pair::new(k, i as u32))
                .collect();
            prop_assert_eq!(sorted_with(&input, workers), reference_sort(&input));
        }
    }
}
