//! Timing/energy schedulers for the three design points.
//!
//! The schedulers consume the device's match pass, summed per subarray:
//! Type-2/3 its [`SubLoad`]s (queries, rows to activate, hits), Type-1
//! also the Region-1 streams the pass charged query by query through a
//! [`Type1Pass`]. They account for where the time goes on each design:
//!
//! * **Type-3**: each subarray matches locally; a bank runs up to `salp`
//!   subarrays concurrently (LPT assignment of subarray loads onto SALP
//!   slots).
//! * **Type-2**: a subarray group shares one compute buffer; every row
//!   activation additionally pays `hops × hop_delay` to relay the row to
//!   the buffer, and group members serialize on the buffer.
//! * **Type-1**: queries serialize through the per-bank matcher array; each
//!   activated row is streamed in 64-bit batches, skipping batches whose
//!   skip bit has cleared (batch-granular ETM).
//!
//! Occupied subarrays are placed round-robin across banks (and, within a
//! bank, round-robin across compute buffers / SALP positions starting
//! nearest the buffer), which is the paper's co-location argument: spread
//! the sorted partitions so matching requests do not pile onto one bank.

use sieve_dram::{EnergyLedger, TimePs};

use crate::config::{DeviceKind, SieveConfig, MATCHER_OVERHEAD_PCT, QUERIES_PER_GROUP};
use crate::energy_model::ComponentEnergies;
use crate::engine;
use crate::etm;
use crate::layout::{DeviceLayout, SubarrayView};
use crate::obs;
use crate::stats::SimReport;
use crate::trace;

/// One subarray's share of a run, summed query by query by the match
/// pass (and over its ranges, when the pass fans out).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SubLoad {
    /// Queries routed to the subarray.
    pub queries: u64,
    /// Region-1 rows its lookups activate.
    pub rows: u64,
    /// Hits among its queries.
    pub hits: u64,
    /// The most rows any one of its queries activated: where ETM let the
    /// subarray's matching stop (the trace's `etm.terminate`).
    pub deepest_rows: u32,
}

impl SubLoad {
    /// Adds `other`'s work (another range of the same batch).
    pub(crate) fn absorb(&mut self, other: &Self) {
        self.queries += other.queries;
        self.rows += other.rows;
        self.hits += other.hits;
        self.deepest_rows = self.deepest_rows.max(other.deepest_rows);
    }
}

/// Time to retrieve one payload: activate the Region-2 offset row and the
/// Region-3 payload row, with one burst read each.
fn payload_time(config: &SieveConfig) -> TimePs {
    2 * config.timing.row_cycle() + 2 * config.timing.t_ccd
}

/// Whole-run counters accumulated by a scheduler, consumed by [`finalize`].
struct RunTotals {
    queries: u64,
    hits: u64,
    row_activations: u64,
    write_bursts: u64,
    read_bursts: u64,
}

/// Finalizes a report: static energy, PCIe constraints.
fn finalize(
    config: &SieveConfig,
    mut energy: EnergyLedger,
    ideal_makespan: TimePs,
    makespan_with_dispatch: TimePs,
    totals: RunTotals,
) -> SimReport {
    let RunTotals {
        queries,
        hits,
        row_activations,
        write_bursts,
        read_bursts,
    } = totals;
    let makespan = match &config.pcie {
        Some(link) if queries > 0 => {
            let input_end = link.request_ready_ps(queries - 1);
            let response_end = link.response_drain_ps(queries, link.request_bytes);
            let total =
                makespan_with_dispatch.max(input_end).max(response_end) + link.base_latency_ps;
            // How much the link (packetization, queueing, drain) stretched
            // the run beyond ideal dispatch — pure model time, so the
            // histogram stays deterministic.
            let stall = total.saturating_sub(ideal_makespan);
            obs::global().record(obs::HistId::DispatchStallPs, stall);
            let tr = trace::global();
            tr.emit_model(
                "dispatch.stall",
                0,
                tr.model_ps() + ideal_makespan,
                stall,
                stall,
                queries,
            );
            total
        }
        _ => ideal_makespan,
    };
    energy.static_fj += config
        .energy
        .static_energy(config.geometry.total_banks(), makespan);
    SimReport {
        device: config.device.label(),
        queries,
        hits,
        makespan_ps: makespan,
        ideal_makespan_ps: ideal_makespan,
        energy,
        row_activations,
        rows_without_etm: queries * u64::from(config.region1_rows()),
        write_bursts,
        read_bursts,
    }
}

/// Longest-processing-time assignment of loads onto `slots` parallel units;
/// returns the makespan.
fn lpt_makespan(mut loads: Vec<TimePs>, slots: usize) -> TimePs {
    assert!(slots >= 1);
    loads.sort_unstable_by(|a, b| b.cmp(a));
    let mut bins = vec![0u64; slots];
    for load in loads {
        let min = bins
            .iter_mut()
            .min_by_key(|b| **b)
            .expect("at least one slot");
        *min += load;
    }
    bins.into_iter().max().unwrap_or(0)
}

/// Schedules Type-2/3 work from per-subarray loads (index = occupied
/// subarray id; subarrays no query reached carry zero queries).
/// Iteration below is in subarray order, so the schedule is independent
/// of how the match pass split the batch.
pub(crate) fn simulate_type23(config: &SieveConfig, loads: &[SubLoad]) -> SimReport {
    let comp = ComponentEnergies::paper();
    let banks = config.geometry.total_banks();
    let row_cycle = config.timing.row_cycle();
    let queries_per_batch = u64::from(QUERIES_PER_GROUP);
    let writes_per_batch = u64::from(config.batch_replacement_writes());
    // Replacing a 64-query batch opens each Region-1 row once and streams
    // one 64-bit write per pattern group into the query columns; the
    // shared formula also backs xcheck::event_driven_type3_makespan.
    let setup_per_batch = config.batch_setup_ps();
    let hit_extra =
        etm::hit_identify_ps(config.etm_segments(), &config.timing) + payload_time(config);

    let mut energy = EnergyLedger::new();
    let mut row_activations = 0u64;
    let mut write_bursts = 0u64;
    let mut read_bursts = 0u64;
    let mut total_batches = 0u64;
    // Type-3: per bank, the busy time of each occupied subarray (scheduled
    // onto `salp` slots). Type-2: per bank, one serial stream — relaying a
    // row to a compute buffer monopolizes the bank's bitline/sense-amp
    // chain (only two SA sets may be enabled at once, §IV-A), so compute
    // buffers reduce *hop distance*, not intra-bank parallelism. This is
    // what makes the paper's T2.128CB only slightly trail T3.1SA.
    let mut bank_sub_loads: Vec<Vec<TimePs>> = vec![Vec::new(); banks];
    let mut bank_sub_loads_pcie: Vec<Vec<TimePs>> = vec![Vec::new(); banks];
    let mut bank_serial: Vec<TimePs> = vec![0; banks];
    let mut bank_serial_pcie: Vec<TimePs> = vec![0; banks];
    let batch_overhead = config
        .pcie
        .as_ref()
        .map_or(0, crate::pcie::PcieConfig::batch_overhead_ps);
    let t3_salp = match config.device {
        DeviceKind::Type2 { .. } => 0usize,
        DeviceKind::Type3 { salp } => salp as usize,
        DeviceKind::Type1 => unreachable!("Type-1 uses simulate_type1"),
    };
    // Occupied subarrays per bank, to place them spread across the bank
    // (as a filled device would be) for hop-distance purposes.
    let mut per_bank_occupied = vec![0usize; banks];
    for (i, l) in loads.iter().enumerate() {
        if l.queries > 0 {
            per_bank_occupied[i % banks] += 1;
        }
    }
    let mut per_bank_seen = vec![0usize; banks];
    let mut bank_acts = vec![0u64; banks];

    for (i, l) in loads.iter().enumerate() {
        if l.queries == 0 {
            continue;
        }
        let bank = i % banks;
        let hops = match config.device {
            DeviceKind::Type2 { compute_buffers } => {
                // Spread occupied subarrays evenly over the bank's physical
                // positions; hop distance is the position within its
                // subarray group (the compute buffer sits at the group
                // boundary).
                let j = per_bank_seen[bank];
                per_bank_seen[bank] += 1;
                let pos = j * config.geometry.subarrays_per_bank as usize
                    / per_bank_occupied[bank].max(1);
                let group = (config.geometry.subarrays_per_bank / compute_buffers) as usize;
                (pos % group) as u64 + 1
            }
            _ => 0,
        };
        let per_row_extra = hops * config.hop_delay_ps;
        let batches = l.queries.div_ceil(queries_per_batch);
        total_batches += batches;
        let setup = batches * setup_per_batch;
        let busy = setup + l.rows * (row_cycle + per_row_extra) + l.hits * hit_extra;
        let busy_pcie = busy + batches * batch_overhead;

        let tr = trace::global();
        if tr.is_enabled() {
            // One busy interval per occupied subarray (the loads table is
            // walked in subarray order — deterministic), and the Column
            // Finder's hit-identification + payload drain as its tail:
            // visibly off the critical path of the *next* subarray's work.
            let t_base = tr.model_ps();
            tr.emit_model("batch.issue", i as u32, t_base, busy, batches, l.queries);
            let cf = l.hits * hit_extra;
            if cf > 0 {
                tr.emit_model("cf.drain", i as u32, t_base + busy - cf, cf, l.hits, 0);
            }
        }

        row_activations += l.rows;
        bank_acts[bank] += l.rows + 2 * l.hits;
        write_bursts += batches * writes_per_batch;
        read_bursts += 2 * l.hits;
        energy.activation_fj += u128::from(l.rows) * u128::from(config.energy.e_act);
        // Matcher + ETM overhead per activation (~6 %).
        energy.component_fj +=
            u128::from(l.rows) * u128::from(config.energy.e_act * MATCHER_OVERHEAD_PCT / 100);
        // Type-2 relay: each hop re-fires a set of local sense amplifiers
        // (~1/8 of a full activation, per the tSA ≈ tRAS/8 SPICE result).
        energy.component_fj +=
            u128::from(l.rows) * u128::from(hops) * u128::from(config.energy.e_act / 8);
        energy.write_fj += u128::from(batches * writes_per_batch) * u128::from(config.energy.e_wr);
        // Hits: finders + payload rows (plain activations; matchers bypassed).
        energy.component_fj += u128::from(l.hits) * u128::from(comp.finder_fj);
        energy.activation_fj += u128::from(2 * l.hits) * u128::from(config.energy.e_act);
        energy.read_fj += u128::from(2 * l.hits) * u128::from(config.energy.e_rd);
        row_activations += 2 * l.hits;

        match config.device {
            DeviceKind::Type2 { .. } => {
                bank_serial[bank] += busy;
                bank_serial_pcie[bank] += busy_pcie;
            }
            _ => {
                bank_sub_loads[bank].push(busy);
                bank_sub_loads_pcie[bank].push(busy_pcie);
            }
        }
    }

    // Per-bank makespan: parallel (or serial) matching time, floored by the
    // bank's power-delivery activation window (tFAW — this is what
    // saturates the SALP sweep of Figure 16), stretched by refresh.
    let makespan_of = |serial: &[TimePs], subs: &[Vec<TimePs>]| {
        (0..banks)
            .map(|b| {
                let base = match config.device {
                    DeviceKind::Type2 { .. } => serial[b],
                    _ => lpt_makespan(subs[b].clone(), t3_salp.max(1)),
                };
                config
                    .timing
                    .with_refresh(base.max(config.timing.faw_floor(bank_acts[b])))
            })
            .max()
            .unwrap_or(0)
    };
    let ideal = makespan_of(&bank_serial, &bank_sub_loads);
    let busy_with_dispatch = makespan_of(&bank_serial_pcie, &bank_sub_loads_pcie);

    obs::global().add(obs::CounterId::SchedBatches, total_batches);
    let queries = loads.iter().map(|l| l.queries).sum();
    let hits = loads.iter().map(|l| l.hits).sum();
    finalize(
        config,
        energy,
        ideal,
        busy_with_dispatch,
        RunTotals {
            queries,
            hits,
            row_activations,
            write_bursts,
            read_bursts,
        },
    )
}

/// Columns per Type-1 batch: the bank I/O bursts an open row out 64 bits
/// at a time, and the matcher array compares one burst per `t_ccd`.
pub(crate) const TYPE1_BATCH_COLS: u32 = 64;

/// The widest Type-1 row [`SieveConfig::validate`] accepts, in columns.
/// A row of `n` batches gives [`DepthTables`] prefix sums up to
/// `(n − 1) · 2k`, which must fit their `u16` at k = 32.
pub(crate) const TYPE1_MAX_ROW_COLS: u32 = 65_536;

const _: () = assert!(
    (TYPE1_MAX_ROW_COLS / TYPE1_BATCH_COLS - 1) * 2 * 32 <= u16::MAX as u32,
    "Type-1 depth tables would wrap"
);

const BATCH: usize = TYPE1_BATCH_COLS as usize;

/// One subarray's Type-1 totals: integer sums whose merge order cannot
/// affect them. Every energy term is a fixed price times one of them,
/// so [`simulate_type1`] prices the merged totals.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Type1Partial {
    busy: TimePs,
    row_activations: u64,
    read_bursts: u64,
}

impl Type1Partial {
    /// Charges `m` queries that each stream `cost` through Region 1.
    fn charge(&mut self, cost: RowCost, m: u64) {
        self.busy += cost.time * m;
        self.row_activations += cost.rows * m;
        self.read_bursts += cost.reads * m;
    }

    /// Adds `other`'s totals (another range of the same batch).
    pub(crate) fn absorb(&mut self, other: Self) {
        self.busy += other.busy;
        self.row_activations += other.row_activations;
        self.read_bursts += other.read_bursts;
    }
}

/// One query's Region-1 stream on Type-1: the rows it activates, the
/// time they take, and the 64-bit batch bursts it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowCost {
    rows: u64,
    time: TimePs,
    reads: u64,
}

/// The non-empty batches of a Type-1 subarray's row. Type-1 stores rank
/// `r` in column `r`, so batch `j` holds ranks `64j..min(64j + 64, len)`
/// and the batch of insertion rank `ins` is `ins / 64`; debug builds
/// check that layout each time a subarray's tables are built.
fn batch_count(sa: &SubarrayView<'_>, cols_per_row: u32) -> usize {
    let len = sa.len();
    debug_assert!(
        (0..cols_per_row / TYPE1_BATCH_COLS).all(|j| {
            let start = j as usize * BATCH;
            sa.ranks_in_cols(j * TYPE1_BATCH_COLS, (j + 1) * TYPE1_BATCH_COLS)
                == (start.min(len)..(start + BATCH).min(len))
        }),
        "Type-1 batch b no longer holds ranks 64b..64b + 64"
    );
    len.div_ceil(BATCH)
}

/// With ETM off no Skip-Bit clears: every non-empty batch streams on
/// every Region-1 row, whatever the query.
fn etm_off_cost(config: &SieveConfig, batches: usize) -> RowCost {
    let timing = &config.timing;
    let rows = u64::from(config.region1_rows());
    let batches = batches as u64;
    let stream = timing.t_rcd + batches * timing.t_ccd + timing.t_rp;
    RowCost {
        rows,
        time: rows * stream.max(timing.row_cycle()),
        reads: rows * batches,
    }
}

/// One subarray's Type-1 batch depths, built when the subarray's first
/// query arrives (~32 KB at 128 batches and k = 31, freed with the
/// [`Type1Pass`]), which turn a query's row stream into four LCPs around
/// its insertion point.
///
/// A batch stays live while the query still matches one of its keys: for
/// its max LCP plus one rows. For sorted keys `x ≤ y ≤ z`,
/// `lcp(x, z) = min(lcp(x, y), lcp(y, z))`, because `x` and `z` sharing a
/// prefix puts `y` between them under that prefix too. Let `b` be the
/// batch of the query's insertion point. Every batch `j < b` lies below
/// the query, so its max LCP is `min(lcp(last_j, last_{b−1}), lo)` with
/// `lo = lcp(last_{b−1}, q)`, and it is live at depth `t` when `lo ≥ t`
/// and `lcp(last_j, last_{b−1}) ≥ t`. `below[b][t]` counts the batches
/// `j < b − 1` meeting the second condition, so the lower batches live at
/// depth `t` number `[lo ≥ t] · (1 + below[b][t])`, and likewise
/// `[hi ≥ t] · (1 + above[b][t])` above `b` over the first keys. The ESP
/// cap only lowers `lo` and `hi`. The tables hold prefix sums over depth,
/// `Σ_{s<t} below[b][s]`, so one entry gives a query's bursts.
struct DepthTables<'a> {
    /// The subarray's packed keys, by rank.
    keys: &'a [u64],
    /// `bit_len + 1` prefix sums per batch row, `t = 0..=bit_len`.
    below: Vec<u16>,
    above: Vec<u16>,
    bit_len: usize,
    /// The ESP cap on a missed batch's LCP (`bit_len`, a no-op, when
    /// there is no override).
    cap: usize,
    t_open: TimePs,
    t_ccd: TimePs,
    row_cycle: TimePs,
}

impl<'a> DepthTables<'a> {
    /// Builds the tables in `O(batches × 2k)` from the LCPs of
    /// consecutive boundary keys. `lcp(last_j, last_{b−1})` is the min of
    /// the consecutive LCPs from `j` to `b − 1`, so `below[b][t]` is
    /// `below[b − 1][t] + 1` while `t ≤ c = lcp(last_{b−2}, last_{b−1})`
    /// and 0 beyond: as prefix sums,
    /// `P_b[t] = P_{b−1}[min(t, c + 1)] + min(t, c + 1)`.
    fn new(config: &SieveConfig, sa: &SubarrayView<'a>) -> Self {
        let bit_len = config.region1_rows() as usize;
        let keys = sa.keys();
        let batches = batch_count(sa, config.geometry.cols_per_row);
        let (sorted, width) = (keys, bit_len + 1);
        let lcp = |a: u64, b: u64| engine::lcp_bits_u64_swar(a, b, bit_len);
        let last = |j: usize| sorted[((j + 1) * BATCH).min(sorted.len()) - 1];
        let first = |j: usize| sorted[j * BATCH];
        // One row per insertion batch `b = 0..=batches` (`b = batches`
        // when the query sorts past a full last batch).
        let mut below = vec![0u16; (batches + 1) * width];
        for b in 2..=batches {
            let run = lcp(last(b - 2), last(b - 1)) + 1;
            let (done, rest) = below.split_at_mut(b * width);
            let prev = &done[(b - 1) * width..];
            for (t, sum) in rest[..width].iter_mut().enumerate() {
                let s = t.min(run);
                *sum = prev[s] + s as u16;
            }
        }
        let mut above = vec![0u16; (batches + 1) * width];
        for b in (0..batches.saturating_sub(2)).rev() {
            let run = lcp(first(b + 1), first(b + 2)) + 1;
            let (head, next) = above.split_at_mut((b + 1) * width);
            for (t, sum) in head[b * width..].iter_mut().enumerate() {
                let s = t.min(run);
                *sum = next[s] + s as u16;
            }
        }
        let timing = &config.timing;
        Self {
            keys,
            below,
            above,
            bit_len,
            cap: config.esp_override.map_or(bit_len, |esp| esp as usize),
            t_open: timing.t_rcd + timing.t_rp,
            t_ccd: timing.t_ccd,
            row_cycle: timing.row_cycle(),
        }
    }

    /// The Region-1 stream of `query` with ETM on, given its insertion
    /// rank `ins` among the subarray's keys; `hit` is whether the
    /// subarray holds it.
    #[inline]
    fn cost(&self, query: u64, ins: usize, hit: bool) -> RowCost {
        let (keys, bit_len) = (self.keys, self.bit_len);
        debug_assert_eq!(ins, keys.partition_point(|&k| k < query));
        debug_assert_eq!(hit, keys.get(ins) == Some(&query));
        let b = ins / BATCH;
        let start = b * BATCH;
        let lcp = |r: usize| engine::lcp_bits_u64_swar(keys[r], query, bit_len);
        // `lo`, `hold` and `hi` are the rows batch `b − 1`, batch `b` and
        // batch `b + 1` stay live (0 if there is no such batch): the max
        // LCP, ESP-capped on a miss, plus the row the last latch dies on,
        // so `[lcp ≥ t]` reads `t < rows`.
        let live_rows = |lcp: usize| (lcp.min(self.cap) + 1).min(bit_len);
        let lo = if b > 0 { live_rows(lcp(start - 1)) } else { 0 };
        let hold = if start == keys.len() {
            0
        } else if hit {
            bit_len
        } else {
            let left = if ins > start { lcp(ins - 1) } else { 0 };
            let right = if ins < keys.len() { lcp(ins) } else { 0 };
            live_rows(left.max(right))
        };
        let hi = if start + BATCH < keys.len() {
            live_rows(lcp(start + BATCH))
        } else {
            0
        };
        let width = bit_len + 1;
        let below = &self.below[b * width..][..width];
        let above = &self.above[b * width..][..width];
        let rows = lo.max(hold).max(hi);
        let reads = lo + usize::from(below[lo]) + hold + hi + usize::from(above[hi]);
        // Batches live on row `t`. It never rises with `t`, so once one
        // row's stream fits in a row cycle every later row's does too.
        let live = |t: usize| {
            let side = |live_rows: usize, sums: &[u16]| {
                if t < live_rows {
                    1 + u64::from(sums[t + 1] - sums[t])
                } else {
                    0
                }
            };
            side(lo, below) + u64::from(t < hold) + side(hi, above)
        };
        let mut time = 0;
        let mut t = 0;
        while t < rows {
            let stream = self.t_open + live(t) * self.t_ccd;
            if stream <= self.row_cycle {
                break;
            }
            time += stream;
            t += 1;
        }
        RowCost {
            rows: rows as u64,
            time: time + (rows - t) as u64 * self.row_cycle,
            reads: reads as u64,
        }
    }
}

/// The Type-1 side of one worker's match pass, with ETM on: each
/// query's Region-1 stream, priced from the rank the pass already found
/// and summed per subarray. A subarray's [`DepthTables`] are built when
/// its first query arrives. Every per-query cost is a pure function of
/// the k-mer, so the sums do not depend on the order the queries arrive
/// in or on how the run was split between workers.
pub(crate) struct Type1Pass<'a> {
    config: &'a SieveConfig,
    layout: &'a DeviceLayout,
    tables: Vec<Option<DepthTables<'a>>>,
    partials: Vec<Type1Partial>,
}

impl<'a> Type1Pass<'a> {
    /// An empty pass over the occupied subarrays of `layout`.
    pub(crate) fn new(config: &'a SieveConfig, layout: &'a DeviceLayout) -> Self {
        let subarrays = layout.occupied_subarrays();
        Self {
            config,
            layout,
            tables: (0..subarrays).map(|_| None).collect(),
            partials: vec![Type1Partial::default(); subarrays],
        }
    }

    /// Charges `query`, routed to `subarray` at insertion rank `ins`
    /// among its keys; `hit` is whether the subarray holds it.
    #[inline]
    pub(crate) fn charge(&mut self, subarray: usize, query: u64, ins: usize, hit: bool) {
        let Self {
            config,
            layout,
            tables,
            partials,
        } = self;
        let tables = tables[subarray]
            .get_or_insert_with(|| DepthTables::new(config, &layout.subarray(subarray)));
        partials[subarray].charge(tables.cost(query, ins, hit), 1);
    }

    /// The per-subarray totals (the tables are dropped).
    pub(crate) fn into_partials(self) -> Vec<Type1Partial> {
        self.partials
    }
}

/// Schedules Type-1 work: per-bank serial matcher array, batch-granular
/// ETM. With ETM on, `partials` holds each subarray's Region-1 streams
/// as the match pass charged them ([`Type1Pass`]); with it off every
/// query of a subarray streams the same closed form, priced here from
/// its `loads` entry, and `partials` is empty. Payloads are priced from
/// the hits in `loads`. Every total is an integer sum, so the report is
/// bit-identical for any `threads` and any split of the batch.
pub(crate) fn simulate_type1(
    config: &SieveConfig,
    layout: &DeviceLayout,
    loads: &[SubLoad],
    partials: &[Type1Partial],
) -> SimReport {
    let banks = config.geometry.total_banks();
    let payload = payload_time(config);
    let tr = trace::global();
    let ts = tr.model_ps();
    let mut row_activations = 0u64;
    let mut read_bursts = 0u64;
    let mut bank_busy = vec![0u64; banks];
    for (subarray, l) in loads.iter().enumerate().filter(|(_, l)| l.queries > 0) {
        let mut p = partials.get(subarray).copied().unwrap_or_default();
        if !config.etm_enabled {
            let batches = batch_count(&layout.subarray(subarray), config.geometry.cols_per_row);
            p.charge(etm_off_cost(config, batches), l.queries);
        }
        // A hit then retrieves its payload: two more activations and
        // bursts.
        p.busy += payload * l.hits;
        p.row_activations += 2 * l.hits;
        p.read_bursts += 2 * l.hits;
        // One streaming interval per subarray that received queries, in
        // subarray order.
        tr.emit_model(
            "t1.stream",
            subarray as u32,
            ts,
            p.busy,
            p.row_activations,
            p.read_bursts,
        );
        bank_busy[subarray % banks] += p.busy;
        row_activations += p.row_activations;
        read_bursts += p.read_bursts;
    }
    // Each activation, payload rows included, at the row energy; each
    // burst read out, and through the matcher array, registers and SRAM
    // buffer as one batch comparison.
    let reads = u128::from(read_bursts);
    let energy = EnergyLedger {
        activation_fj: u128::from(row_activations) * u128::from(config.energy.e_act),
        read_fj: reads * u128::from(config.energy.e_rd),
        component_fj: reads * u128::from(ComponentEnergies::paper().t1_batch_fj),
        ..EnergyLedger::new()
    };

    let ideal = bank_busy
        .into_iter()
        .map(|b| config.timing.with_refresh(b))
        .max()
        .unwrap_or(0);
    finalize(
        config,
        energy,
        ideal,
        ideal,
        RunTotals {
            queries: loads.iter().map(|l| l.queries).sum(),
            hits: loads.iter().map(|l| l.hits).sum(),
            row_activations,
            write_bursts: 0,
            read_bursts,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SieveDevice;
    use sieve_dram::Geometry;
    use sieve_genomics::{synth, Kmer};

    fn dataset() -> synth::SyntheticDataset {
        synth::make_dataset_with(8, 2048, 31, 77)
    }

    fn queries(ds: &synth::SyntheticDataset, n: usize) -> Vec<Kmer> {
        let (reads, _) = synth::simulate_reads(ds, synth::ReadSimConfig::default(), n, 9);
        reads
            .iter()
            .flat_map(|r| r.kmers(31).map(|(_, k)| k))
            .collect()
    }

    fn run(config: SieveConfig, ds: &synth::SyntheticDataset, qs: &[Kmer]) -> SimReport {
        SieveDevice::new(
            config.with_geometry(Geometry::scaled_medium()),
            ds.entries.clone(),
        )
        .unwrap()
        .run(qs)
        .unwrap()
        .report
    }

    #[test]
    fn type3_salp_speeds_up_until_plateau() {
        let ds = dataset();
        let qs = queries(&ds, 60);
        let t1sa = run(SieveConfig::type3(1), &ds, &qs);
        let t4sa = run(SieveConfig::type3(4), &ds, &qs);
        let t64sa = run(SieveConfig::type3(64), &ds, &qs);
        assert!(t4sa.makespan_ps <= t1sa.makespan_ps);
        assert!(t64sa.makespan_ps <= t4sa.makespan_ps);
        // Energy is (nearly) independent of SALP.
        let e1 = t1sa.energy.total_fj() as f64;
        let e64 = t64sa.energy.total_fj() as f64;
        assert!((e1 - e64).abs() / e1 < 0.5);
    }

    #[test]
    fn type2_more_buffers_is_faster() {
        let ds = dataset();
        let qs = queries(&ds, 60);
        let cb1 = run(SieveConfig::type2(1), &ds, &qs);
        let cb16 = run(SieveConfig::type2(16), &ds, &qs);
        let cb64 = run(SieveConfig::type2(64), &ds, &qs);
        assert!(cb16.makespan_ps <= cb1.makespan_ps);
        assert!(cb64.makespan_ps <= cb16.makespan_ps);
    }

    #[test]
    fn type2_trails_type3_via_hop_delay() {
        let ds = dataset();
        let qs = queries(&ds, 60);
        let t2max = run(SieveConfig::type2(64), &ds, &qs);
        let t3 = run(SieveConfig::type3(64), &ds, &qs);
        assert!(
            t2max.makespan_ps > t3.makespan_ps,
            "T2 must pay at least one hop per activation"
        );
    }

    #[test]
    fn type1_is_slowest_design() {
        let ds = dataset();
        let qs = queries(&ds, 40);
        let t1 = run(SieveConfig::type1(), &ds, &qs);
        let t3 = run(SieveConfig::type3(8), &ds, &qs);
        assert!(t1.makespan_ps > t3.makespan_ps);
        // But Type-1 spends less component energy per query than T2/3
        // spend on matchers (the paper's energy-efficiency observation
        // holds at the whole-ledger level below).
        assert!(t1.queries == t3.queries);
    }

    #[test]
    fn type1_etm_prunes_reads_and_rows() {
        let ds = dataset();
        let qs = queries(&ds, 40);
        let with = run(SieveConfig::type1(), &ds, &qs);
        let without = run(SieveConfig::type1().with_etm(false), &ds, &qs);
        assert!(with.row_activations < without.row_activations);
        assert!(with.read_bursts < without.read_bursts);
        assert!(with.makespan_ps < without.makespan_ps);
    }

    #[test]
    fn pcie_adds_bounded_overhead() {
        let ds = dataset();
        let qs = queries(&ds, 60);
        let ideal = run(SieveConfig::type3(8), &ds, &qs);
        let with_pcie = run(
            SieveConfig::type3(8).with_pcie(crate::pcie::PcieConfig::gen4_x16()),
            &ds,
            &qs,
        );
        assert!(with_pcie.makespan_ps >= ideal.makespan_ps);
        assert_eq!(with_pcie.ideal_makespan_ps, ideal.makespan_ps);
        assert!(with_pcie.transport_overhead() >= 0.0);
    }

    #[test]
    fn write_bursts_match_batch_formula() {
        let ds = dataset();
        let qs = queries(&ds, 10);
        let report = run(SieveConfig::type3(8), &ds, &qs);
        // Every batch of ≤64 queries per subarray costs 868 writes.
        assert_eq!(report.write_bursts % 868, 0);
        assert!(report.write_bursts > 0);
    }

    /// Every 29th reference and its ±1 neighbours, each batch's first and
    /// last key and the keys just outside them, and the all-zero and
    /// all-ones k-mers.
    fn batch_probes(layout: &DeviceLayout, batch_cols: u32) -> Vec<u64> {
        let k = layout.k();
        let ones = u64::MAX >> (64 - 2 * k);
        let mut probes = vec![0, ones];
        let keys = layout.subarrays().flat_map(|sa| sa.keys().iter().copied());
        for key in keys.step_by(29) {
            probes.extend([key.wrapping_sub(1), key, key.wrapping_add(1)]);
        }
        for sa in layout.subarrays() {
            for b in 0..batch_cols {
                let batch = &sa.keys()[sa.ranks_in_cols(b * 64, (b + 1) * 64)];
                if let (Some(&first), Some(&last)) = (batch.first(), batch.last()) {
                    probes.extend([first.wrapping_sub(1), first, last, last.wrapping_add(1)]);
                }
            }
        }
        probes.retain(|&p| p <= ones);
        probes
    }

    /// The per-batch cost path [`DepthTables`] replaced, kept as its
    /// reference: [`engine::max_lcp_in_range`] on every non-empty batch of
    /// the row, the ESP cap, the live-rows histogram and the full row
    /// loop.
    fn reference_cost(sa: &SubarrayView<'_>, config: &SieveConfig, query: Kmer) -> RowCost {
        let bit_len = config.region1_rows() as usize;
        let cap = config.esp_override.map_or(bit_len, |esp| esp as usize);
        // `alive[d]` counts batches live through exactly `d` rows.
        let mut alive = vec![0u64; bit_len + 1];
        let mut rows = 0;
        for b in 0..config.geometry.cols_per_row / 64 {
            let range = sa.ranks_in_cols(b * 64, (b + 1) * 64);
            let Some(lcp) = engine::max_lcp_in_range(sa, range, query) else {
                continue;
            };
            let lcp = if lcp < bit_len { lcp.min(cap) } else { lcp };
            let live_rows = (lcp + 1).min(bit_len);
            alive[live_rows] += 1;
            rows = rows.max(live_rows);
        }
        if !config.etm_enabled {
            rows = bit_len;
        }
        let timing = &config.timing;
        let (mut time, mut reads) = (0, 0);
        for t in 0..rows {
            let live: u64 = if config.etm_enabled {
                alive[t + 1..].iter().sum()
            } else {
                alive.iter().sum()
            };
            time += (timing.t_rcd + live * timing.t_ccd + timing.t_rp).max(timing.row_cycle());
            reads += live;
        }
        RowCost {
            rows: rows as u64,
            time,
            reads,
        }
    }

    /// Holds every probe's Type-1 row cost — [`DepthTables::cost`] with
    /// ETM on, [`etm_off_cost`] with it off — to [`reference_cost`] on
    /// every occupied subarray, with no ESP cap and with caps of 0, 10
    /// and 2k − 1. Returns how many subarrays end in empty batches
    /// (Type-1 fills a row's columns in rank order).
    fn assert_cost_twins_reference(layout: &DeviceLayout, config: &SieveConfig) -> usize {
        let batch_cols = config.geometry.cols_per_row / 64;
        let probes = batch_probes(layout, batch_cols);
        let bit_len = config.region1_rows();
        let mut trailing_empty = 0;
        for (s, sa) in layout.subarrays().enumerate() {
            let batches = batch_count(&sa, config.geometry.cols_per_row);
            // `b = ins / 64` rests on rank `r` sitting in column `r`.
            for b in 0..batch_cols {
                let start = (64 * b as usize).min(sa.len());
                let end = (64 * (b as usize + 1)).min(sa.len());
                assert_eq!(sa.ranks_in_cols(64 * b, 64 * (b + 1)), start..end);
            }
            trailing_empty += usize::from(batches < batch_cols as usize);
            for (etm, esp) in [true, false]
                .into_iter()
                .flat_map(|etm| [None, Some(0), Some(10), Some(bit_len - 1)].map(|esp| (etm, esp)))
            {
                let config = SieveConfig {
                    etm_enabled: etm,
                    esp_override: esp,
                    ..config.clone()
                };
                let tables = DepthTables::new(&config, &sa);
                for &probe in &probes {
                    let q = Kmer::from_u64(probe, layout.k()).unwrap();
                    let (hit, ins) = match sa.keys().binary_search(&probe) {
                        Ok(rank) => (true, rank),
                        Err(ins) => (false, ins),
                    };
                    let got = if etm {
                        tables.cost(probe, ins, hit)
                    } else {
                        etm_off_cost(&config, batches)
                    };
                    assert_eq!(
                        got,
                        reference_cost(&sa, &config, q),
                        "subarray {s} probe {q} etm {etm} esp {esp:?}"
                    );
                }
            }
        }
        trailing_empty
    }

    #[test]
    fn type1_cost_twins_reference_on_full_rows() {
        // 128 batches per row; the second subarray is partly filled.
        let config = SieveConfig::type1().with_geometry(Geometry::scaled_medium());
        let layout = DeviceLayout::build(dataset().entries, &config).unwrap();
        assert!(layout.occupied_subarrays() >= 2);
        let trailing_empty = assert_cost_twins_reference(&layout, &config);
        assert!(trailing_empty > 0, "no subarray ends in empty batches");
    }

    #[test]
    fn type1_cost_twins_reference_on_short_rows() {
        // 16 batches per row: `scaled_small` at k = 15 (30-bit keys), and
        // at k = 31 and 32 with the rows their Region 2/3 need.
        let tall = Geometry {
            rows_per_subarray: 512,
            ..Geometry::scaled_small()
        };
        for (k, geometry) in [(15, Geometry::scaled_small()), (31, tall), (32, tall)] {
            let config = SieveConfig::type1().with_k(k).with_geometry(geometry);
            let ds = synth::make_dataset_with(4, 1200, k, 91);
            let layout = DeviceLayout::build(ds.entries, &config).unwrap();
            assert!(layout.occupied_subarrays() >= 3, "k={k}");
            let trailing_empty = assert_cost_twins_reference(&layout, &config);
            assert!(
                trailing_empty > 0,
                "k={k}: no subarray ends in empty batches"
            );
        }
    }

    #[test]
    fn lpt_makespan_basics() {
        assert_eq!(lpt_makespan(vec![], 4), 0);
        assert_eq!(lpt_makespan(vec![10, 10, 10, 10], 2), 20);
        assert_eq!(lpt_makespan(vec![40, 10, 10, 10], 2), 40);
        assert_eq!(lpt_makespan(vec![5], 8), 5);
    }
}
