//! Timing/energy schedulers for the three design points.
//!
//! The schedulers consume resolved per-query work (rows to activate, hit or
//! miss) and account for where the time goes on each design:
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
use sieve_genomics::{Kmer, TaxonId};

use crate::config::{DeviceKind, SieveConfig};
use crate::device::QueryWork;
use crate::energy_model::ComponentEnergies;
use crate::engine;
use crate::etm;
use crate::layout::{DeviceLayout, SubarrayView};
use crate::obs;
use crate::par;
use crate::shard::{Pair, ShardPlan};
use crate::stats::SimReport;
use crate::trace;

/// Per-subarray aggregated work, produced shard-by-shard by the matchers.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SubLoad {
    /// Queries routed to the subarray.
    pub queries: u64,
    /// Region-1 rows its lookups activate.
    pub rows: u64,
    /// Hits among its queries.
    pub hits: u64,
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
/// subarray id; unoccupied gaps carry zero queries). The loads table is
/// built by the sharded matchers; iteration below is in subarray order,
/// so the schedule is independent of how the shards were executed.
pub(crate) fn simulate_type23(config: &SieveConfig, loads: &[SubLoad]) -> SimReport {
    let comp = ComponentEnergies::paper();
    let banks = config.geometry.total_banks();
    let row_cycle = config.timing.row_cycle();
    let queries_per_batch = u64::from(config.queries_per_group);
    let writes_per_batch = u64::from(config.batch_replacement_writes());
    // Replacing a 64-query batch opens each Region-1 row once and streams
    // one 64-bit write per pattern group into the query columns; the
    // shared formula also backs xcheck::setup_per_batch.
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
        energy.component_fj += u128::from(l.rows)
            * u128::from(config.energy.e_act * config.matcher_overhead_pct / 100);
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

/// One shard's Type-1 contribution: integer partials whose merge order
/// cannot affect the totals.
#[derive(Debug, Clone, Copy, Default)]
struct Type1Partial {
    subarray: usize,
    busy: TimePs,
    row_activations: u64,
    read_bursts: u64,
    activation_fj: u128,
    read_fj: u128,
    component_fj: u128,
}

/// The boundary keys of one subarray's 64-column Type-1 batches: the
/// first and last key of every non-empty batch, in column (= key) order,
/// and where each batch's ranks start. An 8,192-column row has 128
/// batches, so the table takes ~4 KB, and it lives as long as one task.
///
/// Because the ranks are sorted, one insertion point per query decides
/// every batch's max LCP (the nearest-key argument in
/// [`crate::engine`]): a batch wholly below the query shares the longest
/// prefix with its last key, a batch wholly above with its first key,
/// and the batch holding the insertion point with the two keys either
/// side of it.
struct BatchBounds<'a> {
    entries: &'a [(Kmer, TaxonId)],
    firsts: Vec<u64>,
    lasts: Vec<u64>,
    /// `starts[j]..starts[j + 1]` are batch `j`'s ranks (the non-empty
    /// batches' ranges tile the subarray).
    starts: Vec<usize>,
    bit_len: usize,
    /// The ESP cap on a missing batch's LCP (`bit_len`, a no-op, when
    /// there is no override).
    cap: usize,
}

impl<'a> BatchBounds<'a> {
    fn new(sa: &SubarrayView<'a>, config: &SieveConfig) -> Self {
        let batch_bits = 64u32;
        let bit_len = config.region1_rows() as usize;
        let entries = sa.entries();
        let mut bounds = Self {
            entries,
            firsts: Vec::new(),
            lasts: Vec::new(),
            starts: vec![0],
            bit_len,
            cap: config.esp_override.map_or(bit_len, |esp| esp as usize),
        };
        for b in 0..config.geometry.cols_per_row / batch_bits {
            let range = sa.ranks_in_cols(b * batch_bits, (b + 1) * batch_bits);
            if !range.is_empty() {
                bounds.firsts.push(entries[range.start].0.bits());
                bounds.lasts.push(entries[range.end - 1].0.bits());
                bounds.starts.push(range.end);
            }
        }
        bounds
    }

    /// Feeds `each` the max LCP of `query` against every non-empty batch,
    /// in batch order, ESP-capped unless the batch holds the query: what
    /// [`engine::max_lcp_in_range`] gives for each batch's ranks.
    #[inline]
    fn batch_lcps(&self, query: u64, mut each: impl FnMut(usize)) {
        let lcp = |key: u64| engine::lcp_bits_u64_swar(key, query, self.bit_len);
        // The batch holding the insertion point: the first whose last key
        // is not below the query.
        let b = self.lasts.partition_point(|&last| last < query);
        for &last in &self.lasts[..b] {
            each(lcp(last).min(self.cap));
        }
        if b == self.lasts.len() {
            return;
        }
        let (lo, hi) = (self.starts[b], self.starts[b + 1]);
        let ins = lo + self.entries[lo..hi].partition_point(|(k, _)| k.bits() < query);
        // `lasts[b] >= query`, so the insertion point has a key above it.
        let right = self.entries[ins].0.bits();
        each(if right == query {
            self.bit_len
        } else {
            let left = if ins > lo {
                lcp(self.entries[ins - 1].0.bits())
            } else {
                0
            };
            left.max(lcp(right)).min(self.cap)
        });
        for &first in &self.firsts[b + 1..] {
            each(lcp(first).min(self.cap));
        }
    }
}

/// Accounts one task of Type-1 queries against its subarray: the batch
/// boundary table is built once per task, and the per-query histogram
/// buffers are reused across the task's queries.
///
/// `work` / `pairs` are in *match space* — unique k-mers when the device
/// deduplicates, raw queries otherwise — and `mult` carries each entry's
/// occurrence count (`None` = all 1). `pairs` is the task's slice of the
/// plan's grouped `(bits, id)` array. Every per-query quantity (stream
/// time, reads, activations, energies) is a pure function of the k-mer,
/// so charging it `mult` times is exact, not an approximation, and the
/// task's integer sums do not depend on the order its queries arrive in.
fn type1_task(
    config: &SieveConfig,
    layout: &DeviceLayout,
    work: &[QueryWork],
    mult: Option<&[u32]>,
    subarray: usize,
    pairs: &[Pair],
) -> Type1Partial {
    let comp = ComponentEnergies::paper();
    let timing = &config.timing;
    let row_cycle = timing.row_cycle();
    let bit_len = config.region1_rows() as usize;
    let bounds = BatchBounds::new(&layout.subarray(subarray), config);

    let mut p = Type1Partial {
        subarray,
        ..Type1Partial::default()
    };
    let mut alive_rows_hist = vec![0u32; bit_len + 1];
    let mut live_suffix = vec![0u32; bit_len + 2];
    for &pair in pairs {
        let i = pair.id() as usize;
        let w = &work[i];
        let m = mult.map_or(1u64, |m| u64::from(m[i]));
        // Rows each batch stays live: max LCP within the batch + 1
        // (the batch must be compared on its death row), capped at 2k.
        // `alive[d]` counts batches live through exactly d rows.
        alive_rows_hist.fill(0);
        let mut rows_needed = 0usize;
        bounds.batch_lcps(pair.key(), |lcp| {
            let live_rows = (lcp + 1).min(bit_len);
            alive_rows_hist[live_rows] += 1;
            rows_needed = rows_needed.max(live_rows);
        });
        if !config.etm_enabled {
            rows_needed = bit_len;
        }
        // live(t) = batches whose live_rows > t.
        live_suffix[bit_len + 1] = 0;
        for d in (0..=bit_len).rev() {
            live_suffix[d] = live_suffix[d + 1] + alive_rows_hist[d];
        }
        let mut query_time = 0u64;
        let mut query_reads = 0u64;
        for t in 0..rows_needed {
            let live = if config.etm_enabled {
                u64::from(live_suffix[t + 1])
            } else {
                // Without skip bits every non-empty batch is streamed.
                u64::from(live_suffix[0])
            };
            let stream = timing.t_rcd + live * timing.t_ccd + timing.t_rp;
            query_time += stream.max(row_cycle);
            query_reads += live;
        }
        if w.hit {
            query_time += payload_time(config);
            query_reads += 2;
            p.row_activations += 2 * m;
            p.activation_fj += u128::from(2 * m) * u128::from(config.energy.e_act);
        }
        p.row_activations += rows_needed as u64 * m;
        p.read_bursts += query_reads * m;
        p.activation_fj += rows_needed as u128 * u128::from(m) * u128::from(config.energy.e_act);
        p.read_fj += u128::from(query_reads * m) * u128::from(config.energy.e_rd);
        // Matcher array + registers + SRAM buffer per batch comparison.
        p.component_fj += u128::from(query_reads * m) * u128::from(comp.t1_batch_fj);
        p.busy += query_time * m;
    }
    p
}

/// Schedules Type-1 work: per-bank serial matcher array, batch-granular
/// ETM. The plan's tasks fan out over worker threads; the reduce below
/// only sums integers per bank, so the report is bit-identical for any
/// `threads` and for any shard → task split.
///
/// `work` / `mult` are in match space (see [`type1_task`]);
/// `total_queries` / `total_hits` are the *expanded* batch totals.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_type1(
    config: &SieveConfig,
    layout: &DeviceLayout,
    work: &[QueryWork],
    mult: Option<&[u32]>,
    plan: &ShardPlan,
    pairs: &[Pair],
    threads: usize,
    total_queries: u64,
    total_hits: u64,
) -> SimReport {
    let banks = config.geometry.total_banks();
    let partials = par::map_indexed(threads, plan.task_count(), |t| {
        let (subarray, range) = plan.task(t);
        type1_task(config, layout, work, mult, subarray, &pairs[range])
    });

    let tr = trace::global();
    if tr.is_enabled() {
        // Per-task Type-1 streaming intervals, in plan-task order (the
        // partials come back from map_indexed indexed by task id).
        let ts = tr.model_ps();
        for p in &partials {
            tr.emit_model(
                "t1.stream",
                p.subarray as u32,
                ts,
                p.busy,
                p.row_activations,
                p.read_bursts,
            );
        }
    }

    let mut energy = EnergyLedger::new();
    let mut row_activations = 0u64;
    let mut read_bursts = 0u64;
    let mut bank_busy = vec![0u64; banks];
    for p in &partials {
        bank_busy[p.subarray % banks] += p.busy;
        row_activations += p.row_activations;
        read_bursts += p.read_bursts;
        energy.activation_fj += p.activation_fj;
        energy.read_fj += p.read_fj;
        energy.component_fj += p.component_fj;
    }

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
            queries: total_queries,
            hits: total_hits,
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
        for (key, _) in layout.entries().iter().step_by(29) {
            probes.extend([key.bits().wrapping_sub(1), key.bits(), key.bits() + 1]);
        }
        for sa in layout.subarrays() {
            for b in 0..batch_cols {
                let batch = &sa.entries()[sa.ranks_in_cols(b * 64, (b + 1) * 64)];
                if let (Some((first, _)), Some((last, _))) = (batch.first(), batch.last()) {
                    let (first, last) = (first.bits(), last.bits());
                    probes.extend([first.wrapping_sub(1), first, last, last + 1]);
                }
            }
        }
        probes.retain(|&p| p <= ones);
        probes
    }

    /// Holds [`BatchBounds::batch_lcps`] to [`engine::max_lcp_in_range`]
    /// on every non-empty batch of every occupied subarray, without and
    /// with the ESP cap. Returns how many subarrays have empty batches
    /// (trailing ones: Type-1 fills a row's columns in rank order).
    fn assert_batch_lcps_twin_range_search(layout: &DeviceLayout, config: &SieveConfig) -> usize {
        let bit_len = 2 * layout.k();
        let batch_cols = config.geometry.cols_per_row / 64;
        let probes = batch_probes(layout, batch_cols);
        let mut trailing_empty = 0;
        for (s, sa) in layout.subarrays().enumerate() {
            let batches: Vec<_> = (0..batch_cols)
                .map(|b| sa.ranks_in_cols(b * 64, (b + 1) * 64))
                .filter(|range| !range.is_empty())
                .collect();
            trailing_empty += usize::from(batches.len() < batch_cols as usize);
            for esp in [None, Some(10u32)] {
                let config = SieveConfig {
                    esp_override: esp,
                    ..config.clone()
                };
                let bounds = BatchBounds::new(&sa, &config);
                for &probe in &probes {
                    let q = Kmer::from_u64(probe, layout.k()).unwrap();
                    let want: Vec<usize> = batches
                        .iter()
                        .map(|range| {
                            let lcp = engine::max_lcp_in_range(&sa, range.clone(), q).unwrap();
                            match esp {
                                Some(esp) if lcp < bit_len => lcp.min(esp as usize),
                                _ => lcp,
                            }
                        })
                        .collect();
                    let mut got = Vec::new();
                    bounds.batch_lcps(probe, |lcp| got.push(lcp));
                    assert_eq!(got, want, "subarray {s} probe {q} esp {esp:?}");
                }
            }
        }
        trailing_empty
    }

    #[test]
    fn batch_lcps_twin_range_search_on_full_rows() {
        // 128 batches per row; the second subarray is partly filled.
        let config = SieveConfig::type1().with_geometry(Geometry::scaled_medium());
        let layout = DeviceLayout::build(dataset().entries, &config).unwrap();
        assert!(layout.occupied_subarrays() >= 2);
        let trailing_empty = assert_batch_lcps_twin_range_search(&layout, &config);
        assert!(trailing_empty > 0, "no subarray ends in empty batches");
    }

    #[test]
    fn batch_lcps_twin_range_search_on_short_rows() {
        // 16 batches per row: `scaled_small` at k = 15 (30-bit keys), and
        // at k = 31 with the rows its Region 2/3 need.
        let tall = Geometry {
            rows_per_subarray: 512,
            ..Geometry::scaled_small()
        };
        for (k, geometry) in [(15, Geometry::scaled_small()), (31, tall)] {
            let config = SieveConfig::type1().with_k(k).with_geometry(geometry);
            let ds = synth::make_dataset_with(4, 1200, k, 91);
            let layout = DeviceLayout::build(ds.entries, &config).unwrap();
            assert!(layout.occupied_subarrays() >= 3, "k={k}");
            let trailing_empty = assert_batch_lcps_twin_range_search(&layout, &config);
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
