//! Row-major in-situ baselines: Ambit/DRISA-style triple-row activation
//! and ComputeDRAM (§III, Figure 4; §VI-B, Figure 13).
//!
//! Both store 128 horizontal reference k-mers per 8,192-bit row and compare
//! a row-wide replicated query against them with bulk bitwise operations.
//! Per the paper's comparison assumptions (§VI-B): they share Sieve's
//! capacity, subarray-level parallelism, and indexing scheme; their payload
//! path costs the same; and a *mismatching* lookup opens roughly the same
//! number of rows as column-major Sieve (~62) — i.e. the indexed scan
//! covers `⌈2k / rows-per-op⌉` row groups, where one Ambit AND sequence
//! opens 12 rows (8 activations + 4 precharges). What differs is:
//!
//! * the per-op latency — `8·tRAS + 4·tRP ≈ 340 ns` for Ambit vs. a fast
//!   constraint-violating sequence for ComputeDRAM vs. one `~50 ns` row
//!   cycle for Sieve;
//! * operand-copy traffic (reference row in, result row out);
//! * ~10× more setup writes per query (the query must be replicated across
//!   the row instead of amortized over a 64-query pattern group);
//! * and, crucially, **no early termination** — the column-major layout is
//!   what makes ETM possible.

use sieve_core::etm::RowTable;
use sieve_core::{lpt_makespan, DeviceLayout};
use sieve_dram::{EnergyParams, Geometry, TimePs, TimingParams};
use sieve_genomics::Kmer;

use crate::report::BaselineReport;

/// Which row-major design to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsituKind {
    /// Ambit/DRISA-style triple-row activation in reserved rows.
    RowMajor,
    /// ComputeDRAM: multi-row ops via constraint-violating command
    /// sequences in commodity DRAM — faster ops, cheaper copies.
    ComputeDram,
}

impl InsituKind {
    /// Display label used in Figure 13.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::RowMajor => "Row_Major",
            Self::ComputeDram => "ComputeDRAM",
        }
    }
}

/// Configuration of the row-major baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsituConfig {
    /// Which design.
    pub kind: InsituKind,
    /// Device geometry (matched to the Sieve device under comparison).
    pub geometry: Geometry,
    /// DRAM timing.
    pub timing: TimingParams,
    /// DRAM energy.
    pub energy: EnergyParams,
    /// Subarray-level parallelism (matched to Sieve's, 8 in Figure 13).
    pub salp: u32,
    /// Rows opened by one bulk op (Ambit: 8 ACT + 4 PRE = 12).
    pub rows_per_op: u32,
    /// Setup write bursts per query (≈ 10× Sieve's amortized 13.6).
    pub writes_per_query: u32,
}

impl InsituConfig {
    /// Paper-matched configuration for `kind`.
    #[must_use]
    pub fn paper(kind: InsituKind) -> Self {
        Self {
            kind,
            geometry: Geometry::paper_32gb(),
            timing: TimingParams::ddr4_paper(),
            energy: EnergyParams::ddr4_paper(),
            salp: 8,
            rows_per_op: 12,
            writes_per_query: 136,
        }
    }

    /// Replaces the geometry (builder style).
    #[must_use]
    pub fn with_geometry(mut self, geometry: Geometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Latency of one bulk comparison op, ps.
    #[must_use]
    pub fn op_latency_ps(&self) -> TimePs {
        match self.kind {
            InsituKind::RowMajor => self.timing.ambit_and_latency(),
            InsituKind::ComputeDram => self.timing.computedram_op_latency(),
        }
    }

    /// Latency of one operand row copy (reference in / result out), ps.
    #[must_use]
    pub fn copy_latency_ps(&self) -> TimePs {
        match self.kind {
            // RowClone-style in-bank copy: two back-to-back activations.
            InsituKind::RowMajor => 2 * self.timing.row_cycle(),
            // ComputeDRAM copies rows with one violating sequence.
            InsituKind::ComputeDram => self.timing.computedram_op_latency(),
        }
    }

    /// Energy of one bulk op, fJ (multi-row activation).
    #[must_use]
    pub fn op_energy_fj(&self) -> u64 {
        match self.kind {
            InsituKind::RowMajor => self.energy.multi_row_activation(3),
            InsituKind::ComputeDram => self.energy.multi_row_activation(2),
        }
    }
}

/// Runs a query batch on the row-major baseline, using the same layout and
/// routing as the Sieve device under comparison.
///
/// # Panics
///
/// Panics if the layout is empty or a query's k differs from the stored
/// k.
#[must_use]
pub fn run(config: &InsituConfig, layout: &DeviceLayout, queries: &[Kmer]) -> BaselineReport {
    assert!(!layout.is_empty(), "row-major baseline needs loaded data");
    assert!(
        queries.iter().all(|q| q.k() == layout.k()),
        "query k differs from the stored k"
    );
    let bit_len = 2 * layout.k() as u32;
    let groups_miss = bit_len.div_ceil(config.rows_per_op);
    // Expected groups scanned on a hit: half of the miss scan.
    let groups_hit = groups_miss.div_ceil(2);
    let per_group = config.op_latency_ps() + 2 * config.copy_latency_ps();
    let setup = u64::from(config.writes_per_query) * config.timing.t_ccd;
    // Payload retrieval parity with Sieve: two activations + two bursts.
    let payload = 2 * config.timing.row_cycle() + 2 * config.timing.t_ccd;

    let banks = config.geometry.total_banks();
    let mut bank_loads: Vec<Vec<TimePs>> = vec![Vec::new(); banks];
    let mut sub_busy = vec![0u64; layout.occupied_subarrays()];
    let mut energy_fj = 0u128;

    // Route every query as the device does: by its rank among all the
    // reference keys. Row-major has no ETM, so only the hit is read.
    let keys: Vec<u64> = queries.iter().map(Kmer::bits).collect();
    let mut ranks = vec![0; keys.len()];
    layout.ranks(&keys, &mut ranks);
    let rows = RowTable::new(bit_len as usize, false, 0);
    for (&key, &g) in keys.iter().zip(&ranks) {
        let routed = layout.resolve(key, g, &rows);
        let (sub, hit) = (routed.subarray, routed.outcome.hit.is_some());
        let groups = if hit { groups_hit } else { groups_miss };
        let mut t = setup + u64::from(groups) * per_group;
        energy_fj += u128::from(config.writes_per_query) * u128::from(config.energy.e_wr);
        energy_fj += u128::from(groups)
            * (u128::from(config.op_energy_fj()) + 4 * u128::from(config.energy.e_act));
        if hit {
            t += payload;
            energy_fj += 2 * u128::from(config.energy.e_act) + 2 * u128::from(config.energy.e_rd);
        }
        sub_busy[sub] += t;
    }

    for (i, busy) in sub_busy.into_iter().enumerate() {
        if busy > 0 {
            bank_loads[i % banks].push(busy);
        }
    }
    let makespan = bank_loads
        .into_iter()
        .map(|loads| lpt_makespan(loads, config.salp.max(1) as usize))
        .max()
        .unwrap_or(0);
    // Static energy over the makespan.
    energy_fj += config.energy.static_energy(banks, makespan);

    BaselineReport {
        label: config.kind.label().to_string(),
        queries: queries.len() as u64,
        time_ps: u128::from(makespan),
        energy_fj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_core::{SieveConfig, SieveDevice};
    use sieve_genomics::synth;

    fn dataset() -> synth::SyntheticDataset {
        synth::make_dataset_with(8, 2048, 31, 21)
    }

    fn setup() -> (SieveDevice, Vec<Kmer>) {
        let ds = dataset();
        let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
        let device = SieveDevice::new(config, ds.entries.clone()).unwrap();
        let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 60, 5);
        let queries = reads
            .iter()
            .flat_map(|r| r.kmers(31).map(|(_, k)| k))
            .collect();
        (device, queries)
    }

    fn cfg(kind: InsituKind) -> InsituConfig {
        InsituConfig::paper(kind).with_geometry(Geometry::scaled_medium())
    }

    #[test]
    fn computedram_beats_row_major() {
        let (device, queries) = setup();
        let rm = run(&cfg(InsituKind::RowMajor), device.layout(), &queries);
        let cd = run(&cfg(InsituKind::ComputeDram), device.layout(), &queries);
        assert!(cd.time_ps < rm.time_ps, "ComputeDRAM must be faster");
    }

    #[test]
    fn figure13_ordering_holds() {
        // Row_Major ⪅ Col_Major(no ETM) < ComputeDRAM < Sieve (with ETM).
        let (device, queries) = setup();
        let rm = run(&cfg(InsituKind::RowMajor), device.layout(), &queries);
        let cd = run(&cfg(InsituKind::ComputeDram), device.layout(), &queries);

        let ds_entries = dataset().entries;
        let no_etm = SieveDevice::new(
            SieveConfig::type3(8)
                .with_geometry(Geometry::scaled_medium())
                .with_etm(false),
            ds_entries.clone(),
        )
        .unwrap()
        .run(&queries)
        .unwrap()
        .report;
        let sieve = SieveDevice::new(
            SieveConfig::type3(8).with_geometry(Geometry::scaled_medium()),
            ds_entries,
        )
        .unwrap()
        .run(&queries)
        .unwrap()
        .report;

        assert!(
            rm.time_ps >= u128::from(no_etm.makespan_ps),
            "row-major ({}) should trail col-major no-ETM ({})",
            rm.time_ps,
            no_etm.makespan_ps
        );
        assert!(u128::from(no_etm.makespan_ps) > cd.time_ps);
        assert!(cd.time_ps > u128::from(sieve.makespan_ps));
    }

    #[test]
    fn rows_opened_parity_with_col_major() {
        // The paper's equal-rows assumption: groups × rows_per_op ≈ 2k.
        let c = cfg(InsituKind::RowMajor);
        let groups = 62u32.div_ceil(c.rows_per_op);
        assert_eq!(groups * c.rows_per_op, 72); // 6 ops × 12 rows ≈ 62
        assert!(groups * c.rows_per_op >= 62);
    }

    #[test]
    fn setup_writes_are_10x_sieve() {
        // Sieve amortizes 868 writes over 64 queries ≈ 13.6/query.
        let c = InsituConfig::paper(InsituKind::RowMajor);
        assert_eq!(c.writes_per_query, 136);
    }

    #[test]
    fn energy_grows_with_query_count() {
        let (device, queries) = setup();
        let full = run(&cfg(InsituKind::RowMajor), device.layout(), &queries);
        let half = run(
            &cfg(InsituKind::RowMajor),
            device.layout(),
            &queries[..queries.len() / 2],
        );
        assert!(full.energy_fj > half.energy_fj);
    }
}
