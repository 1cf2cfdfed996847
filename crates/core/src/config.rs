//! Sieve device configuration.

use sieve_dram::{EnergyParams, Geometry, TimePs, TimingParams};

use crate::error::SieveError;
use crate::pcie::PcieConfig;

/// The most simulator worker threads [`SieveConfig::validate`] accepts.
const MAX_THREADS: usize = 1024;

/// Query k-mer slots per pattern group (Type-2/3): the chip prefetch
/// size in bits, 64 in the paper's example, and so the queries one batch
/// replacement loads into a subarray.
pub(crate) const QUERIES_PER_GROUP: u32 = 64;

/// Bytes per payload (taxon record) in Region 3. The paper quotes
/// ~12-byte k-mer records; the model stores 8-byte taxon labels.
const PAYLOAD_BYTES: u32 = 8;

/// Per-activation energy overhead of the in-buffer matchers for
/// Type-2/3, percent (the paper measures 6 %, §VI-A).
pub(crate) const MATCHER_OVERHEAD_PCT: u64 = 6;

/// Which of the three Sieve designs to model (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Type-1: matcher array at the bank I/O; rows burst-read in 64-bit
    /// batches; ETM via skip-bit/start-batch registers. Least intrusive,
    /// lowest parallelism.
    Type1,
    /// Type-2: matchers + ETM + CF in per-subarray-group *compute buffers*;
    /// rows relayed to the buffer over LISA-style links.
    Type2 {
        /// Compute buffers per bank (1, 2, 4, … up to subarrays-per-bank).
        compute_buffers: u32,
    },
    /// Type-3: matchers in every local row buffer plus subarray-level
    /// parallelism.
    Type3 {
        /// Concurrently active subarrays per bank (SALP degree).
        salp: u32,
    },
}

impl DeviceKind {
    /// Short display label matching the paper's figures
    /// (`T1`, `T2.16CB`, `T3.8SA`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Self::Type1 => "T1".to_string(),
            Self::Type2 { compute_buffers } => format!("T2.{compute_buffers}CB"),
            Self::Type3 { salp } => format!("T3.{salp}SA"),
        }
    }
}

/// Full configuration of a Sieve device.
///
/// Defaults mirror the paper's reference design: a 32 GB module
/// ([`Geometry::paper_32gb`]), k = 31, 576-column pattern groups holding
/// 512 reference + 64 query k-mers, 256-latch ETM segments, ETM on, and the
/// 6 % per-activation energy overhead of the added matchers (§VI-A).
///
/// # Example
///
/// ```
/// use sieve_core::{SieveConfig, DeviceKind};
///
/// let config = SieveConfig::type3(8).with_k(31);
/// assert_eq!(config.device.label(), "T3.8SA");
/// assert_eq!(config.region1_rows(), 62);
/// config.validate()?;
/// # Ok::<(), sieve_core::SieveError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SieveConfig {
    /// Which design point.
    pub device: DeviceKind,
    /// Device geometry (capacity).
    pub geometry: Geometry,
    /// DRAM timing.
    pub timing: TimingParams,
    /// DRAM energy.
    pub energy: EnergyParams,
    /// K-mer length (the paper uses 31).
    pub k: usize,
    /// Columns per pattern group (Type-2/3), 64 of them query slots. The
    /// paper derives 576 from the wire distance a query bit travels in one
    /// row cycle.
    pub pattern_group_cols: u32,
    /// Latches per ETM segment (256 in the paper).
    pub etm_segment_len: u32,
    /// Whether the Early Termination Mechanism is active.
    pub etm_enabled: bool,
    /// Extra row cycles between the functional all-dead row and the ETM
    /// interrupt (the Figure-9 "extra cycle to flush the result").
    pub etm_flush_cycles: u32,
    /// Hop delay for Type-2 inter-subarray row relay, ps (~4 ns, ~8× faster
    /// than a full activation, per the SPICE validation in §IV-A).
    pub hop_delay_ps: TimePs,
    /// PCIe link model; `None` simulates ideal dispatch (requests appear at
    /// the device with zero transport cost).
    pub pcie: Option<PcieConfig>,
    /// Optional Expected-Shared-Prefix cap, in bits: when set, a missing
    /// lookup is assumed to terminate after at most this many shared bits,
    /// as the paper's Figure-6-driven model does (real-data ESP ≈ 10 bits).
    /// `None` (the default) uses the exact last-surviving-latch semantics,
    /// where the maximum shared prefix grows as log2 of the database size.
    /// See EXPERIMENTS.md (Figure 13) for the effect of this assumption.
    pub esp_override: Option<u32>,
    /// Simulator worker threads: `0` (the default) uses all available
    /// parallelism, `1` runs fully sequentially, `n` (at most 1,024) uses
    /// up to `n` workers. This is a *simulator* knob, not a modeled device
    /// parameter: each worker takes one contiguous range of a call's
    /// reads (or of a batch's queries), a call never runs more ranges
    /// than it has items, and the ranges' integer sums merge, so the
    /// output is bit-identical for every value (see DESIGN.md §6).
    pub threads: usize,
}

impl SieveConfig {
    /// A Type-1 device with paper-default parameters.
    #[must_use]
    pub fn type1() -> Self {
        Self::with_device(DeviceKind::Type1)
    }

    /// A Type-2 device with `compute_buffers` per bank.
    #[must_use]
    pub fn type2(compute_buffers: u32) -> Self {
        Self::with_device(DeviceKind::Type2 { compute_buffers })
    }

    /// A Type-3 device with SALP degree `salp`.
    #[must_use]
    pub fn type3(salp: u32) -> Self {
        Self::with_device(DeviceKind::Type3 { salp })
    }

    /// Paper-default parameters around the given device kind.
    #[must_use]
    pub fn with_device(device: DeviceKind) -> Self {
        Self {
            device,
            geometry: Geometry::paper_32gb(),
            timing: TimingParams::ddr4_paper(),
            energy: EnergyParams::ddr4_paper(),
            k: 31,
            pattern_group_cols: 576,
            etm_segment_len: 256,
            etm_enabled: true,
            etm_flush_cycles: 1,
            hop_delay_ps: 4_000,
            pcie: None,
            esp_override: None,
            threads: 0,
        }
    }

    /// Replaces the geometry (builder style).
    #[must_use]
    pub fn with_geometry(mut self, geometry: Geometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Replaces k (builder style).
    #[must_use]
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Toggles ETM (builder style).
    #[must_use]
    pub fn with_etm(mut self, enabled: bool) -> Self {
        self.etm_enabled = enabled;
        self
    }

    /// Attaches a PCIe link model (builder style).
    #[must_use]
    pub fn with_pcie(mut self, pcie: PcieConfig) -> Self {
        self.pcie = Some(pcie);
        self
    }

    /// Caps the assumed shared prefix of misses (builder style) — the
    /// paper's real-data ESP assumption (see [`SieveConfig::esp_override`]).
    #[must_use]
    pub fn with_esp_override(mut self, bits: u32) -> Self {
        self.esp_override = Some(bits);
        self
    }

    /// Sets the simulator worker-thread count (builder style): `0` = all
    /// available parallelism, `1` = sequential. Output is bit-identical
    /// for every value (see [`SieveConfig::threads`]).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Reference k-mers per pattern group (group minus query slots).
    #[must_use]
    pub fn refs_per_group(&self) -> u32 {
        self.pattern_group_cols - QUERIES_PER_GROUP
    }

    /// Pattern groups per subarray row.
    #[must_use]
    pub fn groups_per_subarray(&self) -> u32 {
        self.geometry.cols_per_row / self.pattern_group_cols
    }

    /// Reference k-mers one subarray stores.
    ///
    /// Type-2/3 interleave 64 query slots per group; Type-1 keeps queries in
    /// an I/O-side register, so every column holds a reference.
    #[must_use]
    pub fn refs_per_subarray(&self) -> u32 {
        match self.device {
            DeviceKind::Type1 => self.geometry.cols_per_row,
            _ => self.groups_per_subarray() * self.refs_per_group(),
        }
    }

    /// Region-1 rows: one per k-mer bit (2k).
    #[must_use]
    pub fn region1_rows(&self) -> u32 {
        2 * self.k as u32
    }

    /// Region-2 rows: 4-byte payload offsets, row-major.
    #[must_use]
    pub fn region2_rows(&self) -> u32 {
        (self.refs_per_subarray() * 32).div_ceil(self.geometry.cols_per_row)
    }

    /// Region-3 rows: payloads, row-major.
    #[must_use]
    pub fn region3_rows(&self) -> u32 {
        (self.refs_per_subarray() * PAYLOAD_BYTES * 8).div_ceil(self.geometry.cols_per_row)
    }

    /// ETM segments per row buffer.
    #[must_use]
    pub fn etm_segments(&self) -> u32 {
        self.geometry.cols_per_row / self.etm_segment_len
    }

    /// Reference-k-mer capacity of the whole device.
    #[must_use]
    pub fn capacity_kmers(&self) -> usize {
        self.refs_per_subarray() as usize * self.geometry.total_subarrays()
    }

    /// Write bursts needed to replace one 64-query batch in a subarray
    /// (Type-2/3): `groups_per_subarray × 2k` (§IV-A).
    #[must_use]
    pub fn batch_replacement_writes(&self) -> u32 {
        match self.device {
            DeviceKind::Type1 => 0,
            _ => self.groups_per_subarray() * self.region1_rows(),
        }
    }

    /// Time to replace one 64-query batch in a subarray, ps: every
    /// Region-1 row is opened once (`t_rcd`), one 64-bit write per
    /// pattern group streams into the query columns (`t_ccd` each), and
    /// the row is closed (`t_rp`) — floored by the row cycle.
    ///
    /// This is the **single source** of the batch-setup formula: both the
    /// aggregate scheduler and the event-driven cross-check
    /// ([`crate::xcheck::event_driven_type3_makespan`]) call it, so they
    /// cannot drift.
    #[must_use]
    pub fn batch_setup_ps(&self) -> TimePs {
        u64::from(self.region1_rows())
            * (self.timing.t_rcd
                + u64::from(self.groups_per_subarray()) * self.timing.t_ccd
                + self.timing.t_rp)
                .max(self.timing.row_cycle())
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] if any derived quantity is
    /// degenerate (k out of range, groups that don't fit, regions exceeding
    /// the subarray, SALP/CB counts exceeding the bank, Type-1 rows that
    /// are not whole 64-column batches or wider than 65,536 columns, more
    /// than 1,024 threads).
    pub fn validate(&self) -> Result<(), SieveError> {
        if self.threads > MAX_THREADS {
            return Err(SieveError::InvalidConfig {
                field: "threads",
                reason: format!("at most {MAX_THREADS} threads, got {}", self.threads),
            });
        }
        if self.k == 0 || self.k > 32 {
            return Err(SieveError::InvalidConfig {
                field: "k",
                reason: format!("k must be in 1..=32, got {}", self.k),
            });
        }
        if self.pattern_group_cols <= QUERIES_PER_GROUP {
            return Err(SieveError::InvalidConfig {
                field: "pattern_group_cols",
                reason: "group must be larger than its query slots".to_string(),
            });
        }
        if self.pattern_group_cols > self.geometry.cols_per_row {
            return Err(SieveError::InvalidConfig {
                field: "pattern_group_cols",
                reason: "group wider than the row buffer".to_string(),
            });
        }
        if self.etm_segment_len == 0
            || !self
                .geometry
                .cols_per_row
                .is_multiple_of(self.etm_segment_len)
        {
            return Err(SieveError::InvalidConfig {
                field: "etm_segment_len",
                reason: "segments must evenly divide the row width".to_string(),
            });
        }
        if let Some(link) = &self.pcie {
            link.validate()?;
        }
        let rows_needed = self.region1_rows() + self.region2_rows() + self.region3_rows();
        if rows_needed > self.geometry.rows_per_subarray {
            return Err(SieveError::InvalidConfig {
                field: "geometry.rows_per_subarray",
                reason: format!(
                    "regions need {rows_needed} rows, subarray has {}",
                    self.geometry.rows_per_subarray
                ),
            });
        }
        match self.device {
            DeviceKind::Type2 { compute_buffers } => {
                if compute_buffers == 0
                    || compute_buffers > self.geometry.subarrays_per_bank
                    || !self
                        .geometry
                        .subarrays_per_bank
                        .is_multiple_of(compute_buffers)
                {
                    return Err(SieveError::InvalidConfig {
                        field: "compute_buffers",
                        reason: format!(
                            "must evenly divide {} subarrays/bank, got {compute_buffers}",
                            self.geometry.subarrays_per_bank
                        ),
                    });
                }
            }
            DeviceKind::Type3 { salp } => {
                if salp == 0 || salp > self.geometry.subarrays_per_bank {
                    return Err(SieveError::InvalidConfig {
                        field: "salp",
                        reason: format!(
                            "must be in 1..={}, got {salp}",
                            self.geometry.subarrays_per_bank
                        ),
                    });
                }
            }
            DeviceKind::Type1 => {
                let cols = self.geometry.cols_per_row;
                let max = crate::sched::TYPE1_MAX_ROW_COLS;
                if !cols.is_multiple_of(crate::sched::TYPE1_BATCH_COLS) || cols > max {
                    return Err(SieveError::InvalidConfig {
                        field: "geometry.cols_per_row",
                        reason: format!(
                            "Type-1 rows must be whole 64-column batches, at most {max} \
                             columns, got {cols}"
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_produce_paper_numbers() {
        let c = SieveConfig::type3(8);
        assert_eq!(
            (QUERIES_PER_GROUP, PAYLOAD_BYTES, MATCHER_OVERHEAD_PCT),
            (64, 8, 6)
        );
        assert_eq!(c.refs_per_group(), 512);
        assert_eq!(c.groups_per_subarray(), 14);
        assert_eq!(c.refs_per_subarray(), 7168);
        assert_eq!(c.region1_rows(), 62);
        // 7,168 references × 8-byte payloads over 8,192-bit rows.
        assert_eq!(c.region3_rows(), 56);
        assert_eq!(c.etm_segments(), 32);
        // 14 groups × 62 rows = 868 writes per 64-query batch.
        assert_eq!(c.batch_replacement_writes(), 868);
        c.validate().unwrap();
    }

    #[test]
    fn type1_uses_every_column() {
        let c = SieveConfig::type1();
        assert_eq!(c.refs_per_subarray(), 8192);
        assert_eq!(c.batch_replacement_writes(), 0);
        c.validate().unwrap();
    }

    #[test]
    fn capacity_scales_with_geometry() {
        let small = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
        let big = SieveConfig::type3(8);
        assert!(big.capacity_kmers() > small.capacity_kmers());
        // 32 GB paper device: 65,536 subarrays × 7,168 refs ≈ 470 M k-mers.
        assert_eq!(big.capacity_kmers(), 65_536 * 7_168);
    }

    #[test]
    fn labels_match_paper_figures() {
        assert_eq!(SieveConfig::type1().device.label(), "T1");
        assert_eq!(SieveConfig::type2(16).device.label(), "T2.16CB");
        assert_eq!(SieveConfig::type3(8).device.label(), "T3.8SA");
    }

    #[test]
    fn invalid_k_rejected() {
        assert!(SieveConfig::type1().with_k(0).validate().is_err());
        assert!(SieveConfig::type1().with_k(33).validate().is_err());
    }

    #[test]
    fn invalid_salp_rejected() {
        let c = SieveConfig::type3(0);
        assert!(c.validate().is_err());
        let c = SieveConfig::type3(100_000);
        assert!(c.validate().is_err());
    }

    #[test]
    fn invalid_cb_count_rejected() {
        // 512 subarrays per bank: 3 does not divide evenly.
        assert!(SieveConfig::type2(3).validate().is_err());
        assert!(SieveConfig::type2(0).validate().is_err());
        SieveConfig::type2(16).validate().unwrap();
    }

    #[test]
    fn type1_rows_are_bounded_whole_batches() {
        // The widest row whose depth tables fit `u16` at the tallest
        // Region 1 (k = 32), the next power of two, and a partial batch.
        let t1 = |cols_per_row, etm_segment_len| SieveConfig {
            etm_segment_len,
            ..SieveConfig::type1().with_k(32).with_geometry(Geometry {
                rows_per_subarray: 256,
                cols_per_row,
                ..Geometry::scaled_small()
            })
        };
        t1(65_536, 256).validate().unwrap();
        for (cols, segment) in [(131_072, 256), (1_056, 32)] {
            let err = t1(cols, segment).validate().unwrap_err();
            assert!(
                matches!(
                    err,
                    SieveError::InvalidConfig {
                        field: "geometry.cols_per_row",
                        ..
                    }
                ),
                "{cols}: {err}"
            );
        }
        // Type-2/3 rows have no batches to bound.
        let mut t3 = t1(131_072, 256);
        t3.device = DeviceKind::Type3 { salp: 8 };
        t3.validate().unwrap();
    }

    #[test]
    fn segment_len_must_divide_row() {
        let mut c = SieveConfig::type3(8);
        c.etm_segment_len = 100;
        assert!(c.validate().is_err());
    }

    /// A thread count past [`MAX_THREADS`] is a typed error, and a run
    /// builds one match pass per range that runs: a one-query run at the
    /// bound matches inline on the caller's thread.
    #[test]
    fn threads_are_bounded_and_a_one_query_run_runs_inline() {
        let ds = sieve_genomics::synth::make_dataset_with(2, 1024, 31, 3);
        let at = |threads| {
            SieveConfig::type3(8)
                .with_geometry(Geometry::scaled_medium())
                .with_threads(threads)
        };
        let rejects_threads = |result: Result<(), SieveError>| {
            matches!(
                result,
                Err(SieveError::InvalidConfig {
                    field: "threads",
                    ..
                })
            )
        };
        for threads in [MAX_THREADS + 1, usize::MAX] {
            assert!(rejects_threads(at(threads).validate()), "{threads}");
            let device = crate::SieveDevice::new(at(threads), ds.entries.clone());
            assert!(rejects_threads(device.map(|_| ())), "{threads}");
        }
        at(MAX_THREADS).validate().unwrap();
        let device = crate::SieveDevice::new(at(MAX_THREADS), ds.entries.clone()).unwrap();
        let (kmer, taxon) = ds.entries[0];
        let out = device.run(&[kmer]).unwrap();
        assert_eq!(out.results, vec![Some(taxon)]);
        assert_eq!(out.report.queries, 1);
    }

    #[test]
    fn builder_methods_chain() {
        let c = SieveConfig::type2(4)
            .with_geometry(Geometry::scaled_medium())
            .with_k(21)
            .with_etm(false)
            .with_threads(2);
        assert_eq!(c.k, 21);
        assert!(!c.etm_enabled);
        assert_eq!(c.threads, 2);
        c.validate().unwrap();
    }
}
