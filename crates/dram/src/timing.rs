//! DDR4 core timing parameters.
//!
//! All durations are integer picoseconds so that long simulations accumulate
//! no floating-point drift and results are bit-reproducible.

/// A duration or point in time, in picoseconds.
pub type TimePs = u64;

/// Picoseconds per nanosecond, for converting datasheet values.
pub const PS_PER_NS: TimePs = 1_000;

/// DDR4 core timing parameters relevant to Sieve.
///
/// The defaults mirror the values the paper quotes for a "typical DRAM
/// chip": a single-row activate-to-precharge window (`tRAS`) of ~35 ns and a
/// precharge (`tRP`) of ~15 ns, giving the ~50 ns row cycle used throughout
/// the paper (Figure 5), and an Ambit-style bulk AND of
/// `8·tRAS + 4·tRP ≈ 340 ns` (Figure 4).
///
/// # Example
///
/// ```
/// use sieve_dram::TimingParams;
///
/// let t = TimingParams::ddr4_paper();
/// assert_eq!(t.row_cycle(), 50_000); // ps
/// assert_eq!(t.ambit_and_latency(), 340_000); // ps
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingParams {
    /// DRAM clock period, ps (DDR4-1600 core clock: 1.25 ns).
    pub t_ck: TimePs,
    /// ACT to internal read/write delay (row to column), ps.
    pub t_rcd: TimePs,
    /// ACT to PRE minimum (row active time), ps.
    pub t_ras: TimePs,
    /// PRE to ACT (row precharge time), ps.
    pub t_rp: TimePs,
    /// Column-to-column delay between bursts to the same bank group, ps.
    pub t_ccd: TimePs,
    /// Four-activation window, ps: at most four row activations may start
    /// within this window on one power-delivery domain. Standard DDR4
    /// enforces it per rank; Sieve's re-engineered power delivery enforces
    /// it per bank (the constraint the paper cites for why concurrent-
    /// subarray scaling saturates, §VI-C / Figure 16).
    pub t_faw: TimePs,
    /// Average refresh interval, ps (tREFI; 7.8 µs for DDR4 at ≤85 °C).
    pub t_refi: TimePs,
    /// Refresh cycle time, ps (tRFC; ~350 ns for 8 Gb DDR4 devices).
    pub t_rfc: TimePs,
}

impl TimingParams {
    /// Timing preset matching the numbers quoted in the Sieve paper
    /// (row cycle ≈ 50 ns, Ambit AND ≈ 340 ns, burst `tCCD` in the 5–7 ns
    /// band quoted for Type-1 batch reads).
    #[must_use]
    pub fn ddr4_paper() -> Self {
        Self {
            t_ck: 1_250,
            t_rcd: 14_000,
            t_ras: 35_000,
            t_rp: 15_000,
            t_ccd: 6_000,
            t_faw: 21_000,
            t_refi: 7_800_000,
            t_rfc: 350_000,
        }
    }

    /// A 3D-stacked HBM2-class preset — the paper's stated future work
    /// ("we plan to evaluate Sieve in 3D-stacked context"). Shorter wires
    /// give a tighter row cycle and a wider activation window per
    /// power-delivery domain (TSV power delivery).
    #[must_use]
    pub fn hbm2() -> Self {
        Self {
            t_ck: 1_000,
            t_rcd: 14_000,
            t_ras: 28_000,
            t_rp: 14_000,
            t_ccd: 2_000,
            t_faw: 16_000,
            t_refi: 3_900_000,
            t_rfc: 260_000,
        }
    }

    /// A ReRAM-class NVM preset — the paper's other stated future work
    /// ("we plan to evaluate NVM-based Sieve"). Reads are slower than DRAM
    /// row activation, but the array needs **no refresh** and keeps the
    /// database across power cycles (load cost paid once, ever).
    #[must_use]
    pub fn nvm_reram() -> Self {
        Self {
            t_ck: 1_250,
            t_rcd: 30_000,
            t_ras: 80_000,
            t_rp: 20_000,
            t_ccd: 6_000,
            t_faw: 21_000,
            t_refi: 7_800_000,
            t_rfc: 0, // no refresh
        }
    }

    /// The single-row-activation cycle: `tRAS + tRP`.
    ///
    /// This is the cost of feeding one bit of every column-resident
    /// reference k-mer to the Sieve matchers (Figure 5, ~50 ns).
    #[must_use]
    pub fn row_cycle(&self) -> TimePs {
        self.t_ras + self.t_rp
    }

    /// Latency of one Ambit-style row-wide bulk AND:
    /// `8·tRAS + 4·tRP` (Figure 4, ~340 ns).
    ///
    /// Row-major in-situ baselines pay this per 128-reference comparison
    /// step; Sieve replaces it with [`Self::row_cycle`].
    #[must_use]
    pub fn ambit_and_latency(&self) -> TimePs {
        8 * self.t_ras + 4 * self.t_rp
    }

    /// Latency of a ComputeDRAM-style constraint-violating multi-row
    /// operation. ComputeDRAM leaves rows open by issuing
    /// ACT-PRE-ACT in rapid succession; we model it as a single row cycle
    /// plus one extra precharge, substantially faster than Ambit but still a
    /// multi-row op with operand-copy overheads.
    #[must_use]
    pub fn computedram_op_latency(&self) -> TimePs {
        self.row_cycle() + self.t_rp
    }

    /// Minimum time for `activations` row activations to start within one
    /// power-delivery domain: the four-activation window allows four starts
    /// per `tFAW`.
    #[must_use]
    pub fn faw_floor(&self, activations: u64) -> TimePs {
        activations * self.t_faw / 4
    }

    /// The fraction of time a bank is stolen by refresh:
    /// `tRFC / tREFI` (~4.5 % for these presets). Schedulers stretch busy
    /// time by `1 / (1 - overhead)`.
    #[must_use]
    pub fn refresh_overhead(&self) -> f64 {
        self.t_rfc as f64 / self.t_refi as f64
    }

    /// Stretches a busy duration to account for refresh interference:
    /// `busy / (1 - tRFC/tREFI)`, in integer arithmetic. The product
    /// `busy · tREFI` is taken in `u128`, since in `u64` it wraps once a
    /// bank is busy for more than ~2.4 s at the DDR4 `tREFI`; a result
    /// past `u64::MAX` saturates.
    ///
    /// # Panics
    ///
    /// Panics if `t_rfc >= t_refi`, where refresh leaves no time to work;
    /// `SieveConfig::validate` rejects such timing.
    #[must_use]
    pub fn with_refresh(&self, busy: TimePs) -> TimePs {
        assert!(
            self.t_rfc < self.t_refi,
            "t_rfc must be shorter than t_refi"
        );
        let stretched =
            u128::from(busy) * u128::from(self.t_refi) / u128::from(self.t_refi - self.t_rfc);
        TimePs::try_from(stretched).unwrap_or(TimePs::MAX)
    }

    /// Number of whole DRAM clocks in `dur`, rounding up.
    #[must_use]
    pub fn clocks(&self, dur: TimePs) -> u64 {
        dur.div_ceil(self.t_ck)
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr4_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_row_cycle_is_50ns() {
        assert_eq!(TimingParams::ddr4_paper().row_cycle(), 50 * PS_PER_NS);
    }

    #[test]
    fn paper_ambit_and_is_340ns() {
        assert_eq!(
            TimingParams::ddr4_paper().ambit_and_latency(),
            340 * PS_PER_NS
        );
    }

    #[test]
    fn computedram_faster_than_ambit_slower_than_single_row() {
        let t = TimingParams::ddr4_paper();
        assert!(t.computedram_op_latency() < t.ambit_and_latency());
        assert!(t.computedram_op_latency() > t.row_cycle());
    }

    #[test]
    fn clocks_round_up() {
        let t = TimingParams::ddr4_paper();
        assert_eq!(t.clocks(0), 0);
        assert_eq!(t.clocks(1), 1);
        assert_eq!(t.clocks(1_250), 1);
        assert_eq!(t.clocks(1_251), 2);
        // A 50 ns row cycle is 40 DRAM clocks at 1.25 ns.
        assert_eq!(t.clocks(t.row_cycle()), 40);
    }

    #[test]
    fn faw_floor_allows_four_per_window() {
        let t = TimingParams::ddr4_paper();
        assert_eq!(t.faw_floor(4), t.t_faw);
        assert_eq!(t.faw_floor(8), 2 * t.t_faw);
        assert_eq!(t.faw_floor(0), 0);
        // One activation every row cycle (50 ns) is well under the cap
        // (4 per 21 ns would be needed to violate it from one subarray).
        assert!(t.faw_floor(1) < t.row_cycle());
    }

    #[test]
    fn refresh_overhead_is_a_few_percent() {
        let t = TimingParams::ddr4_paper();
        let o = t.refresh_overhead();
        assert!(o > 0.02 && o < 0.08, "got {o}");
        let busy = 1_000_000;
        let stretched = t.with_refresh(busy);
        assert!(stretched > busy);
        assert!((stretched as f64 / busy as f64 - 1.0 / (1.0 - o)).abs() < 1e-3);
    }

    /// An hour of busy time, ~1,500× past where `busy · tREFI` wraps
    /// `u64`, stretches by `7.8 / 7.45`, floored to the picosecond.
    #[test]
    fn refresh_stretch_holds_at_an_hour_of_busy_time() {
        let hour = 3_600 * 1_000_000_000_000;
        assert_eq!(
            TimingParams::ddr4_paper().with_refresh(hour),
            3_769_127_516_778_523
        );
        assert_eq!(TimingParams::nvm_reram().with_refresh(hour), hour);
    }

    #[test]
    fn default_is_paper_preset() {
        assert_eq!(TimingParams::default(), TimingParams::ddr4_paper());
    }

    #[test]
    fn hbm_is_faster_nvm_is_slower() {
        let ddr4 = TimingParams::ddr4_paper();
        assert!(TimingParams::hbm2().row_cycle() < ddr4.row_cycle());
        assert!(TimingParams::nvm_reram().row_cycle() > ddr4.row_cycle());
    }

    #[test]
    fn nvm_has_no_refresh_overhead() {
        let nvm = TimingParams::nvm_reram();
        assert_eq!(nvm.refresh_overhead(), 0.0);
        assert_eq!(nvm.with_refresh(1_000_000), 1_000_000);
    }
}
