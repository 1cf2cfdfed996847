//! Device geometry: ranks, banks, subarrays, rows, columns.

use crate::error::GeometryError;

/// Identifies one bank in a device (flat across ranks).
///
/// Construct via [`Geometry::bank_ids`] or [`Geometry::bank`]; the inner
/// index is exposed read-only through [`BankId::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BankId(pub(crate) u32);

impl BankId {
    /// Flat bank index within the device, `0..Geometry::total_banks()`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies one subarray in a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubarrayId {
    /// The bank this subarray belongs to.
    pub bank: BankId,
    /// Subarray index within the bank, `0..Geometry::subarrays_per_bank`.
    pub subarray: u32,
}

impl SubarrayId {
    /// Flat subarray index within the device,
    /// `0..Geometry::total_subarrays()`.
    #[must_use]
    pub fn flat_index(self, geometry: &Geometry) -> usize {
        self.bank.index() * geometry.subarrays_per_bank as usize + self.subarray as usize
    }
}

/// Physical organization of a Sieve DRAM device.
///
/// The paper's 32 GB reference device is organized as 16 ranks × 8 banks,
/// each bank holding 512 subarrays of 512 rows × 8,192 columns
/// (16 × 8 × 512 × 512 × 8,192 bits = 32 GiB); [`Geometry::paper_32gb`]
/// is that preset. The paper scales capacity by adding ranks, keeping the
/// bank and subarray geometry fixed — this is what makes Sieve's
/// "memory-capacity-proportional performance" linear.
///
/// # Example
///
/// ```
/// use sieve_dram::Geometry;
///
/// let g = Geometry::paper_32gb();
/// assert_eq!(g.capacity_bytes(), 32 * (1 << 30));
/// assert_eq!(g.total_banks(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Number of ranks in the device.
    pub ranks: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// Subarrays per bank.
    pub subarrays_per_bank: u32,
    /// Rows per subarray.
    pub rows_per_subarray: u32,
    /// Columns (bits) per row — the row-buffer width seen by the matchers.
    pub cols_per_row: u32,
}

impl Geometry {
    /// Builds a geometry, validating that every dimension is a nonzero
    /// power of two (as in real DRAM addressing).
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if any dimension is zero or not a power of
    /// two.
    pub fn new(
        ranks: u32,
        banks_per_rank: u32,
        subarrays_per_bank: u32,
        rows_per_subarray: u32,
        cols_per_row: u32,
    ) -> Result<Self, GeometryError> {
        for (name, v) in [
            ("ranks", ranks),
            ("banks_per_rank", banks_per_rank),
            ("subarrays_per_bank", subarrays_per_bank),
            ("rows_per_subarray", rows_per_subarray),
            ("cols_per_row", cols_per_row),
        ] {
            if v == 0 || !v.is_power_of_two() {
                return Err(GeometryError::NotPowerOfTwo {
                    dimension: name,
                    value: v,
                });
            }
        }
        Ok(Self {
            ranks,
            banks_per_rank,
            subarrays_per_bank,
            rows_per_subarray,
            cols_per_row,
        })
    }

    /// The paper's 32 GB reference device:
    /// 16 ranks × 8 banks × 512 subarrays × 512 rows × 8,192 columns.
    #[must_use]
    pub fn paper_32gb() -> Self {
        Self {
            ranks: 16,
            banks_per_rank: 8,
            subarrays_per_bank: 512,
            rows_per_subarray: 512,
            cols_per_row: 8192,
        }
    }

    /// A tiny geometry for unit tests and examples:
    /// 1 rank × 2 banks × 8 subarrays × 128 rows × 1,024 columns (256 KiB).
    #[must_use]
    pub fn scaled_small() -> Self {
        Self {
            ranks: 1,
            banks_per_rank: 2,
            subarrays_per_bank: 8,
            rows_per_subarray: 128,
            cols_per_row: 1024,
        }
    }

    /// A mid-size geometry for fast end-to-end simulations:
    /// 2 ranks × 8 banks × 64 subarrays × 512 rows × 8,192 columns (512 MiB),
    /// keeping the paper's row width and row count per subarray so per-query
    /// timing matches the paper while the device fits in a test's budget.
    #[must_use]
    pub fn scaled_medium() -> Self {
        Self {
            ranks: 2,
            banks_per_rank: 8,
            subarrays_per_bank: 64,
            rows_per_subarray: 512,
            cols_per_row: 8192,
        }
    }

    /// Total banks in the device.
    #[must_use]
    pub fn total_banks(&self) -> usize {
        (self.ranks * self.banks_per_rank) as usize
    }

    /// Total subarrays in the device.
    #[must_use]
    pub fn total_subarrays(&self) -> usize {
        self.total_banks() * self.subarrays_per_bank as usize
    }

    /// Bits stored in one subarray.
    #[must_use]
    pub fn subarray_bits(&self) -> u64 {
        u64::from(self.rows_per_subarray) * u64::from(self.cols_per_row)
    }

    /// Total device capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.subarray_bits() / 8 * self.total_subarrays() as u64
    }

    /// The bank with flat index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.total_banks()`.
    #[must_use]
    pub fn bank(&self, index: usize) -> BankId {
        assert!(
            index < self.total_banks(),
            "bank index {index} out of range ({} banks)",
            self.total_banks()
        );
        BankId(index as u32)
    }

    /// Iterator over all bank ids.
    pub fn bank_ids(&self) -> impl Iterator<Item = BankId> {
        (0..self.total_banks() as u32).map(BankId)
    }

    /// The subarray with flat index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.total_subarrays()`.
    #[must_use]
    pub fn subarray(&self, index: usize) -> SubarrayId {
        assert!(
            index < self.total_subarrays(),
            "subarray index {index} out of range ({} subarrays)",
            self.total_subarrays()
        );
        SubarrayId {
            bank: BankId((index / self.subarrays_per_bank as usize) as u32),
            subarray: (index % self.subarrays_per_bank as usize) as u32,
        }
    }

    /// Iterator over all subarray ids, bank-major.
    pub fn subarray_ids(&self) -> impl Iterator<Item = SubarrayId> + '_ {
        (0..self.total_subarrays()).map(|i| self.subarray(i))
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self::paper_32gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_is_32_gib() {
        let g = Geometry::paper_32gb();
        assert_eq!(g.capacity_bytes(), 32 << 30);
        assert_eq!(g.total_banks(), 128);
        assert_eq!(g.total_subarrays(), 128 * 512);
    }

    #[test]
    fn non_power_of_two_dimension_rejected() {
        let err = Geometry::new(3, 8, 512, 512, 8192).unwrap_err();
        assert!(err.to_string().contains("ranks"));
        assert!(Geometry::new(1, 0, 512, 512, 8192).is_err());
    }

    #[test]
    fn subarray_flat_index_round_trips() {
        let g = Geometry::scaled_small();
        for i in 0..g.total_subarrays() {
            let sid = g.subarray(i);
            assert_eq!(sid.flat_index(&g), i);
        }
    }

    #[test]
    fn bank_ids_enumerate_all_banks() {
        let g = Geometry::scaled_small();
        let ids: Vec<_> = g.bank_ids().collect();
        assert_eq!(ids.len(), g.total_banks());
        assert_eq!(ids[0].index(), 0);
        assert_eq!(ids.last().unwrap().index(), g.total_banks() - 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bank_index_out_of_range_panics() {
        let g = Geometry::scaled_small();
        let _ = g.bank(g.total_banks());
    }
}
