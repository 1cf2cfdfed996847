//! Shared runner: builds Sieve devices and baselines over a workload and
//! extrapolates device throughput to paper scale.
//!
//! ## Paper-scale extrapolation
//!
//! Sieve's throughput is "memory-capacity-proportional" (§I, §VI-B): each
//! occupied bank contributes `salp` (or `compute_buffers`, or 1) parallel
//! matching units, and the sorted-partition index spreads queries across
//! them. Our bench device is the paper's design scaled down to
//! [`bench_geometry`] (2 banks) so the synthetic database fills it; the
//! paper's 32 GB device has 128 banks. Reported *speedups* therefore scale
//! simulated Sieve throughput by `paper_banks / bench_banks = 64`, which is
//! exactly the linear-scaling claim the paper makes (and demonstrates in
//! Figure 16). Energy comparisons are per query and need no extrapolation.

use sieve_baselines::cpu::{self, CpuConfig, CpuRunDetail};
use sieve_baselines::gpu::{self, GpuConfig};
use sieve_baselines::BaselineReport;
use sieve_core::{SieveConfig, SieveDevice, SimReport};
use sieve_dram::Geometry;
use sieve_genomics::db::HybridDb;

use crate::workloads::BuiltWorkload;

/// The bench device geometry: 1 rank × 2 banks × 128 subarrays × 512 rows
/// × 8,192 columns (128 MiB; ≈ 1.8 M reference k-mers).
///
/// # Panics
///
/// Never panics (dimensions are valid powers of two).
#[must_use]
pub fn bench_geometry() -> Geometry {
    Geometry::new(1, 2, 128, 512, 8192).expect("valid bench geometry")
}

/// `paper_banks / bench_banks`: the linear capacity-scaling factor between
/// the bench device and the paper's 32 GB device.
#[must_use]
pub fn paper_scale_factor() -> f64 {
    Geometry::paper_32gb().total_banks() as f64 / bench_geometry().total_banks() as f64
}

/// A Sieve run plus its paper-scale throughput.
#[derive(Debug, Clone)]
pub struct SieveRun {
    /// The raw simulation report (bench geometry).
    pub report: SimReport,
    /// Throughput extrapolated to the paper's 32 GB device, q/s.
    pub paper_qps: f64,
}

impl SieveRun {
    /// Speedup over a baseline at paper scale.
    #[must_use]
    pub fn speedup_over(&self, baseline: &BaselineReport) -> f64 {
        let base = baseline.throughput_qps();
        if base == 0.0 {
            return 0.0;
        }
        self.paper_qps / base
    }

    /// Energy saving over a baseline (per query; scale-free).
    #[must_use]
    pub fn energy_saving_over(&self, baseline: &BaselineReport) -> f64 {
        let own = self.report.energy_per_query_nj();
        if own == 0.0 {
            return 0.0;
        }
        baseline.energy_per_query_nj() / own
    }
}

/// Builds and runs a Sieve device of the given configuration (geometry is
/// replaced by [`bench_geometry`]) over a built workload.
///
/// # Panics
///
/// Panics if the workload does not fit the bench device or the
/// configuration is invalid — bench binaries treat that as a bug.
#[must_use]
pub fn run_sieve(config: SieveConfig, built: &BuiltWorkload) -> SieveRun {
    run_loaded(&load_sieve(config.clone(), built), config, built)
}

/// Loads a built workload's references onto a bench device laid out for
/// `config`, for [`run_loaded`]; panics where [`run_sieve`] does.
#[must_use]
pub fn load_sieve(config: SieveConfig, built: &BuiltWorkload) -> SieveDevice {
    let config = config.with_geometry(bench_geometry());
    SieveDevice::new(config, built.dataset.entries.clone())
        .expect("bench workload must fit the bench device")
}

/// Runs `config` over a built workload on a device [`load_sieve`] loaded
/// with its references ([`SieveDevice::run_as`]); panics if `config` is
/// invalid or lays them out otherwise.
#[must_use]
pub fn run_loaded(device: &SieveDevice, config: SieveConfig, built: &BuiltWorkload) -> SieveRun {
    let config = config.with_geometry(bench_geometry());
    let out = device
        .run_as(&config, &built.queries)
        .expect("the config shares the loaded device's layout");
    let paper_qps = out.report.throughput_qps() * paper_scale_factor();
    SieveRun {
        report: out.report,
        paper_qps,
    }
}

/// Runs the CPU baseline for a workload: the Kraken2 kernel walks the
/// hybrid signature-bucket structure; the CLARK kernel walks an
/// open-addressing hash table. Working set per the workload's reference.
#[must_use]
pub fn run_cpu(built: &BuiltWorkload) -> CpuRunDetail {
    let config = CpuConfig::xeon_e5_2658v4().with_working_set(built.workload.working_set_bytes());
    match built.workload.kernel {
        crate::workloads::Kernel::Kraken2 => {
            let db = HybridDb::from_entries(&built.dataset.entries, built.dataset.k);
            cpu::run_kmer_matching(&db, &built.queries, config)
        }
        crate::workloads::Kernel::Clark => {
            let db =
                sieve_genomics::db::HashDb::from_entries(&built.dataset.entries, built.dataset.k);
            cpu::run_clark_matching(&db, &built.queries, config)
        }
    }
}

/// Runs the GPU baseline for a workload.
#[must_use]
pub fn run_gpu(built: &BuiltWorkload) -> BaselineReport {
    let db = HybridDb::from_entries(&built.dataset.entries, built.dataset.k);
    gpu::run_kmer_matching(&db, &built.queries, GpuConfig::titan_x_pascal())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build, BenchScale, Workload};

    fn small_built() -> BuiltWorkload {
        build(
            Workload::FIG13[0],
            BenchScale {
                reads: 100,
                ..BenchScale::default()
            },
        )
    }

    #[test]
    fn scale_factor_is_64() {
        assert!((paper_scale_factor() - 64.0).abs() < 1e-12);
    }

    #[test]
    fn workload_fills_multiple_subarrays_per_bank() {
        let built = small_built();
        let occupied = built.dataset.entries.len().div_ceil(7168);
        let per_bank = occupied / bench_geometry().total_banks();
        assert!(
            per_bank >= 8,
            "need ≥ salp occupied subarrays per bank for valid extrapolation, got {per_bank}"
        );
    }

    #[test]
    fn figure14_ordering_t1_t2_t3() {
        let built = small_built();
        let cpu = run_cpu(&built);
        let t1 = run_sieve(SieveConfig::type1(), &built);
        let t2 = run_sieve(SieveConfig::type2(16), &built);
        let t3 = run_sieve(SieveConfig::type3(8), &built);
        let s1 = t1.speedup_over(&cpu.report);
        let s2 = t2.speedup_over(&cpu.report);
        let s3 = t3.speedup_over(&cpu.report);
        assert!(
            s1 < s2 && s2 < s3,
            "ordering violated: {s1:.1} {s2:.1} {s3:.1}"
        );
        assert!(s3 > 10.0, "T3.8SA must beat the CPU decisively: {s3:.1}");
    }

    #[test]
    fn gpu_sits_between_cpu_and_t3() {
        let built = small_built();
        let cpu = run_cpu(&built);
        let gpu = run_gpu(&built);
        let t3 = run_sieve(SieveConfig::type3(8), &built);
        assert!(gpu.speedup_over(&cpu.report) > 1.0);
        assert!(t3.speedup_over(&gpu) > 1.0, "T3 must beat the GPU");
    }

    #[test]
    fn energy_savings_positive_for_t3_over_cpu() {
        let built = small_built();
        let cpu = run_cpu(&built);
        let t3 = run_sieve(SieveConfig::type3(8), &built);
        assert!(
            t3.energy_saving_over(&cpu.report) > 1.0,
            "Sieve must be more energy-efficient than the CPU"
        );
    }
}
