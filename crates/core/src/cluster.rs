//! Multi-device scaling: the "dedicated bioinformatics workstation"
//! scenario of §IV-D, where reference sets outgrow one module (the paper
//! sizes its index argument at 500 GB).
//!
//! A [`SieveCluster`] shards the globally sorted reference set across
//! several devices (each keeps the standard per-subarray index internally)
//! and routes queries by a device-level boundary table — the same
//! sorted-partition trick, one level up. Devices run independently, so the
//! cluster makespan is the slowest device's and energies add.

use sieve_genomics::{Kmer, TaxonId};

use crate::config::SieveConfig;
use crate::error::SieveError;
use crate::obs;
use crate::stats::SimReport;
use crate::trace;

/// Several Sieve devices sharding one reference set.
///
/// # Example
///
/// ```
/// use sieve_core::{SieveCluster, SieveConfig};
/// use sieve_dram::Geometry;
/// use sieve_genomics::synth;
///
/// let ds = synth::make_dataset_with(8, 4096, 31, 4);
/// let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
/// let cluster = SieveCluster::new(config, 2, ds.entries.clone())?;
/// let queries: Vec<_> = ds.entries.iter().take(200).map(|(k, _)| *k).collect();
/// let out = cluster.run(&queries)?;
/// assert_eq!(out.hits, 200);
/// # Ok::<(), sieve_core::SieveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SieveCluster {
    devices: Vec<crate::device::SieveDevice>,
    /// First k-mer of each device's shard (device 0 implicitly covers from
    /// zero).
    boundaries: Vec<u64>,
}

/// Aggregated outcome of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Per-query payloads in input order.
    pub results: Vec<Option<TaxonId>>,
    /// Per-device reports.
    pub device_reports: Vec<SimReport>,
    /// Total hits.
    pub hits: u64,
    /// Cluster makespan: devices run in parallel, ps.
    pub makespan_ps: u64,
    /// Total energy across devices, fJ.
    pub energy_fj: u128,
}

impl SieveCluster {
    /// Shards `entries` over `devices` equal slices of the sorted order and
    /// loads one device per shard.
    ///
    /// # Errors
    ///
    /// Propagates device construction errors; rejects `devices == 0`.
    pub fn new(
        config: SieveConfig,
        devices: usize,
        mut entries: Vec<(Kmer, TaxonId)>,
    ) -> Result<Self, SieveError> {
        if devices == 0 {
            return Err(SieveError::InvalidConfig {
                field: "devices",
                reason: "need at least one device".to_string(),
            });
        }
        entries.sort_by_key(|(k, _)| k.bits());
        entries.dedup_by_key(|(k, _)| k.bits());
        let per_device = entries.len().div_ceil(devices);
        let mut built = Vec::with_capacity(devices);
        let mut boundaries = Vec::with_capacity(devices);
        for shard in entries.chunks(per_device.max(1)) {
            boundaries.push(shard.first().map_or(u64::MAX, |(k, _)| k.bits()));
            built.push(crate::device::SieveDevice::new(
                config.clone(),
                shard.to_vec(),
            )?);
        }
        Ok(Self {
            devices: built,
            boundaries,
        })
    }

    /// Number of devices in the cluster.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the cluster has no devices (never true for a built cluster).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The device-level routing decision for a query.
    #[must_use]
    pub fn route(&self, query: Kmer) -> usize {
        let q = query.bits();
        self.boundaries
            .partition_point(|&first| first <= q)
            .saturating_sub(1)
    }

    /// Runs a query batch across the cluster.
    ///
    /// # Errors
    ///
    /// Propagates device errors (k mismatch).
    pub fn run(&self, queries: &[Kmer]) -> Result<ClusterRun, SieveError> {
        let rec = obs::global();
        rec.add(obs::CounterId::ClusterRuns, 1);
        let tr = trace::global();
        let _wall = tr.span("cluster.run");
        // Devices run concurrently *in the model* but sequentially here:
        // rewind the model clock to the cluster start before each device
        // and set it to start + slowest device afterwards.
        let t0 = tr.model_ps();
        // Split queries by device, remembering original positions.
        let mut per_device: Vec<Vec<Kmer>> = vec![Vec::new(); self.devices.len()];
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); self.devices.len()];
        for (i, q) in queries.iter().enumerate() {
            let d = self.route(*q);
            per_device[d].push(*q);
            positions[d].push(i);
        }
        let mut results = vec![None; queries.len()];
        let mut device_reports = Vec::with_capacity(self.devices.len());
        let mut hits = 0u64;
        let mut makespan = 0u64;
        let mut energy = 0u128;
        for (d, ((device, qs), pos)) in self
            .devices
            .iter()
            .zip(&per_device)
            .zip(&positions)
            .enumerate()
        {
            tr.set_model_ps(t0);
            tr.emit_model("cluster.route", d as u32, t0, 0, qs.len() as u64, 0);
            let out = device.run(qs)?;
            tr.emit_model(
                "cluster.device",
                d as u32,
                t0,
                out.report.makespan_ps,
                qs.len() as u64,
                out.report.hits,
            );
            // Per-device skew: how unevenly the boundary table spread the
            // batch, and how unbalanced the resulting makespans are.
            rec.add(obs::CounterId::ClusterDeviceRuns, 1);
            rec.record(obs::HistId::ClusterDeviceQueries, qs.len() as u64);
            rec.record(obs::HistId::ClusterDeviceMakespanPs, out.report.makespan_ps);
            for (p, r) in pos.iter().zip(&out.results) {
                results[*p] = *r;
            }
            hits += out.report.hits;
            makespan = makespan.max(out.report.makespan_ps);
            energy += out.report.energy.total_fj();
            device_reports.push(out.report);
        }
        tr.set_model_ps(t0.saturating_add(makespan));
        Ok(ClusterRun {
            results,
            device_reports,
            hits,
            makespan_ps: makespan,
            energy_fj: energy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_dram::Geometry;
    use sieve_genomics::db::{KmerDatabase, SortedDb};
    use sieve_genomics::synth;

    fn setup() -> (synth::SyntheticDataset, Vec<Kmer>) {
        let ds = synth::make_dataset_with(16, 4096, 31, 606);
        let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 60, 7);
        let queries = reads
            .iter()
            .flat_map(|r| r.kmers(31).map(|(_, k)| k))
            .collect();
        (ds, queries)
    }

    fn config() -> SieveConfig {
        SieveConfig::type3(8).with_geometry(Geometry::scaled_medium())
    }

    #[test]
    fn cluster_agrees_with_single_device() {
        let (ds, queries) = setup();
        let single = crate::device::SieveDevice::new(config(), ds.entries.clone())
            .unwrap()
            .run(&queries)
            .unwrap();
        for devices in [1usize, 2, 4] {
            let cluster = SieveCluster::new(config(), devices, ds.entries.clone()).unwrap();
            assert_eq!(cluster.len(), devices);
            let out = cluster.run(&queries).unwrap();
            assert_eq!(out.results, single.results, "{devices} devices");
            assert_eq!(out.hits, single.report.hits);
        }
    }

    #[test]
    fn sharding_reduces_makespan_when_devices_saturate() {
        // Sharding buys throughput only when a single device's banks are
        // oversubscribed (occupied subarrays per bank > SALP); a workload
        // that fits comfortably in one device gains capacity, not speed.
        let ds = synth::make_dataset_with(96, 8192, 31, 607);
        let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 120, 8);
        let queries: Vec<Kmer> = reads
            .iter()
            .flat_map(|r| r.kmers(31).map(|(_, k)| k))
            .collect();
        let tight =
            SieveConfig::type3(8).with_geometry(Geometry::new(1, 2, 128, 512, 8192).unwrap());
        let one = SieveCluster::new(tight.clone(), 1, ds.entries.clone()).unwrap();
        let four = SieveCluster::new(tight, 4, ds.entries.clone()).unwrap();
        let m1 = one.run(&queries).unwrap().makespan_ps;
        let m4 = four.run(&queries).unwrap().makespan_ps;
        assert!(
            (m1 as f64 / m4 as f64) > 2.0,
            "4 devices should parallelize a saturated workload: {m1} vs {m4}"
        );
    }

    #[test]
    fn routing_sends_stored_kmers_to_their_shard() {
        let (ds, _) = setup();
        let cluster = SieveCluster::new(config(), 3, ds.entries.clone()).unwrap();
        let reference = SortedDb::from_entries(ds.entries.clone(), 31);
        for (kmer, taxon) in ds.entries.iter().step_by(997) {
            let d = cluster.route(*kmer);
            let out = cluster.devices[d].lookup(*kmer).unwrap();
            assert_eq!(out, Some(*taxon));
            assert_eq!(reference.get(*kmer), Some(*taxon));
        }
    }

    #[test]
    fn zero_devices_rejected() {
        let (ds, _) = setup();
        assert!(SieveCluster::new(config(), 0, ds.entries).is_err());
    }

    #[test]
    fn energy_sums_across_devices() {
        let (ds, queries) = setup();
        let cluster = SieveCluster::new(config(), 2, ds.entries.clone()).unwrap();
        let out = cluster.run(&queries).unwrap();
        let sum: u128 = out.device_reports.iter().map(|r| r.energy.total_fj()).sum();
        assert_eq!(out.energy_fj, sum);
        assert_eq!(out.device_reports.len(), 2);
    }
}
