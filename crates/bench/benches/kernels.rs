//! Criterion micro-benchmarks for the hot kernels of the simulator:
//! k-mer extraction, fast-engine lookups, bit-accurate lookups, layout
//! construction, and the baseline CPU cache walk.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sieve_core::{bitsim::BitAccurateSubarray, engine, DeviceLayout, SieveConfig};
use sieve_dram::Geometry;
use sieve_genomics::synth;

fn setup_layout() -> (DeviceLayout, Vec<sieve_genomics::Kmer>) {
    let ds = synth::make_dataset_with(8, 4096, 31, 42);
    let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 200, 7);
    let queries: Vec<_> = reads
        .iter()
        .flat_map(|r| r.kmers(31).map(|(_, k)| k))
        .collect();
    (DeviceLayout::build(ds.entries, &config).unwrap(), queries)
}

fn bench_kmer_extraction(c: &mut Criterion) {
    let ds = synth::make_dataset_with(2, 2048, 31, 3);
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 100, 4);
    let total: usize = reads.iter().map(|r| r.kmer_count(31)).sum();
    let mut g = c.benchmark_group("kmer_extraction");
    g.throughput(Throughput::Elements(total as u64));
    g.bench_function("rolling_100_reads", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for read in &reads {
                n += read.kmers(31).count();
            }
            std::hint::black_box(n)
        });
    });
    g.finish();
}

fn bench_engine_lookup(c: &mut Criterion) {
    let (layout, queries) = setup_layout();
    let sa = layout.subarray(0);
    let mut g = c.benchmark_group("engine_lookup");
    g.throughput(Throughput::Elements(queries.len() as u64));
    g.bench_function("fast_sorted_lcp", |b| {
        b.iter(|| {
            let mut rows = 0u64;
            for q in &queries {
                rows += u64::from(engine::lookup(&sa, *q, true, 1).rows);
            }
            std::hint::black_box(rows)
        });
    });
    g.finish();
}

/// The host kernels (DESIGN.md §9) over the same read batch: packed
/// rolling extraction and the branchless majority vote. Same group as the
/// match kernel so one `match_kernel` filter covers the host hot path end
/// to end; `kmer_extraction/rolling_100_reads` is the per-base reference.
fn bench_host_kernels(c: &mut Criterion) {
    use sieve_core::{vote_reads, HostPipeline, SieveDevice};
    use sieve_genomics::TaxonId;
    let ds = synth::make_dataset_with(2, 2048, 31, 3);
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 100, 4);
    let total: usize = reads.iter().map(|r| r.kmer_count(31)).sum();
    let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
    let host = HostPipeline::new(SieveDevice::new(config, ds.entries.clone()).unwrap());
    // Vote input: the real pipeline shape — owners grouped per read with
    // a mix of misses, unanimous reads, and contested reads.
    let n_reads = 4096usize;
    let mut owners = Vec::new();
    let mut results: Vec<Option<TaxonId>> = Vec::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for read in 0..n_reads {
        for _ in 0..24 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            owners.push(read as u32);
            results.push(match state >> 61 {
                0 => None,
                v => Some(TaxonId(v as u32 % 5)),
            });
        }
    }
    let mut g = c.benchmark_group("match_kernel");
    g.throughput(Throughput::Elements(total as u64));
    g.bench_function("extract", |b| {
        b.iter(|| std::hint::black_box(host.extract_kmers(&reads)).0.len());
    });
    g.throughput(Throughput::Elements(results.len() as u64));
    g.bench_function("vote", |b| {
        b.iter(|| std::hint::black_box(vote_reads(n_reads, &owners, &results)).len());
    });
    g.finish();
}

/// The device match kernel against its reference over one grouped
/// shard: the queries that route to subarray 0, in arrival order, as the
/// plan's counting scatter leaves them. `per_query_lookup` binary-searches
/// the subarray per query with rows computed live ([`engine::lookup`]);
/// `key_table_512` resolves 512-key blocks through the device's
/// direct-mapped [`engine::KeyTable`] with the precomputed
/// [`etm::RowTable`] — the shape `device::match_pairs` actually uses.
fn bench_match_kernel(c: &mut Criterion) {
    use sieve_core::etm::RowTable;
    use sieve_core::SubarrayIndex;
    const BLOCK: usize = 512;
    let (layout, queries) = setup_layout();
    let index = SubarrayIndex::build(&layout);
    let shard: Vec<_> = queries
        .into_iter()
        .filter(|&q| index.locate(q) == 0)
        .collect();
    let keys: Vec<u64> = shard.iter().map(|q| q.bits()).collect();
    let sa = layout.subarray(0);
    let table = engine::KeyTable::new(&layout);
    let rows = RowTable::new(62, true, 1);
    let mut g = c.benchmark_group("match_kernel");
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("per_query_lookup", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for q in &shard {
                total += u64::from(engine::lookup(&sa, *q, true, 1).rows);
            }
            std::hint::black_box(total)
        });
    });
    g.bench_function("key_table_512", |b| {
        let mut out = Vec::with_capacity(BLOCK);
        b.iter(|| {
            let mut total = 0u64;
            for block in keys.chunks(BLOCK) {
                out.clear();
                table.lookup_block(&layout, 0, block, &rows, &mut out);
                total += out.iter().map(|o| u64::from(o.rows)).sum::<u64>();
            }
            std::hint::black_box(total)
        });
    });
    g.finish();
}

fn bench_bitsim_lookup(c: &mut Criterion) {
    let (layout, queries) = setup_layout();
    let sa = layout.subarray(0);
    let bits = BitAccurateSubarray::from_view(&sa, 8192);
    let sample: Vec<_> = queries.iter().take(256).copied().collect();
    let mut g = c.benchmark_group("bitsim_lookup");
    g.sample_size(20);
    g.throughput(Throughput::Elements(sample.len() as u64));
    g.bench_function("bit_accurate_latches", |b| {
        b.iter(|| {
            let mut rows = 0u64;
            for q in &sample {
                rows += u64::from(bits.lookup(*q, true, 1).rows);
            }
            std::hint::black_box(rows)
        });
    });
    g.finish();
}

fn bench_layout_build(c: &mut Criterion) {
    let ds = synth::make_dataset_with(8, 4096, 31, 42);
    let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
    let mut g = c.benchmark_group("layout_build");
    g.throughput(Throughput::Elements(ds.entries.len() as u64));
    g.bench_function("sort_partition", |b| {
        b.iter(|| {
            let layout = DeviceLayout::build(ds.entries.clone(), &config).unwrap();
            std::hint::black_box(layout.occupied_subarrays())
        });
    });
    g.finish();
}

fn bench_cpu_baseline(c: &mut Criterion) {
    use sieve_baselines::cpu::{run_kmer_matching, CpuConfig};
    use sieve_genomics::db::HybridDb;
    let ds = synth::make_dataset_with(8, 4096, 31, 42);
    let db = HybridDb::from_entries(&ds.entries, 31);
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 50, 7);
    let queries: Vec<_> = reads
        .iter()
        .flat_map(|r| r.kmers(31).map(|(_, k)| k))
        .collect();
    let mut g = c.benchmark_group("cpu_baseline");
    g.sample_size(10);
    g.throughput(Throughput::Elements(queries.len() as u64));
    g.bench_function("trace_driven_walk", |b| {
        b.iter(|| {
            let d = run_kmer_matching(&db, &queries, CpuConfig::xeon_e5_2658v4());
            std::hint::black_box(d.report.time_ps)
        });
    });
    g.finish();
}

criterion_group!(
    kernels,
    bench_kmer_extraction,
    bench_engine_lookup,
    bench_host_kernels,
    bench_match_kernel,
    bench_bitsim_lookup,
    bench_layout_build,
    bench_cpu_baseline
);
criterion_main!(kernels);
