//! Criterion micro-benchmarks for the hot kernels of the simulator:
//! k-mer extraction, fast-engine lookups, bit-accurate lookups, layout
//! construction, the reference database build, and the baseline CPU cache
//! walk.

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

/// The host kernels (DESIGN.md §9) over the same read batch: byte-rolling
/// extraction and the branchless majority vote. Same group as the match
/// kernel so one `match_kernel` filter covers the host hot path end to
/// end; `kmer_extraction/rolling_100_reads` is the per-base reference.
/// `extract` rolls the whole batch's words
/// (`DnaSequence::extract_words_into`) into one reused word buffer, as
/// the classify calls do one block at a time.
fn bench_host_kernels(c: &mut Criterion) {
    use sieve_core::vote_reads;
    use sieve_genomics::TaxonId;
    let ds = synth::make_dataset_with(2, 2048, 31, 3);
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 100, 4);
    let total: usize = reads.iter().map(|r| r.kmer_count(31)).sum();
    let mut words = Vec::with_capacity(total);
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
        b.iter(|| {
            words.clear();
            for read in &reads {
                read.extract_words_into(31, &mut words);
            }
            std::hint::black_box(&words).len()
        });
    });
    g.throughput(Throughput::Elements(results.len() as u64));
    g.bench_function("vote", |b| {
        b.iter(|| std::hint::black_box(vote_reads(n_reads, &owners, &results)).len());
    });
    g.finish();
}

/// The device match kernel against its reference over the whole device,
/// every query in arrival order. `per_query_lookup` routes each query
/// the way the paper's host-side index table does, by a binary search of
/// every subarray's first key for the largest one at most the query, and
/// binary-searches that subarray with rows computed live
/// ([`engine::lookup`]);
/// `key_table_512` runs the device's match pass: a staged
/// [`DeviceLayout::ranks`] search of the layout's key column over each
/// 512-query block, then [`DeviceLayout::resolve`] routes and resolves
/// every query from its rank with the precomputed [`etm::RowTable`].
/// `key_table_512_hits` runs the same loop over stored keys only, the
/// `hot_stream` shape, where every query reads its payload from the
/// layout's payload column.
fn bench_match_kernel(c: &mut Criterion) {
    use sieve_core::etm::RowTable;
    const BLOCK: usize = 512;
    let (layout, queries) = setup_layout();
    let firsts: Vec<u64> = layout.subarrays().map(|sa| sa.keys()[0]).collect();
    let keys: Vec<u64> = queries.iter().map(|q| q.bits()).collect();
    // As many stored keys as there are queries, spread over the whole
    // key column.
    let step = (layout.len() / keys.len()).max(1);
    let stored: Vec<u64> = layout
        .subarrays()
        .flat_map(|sa| sa.keys().iter().copied())
        .step_by(step)
        .collect();
    let hits: Vec<u64> = stored.iter().copied().cycle().take(keys.len()).collect();
    let rows = RowTable::new(62, true, 1);
    let staged = |keys: &[u64]| {
        let mut ranks = [0usize; BLOCK];
        let mut total = 0u64;
        for block in keys.chunks(BLOCK) {
            let ranks = &mut ranks[..block.len()];
            layout.ranks(block, ranks);
            for (&key, &g) in block.iter().zip(ranks.iter()) {
                let outcome = layout.resolve(key, g, &rows).outcome;
                total += u64::from(outcome.rows) + outcome.hit.map_or(0, |(_, t)| u64::from(t.0));
            }
        }
        total
    };
    let mut g = c.benchmark_group("match_kernel");
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("per_query_lookup", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for q in &queries {
                let sub = firsts
                    .partition_point(|&first| first <= q.bits())
                    .saturating_sub(1);
                let sa = layout.subarray(sub);
                total += u64::from(engine::lookup(&sa, *q, true, 1).rows);
            }
            std::hint::black_box(total)
        });
    });
    g.bench_function("key_table_512", |b| {
        b.iter(|| std::hint::black_box(staged(&keys)));
    });
    g.bench_function("key_table_512_hits", |b| {
        b.iter(|| std::hint::black_box(staged(&hits)));
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

/// The reference database build (`db::build_entries`: extract, sort, fold)
/// on sievebench's `large_ref` reference: 128 taxa of 7,950 bp, k = 31,
/// seed 1001 (its seed-1 reference), with the generator's taxonomy, as
/// its set-up builds it. Throughput counts genome k-mers, the build's
/// input.
fn bench_db_build(c: &mut Criterion) {
    use sieve_genomics::db::{build_entries, DbOptions};
    let ds = synth::make_dataset_with(128, 7950, 31, 1001);
    let options = DbOptions {
        k: 31,
        ..DbOptions::default()
    };
    let words: usize = ds.genomes.iter().map(|(_, g)| g.kmer_count(31)).sum();
    let mut g = c.benchmark_group("db_build");
    g.throughput(Throughput::Elements(words as u64));
    g.bench_function("sort_fold", |b| {
        b.iter(|| {
            let entries = build_entries(&ds.genomes, options, Some(&ds.taxonomy)).unwrap();
            std::hint::black_box(entries.len())
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
    bench_db_build,
    bench_cpu_baseline
);
criterion_main!(kernels);
