//! Criterion benchmark for host classification throughput (reads/sec)
//! as a function of the simulator's `threads` knob: sequential (1) vs
//! parallel (available cores, and a fixed 4 for comparability across
//! machines). `cargo bench --bench classify_throughput`.
//!
//! The repository's benchmark is sievebench (`sievebench/`): seeded,
//! oracle-checked workloads with end-to-end and per-layer metrics. This
//! bench is a quick local look at the thread knob, not a gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sieve_core::{HostPipeline, SieveConfig, SieveDevice};
use sieve_dram::Geometry;
use sieve_genomics::synth;

fn classify_across_threads(c: &mut Criterion) {
    let ds = synth::make_dataset_with(16, 8192, 31, 31);
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 400, 32);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let mut thread_counts = vec![1usize, 4];
    if !thread_counts.contains(&cores) {
        thread_counts.push(cores);
    }

    let mut g = c.benchmark_group("classify_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(reads.len() as u64));
    for threads in thread_counts {
        let device = SieveDevice::new(
            SieveConfig::type3(8)
                .with_geometry(Geometry::scaled_medium())
                .with_threads(threads),
            ds.entries.clone(),
        )
        .expect("dataset fits the scaled geometry");
        let host = HostPipeline::new(device);
        g.bench_with_input(BenchmarkId::new("threads", threads), &host, |b, host| {
            b.iter(|| {
                let out = host.classify_reads(&reads).unwrap();
                std::hint::black_box(out.reads.len())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, classify_across_threads);
criterion_main!(benches);
