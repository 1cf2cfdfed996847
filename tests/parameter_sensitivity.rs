//! Every model parameter moves a model output.
//!
//! One table per parameter type. Each test destructures the type's paper
//! preset without `..`, so a new field does not compile until it has a
//! row here. Each row perturbs one field, on a design point where its doc
//! says it acts and far enough for its mechanism to bind, and names the
//! output that must move: a [`SimReport`]'s makespan, energy, rows or
//! bursts, a [`LoadReport`], the DIMM verdict, a temperature or thermal
//! verdict, an area overhead, a baseline's time or energy, or a cache
//! hierarchy's access latency. A field that moves nothing is deleted, not
//! given a row. `SieveConfig::threads` is the one inverse row: it is a
//! simulator knob, and the report must not move.

use std::fmt::Debug;

use sieve::baselines::cachesim::{CacheConfig, Hierarchy};
use sieve::baselines::cpu::{self, CpuConfig};
use sieve::baselines::fpga::{self, FpgaConfig};
use sieve::baselines::gpu::{self, GpuConfig};
use sieve::baselines::insitu::{self, InsituConfig, InsituKind};
use sieve::baselines::BaselineReport;
use sieve::core::area::AreaModel;
use sieve::core::load::{load_cost, LoadReport};
use sieve::core::thermal::ThermalModel;
use sieve::core::{
    DeviceKind, DeviceLayout, PcieConfig, SieveApi, SieveConfig, SieveDevice, SimReport, Transport,
};
use sieve::dram::{EnergyParams, Geometry, TimingParams};
use sieve::genomics::db::HybridDb;
use sieve::genomics::{synth, Kmer, TaxonId};

/// One row: the field, the output that must move, the design point, and
/// the perturbation of the field.
type Row<'a, T, K> = (&'static str, K, T, &'a dyn Fn(&mut T));

/// Evaluates each row's output at its design point and with its field
/// perturbed, and fails naming every row whose output stayed put.
fn assert_every_row_moves<T: Clone, K: Copy + Debug, O: PartialEq + Debug>(
    rows: &[Row<'_, T, K>],
    output: impl Fn(&T, K) -> O,
) {
    let still: Vec<String> = rows
        .iter()
        .filter_map(|(field, out, base, perturb)| {
            let mut perturbed = base.clone();
            perturb(&mut perturbed);
            let before = output(base, *out);
            (before == output(&perturbed, *out))
                .then(|| format!("{field}: {out:?} stays {before:?}"))
        })
        .collect();
    assert!(still.is_empty(), "fields that move no output: {still:?}");
}

/// The reference set (10 genomes of 2,048 bases, three Type-2/3
/// subarrays) and its queries: the k-mers of 40 simulated reads, mostly
/// misses, plus every 50th reference k-mer, so hits drain ETM segments
/// and read payloads.
fn workload(k: usize) -> (Vec<(Kmer, TaxonId)>, Vec<Kmer>) {
    let ds = synth::make_dataset_with(10, 2048, k, 7);
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 40, 8);
    let mut queries: Vec<Kmer> = reads
        .iter()
        .flat_map(|r| r.kmers(k).map(|(_, kmer)| kmer))
        .collect();
    queries.extend(ds.entries.iter().step_by(50).map(|&(kmer, _)| kmer));
    (ds.entries, queries)
}

/// One bank of 64 paper-sized subarrays: the reference set's three
/// occupied subarrays share the bank, so SALP and the Type-2 hop distance
/// bind.
fn one_bank() -> Geometry {
    Geometry {
        ranks: 1,
        banks_per_rank: 1,
        ..Geometry::scaled_medium()
    }
}

/// The paper's Type-3 (8 SALP) device, on [`one_bank`].
fn t3() -> SieveConfig {
    SieveConfig::type3(8).with_geometry(one_bank())
}

/// The paper's Type-2 (16 compute buffers) device, on [`one_bank`].
fn t2() -> SieveConfig {
    SieveConfig::type2(16).with_geometry(one_bank())
}

/// A device of `config` loaded with the reference set, and its queries.
fn load(config: &SieveConfig) -> (SieveDevice, Vec<Kmer>) {
    let (entries, queries) = workload(config.k);
    let device = SieveDevice::new(config.clone(), entries).expect("a valid design point");
    (device, queries)
}

fn simulate(config: &SieveConfig) -> SimReport {
    let (device, queries) = load(config);
    device.run(&queries).expect("a valid batch").report
}

/// The outputs a [`SieveConfig`] reaches.
#[derive(Debug, Clone, Copy)]
enum Out {
    Makespan,
    Energy,
    Rows,
    WriteBursts,
    /// Whether the paper's DIMM can power the device at its peak draw
    /// (`deployment_table`'s DIMM column).
    DimmVerdict,
    /// The energy of the row-major baseline matched to the config's
    /// geometry, timing and energy, on the config's layout.
    RowMajorEnergy,
}

impl Out {
    fn of(self, config: &SieveConfig) -> u128 {
        match self {
            Self::Makespan => u128::from(simulate(config).makespan_ps),
            Self::Energy => simulate(config).energy.total_fj(),
            Self::Rows => u128::from(simulate(config).row_activations),
            Self::WriteBursts => u128::from(simulate(config).write_bursts),
            Self::DimmVerdict => {
                let peak = SieveApi::peak_power_w(config);
                u128::from(Transport::dimm().validate(config, peak).is_ok())
            }
            Self::RowMajorEnergy => {
                let (device, queries) = load(config);
                let row_major = InsituConfig {
                    geometry: config.geometry,
                    timing: config.timing,
                    energy: config.energy,
                    ..InsituConfig::paper(InsituKind::RowMajor)
                };
                insitu::run(&row_major, device.layout(), &queries).energy_fj
            }
        }
    }
}

/// [`assert_every_row_moves`] over device configs, each of which must be
/// valid.
fn assert_configs_move(rows: &[Row<'_, SieveConfig, Out>]) {
    assert_every_row_moves(rows, |config, out| {
        config.validate().expect("a valid design point");
        out.of(config)
    });
}

#[test]
fn sieve_config() {
    let SieveConfig {
        device,
        geometry: _,
        timing: _,
        energy: _,
        k,
        pattern_group_cols,
        etm_segment_len,
        etm_enabled,
        etm_flush_cycles,
        hop_delay_ps,
        pcie,
        esp_override,
        threads,
    } = SieveConfig::type3(8);
    let DeviceKind::Type3 { salp } = device else {
        unreachable!("the Type-3 preset")
    };
    let DeviceKind::Type2 { compute_buffers } = SieveConfig::type2(16).device else {
        unreachable!("the Type-2 preset")
    };
    use Out::{Energy, Makespan, Rows, WriteBursts};
    assert_configs_move(&[
        ("device", Makespan, t3(), &|c| c.device = DeviceKind::Type1),
        ("salp", Makespan, t3(), &|c| {
            c.device = DeviceKind::Type3 { salp: salp / 8 }
        }),
        ("compute_buffers", Makespan, t2(), &|c| {
            c.device = DeviceKind::Type2 {
                compute_buffers: compute_buffers / 16,
            }
        }),
        // More banks burn more static power over the run.
        ("geometry", Energy, t3(), &|c| {
            c.geometry = Geometry::scaled_medium()
        }),
        ("timing", Makespan, t3(), &|c| {
            c.timing = TimingParams::hbm2()
        }),
        ("energy", Energy, t3(), &|c| c.energy = EnergyParams::hbm2()),
        ("k", Rows, t3(), &|c| c.k = k - 10),
        ("pattern_group_cols", WriteBursts, t3(), &|c| {
            c.pattern_group_cols = 2 * pattern_group_cols
        }),
        // A hit drains one segment register per DRAM clock.
        ("etm_segment_len", Makespan, t3(), &|c| {
            c.etm_segment_len = etm_segment_len / 4
        }),
        ("etm_enabled", Rows, t3(), &|c| c.etm_enabled = !etm_enabled),
        ("etm_flush_cycles", Rows, t3(), &|c| {
            c.etm_flush_cycles = etm_flush_cycles + 2
        }),
        ("hop_delay_ps", Makespan, t2(), &|c| {
            c.hop_delay_ps = 10 * hop_delay_ps
        }),
        ("pcie", Makespan, t3(), &|c| {
            c.pcie = pcie.or(Some(PcieConfig::gen4_x16()))
        }),
        ("esp_override", Rows, t3(), &|c| {
            c.esp_override = esp_override.or(Some(4))
        }),
    ]);

    // The inverse row: the worker count moves nothing.
    let (device, queries) = load(&t3().with_threads(threads + 1));
    let sequential = device.run(&queries).unwrap();
    let (device, _) = load(&t3().with_threads(threads + 3));
    let parallel = device.run(&queries).unwrap();
    assert_eq!(sequential.report, parallel.report);
    assert_eq!(sequential.results, parallel.results);
}

#[test]
fn pcie_config() {
    let preset = PcieConfig::gen4_x16();
    let PcieConfig {
        bandwidth_bytes_per_s,
        base_latency_ps,
        packet_payload_bytes,
        request_bytes,
        dispatch_latency_ps,
    } = preset;
    let link = t3().with_pcie(preset);
    // A request reaches the makespan only through the arrival of its
    // packet and the response drain, which bind on a slow link.
    let slow_link = t3().with_pcie(PcieConfig {
        bandwidth_bytes_per_s: bandwidth_bytes_per_s / 1_000,
        ..preset
    });
    fn of(config: &mut SieveConfig) -> &mut PcieConfig {
        config.pcie.as_mut().expect("a PCIe design point")
    }
    assert_configs_move(&[
        ("bandwidth_bytes_per_s", Out::Makespan, link.clone(), &|c| {
            of(c).bandwidth_bytes_per_s = bandwidth_bytes_per_s / 4
        }),
        ("base_latency_ps", Out::Makespan, link.clone(), &|c| {
            of(c).base_latency_ps = 4 * base_latency_ps
        }),
        ("packet_payload_bytes", Out::Makespan, link.clone(), &|c| {
            of(c).packet_payload_bytes = packet_payload_bytes / 2
        }),
        ("request_bytes", Out::Makespan, slow_link, &|c| {
            of(c).request_bytes = 50 * request_bytes
        }),
        ("dispatch_latency_ps", Out::Makespan, link, &|c| {
            of(c).dispatch_latency_ps = 4 * dispatch_latency_ps
        }),
    ]);
}

/// The outputs a [`Transport`] reaches.
#[derive(Debug, Clone, Copy)]
enum Link {
    DimmVerdict,
    LoadTransferPs,
}

#[test]
fn transport_dimm() {
    let Transport::Dimm {
        power_w_per_gb,
        bandwidth_bytes_per_s,
    } = Transport::dimm()
    else {
        unreachable!("the DIMM preset")
    };
    let dimm = Transport::dimm();
    // Type-1 at the paper's 32 GB, where the DIMM's per-GB budget sits
    // above its 4 W floor.
    let config = SieveConfig::type1();
    let peak = SieveApi::peak_power_w(&config);
    let layout = DeviceLayout::build(workload(config.k).0, &config).unwrap();
    assert_every_row_moves(
        &[
            ("power_w_per_gb", Link::DimmVerdict, dimm, &|t| {
                *t = Transport::Dimm {
                    power_w_per_gb: power_w_per_gb / 4.0,
                    bandwidth_bytes_per_s,
                }
            }),
            ("bandwidth_bytes_per_s", Link::LoadTransferPs, dimm, &|t| {
                *t = Transport::Dimm {
                    power_w_per_gb,
                    bandwidth_bytes_per_s: bandwidth_bytes_per_s / 4,
                }
            }),
        ],
        |transport, out| match out {
            Link::DimmVerdict => u64::from(transport.validate(&config, peak).is_ok()),
            Link::LoadTransferPs => {
                let LoadReport { transfer_ps, .. } = load_cost(&config, &layout, transport);
                transfer_ps
            }
        },
    );
}

#[test]
fn timing_params() {
    let TimingParams {
        t_ck,
        t_rcd,
        t_ras,
        t_rp,
        t_ccd,
        t_faw,
        t_refi,
        t_rfc,
    } = TimingParams::ddr4_paper();
    let m = Out::Makespan;
    assert_configs_move(&[
        // One DRAM clock per ETM segment register a hit drains.
        ("t_ck", m, t3(), &|c| c.timing.t_ck = 4 * t_ck),
        // Batch replacement opens each Region-1 row for its writes.
        ("t_rcd", m, t3(), &|c| c.timing.t_rcd = 4 * t_rcd),
        ("t_ras", m, t3(), &|c| c.timing.t_ras = 2 * t_ras),
        ("t_rp", m, t3(), &|c| c.timing.t_rp = 2 * t_rp),
        ("t_ccd", m, t3(), &|c| c.timing.t_ccd = 4 * t_ccd),
        // Four activations per window bind once a window outlasts four
        // row cycles.
        ("t_faw", m, t3(), &|c| c.timing.t_faw = 100 * t_faw),
        ("t_refi", m, t3(), &|c| c.timing.t_refi = t_refi / 4),
        ("t_rfc", m, t3(), &|c| c.timing.t_rfc = 4 * t_rfc),
    ]);
}

#[test]
fn energy_params() {
    let EnergyParams {
        e_act,
        e_rd,
        e_wr,
        multi_row_extra_pct,
        static_nw_per_bank,
    } = EnergyParams::ddr4_paper();
    let e = Out::Energy;
    assert_configs_move(&[
        ("e_act", e, t3(), &|c| c.energy.e_act = 2 * e_act),
        // Hits read their payload rows.
        ("e_rd", e, t3(), &|c| c.energy.e_rd = 2 * e_rd),
        // Batch replacement writes the query columns.
        ("e_wr", e, t3(), &|c| c.energy.e_wr = 2 * e_wr),
        // Only multi-row activations pay it: the row-major baseline's
        // bulk ops.
        ("multi_row_extra_pct", Out::RowMajorEnergy, t3(), &|c| {
            c.energy.multi_row_extra_pct = 2 * multi_row_extra_pct
        }),
        ("static_nw_per_bank", e, t3(), &|c| {
            c.energy.static_nw_per_bank = 2 * static_nw_per_bank
        }),
    ]);
}

#[test]
fn geometry() {
    // The bank-count rows perturb the one-bank design point.
    let Geometry {
        ranks: _,
        banks_per_rank: _,
        subarrays_per_bank: _,
        rows_per_subarray,
        cols_per_row,
    } = Geometry::paper_32gb();
    let base = one_bank();
    assert_configs_move(&[
        // More banks burn more static power over the run.
        ("ranks", Out::Energy, t3(), &|c| {
            c.geometry.ranks = 2 * base.ranks
        }),
        ("banks_per_rank", Out::Energy, t3(), &|c| {
            c.geometry.banks_per_rank = 2 * base.banks_per_rank
        }),
        // Type-2 spreads a bank's occupied subarrays over its positions,
        // and a position's hop distance is its place in its buffer's
        // group.
        ("subarrays_per_bank", Out::Makespan, t2(), &|c| {
            c.geometry.subarrays_per_bank = 2 * base.subarrays_per_bank
        }),
        // Capacity sets the DIMM's power budget.
        (
            "rows_per_subarray",
            Out::DimmVerdict,
            SieveConfig::type1(),
            &|c| c.geometry.rows_per_subarray = rows_per_subarray / 2,
        ),
        // A row holds a subarray's references.
        ("cols_per_row", Out::Makespan, t3(), &|c| {
            c.geometry.cols_per_row = 2 * cols_per_row
        }),
    ]);
}

/// What a baseline reports.
#[derive(Debug, Clone, Copy)]
enum Metric {
    Time,
    Energy,
}

impl Metric {
    fn of(self, report: &BaselineReport) -> u128 {
        match self {
            Self::Time => report.time_ps,
            Self::Energy => report.energy_fj,
        }
    }
}

fn baseline_workload() -> (HybridDb, Vec<Kmer>) {
    let (entries, queries) = workload(31);
    (HybridDb::from_entries(&entries, 31), queries)
}

#[test]
fn cpu_config() {
    let preset = CpuConfig::xeon_e5_2658v4();
    let CpuConfig {
        cores,
        mlp,
        compute_ns_per_lookup,
        power_w,
        working_set_bytes,
        min_probes_per_lookup,
        tlb_miss_ns,
    } = preset;
    let (db, queries) = baseline_workload();
    let t = Metric::Time;
    assert_every_row_moves(
        &[
            ("cores", t, preset, &|c| c.cores = 2 * cores),
            ("mlp", t, preset, &|c| c.mlp = 2.0 * mlp),
            ("compute_ns_per_lookup", t, preset, &|c| {
                c.compute_ns_per_lookup = 2.0 * compute_ns_per_lookup
            }),
            ("power_w", Metric::Energy, preset, &|c| {
                c.power_w = 2.0 * power_w
            }),
            // A working set that fits the L3 turns DRAM accesses into hits.
            ("working_set_bytes", t, preset, &|c| {
                c.working_set_bytes = working_set_bytes >> 10
            }),
            ("min_probes_per_lookup", t, preset, &|c| {
                c.min_probes_per_lookup = 2 * min_probes_per_lookup
            }),
            ("tlb_miss_ns", t, preset, &|c| {
                c.tlb_miss_ns = 2 * tlb_miss_ns
            }),
        ],
        |config, metric| metric.of(&cpu::run_kmer_matching(&db, &queries, *config).report),
    );
}

#[test]
fn gpu_config() {
    let preset = GpuConfig::titan_x_pascal();
    let GpuConfig {
        peak_bw_bytes_per_s,
        random_efficiency,
        bytes_per_probe,
        power_w,
    } = preset;
    let (db, queries) = baseline_workload();
    let t = Metric::Time;
    assert_every_row_moves(
        &[
            ("peak_bw_bytes_per_s", t, preset, &|c| {
                c.peak_bw_bytes_per_s = 2.0 * peak_bw_bytes_per_s
            }),
            ("random_efficiency", t, preset, &|c| {
                c.random_efficiency = 2.0 * random_efficiency
            }),
            ("bytes_per_probe", t, preset, &|c| {
                c.bytes_per_probe = 2.0 * bytes_per_probe
            }),
            ("power_w", Metric::Energy, preset, &|c| {
                c.power_w = 2.0 * power_w
            }),
        ],
        |config, metric| metric.of(&gpu::run_kmer_matching(&db, &queries, *config)),
    );
}

#[test]
fn fpga_config() {
    let preset = FpgaConfig::virtex_class();
    let FpgaConfig {
        memory_channels,
        random_access_per_s,
        probes_per_lookup,
        power_w,
    } = preset;
    let (db, queries) = baseline_workload();
    let t = Metric::Time;
    assert_every_row_moves(
        &[
            ("memory_channels", t, preset, &|c| {
                c.memory_channels = 2 * memory_channels
            }),
            ("random_access_per_s", t, preset, &|c| {
                c.random_access_per_s = 2.0 * random_access_per_s
            }),
            // Above the bucket depth's floor.
            ("probes_per_lookup", t, preset, &|c| {
                c.probes_per_lookup = 4.0 * probes_per_lookup
            }),
            ("power_w", Metric::Energy, preset, &|c| {
                c.power_w = 2.0 * power_w
            }),
        ],
        |config, metric| metric.of(&fpga::run_kmer_matching(&db, &queries, *config)),
    );
}

#[test]
fn insitu_config() {
    let InsituConfig {
        kind,
        geometry: _,
        timing,
        energy,
        salp,
        rows_per_op,
        writes_per_query,
    } = InsituConfig::paper(InsituKind::RowMajor);
    // Matched to the Sieve device on one bank, whose three occupied
    // subarrays then share the SALP slots.
    let base = InsituConfig::paper(kind).with_geometry(one_bank());
    let (device, queries) = load(&t3());
    let t = Metric::Time;
    assert_every_row_moves(
        &[
            ("kind", t, base, &|c| c.kind = InsituKind::ComputeDram),
            // More banks burn more static power over the run.
            ("geometry", Metric::Energy, base, &|c| {
                c.geometry = Geometry::scaled_medium()
            }),
            ("timing", t, base, &|c| c.timing.t_ras = 2 * timing.t_ras),
            ("energy", Metric::Energy, base, &|c| {
                c.energy.e_act = 2 * energy.e_act
            }),
            ("salp", t, base, &|c| c.salp = salp / 8),
            ("rows_per_op", t, base, &|c| c.rows_per_op = rows_per_op / 2),
            ("writes_per_query", t, base, &|c| {
                c.writes_per_query = 2 * writes_per_query
            }),
        ],
        |config, metric| metric.of(&insitu::run(config, device.layout(), &queries)),
    );
}

#[test]
fn cache_config() {
    // The Table I workstation's L1, as `Hierarchy::xeon_e5_2658v4` builds
    // it, in front of its L2, L3 and DRAM.
    let l1 = CacheConfig {
        size_bytes: 32 * 1024,
        line_bytes: 64,
        ways: 8,
        latency_ns: 2,
    };
    let CacheConfig {
        size_bytes,
        line_bytes,
        ways,
        latency_ns,
    } = l1;
    let l2 = CacheConfig {
        size_bytes: 256 * 1024,
        latency_ns: 5,
        ..l1
    };
    let l3 = CacheConfig {
        size_bytes: 35 << 20,
        ways: 20,
        latency_ns: 15,
        ..l1
    };
    let dram_latency_ns = 90;
    // Three passes over 48 KB line by line (past the L1, within two),
    // three over 12 lines of one L1 set (past 8 ways, within 16), then
    // one line four times (L1 hits).
    let sweep = (0..3).flat_map(|_| (0..48 * 1024).step_by(64));
    let set = (0..3).flat_map(|_| (0..12).map(|i| (1 << 24) + i * 4096));
    let trace: Vec<u64> = sweep.chain(set).chain([0; 4]).collect();
    let base = (l1, dram_latency_ns);
    let lat = "access latency";
    assert_every_row_moves(
        &[
            ("size_bytes", lat, base, &|(l1, _)| {
                l1.size_bytes = 2 * size_bytes
            }),
            ("line_bytes", lat, base, &|(l1, _)| {
                l1.line_bytes = 2 * line_bytes
            }),
            ("ways", lat, base, &|(l1, _)| l1.ways = 2 * ways),
            ("latency_ns", lat, base, &|(l1, _)| {
                l1.latency_ns = 2 * latency_ns
            }),
            ("Hierarchy::dram_latency_ns", lat, base, &|(_, dram)| {
                *dram = 2 * dram_latency_ns
            }),
        ],
        |&(l1, dram_latency_ns), _| {
            let mut hierarchy = Hierarchy::new(l1, l2, l3, dram_latency_ns);
            trace.iter().map(|&a| hierarchy.access(a).1).sum::<u64>()
        },
    );
}

#[test]
fn thermal_model() {
    let preset = ThermalModel::dimm();
    let ThermalModel {
        ambient_c,
        theta_ca,
        derate_c,
        max_c,
    } = preset;
    // 22 W on a DIMM: 90 °C, past the refresh derating point.
    let power_w = 22.0;
    assert_every_row_moves(
        &[
            ("ambient_c", "temperature", preset, &|m| {
                m.ambient_c = ambient_c + 10.0
            }),
            ("theta_ca", "temperature", preset, &|m| {
                m.theta_ca = theta_ca / 2.0
            }),
            ("derate_c", "verdict", preset, &|m| {
                m.derate_c = derate_c + 10.0
            }),
            ("max_c", "verdict", preset, &|m| m.max_c = max_c - 10.0),
        ],
        |model, out| match out {
            "temperature" => format!("{}", model.temperature_c(power_w)),
            "verdict" => format!("{:?}", model.assess(power_w)),
            _ => unreachable!("no output named {out}"),
        },
    );
}

#[test]
fn area_model() {
    let preset = AreaModel::paper();
    let AreaModel {
        sa_long_f,
        matcher_stack_f,
        link_f,
        salp_latch_f,
        cb_stack_f,
        array_height_f,
        subarrays_per_bank,
        t1_sram_fraction,
        t1_matcher_fraction,
    } = preset;
    let (t1, t3) = (DeviceKind::Type1, DeviceKind::Type3 { salp: 8 });
    let t2 = DeviceKind::Type2 {
        compute_buffers: 16,
    };
    assert_every_row_moves(
        &[
            ("sa_long_f", t3, preset, &|m| m.sa_long_f = 2.0 * sa_long_f),
            ("matcher_stack_f", t3, preset, &|m| {
                m.matcher_stack_f = 2.0 * matcher_stack_f
            }),
            ("link_f", t2, preset, &|m| m.link_f = 2.0 * link_f),
            ("salp_latch_f", t3, preset, &|m| {
                m.salp_latch_f = 2.0 * salp_latch_f
            }),
            ("cb_stack_f", t2, preset, &|m| {
                m.cb_stack_f = 2.0 * cb_stack_f
            }),
            ("array_height_f", t3, preset, &|m| {
                m.array_height_f = 2.0 * array_height_f
            }),
            // The per-buffer stacks share a larger bank's area.
            ("subarrays_per_bank", t2, preset, &|m| {
                m.subarrays_per_bank = 2 * subarrays_per_bank
            }),
            ("t1_sram_fraction", t1, preset, &|m| {
                m.t1_sram_fraction = 2.0 * t1_sram_fraction
            }),
            ("t1_matcher_fraction", t1, preset, &|m| {
                m.t1_matcher_fraction = 2.0 * t1_matcher_fraction
            }),
        ],
        |model, device| model.overhead(device),
    );
}
