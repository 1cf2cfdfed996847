//! Golden snapshots of [`sieve::core::SimReport`] for the three design
//! points on a fixed synthetic dataset, so regressions in timing or
//! energy accounting surface at review time (as a changed literal in the
//! diff) instead of silently shifting figure bins.
//!
//! The workload is fully seeded and the simulation core is bit-identical
//! across thread counts (tests/parallel_determinism.rs), so these values
//! are stable everywhere. If a change legitimately moves them (a model
//! fix, a new energy term), re-run with `--nocapture`, copy the printed
//! actual lines, and justify the shift in the PR.

use sieve::core::{SieveConfig, SieveDevice, SimReport};
use sieve::dram::Geometry;
use sieve::genomics::{synth, Kmer};

fn workload() -> (synth::SyntheticDataset, Vec<Kmer>) {
    let ds = synth::make_dataset_with(8, 2048, 31, 777);
    let (reads, _) = synth::simulate_reads(&ds, synth::ReadSimConfig::default(), 40, 778);
    let queries = reads
        .iter()
        .flat_map(|r| r.kmers(31).map(|(_, k)| k))
        .collect();
    (ds, queries)
}

fn run(config: SieveConfig) -> SimReport {
    let (ds, queries) = workload();
    SieveDevice::new(config.with_geometry(Geometry::scaled_medium()), ds.entries)
        .expect("dataset fits the scaled geometry")
        .run(&queries)
        .expect("valid workload")
        .report
}

/// One-line canonical rendering of every report field.
fn golden_line(r: &SimReport) -> String {
    format!(
        "{} q={} h={} makespan={} ideal={} rows={} rows_no_etm={} wr={} rd={} \
         e_act={} e_rd={} e_wr={} e_comp={} e_static={}",
        r.device,
        r.queries,
        r.hits,
        r.makespan_ps,
        r.ideal_makespan_ps,
        r.row_activations,
        r.rows_without_etm,
        r.write_bursts,
        r.read_bursts,
        r.energy.activation_fj,
        r.energy.read_fj,
        r.energy.write_fj,
        r.energy.component_fj,
        r.energy.static_fj,
    )
}

fn assert_golden(config: SieveConfig, expected: &str) {
    let report = run(config);
    let actual = golden_line(&report);
    assert_eq!(
        actual, expected,
        "\n  golden SimReport drifted.\n  actual:   {actual}\n  expected: {expected}\n"
    );
}

#[test]
fn type1_report_matches_golden() {
    assert_golden(
        SieveConfig::type1(),
        "T1 q=2769 h=174 makespan=4744768268 ideal=4744768268 rows=49568 \
         rows_no_etm=171678 wr=0 rd=842471 e_act=99136000000 e_rd=421235500000 \
         e_wr=0 e_comp=6661418197 e_static=910995507456",
    );
}

#[test]
fn type1_no_etm_report_matches_golden() {
    assert_golden(
        SieveConfig::type1().with_etm(false),
        "T1 q=2769 h=174 makespan=88273012510 ideal=88273012510 rows=172026 \
         rows_no_etm=171678 wr=0 rd=18613926 e_act=344052000000 e_rd=9306963000000 \
         e_wr=0 e_comp=147180312882 e_static=16948418401920",
    );
}

#[test]
fn type1_esp_report_matches_golden() {
    assert_golden(
        SieveConfig::type1().with_esp_override(10),
        "T1 q=2769 h=174 makespan=4421251489 ideal=4421251489 rows=39678 \
         rows_no_etm=171678 wr=0 rd=832070 e_act=79356000000 e_rd=416035000000 \
         e_wr=0 e_comp=6579177490 e_static=848880285888",
    );
}

#[test]
fn type2_report_matches_golden() {
    assert_golden(
        SieveConfig::type2(16),
        "T2.16CB q=2769 h=174 makespan=1761922630 ideal=1761922630 rows=52160 \
         rows_no_etm=171678 wr=39060 rd=348 e_act=104320000000 e_rd=174000000 \
         e_wr=21483000000 e_comp=19174464620 e_static=338289144960",
    );
}

#[test]
fn type3_report_matches_golden() {
    assert_golden(
        SieveConfig::type3(8),
        "T3.8SA q=2769 h=174 makespan=1645511033 ideal=1645511033 rows=52160 \
         rows_no_etm=171678 wr=39060 rd=348 e_act=104320000000 e_rd=174000000 \
         e_wr=21483000000 e_comp=6221464620 e_static=315938118336",
    );
}

#[test]
fn type3_no_etm_report_matches_golden() {
    assert_golden(
        SieveConfig::type3(8).with_etm(false),
        "T3.8SA q=2769 h=174 makespan=5010137879 ideal=5010137879 rows=172026 \
         rows_no_etm=171678 wr=39060 rd=348 e_act=344052000000 e_rd=174000000 \
         e_wr=21483000000 e_comp=20605384620 e_static=961946472768",
    );
}

/// Cross-field invariants the goldens must also satisfy — catches a
/// *consistently* wrong regeneration (every line pasted from a buggy
/// build would still have to pass these).
#[test]
fn golden_reports_are_internally_consistent() {
    let t1 = run(SieveConfig::type1());
    let t3 = run(SieveConfig::type3(8));
    let t3_free = run(SieveConfig::type3(8).with_etm(false));
    assert_eq!(t1.queries, t3.queries);
    assert_eq!(t1.hits, t3.hits);
    assert!(t1.makespan_ps > t3.makespan_ps, "T1 is the slowest design");
    assert!(
        t3.row_activations < t3_free.row_activations,
        "ETM prunes rows"
    );
    assert_eq!(t3.rows_without_etm, t3_free.rows_without_etm);
    assert_eq!(
        t3_free.row_activations,
        t3_free.rows_without_etm + 2 * t3_free.hits,
        "without ETM every query burns 2k rows plus 2 payload rows per hit"
    );
}
