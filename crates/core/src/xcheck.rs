//! Cross-validation machinery for the aggregate schedulers:
//!
//! * an **event-driven Type-3 simulator** — subarrays as serial servers
//!   acquiring one of `salp` per-bank tokens batch by batch — whose
//!   makespan brackets the aggregate LPT model;
//! * a **command-trace emitter** producing the per-subarray DRAM command
//!   stream a lookup sequence implies, checkable against JEDEC-style
//!   constraints with [`sieve_dram::trace::TraceValidator`].
//!
//! Together these play the role of the paper's DRAMSim2 front end: they
//! confirm that the fast aggregate accounting corresponds to a legal,
//! schedulable command stream.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sieve_dram::trace::CommandTrace;
use sieve_dram::{BankId, DramCommand, TimePs};

use crate::config::{SieveConfig, QUERIES_PER_GROUP};

/// One subarray's resolved work for cross-checking: per-query row counts.
#[derive(Debug, Clone)]
pub struct SubarrayWork {
    /// The bank the subarray lives in.
    pub bank: usize,
    /// Rows activated by each query routed here, in arrival order.
    pub query_rows: Vec<u32>,
}

/// Event-driven Type-3 makespan: each bank has `salp` tokens; a subarray
/// acquires a token, runs one 64-query batch (setup writes + row
/// activations), releases, and re-queues until drained. A batch's setup
/// is [`SieveConfig::batch_setup_ps`], the formula the aggregate
/// scheduler uses, so the two cannot drift. A subarray is a
/// serial resource (its batches never overlap); token grants prefer the
/// earliest-startable subarray, tie-broken toward the most remaining work.
///
/// # Panics
///
/// Panics if `salp == 0`.
#[must_use]
pub fn event_driven_type3_makespan(
    config: &SieveConfig,
    work: &[SubarrayWork],
    salp: usize,
) -> TimePs {
    assert!(salp > 0, "need at least one SALP token");
    let row_cycle = config.timing.row_cycle();
    let setup = config.batch_setup_ps();
    let batch = QUERIES_PER_GROUP as usize;

    let banks: usize = work.iter().map(|w| w.bank + 1).max().unwrap_or(0);
    let mut makespan = 0u64;
    for b in 0..banks {
        // Each subarray's list of batch durations.
        let mut queues: Vec<Vec<TimePs>> = work
            .iter()
            .filter(|w| w.bank == b && !w.query_rows.is_empty())
            .map(|w| {
                w.query_rows
                    .chunks(batch)
                    .map(|chunk| {
                        setup + chunk.iter().map(|&r| u64::from(r)).sum::<u64>() * row_cycle
                    })
                    .collect()
            })
            .collect();
        if queues.is_empty() {
            continue;
        }
        // remaining[s] = total time left for subarray s; sub_free[s] = the
        // time its previous batch finishes (a subarray is a serial
        // resource: its batches never overlap, even across tokens).
        let mut remaining: Vec<TimePs> = queues.iter().map(|q| q.iter().sum()).collect();
        let mut sub_free: Vec<TimePs> = vec![0; queues.len()];
        // Tokens become free at these times.
        let mut tokens: BinaryHeap<Reverse<TimePs>> = (0..salp).map(|_| Reverse(0)).collect();
        while let Some(Reverse(token_free)) = tokens.pop() {
            // Among subarrays with work, start as early as possible;
            // tie-break toward the most remaining work (longest-chain
            // heuristic, mirroring the aggregate LPT).
            let Some(s) = (0..queues.len())
                .filter(|&s| !queues[s].is_empty())
                .min_by_key(|&s| (sub_free[s].max(token_free), Reverse(remaining[s])))
            else {
                break;
            };
            let start = sub_free[s].max(token_free);
            let dur = queues[s].remove(0);
            remaining[s] -= dur;
            let done = start + dur;
            sub_free[s] = done;
            makespan = makespan.max(done);
            tokens.push(Reverse(done));
        }
    }
    makespan
}

/// Emits the DRAM command stream one subarray issues for a sequence of
/// lookups (per-batch setup writes, then one activation per row), at the
/// timing the aggregate model assumes. Validating this trace proves the
/// model's cadence is JEDEC-legal.
#[must_use]
pub fn emit_subarray_trace(config: &SieveConfig, bank: BankId, query_rows: &[u32]) -> CommandTrace {
    let mut trace = CommandTrace::new();
    let t = &config.timing;
    let mut now: TimePs = 0;
    for chunk in query_rows.chunks(QUERIES_PER_GROUP as usize) {
        // Batch replacement: open each Region-1 row once, stream one
        // 64-bit write per pattern group into its query columns.
        for _row in 0..config.region1_rows() {
            trace.push(now, bank, DramCommand::ActivatePrecharge);
            let mut col = now + t.t_rcd;
            for _group in 0..config.groups_per_subarray() {
                trace.push(col, bank, DramCommand::WriteBurst);
                col += t.t_ccd;
            }
            now = (col + t.t_rp).max(now + t.row_cycle());
        }
        // Matching: one activation per row per query, one row cycle apart.
        for &rows in chunk {
            for _ in 0..rows {
                trace.push(now, bank, DramCommand::ActivatePrecharge);
                now += t.row_cycle();
            }
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_dram::trace::TraceValidator;
    use sieve_dram::Geometry;

    fn config() -> SieveConfig {
        SieveConfig::type3(8).with_geometry(Geometry::scaled_medium())
    }

    fn synthetic_work(subarrays: usize, queries_each: usize) -> Vec<SubarrayWork> {
        (0..subarrays)
            .map(|i| SubarrayWork {
                bank: i % 4,
                query_rows: (0..queries_each)
                    .map(|q| 10 + ((i * 7 + q * 13) % 30) as u32)
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn batch_setup_ps_pins_the_shared_formula() {
        // The aggregate scheduler and this cross-check compute batch
        // setup from one expression, SieveConfig::batch_setup_ps; this
        // pins the formula itself across design points and geometries.
        for config in [
            SieveConfig::type1(),
            SieveConfig::type2(16),
            SieveConfig::type3(8),
            SieveConfig::type3(8).with_geometry(Geometry::scaled_medium()),
            SieveConfig::type3(1).with_k(21),
        ] {
            let expected = u64::from(config.region1_rows())
                * (config.timing.t_rcd
                    + u64::from(config.groups_per_subarray()) * config.timing.t_ccd
                    + config.timing.t_rp)
                    .max(config.timing.row_cycle());
            assert_eq!(config.batch_setup_ps(), expected);
        }
    }

    #[test]
    fn event_makespan_brackets_bounds() {
        let config = config();
        let work = synthetic_work(24, 100);
        let salp = 8;
        let makespan = event_driven_type3_makespan(&config, &work, salp);
        // Lower bound: total bank work / salp; upper: serial bank work.
        let row_cycle = config.timing.row_cycle();
        let setup = config.batch_setup_ps();
        for b in 0..4usize {
            let total: u64 = work
                .iter()
                .filter(|w| w.bank == b)
                .map(|w| {
                    w.query_rows.iter().map(|&r| u64::from(r)).sum::<u64>() * row_cycle
                        + w.query_rows.len().div_ceil(64) as u64 * setup
                })
                .sum();
            assert!(makespan >= total / salp as u64);
            assert!(makespan <= total);
        }
    }

    #[test]
    fn event_matches_aggregate_lpt_closely() {
        // The device's aggregate model assigns whole-subarray loads with
        // LPT; batch-granular event simulation must agree within a few
        // percent (it can only be tighter).
        let config = config();
        let work = synthetic_work(32, 128);
        let salp = 8usize;
        let event = event_driven_type3_makespan(&config, &work, salp);
        // The aggregate scheduler's per-bank LPT over whole-subarray loads.
        let row_cycle = config.timing.row_cycle();
        let setup = config.batch_setup_ps();
        let mut aggregate = 0u64;
        for b in 0..4usize {
            let loads: Vec<u64> = work
                .iter()
                .filter(|w| w.bank == b)
                .map(|w| {
                    w.query_rows.iter().map(|&r| u64::from(r)).sum::<u64>() * row_cycle
                        + w.query_rows.len().div_ceil(64) as u64 * setup
                })
                .collect();
            aggregate = aggregate.max(crate::lpt_makespan(loads, salp));
        }
        assert!(
            event <= aggregate,
            "event ({event}) must not exceed LPT ({aggregate})"
        );
        let ratio = aggregate as f64 / event as f64;
        assert!(
            ratio < 1.10,
            "aggregate model drifts {ratio:.3}x from event-driven ground truth"
        );
    }

    #[test]
    fn single_token_serializes() {
        let config = config();
        let work = vec![
            SubarrayWork {
                bank: 0,
                query_rows: vec![10; 10],
            },
            SubarrayWork {
                bank: 0,
                query_rows: vec![10; 10],
            },
        ];
        let one = event_driven_type3_makespan(&config, &work, 1);
        let two = event_driven_type3_makespan(&config, &work, 2);
        assert!((one as f64 / two as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn emitted_trace_is_jedec_legal() {
        let config = config();
        let bank = config.geometry.bank(0);
        let rows: Vec<u32> = (0..200).map(|i| 8 + (i % 50) as u32).collect();
        let trace = emit_subarray_trace(&config, bank, &rows);
        assert!(!trace.is_empty());
        let validator = TraceValidator::new(config.timing);
        let violations = validator.validate(&trace);
        assert!(
            violations.is_empty(),
            "the model's cadence must be timing-legal: {:?}",
            violations.first()
        );
    }

    #[test]
    fn trace_command_counts_match_model() {
        let config = config();
        let bank = config.geometry.bank(0);
        let rows = vec![5u32, 7, 9];
        let trace = emit_subarray_trace(&config, bank, &rows);
        let acts = trace
            .sorted()
            .iter()
            .filter(|e| matches!(e.command, DramCommand::ActivatePrecharge))
            .count();
        // 21 matching activations + one open per Region-1 row for setup.
        assert_eq!(acts, 21 + config.region1_rows() as usize);
        let writes = trace.len() - acts;
        assert_eq!(writes as u32, config.batch_replacement_writes());
    }
}
