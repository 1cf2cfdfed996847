//! Bench-only access to the planner's sort pipeline.
//!
//! [`crate::radix`] is deliberately private — nothing outside the planner
//! should depend on its layout — but the `plan_sort` criterion group
//! needs to drive the exact production sort (scratch reuse, thread
//! fan-out) in isolation. This hidden module is that seam: a harness
//! owning the pipeline's buffers, refilled from a master copy each
//! iteration so every measurement sorts the same input with warm
//! capacities, exactly like a steady-state device run. Not a public API;
//! hidden from docs and exempt from stability.

use crate::prof;
use crate::radix;

/// Analytic traffic prediction for a sort of `keys` — [`crate::radix`]'s
/// planner decisions replayed over the raw key stream, returning the
/// `(phase, traffic)` charges the executed sort must report to
/// [`crate::prof`] (order: hist, scatter, flush, local). The
/// differential seam for `tests/prof_traffic.rs`.
#[must_use]
pub fn predict_traffic(keys: &[u64]) -> [(prof::Phase, prof::Traffic); 4] {
    radix::predict_traffic(keys)
}

/// Owns one sort's input and scratch buffers across bench iterations.
#[derive(Debug)]
pub struct SortHarness {
    master: Vec<radix::Pair>,
    pairs: Vec<radix::Pair>,
    scratch: Vec<radix::Pair>,
    sort: radix::SortScratch,
}

impl SortHarness {
    /// Builds a harness over `keys`, ids assigned in input order (the
    /// planner's contract).
    #[must_use]
    pub fn new(keys: &[u64]) -> Self {
        let master: Vec<radix::Pair> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| radix::Pair::new(k, u32::try_from(i).expect("bench batch fits u32")))
            .collect();
        Self {
            pairs: master.clone(),
            master,
            scratch: Vec::new(),
            sort: radix::SortScratch::default(),
        }
    }

    /// Refills the input from the master copy and sorts it with the
    /// given `threads` knob. Returns a fold of the sorted order (so the
    /// optimizer cannot discard the work; callers can also assert it
    /// against a reference sort).
    pub fn run(&mut self, threads: usize) -> u64 {
        self.pairs.clear();
        self.pairs.extend_from_slice(&self.master);
        radix::sort_pairs(
            &mut self.pairs,
            &mut self.scratch,
            &mut self.sort,
            threads,
            None,
        );
        self.pairs.iter().enumerate().fold(0u64, |acc, (i, p)| {
            acc.wrapping_mul(0x100_0000_01B3)
                .wrapping_add(p.key() ^ u64::from(p.id()) ^ i as u64)
        })
    }
}
