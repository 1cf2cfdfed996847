//! Per-component energy/latency constants (Table III) and the component
//! energies the device models charge from them.
//!
//! The paper extracts these from FreePDK45 + OpenRAM synthesis scaled to
//! 22 nm; we adopt the published values as model constants (the substitution
//! DESIGN.md documents). Type-2/3 do not charge the matcher array or ETM
//! rows of the table: they pay the paper's aggregate overhead of the
//! Type-2/3 additions, ~6 % of a row activation (§VI-A), as
//! `MATCHER_OVERHEAD_PCT` of `e_act` on each Region-1 matching
//! activation. From the table they charge `FINDER_FJ` per hit; Type-1
//! charges `T1_BATCH_FJ` per 64-bit batch comparison.

/// One row of Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentSpec {
    /// Component name as printed in Table III.
    pub name: &'static str,
    /// Dynamic energy per operation, picojoules.
    pub dynamic_pj: f64,
    /// Static power, microwatts.
    pub static_uw: f64,
    /// Operation latency, nanoseconds.
    pub latency_ns: f64,
}

/// The seven components of Table III, in table order.
pub const TABLE3: [ComponentSpec; 7] = [
    ComponentSpec {
        name: "(T1) 64-bit MA",
        dynamic_pj: 0.867,
        static_uw: 1.4592,
        latency_ns: 0.353,
    },
    ComponentSpec {
        name: "(T1) QR, SkBR, StBR",
        dynamic_pj: 1.92,
        static_uw: 5.28,
        latency_ns: 0.154,
    },
    ComponentSpec {
        name: "(T1) SRAM Buffer",
        dynamic_pj: 5.12,
        static_uw: 4.445,
        latency_ns: 0.177,
    },
    ComponentSpec {
        name: "(T2/3) 8192-bit MA",
        dynamic_pj: 181.683,
        static_uw: 0.289,
        latency_ns: 0.535,
    },
    ComponentSpec {
        name: "(T2/3) ETM Segment",
        dynamic_pj: 73.5,
        static_uw: 56.185,
        latency_ns: 43.653,
    },
    ComponentSpec {
        name: "(T2/3) Segment Finder",
        dynamic_pj: 2.44,
        static_uw: 0.294,
        latency_ns: 0.362,
    },
    ComponentSpec {
        name: "(T2/3) Column Finder",
        dynamic_pj: 20.69,
        static_uw: 28.16,
        latency_ns: 0.152,
    },
];

/// Looks up a Table III row by name.
#[must_use]
pub fn component(name: &str) -> Option<&'static ComponentSpec> {
    TABLE3.iter().find(|c| c.name == name)
}

/// Segment finder + column finder energy per Type-2/3 hit, fJ.
pub(crate) const FINDER_FJ: u64 = ((TABLE3[5].dynamic_pj + TABLE3[6].dynamic_pj) * 1_000.0) as u64;

/// Matcher array + registers + SRAM buffer energy per Type-1 64-bit batch
/// comparison, fJ.
pub(crate) const T1_BATCH_FJ: u64 =
    ((TABLE3[0].dynamic_pj + TABLE3[1].dynamic_pj + TABLE3[2].dynamic_pj) * 1_000.0) as u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper_values() {
        let ma = component("(T2/3) 8192-bit MA").unwrap();
        assert!((ma.dynamic_pj - 181.683).abs() < 1e-9);
        let etm = component("(T2/3) ETM Segment").unwrap();
        assert!((etm.latency_ns - 43.653).abs() < 1e-9);
        assert_eq!(TABLE3.len(), 7);
    }

    #[test]
    fn etm_segment_fits_in_a_row_cycle() {
        // §VI-A: each 256-OR ETM segment completes within one DRAM row
        // cycle (~50 ns).
        let etm = component("(T2/3) ETM Segment").unwrap();
        assert!(etm.latency_ns < 50.0);
    }

    #[test]
    fn finders_fit_well_within_a_dram_clock() {
        for name in ["(T2/3) Segment Finder", "(T2/3) Column Finder"] {
            let c = component(name).unwrap();
            assert!(c.latency_ns < 0.625, "{name} exceeds one DRAM cycle");
        }
    }

    #[test]
    fn charged_energies_derive_from_table() {
        assert_eq!((FINDER_FJ, T1_BATCH_FJ), (23_130, 7_907));
    }

    #[test]
    fn unknown_component_is_none() {
        assert!(component("(T9) Flux Capacitor").is_none());
    }
}
