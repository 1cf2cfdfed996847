//! First-order thermal model (§IV's deployment discussion).
//!
//! DRAM must stay below 85 °C to keep the standard refresh interval
//! (beyond that, tREFI halves and our refresh-overhead model doubles).
//! A steady-state estimate — ambient + power × thermal resistance —
//! suffices to check whether a Sieve deployment needs airflow beyond a
//! standard DIMM/PCIe environment.

/// Steady-state thermal estimate for a deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Ambient (inlet) temperature, °C.
    pub ambient_c: f64,
    /// Junction-to-ambient thermal resistance, °C/W (≈ 2.5 for a bare
    /// DIMM in chassis airflow, ≈ 0.5 for a PCIe card with a heatsink
    /// and fan).
    pub theta_ca: f64,
    /// Temperature above which DDR4 requires 2× refresh, °C.
    pub derate_c: f64,
    /// Maximum operating temperature, °C.
    pub max_c: f64,
}

impl ThermalModel {
    /// A bare DIMM in server airflow.
    #[must_use]
    pub fn dimm() -> Self {
        Self {
            ambient_c: 35.0,
            theta_ca: 2.5,
            derate_c: 85.0,
            max_c: 95.0,
        }
    }

    /// A PCIe accelerator card with active cooling.
    #[must_use]
    pub fn pcie_card() -> Self {
        Self {
            ambient_c: 35.0,
            theta_ca: 0.5,
            derate_c: 85.0,
            max_c: 95.0,
        }
    }

    /// Steady-state device temperature at `power_w`, °C.
    #[must_use]
    pub fn temperature_c(&self, power_w: f64) -> f64 {
        self.ambient_c + self.theta_ca * power_w
    }

    /// The thermal verdict at `power_w`.
    #[must_use]
    pub fn assess(&self, power_w: f64) -> ThermalVerdict {
        let t = self.temperature_c(power_w);
        if t > self.max_c {
            ThermalVerdict::OverLimit
        } else if t > self.derate_c {
            ThermalVerdict::RefreshDerated
        } else {
            ThermalVerdict::Nominal
        }
    }
}

/// Thermal assessment outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThermalVerdict {
    /// Below the refresh-derate point.
    Nominal,
    /// Operable, but refresh must double (tREFI halves).
    RefreshDerated,
    /// Exceeds the operating limit; needs better cooling or throttling.
    OverLimit,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimm_budget_is_about_20w() {
        // (85 − 35) °C / 2.5 °C/W = 20 W stays nominal; just above derates.
        let m = ThermalModel::dimm();
        assert_eq!(m.assess(19.9), ThermalVerdict::Nominal);
        assert_eq!(m.assess(20.1), ThermalVerdict::RefreshDerated);
    }

    #[test]
    fn pcie_card_sustains_much_more() {
        // (85 − 35) °C / 0.5 °C/W = 100 W, above the card's 75 W slot.
        let m = ThermalModel::pcie_card();
        assert_eq!(m.assess(75.0), ThermalVerdict::Nominal);
        assert_eq!(m.assess(99.9), ThermalVerdict::Nominal);
        assert_eq!(m.assess(100.1), ThermalVerdict::RefreshDerated);
    }

    #[test]
    fn verdict_ladder() {
        let m = ThermalModel::dimm();
        assert_eq!(m.assess(1.0), ThermalVerdict::Nominal);
        assert_eq!(m.assess(21.0), ThermalVerdict::RefreshDerated);
        assert_eq!(m.assess(30.0), ThermalVerdict::OverLimit);
    }

    #[test]
    fn temperature_is_linear_in_power() {
        let m = ThermalModel::pcie_card();
        let t10 = m.temperature_c(10.0);
        let t20 = m.temperature_c(20.0);
        assert!((t20 - t10 - 0.5 * 10.0).abs() < 1e-12);
    }
}
