//! Host-integration form factors (§IV-C): DIMM vs PCIe.
//!
//! The paper weighs two deployments: a DIMM (no packetization overhead,
//! but ~0.37 W/GB of power delivery and ~25 GB/s of channel bandwidth —
//! enough for Type-1 only) and a PCIe card (packet overheads, but scalable
//! power/bandwidth: Type-2 needs at least PCIe 3.0 ×8, Type-3 at least
//! PCIe 4.0 ×16).

use sieve_dram::TimePs;

use crate::config::{DeviceKind, SieveConfig};
use crate::error::SieveError;
use crate::obs;
use crate::pcie::{PcieConfig, MIN_BANDWIDTH_BYTES_PER_S};
use crate::trace;

/// How the Sieve device attaches to the host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transport {
    /// A DDR4 DIMM: memory-mapped, no packet protocol, but power-limited.
    Dimm {
        /// Power the DIMM slot can deliver, watts per GB of capacity
        /// (the paper quotes ~0.37 W/GB for a typical DDR4 DIMM).
        power_w_per_gb: f64,
        /// Channel bandwidth, bytes/s (~25 GB/s).
        bandwidth_bytes_per_s: u64,
    },
    /// A PCIe card with the packet protocol of §IV-C.
    Pcie(PcieConfig),
}

impl Transport {
    /// The typical DDR4 DIMM of §IV-C.
    #[must_use]
    pub fn dimm() -> Self {
        Self::Dimm {
            power_w_per_gb: 0.37,
            bandwidth_bytes_per_s: 25_000_000_000,
        }
    }

    /// PCIe 4.0 ×16 (Type-3's minimum).
    #[must_use]
    pub fn pcie_gen4_x16() -> Self {
        Self::Pcie(PcieConfig::gen4_x16())
    }

    /// Display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Dimm { .. } => "DIMM",
            Self::Pcie(_) => "PCIe",
        }
    }

    /// Power this transport can deliver to a device of `capacity_bytes`,
    /// watts. PCIe cards carry their own power (75 W slot + external).
    #[must_use]
    pub fn power_budget_w(&self, capacity_bytes: u64) -> f64 {
        match self {
            Self::Dimm { power_w_per_gb, .. } => {
                // Per-GB delivery for large modules, with the few-watt
                // floor any DDR4 slot provides.
                (power_w_per_gb * capacity_bytes as f64 / (1u64 << 30) as f64).max(4.0)
            }
            Self::Pcie(_) => 75.0,
        }
    }

    /// Checks that this transport can feed and power the given device
    /// configuration, per the paper's §IV-C analysis. `peak_power_w` is the
    /// device's estimated matching power draw.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] when the transport cannot
    /// sustain the design point (e.g. Type-2/3 on a DIMM), or for a DIMM
    /// slower than the transfer model can time.
    pub fn validate(&self, config: &SieveConfig, peak_power_w: f64) -> Result<(), SieveError> {
        if let Self::Dimm {
            bandwidth_bytes_per_s,
            ..
        } = *self
        {
            if bandwidth_bytes_per_s < MIN_BANDWIDTH_BYTES_PER_S {
                return Err(SieveError::InvalidConfig {
                    field: "transport",
                    reason: format!(
                        "DIMM bandwidth must be at least {MIN_BANDWIDTH_BYTES_PER_S} B/s, \
                         got {bandwidth_bytes_per_s}"
                    ),
                });
            }
        }
        let budget = self.power_budget_w(config.geometry.capacity_bytes());
        if peak_power_w > budget {
            return Err(SieveError::InvalidConfig {
                field: "transport",
                reason: format!(
                    "{} supplies {budget:.1} W but {} draws {peak_power_w:.1} W",
                    self.label(),
                    config.device.label()
                ),
            });
        }
        if let (Self::Dimm { .. }, DeviceKind::Type2 { .. } | DeviceKind::Type3 { .. }) =
            (self, config.device)
        {
            // Paper: DIMM power delivery is sufficient for Type-1; Type-2
            // needs at least PCIe 3.0 x8 and Type-3 at least PCIe 4.0 x16.
            return Err(SieveError::InvalidConfig {
                field: "transport",
                reason: format!(
                    "a DIMM cannot sustain {} (the paper requires PCIe for Type-2/3)",
                    config.device.label()
                ),
            });
        }
        Ok(())
    }

    /// Time to move `bytes` to the device over this transport, ps.
    #[must_use]
    pub fn transfer_ps(&self, bytes: u64) -> TimePs {
        let bw = match self {
            Self::Dimm {
                bandwidth_bytes_per_s,
                ..
            } => *bandwidth_bytes_per_s,
            Self::Pcie(link) => link.bandwidth_bytes_per_s,
        };
        let ps = bytes.saturating_mul(1_000_000) / (bw / 1_000_000);
        let rec = obs::global();
        rec.add(obs::CounterId::TransportBytes, bytes);
        rec.record(obs::HistId::TransportTransferPs, ps);
        let tr = trace::global();
        tr.emit_model("transport.transfer", 0, tr.model_ps(), ps, bytes, 0);
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SieveConfig;

    #[test]
    fn dimm_supports_type1() {
        let config = SieveConfig::type1();
        // Type-1's draw is modest: one bank streaming at a time.
        Transport::dimm().validate(&config, 5.0).unwrap();
    }

    #[test]
    fn dimm_rejects_type3() {
        let config = SieveConfig::type3(8);
        let err = Transport::dimm().validate(&config, 5.0).unwrap_err();
        assert!(err.to_string().contains("DIMM"));
    }

    #[test]
    fn dimm_rejects_overdraw() {
        let config = SieveConfig::type1();
        // 32 GB DIMM budget = 0.37 × 32 ≈ 11.8 W.
        let err = Transport::dimm().validate(&config, 20.0).unwrap_err();
        assert!(err.to_string().contains("supplies"));
    }

    #[test]
    fn pcie_supports_all_types() {
        for config in [
            SieveConfig::type1(),
            SieveConfig::type2(16),
            SieveConfig::type3(8),
        ] {
            Transport::pcie_gen4_x16().validate(&config, 40.0).unwrap();
        }
    }

    #[test]
    fn power_budget_scales_with_capacity_above_the_floor() {
        let b32 = Transport::dimm().power_budget_w(32 << 30);
        assert!((b32 - 11.84).abs() < 0.01);
        // Small modules get the slot floor.
        assert!((Transport::dimm().power_budget_w(1 << 30) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_ratio_matches_bandwidth() {
        let dimm = Transport::dimm().transfer_ps(1 << 30);
        let pcie = Transport::pcie_gen4_x16().transfer_ps(1 << 30);
        // DIMM (~25 GB/s) is faster than PCIe 4.0 x16 (~31.5 GB/s)? No —
        // PCIe 4 x16 is faster; check the ordering both ways.
        assert!(pcie < dimm);
    }
}
