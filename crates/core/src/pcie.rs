//! PCIe link model for host ↔ Sieve communication (§IV-C).
//!
//! Type-2/3 devices use a packet-based protocol: the host packs 12-byte
//! k-mer requests into 4 KB PCIe packets (340 requests per packet) and keeps
//! up to `queue_depth` packets in flight. The model exposes, for each
//! request index, the earliest time it can be dispatched inside the device —
//! the device simulators use that as a scheduling constraint, so PCIe
//! overhead emerges as idle time rather than as a fixed tax.

use sieve_dram::TimePs;

use crate::error::SieveError;

/// Bytes of a packet's header, ahead of its requests.
const PACKET_HEADER_BYTES: u32 = 16;

/// The slowest link the wire-time formulas accept, bytes per second:
/// they divide by whole megabytes per second.
pub(crate) const MIN_BANDWIDTH_BYTES_PER_S: u64 = 1_000_000;

/// PCIe link configuration.
///
/// # Example
///
/// ```
/// use sieve_core::PcieConfig;
///
/// let link = PcieConfig::gen4_x16();
/// // 340 requests fit in one 4 KB packet.
/// assert_eq!(link.requests_per_packet(), 340);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcieConfig {
    /// Usable link bandwidth, bytes per second.
    pub bandwidth_bytes_per_s: u64,
    /// One-way packet latency, ps.
    pub base_latency_ps: TimePs,
    /// Packet payload size, bytes (4 KB in the paper).
    pub packet_payload_bytes: u32,
    /// Bytes per k-mer request (12 in the paper: pattern, sequence id,
    /// destination subarray id, header).
    pub request_bytes: u32,
    /// Packets the input queue holds (24 for the 32 GB device).
    pub queue_depth: u32,
    /// Un-overlapped per-batch dispatch cost, ps: packet formation on the
    /// host, driver/DMA invocation, unpacking and distribution to the
    /// destination bank, and interrupt handling for responses. Charged once
    /// per 64-query batch delivered to a subarray; this is the dominant
    /// term behind the paper's measured 4.6–6.7 % PCIe overhead.
    pub dispatch_latency_ps: TimePs,
}

impl PcieConfig {
    /// PCIe 4.0 ×16: ~31.5 GB/s usable, ~600 ns packet latency.
    /// The paper requires at least this for Type-3.
    #[must_use]
    pub fn gen4_x16() -> Self {
        Self {
            bandwidth_bytes_per_s: 31_500_000_000,
            base_latency_ps: 600_000,
            packet_payload_bytes: 4096,
            request_bytes: 12,
            queue_depth: 24,
            dispatch_latency_ps: 3_000_000,
        }
    }

    /// Requests per packet: a 16-byte packet header leaves
    /// (4096 − 16) / 12 = 340 requests, the paper's figure.
    #[must_use]
    pub fn requests_per_packet(&self) -> u32 {
        (self.packet_payload_bytes - PACKET_HEADER_BYTES) / self.request_bytes
    }

    /// Checks that the link model can time this link: at least 1 MB/s of
    /// bandwidth, and a packet with room for one non-empty request after
    /// its 16-byte header.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] on field `pcie` otherwise.
    pub fn validate(&self) -> Result<(), SieveError> {
        let requests = self
            .packet_payload_bytes
            .checked_sub(PACKET_HEADER_BYTES)
            .and_then(|room| room.checked_div(self.request_bytes));
        let reason = if self.bandwidth_bytes_per_s < MIN_BANDWIDTH_BYTES_PER_S {
            format!(
                "bandwidth must be at least {MIN_BANDWIDTH_BYTES_PER_S} B/s, got {}",
                self.bandwidth_bytes_per_s
            )
        } else if requests.unwrap_or(0) == 0 {
            format!(
                "a packet must hold its {PACKET_HEADER_BYTES}-byte header and one non-empty \
                 request, got {}-byte packets of {}-byte requests",
                self.packet_payload_bytes, self.request_bytes
            )
        } else {
            return Ok(());
        };
        Err(SieveError::InvalidConfig {
            field: "pcie",
            reason,
        })
    }

    /// Total un-overlapped latency a 64-query batch pays on the PCIe path:
    /// link latency + one packet's wire time + the dispatch cost.
    #[must_use]
    pub fn batch_overhead_ps(&self) -> TimePs {
        self.base_latency_ps + self.packet_wire_time_ps() + self.dispatch_latency_ps
    }

    /// Wire time of one packet, ps.
    #[must_use]
    pub fn packet_wire_time_ps(&self) -> TimePs {
        // payload + ~5 % TLP/DLLP framing overhead.
        let bytes = u64::from(self.packet_payload_bytes) * 105 / 100;
        bytes * 1_000_000 / (self.bandwidth_bytes_per_s / 1_000_000)
    }

    /// Earliest time request `index` is available inside the device, ps.
    ///
    /// Packets stream back-to-back at wire rate; every request in a packet
    /// becomes available when its packet fully arrives. The first
    /// `queue_depth` packets can be pre-buffered during pipeline fill, so
    /// their arrival is pipelined with transfer.
    #[must_use]
    pub fn request_ready_ps(&self, index: u64) -> TimePs {
        let packet = index / u64::from(self.requests_per_packet());
        self.base_latency_ps + (packet + 1) * self.packet_wire_time_ps()
    }

    /// Total wire time to return `responses` results of `response_bytes`
    /// each, ps — used to extend the makespan when responses dominate.
    #[must_use]
    pub fn response_drain_ps(&self, responses: u64, response_bytes: u32) -> TimePs {
        let bytes = responses * u64::from(response_bytes) * 105 / 100;
        bytes * 1_000_000 / (self.bandwidth_bytes_per_s / 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_packet_holds_340_requests() {
        assert_eq!(PcieConfig::gen4_x16().requests_per_packet(), 340);
    }

    #[test]
    fn wire_time_is_plausible() {
        // 4 KB + framing at 31.5 GB/s ≈ 137 ns.
        let t = PcieConfig::gen4_x16().packet_wire_time_ps();
        assert!(t > 120_000 && t < 160_000, "got {t} ps");
    }

    #[test]
    fn ready_times_are_monotonic_in_packets() {
        let link = PcieConfig::gen4_x16();
        let per = u64::from(link.requests_per_packet());
        // Same packet → same ready time.
        assert_eq!(link.request_ready_ps(0), link.request_ready_ps(per - 1));
        // Next packet → strictly later.
        assert!(link.request_ready_ps(per) > link.request_ready_ps(per - 1));
    }

    #[test]
    fn response_drain_scales_linearly() {
        let link = PcieConfig::gen4_x16();
        let one = link.response_drain_ps(1_000, 12);
        assert_eq!(link.response_drain_ps(2_000, 12), 2 * one);
    }
}
