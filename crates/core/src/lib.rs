//! # sieve-core
//!
//! A from-scratch model of **Sieve** — the scalable in-situ DRAM-based
//! accelerator for massively parallel k-mer matching (ISCA 2021) — covering
//! all three published design points plus the mechanisms that make them go:
//!
//! * `layout` ([`DeviceLayout`]) — the column-major data layout: sorted reference k-mers
//!   transposed onto bitlines in 576-column pattern groups (512 references,
//!   64 query slots), with payload offsets and payloads co-located in the
//!   same subarray (Figure 7(e)); it routes each query to its subarray by
//!   the query's rank among all the keys, the pick of the paper's k-mer →
//!   subarray index table (§IV-D);
//! * [`engine`] / [`bitsim`] — two functionally identical matching engines:
//!   a fast sorted-LCP engine used by the simulators, and a bit-accurate
//!   latch-level engine used as ground truth (their equivalence is
//!   property-tested);
//! * [`etm`] — the Early Termination Mechanism row-count model (segmented
//!   OR pipeline, flush cycles, hit identification);
//! * `pcie` ([`PcieConfig`]) — the packet-based host link (§IV-C);
//! * [`SieveDevice`] — Type-1 (bank-I/O matcher array, batch-granular ETM),
//!   Type-2 (compute buffers + LISA-style row relay), and Type-3 (per-row-
//!   buffer matchers + subarray-level parallelism), each with cycle/energy
//!   accounting on the `sieve-dram` substrate;
//! * [`HostPipeline`] — end-to-end read classification through the device;
//! * [`energy_model`] / [`area`] — Table III component constants and the
//!   §VI-A area-overhead model.
//!
//! ## Quickstart
//!
//! ```
//! use sieve_core::{SieveConfig, SieveDevice};
//! use sieve_dram::Geometry;
//! use sieve_genomics::synth;
//!
//! // Build a reference set and load it into a Type-3 device.
//! let ds = synth::make_dataset_with(4, 2048, 31, 42);
//! let config = SieveConfig::type3(8).with_geometry(Geometry::scaled_medium());
//! let device = SieveDevice::new(config, ds.entries.clone())?;
//!
//! // Look up some query k-mers.
//! let queries: Vec<_> = ds.entries.iter().take(64).map(|(k, _)| *k).collect();
//! let out = device.run(&queries)?;
//! println!(
//!     "64 hits in {} ns using {} row activations",
//!     out.report.makespan_ps / 1000,
//!     out.report.row_activations,
//! );
//! # Ok::<(), sieve_core::SieveError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod api;
pub mod area;
pub mod bitsim;
mod config;
mod device;
pub mod energy_model;
pub mod engine;
mod error;
pub mod etm;
mod host;
mod layout;
pub mod load;
pub mod obs;
mod par;
mod pcie;
pub mod prof;
mod sched;
mod stats;
pub mod thermal;
pub mod trace;
mod transport;
pub mod xcheck;

pub use api::SieveApi;
pub use config::{DeviceKind, SieveConfig};
pub use device::{RunOutput, SieveDevice};
pub use error::SieveError;
pub use host::{vote_reads, HostPipeline, PipelineOutput, ReadResult};
pub use layout::{DeviceLayout, GroupShape, SubarrayView, ENTRY_BYTES};
pub use pcie::PcieConfig;
pub use stats::SimReport;
pub use transport::Transport;
