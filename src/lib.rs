//! # sieve — facade crate
//!
//! One-stop import for the Sieve reproduction workspace (ISCA 2021):
//!
//! * [`dram`] — the DRAM substrate (geometry, timing, energy, traces);
//! * [`genomics`] — sequences, k-mers, databases, synthetic datasets;
//! * [`core`] — the Sieve accelerator (devices, host pipeline, deployment);
//! * [`baselines`] — CPU/GPU/row-major-PIM comparison platforms.
//!
//! ```
//! use sieve::core::{SieveConfig, SieveDevice};
//! use sieve::dram::Geometry;
//! use sieve::genomics::synth;
//!
//! let ds = synth::make_dataset_with(4, 1024, 31, 1);
//! let device = SieveDevice::new(
//!     SieveConfig::type3(8).with_geometry(Geometry::scaled_medium()),
//!     ds.entries.clone(),
//! )?;
//! let out = device.run(&[ds.entries[0].0])?;
//! assert_eq!(out.results, vec![Some(ds.entries[0].1)]);
//! # Ok::<(), sieve::core::SieveError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use sieve_baselines as baselines;
pub use sieve_core as core;
pub use sieve_dram as dram;
pub use sieve_genomics as genomics;
