//! A software GPU execution model for the FLBooster reproduction.
//!
//! The paper accelerates homomorphic encryption by running CIOS Montgomery
//! kernels on an NVIDIA RTX 3090 and attributes much of the win to a
//! *resource manager* that balances threads, registers, memory, and branch
//! divergence across stream multiprocessors (Sec. III-C, IV-A2). No GPU is
//! available in this environment, so this crate substitutes a faithful
//! *execution-model simulator*:
//!
//! - [`DeviceConfig`] describes a device (SM count, threads/registers
//!   per SM, warp size, PCIe bandwidth), with an
//!   [`DeviceConfig::rtx3090`] preset matching the paper's testbed.
//! - [`Device`] executes *kernels* — data-parallel closures over a grid —
//!   on a CPU thread pool, while accounting occupancy, SM utilization,
//!   branch divergence, register pressure, and host↔device transfer bytes
//!   exactly as the real launch would.
//! - [`resource::ResourceManager`] implements the paper's manager: a table
//!   of known-good block sizes, per-task register budgeting, and branch
//!   combining. The manager's marked memory table (Sec. IV-A2) is not
//!   modeled: no launch keeps data on the device between calls, and
//!   transfers are charged by the bytes each launch moves in and out.
//!
//! What this preserves from the paper: the *relative* behaviour that the
//! evaluation measures — GPU-parallel HE beating CPU HE by orders of
//! magnitude, SM utilization falling as key size (and thus register
//! pressure) grows (paper Fig. 6), and the resource manager improving
//! occupancy. Absolute throughput is bounded by the host CPU.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod device;
pub mod kernel;
pub mod resource;
pub mod stats;

pub use config::DeviceConfig;
pub use device::Device;
pub use kernel::{ItemOutcome, KernelSpec, Launch, LaunchReport};
pub use stats::{DeviceStats, UtilizationSample};
