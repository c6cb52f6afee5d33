//! Umbrella crate for the FLBooster workspace.
//!
//! This crate exists so that the repository root can host cross-crate
//! integration tests (in `tests/`) and runnable examples (in `examples/`).
//! The actual library surface lives in the member crates:
//!
//! - [`mpint`] — multi-precision integer arithmetic (limb representation,
//!   Montgomery/CIOS kernels, sliding-window exponentiation, prime
//!   generation).
//! - [`gpu_sim`] — the GPU execution-model simulator and resource manager.
//! - [`he`] — Paillier and RSA cryptosystems plus the GPU-HE batch layer.
//! - [`codec`] — encoding-quantization and batch compression.
//! - [`flbooster_core`] — the FLBooster platform layer: Table-I APIs, the
//!   theoretical-analysis module, and the platform error type.
//! - [`fl`] — the federated-learning substrate: datasets, models, trainers,
//!   the network simulator, and the FATE/HAFLO/FLBooster backends.

#![forbid(unsafe_code)]

pub use codec;
pub use fl;
pub use flbooster_core;
pub use gpu_sim;
pub use he;
pub use mpint;
