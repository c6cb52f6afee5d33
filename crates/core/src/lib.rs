//! The FLBooster platform layer (paper Sec. IV–V).
//!
//! This crate holds what the paper's Fig. 3 exposes *to developers*,
//! beside the substrates it is built from:
//!
//! - **GPU-HE** comes from [`he::ghe`] running on a [`gpu_sim::Device`].
//! - **Encoding-Quantization** and **Batch Compression** come from
//!   [`codec`].
//! - **API Interfaces** (paper Table I) are the vectorized
//!   multi-precision and cryptographic entry points in [`api`].
//! - The **theoretical analysis** of paper Sec. V-B (Eq. 10–14) is
//!   implemented in [`analysis`] and cross-checked against the simulator
//!   in the bench harness.
//!
//! The **pipelined processing** of paper Fig. 4 — data conversion →
//! encode/quantize/pack → GPU compute → unpack/decode — is
//! `fl::Accelerator` (one crate up, where the trainers that charge it
//! live); this crate also defines the [`Error`] type it reports.
//!
//! # Example
//!
//! ```
//! use flbooster_core::api::FlBoosterApi;
//! use mpint::Natural;
//! use rand::SeedableRng;
//!
//! let api = FlBoosterApi::new();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let keys = api.paillier_key_gen(&mut rng, 256).unwrap();
//!
//! // Two parties' plaintext vectors, summed under encryption.
//! let a = [Natural::from(20u64), Natural::from(7u64)];
//! let b = [Natural::from(22u64), Natural::from(35u64)];
//! let ca = api.paillier_encrypt(&keys.public, &a, 1).unwrap();
//! let cb = api.paillier_encrypt(&keys.public, &b, 2).unwrap();
//! let sum = api.paillier_add(&keys.public, &ca, &cb).unwrap();
//! let back = api.paillier_decrypt(&keys.private, &sum).unwrap();
//! assert_eq!(back, [Natural::from(42u64), Natural::from(42u64)]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod api;
mod error;

pub use error::{Error, Result};
