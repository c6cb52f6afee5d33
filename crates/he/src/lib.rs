//! Homomorphic encryption for the FLBooster reproduction.
//!
//! The paper's privacy layer is additive Paillier (Sec. III-B) with RSA
//! offered alongside it in the API surface (Table I). This crate
//! implements both from scratch on top of [`mpint`], plus the **GPU-HE**
//! layer (Sec. IV-A): batched encryption / decryption / homomorphic
//! computation dispatched through the [`gpu_sim`] device so that
//! throughput, SM utilization, and transfer volumes are accounted under
//! the paper's execution model.
//!
//! # Example
//!
//! ```
//! use he::paillier::PaillierKeyPair;
//! use mpint::Natural;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let keys = PaillierKeyPair::generate(&mut rng, 256).unwrap();
//! let c1 = keys.public.encrypt(&Natural::from(20u64), &mut rng).unwrap();
//! let c2 = keys.public.encrypt(&Natural::from(22u64), &mut rng).unwrap();
//! let sum = keys.public.add(&c1, &c2);
//! assert_eq!(keys.private.decrypt(&sum).unwrap(), Natural::from(42u64));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod ghe;
pub mod paillier;
mod prime;
pub mod rsa;

pub use error::{Error, Result};
pub use ghe::{CpuHe, GpuHe, HeBackend};
