//! The federated-learning substrate for the FLBooster reproduction.
//!
//! The paper evaluates FLBooster by plugging it into FATE and training
//! four standard FL models on three datasets (Sec. VI). This crate
//! provides everything that evaluation needs, from scratch:
//!
//! - [`data`]: deterministic dataset generators with the statistical
//!   profiles of RCV1 / Avazu / LEAF-Synthetic, plus horizontal and
//!   vertical partitioners.
//! - [`models`]: the four benchmark models — Homo LR, Hetero LR, Hetero
//!   SBT (SecureBoost), and Hetero NN (split network) — implemented as
//!   federated training protocols over encrypted exchanges.
//! - [`optim`]: Adam with L2 regularization (paper Sec. VI-B
//!   parameter settings).
//! - [`net`]: a byte- and message-accurate network simulator
//!   (Gigabit-Ethernet profile, per-ciphertext serialization overheads,
//!   optional packet loss with retry).
//! - [`backend`]: the acceleration systems under test — **FATE** (CPU HE,
//!   no compression), **HAFLO** (GPU HE, no compression), **FLBooster**
//!   (GPU HE + batch compression), and the two ablations `w/o GHE` and
//!   `w/o BC` of the paper's Table V.
//! - [`train`]: the epoch loop with the HE / communication / other time
//!   attribution of the paper's Fig. 1 and Table VI.
//! - [`metrics`]: convergence bias (paper Eq. 15), throughput, and epoch
//!   summaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod data;
pub mod engine;
mod error;
pub mod metrics;
pub mod models;
pub mod net;
pub mod optim;
pub mod topology;
pub mod train;

pub use backend::{Accelerator, BackendKind};
pub use engine::{EngineConfig, RoundOutcome};
pub use error::{Error, Result};
pub use metrics::{EpochBreakdown, TrainReport};
pub use net::{Network, NetworkConfig};
pub use topology::AggregationTopology;

/// Saturating `usize -> u32` for participant/sample/feature counts on
/// the codec and accounting paths. A plain `as u32` silently wraps past
/// 2^32, which would undersize guard bits and mis-scale dequantized
/// sums with no error; saturating instead makes the downstream capacity
/// checks (`check_terms`, quantizer sizing) fail loudly.
pub(crate) fn count_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod count_tests {
    use super::count_u32;

    #[test]
    fn count_u32_is_exact_below_and_saturates_above() {
        assert_eq!(count_u32(0), 0);
        assert_eq!(count_u32(7), 7);
        assert_eq!(count_u32(u32::MAX as usize), u32::MAX);
        // Past 2^32 a wrapping cast would fold back to small values
        // (e.g. 2^32 + 5 -> 5) and silently corrupt term counts;
        // saturation pins them at the ceiling instead.
        assert_eq!(count_u32(u32::MAX as usize + 1), u32::MAX);
        assert_eq!(count_u32(usize::MAX), u32::MAX);
    }
}
