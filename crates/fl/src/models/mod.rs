//! The four benchmark FL models of the paper's evaluation (Sec. VI-A):
//! Homo LR, Hetero LR, Hetero SBT, and Hetero NN.
//!
//! Each model implements [`crate::train::FlModel`]: its `run_epoch`
//! executes the federated protocol *with the real encrypted exchanges* —
//! every value that crosses a party boundary passes through
//! quantize → encrypt → (aggregate) → decrypt on the backend under test,
//! so loss trajectories carry the true quantization effects (paper Table
//! VII) and every simulated second is attributed to HE / communication /
//! other (paper Fig. 1, Table VI).

use crate::engine::run_round;
use crate::metrics::EpochBreakdown;
use crate::train::{FlEnv, TrainConfig};
use crate::Result;

mod hetero_lr;
mod hetero_nn;
mod hetero_sbt;
mod homo_lr;

pub use hetero_lr::HeteroLr;
pub use hetero_nn::{HeteroNn, HIDDEN};
pub use hetero_sbt::HeteroSbt;
pub use homo_lr::HomoLr;

/// Scores exchanged between parties are pre-scaled into the quantizer's
/// `[-α, α]` range and re-scaled after decryption; 8 covers the logit
/// ranges seen in training while keeping quantization resolution.
pub(crate) const SCORE_SCALE: f64 = 8.0;

/// Scales values into the quantizer range.
pub(crate) fn scale_down(values: &[f64]) -> Vec<f64> {
    values.iter().map(|v| v / SCORE_SCALE).collect()
}

/// Inverse of [`scale_down`], applied after decryption.
pub(crate) fn scale_up(values: &[f64]) -> Vec<f64> {
    values.iter().map(|v| v * SCORE_SCALE).collect()
}

/// The vertical models' secure-aggregation round: element-wise sum of
/// every party's partial scores, so the active party learns only the
/// total. The caller charges its own local compute (an integer per-party
/// flop share), so the engine is handed zero flops.
pub(crate) fn sum_scores(
    env: &FlEnv,
    cfg: &TrainConfig,
    parts: &[Vec<f64>],
    seed: u64,
    breakdown: &mut EpochBreakdown,
) -> Result<Vec<f64>> {
    let scaled: Vec<Vec<f64>> = parts.iter().map(|p| scale_down(p)).collect();
    let flops = vec![0; parts.len()];
    let out = run_round(env, &cfg.engine, cfg, &scaled, &flops, seed, breakdown)?;
    Ok(scale_up(&out.sums))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_roundtrip() {
        let v = vec![-3.5, 0.0, 7.9];
        let rt = scale_up(&scale_down(&v));
        for (a, b) in v.iter().zip(&rt) {
            assert!((a - b).abs() < 1e-12);
        }
        // Scaled values fit the unit quantizer for |v| <= SCORE_SCALE.
        for s in scale_down(&v) {
            assert!(s.abs() <= 1.0);
        }
    }
}
