//! Heterogeneous (vertical) logistic regression (Hardy et al., the
//! paper's "Hetero LR").
//!
//! Participants hold disjoint feature ranges of the same instances; only
//! the active party (shard 0) holds labels. Per mini-batch:
//!
//! 1. every party computes its partial scores `u_k = X_k·w_k` locally;
//! 2. the partial scores are *securely summed* (encrypt → aggregate →
//!    decrypt) so the active party learns only `u = Σ u_k`;
//! 3. the active party *encrypts* the residual `d = σ(u) − y` *once* and
//!    [broadcasts](FlEnv::encrypted_broadcast) it to the passive parties;
//! 4. each party computes its local gradient `X_kᵀ d / |B|` and uploads it
//!    encrypted to the coordinator for the masked model update.
//!
//! Every cross-party value passes through the backend's quantize/encrypt
//! round trip, so the trained model carries the real quantization error.

#![expect(
    clippy::indexing_slicing,
    reason = "batch/shard/feature indices are bounded by the shapes fixed at \
              vertical-split time (shards share instance count; weight vectors are \
              sized to each shard's feature range)"
)]

use crate::data::{vertical_split, Dataset, VerticalShard};
use crate::metrics::{EpochBreakdown, EpochResult};
use crate::models::sum_scores;
use crate::optim::Adam;
use crate::train::{logloss, sigmoid, FlEnv, FlModel, TrainConfig};
use crate::{Error, Result};

/// Vertically-federated logistic regression.
pub struct HeteroLr {
    dataset_name: String,
    shards: Vec<VerticalShard>,
    labels: Vec<f64>,
    weights: Vec<Vec<f64>>,
    opts: Vec<Adam>,
    loss: f64,
}

impl HeteroLr {
    /// Splits `dataset` vertically across `participants` parties.
    pub fn new(dataset: &Dataset, participants: u32, cfg: &TrainConfig) -> Result<Self> {
        let shards = vertical_split(dataset, participants);
        let labels = shards[0]
            .labels
            .clone()
            .ok_or_else(|| Error::BadConfig("active party must hold labels".into()))?;
        let weights: Vec<Vec<f64>> = shards.iter().map(|s| vec![0.0; s.num_features()]).collect();
        let opts = shards
            .iter()
            .map(|_| {
                let mut o = Adam::new(cfg.learning_rate);
                o.l2 = cfg.l2;
                o
            })
            .collect();
        let mut model = HeteroLr {
            dataset_name: dataset.name.clone(),
            shards,
            labels,
            weights,
            opts,
            loss: f64::NAN,
        };
        model.loss = model.global_loss();
        Ok(model)
    }

    /// Per-shard weights (for tests).
    pub fn weights(&self) -> &[Vec<f64>] {
        &self.weights
    }

    fn partial_scores(&self, shard: usize, range: &std::ops::Range<usize>) -> (Vec<f64>, u64) {
        let s = &self.shards[shard];
        let mut out = Vec::with_capacity(range.len());
        let mut flops = 0u64;
        for i in range.clone() {
            out.push(s.rows[i].dot(&self.weights[shard]));
            flops += 2 * s.rows[i].nnz() as u64;
        }
        (out, flops)
    }

    fn global_loss(&self) -> f64 {
        let n = self.labels.len();
        let mut preds = Vec::with_capacity(n);
        for i in 0..n {
            let u: f64 = (0..self.shards.len())
                .map(|k| self.shards[k].rows[i].dot(&self.weights[k]))
                .sum();
            preds.push(sigmoid(u));
        }
        logloss(&preds, &self.labels)
    }
}

impl FlModel for HeteroLr {
    fn name(&self) -> &'static str {
        "Hetero LR"
    }

    fn dataset_name(&self) -> &str {
        &self.dataset_name
    }

    fn loss(&self) -> f64 {
        self.loss
    }

    fn run_epoch(&mut self, env: &FlEnv, cfg: &TrainConfig, epoch: usize) -> Result<EpochResult> {
        let mut breakdown = EpochBreakdown::default();
        let n = self.labels.len();
        let p = self.shards.len();
        let batches: Vec<std::ops::Range<usize>> = (0..n.div_ceil(cfg.batch_size.max(1)))
            .map(|b| (b * cfg.batch_size)..(((b + 1) * cfg.batch_size).min(n)))
            .collect();

        for (round, range) in batches.iter().enumerate() {
            let seed = cfg.seed ^ ((epoch as u64) << 24) ^ ((round as u64) << 8);

            // (1)+(2) partial scores, securely summed.
            let mut score_parts = Vec::with_capacity(p);
            let mut flops = 0u64;
            for k in 0..p {
                let (u_k, f) = self.partial_scores(k, range);
                score_parts.push(u_k);
                flops += f;
            }
            env.charge_local_compute(flops / p as u64, cfg, &mut breakdown);
            let u = sum_scores(env, cfg, &score_parts, seed, &mut breakdown)?;

            // (3) residuals, encrypted once and broadcast to the passive parties.
            let d: Vec<f64> = range
                .clone()
                .zip(&u)
                .map(|(i, &ui)| sigmoid(ui) - self.labels[i])
                .collect();
            let d_rt = env.encrypted_broadcast(&d, p - 1, seed ^ (1 << 16), &mut breakdown)?;

            // (4) local gradients, encrypted upload to the coordinator.
            let count = range.len().max(1) as f64;
            for k in 0..p {
                // The active party uses its exact residual; passive parties
                // use the round-tripped copy they received.
                let dk = if k == 0 { &d } else { &d_rt };
                let s = &self.shards[k];
                let mut grad = vec![0.0; self.weights[k].len()];
                let mut flops = 0u64;
                for (j, i) in range.clone().enumerate() {
                    s.rows[i].axpy_into(dk[j] / count, &mut grad);
                    flops += 2 * s.rows[i].nnz() as u64;
                }
                env.charge_local_compute(flops / p as u64, cfg, &mut breakdown);
                let grad_rt =
                    env.encrypted_exchange(&grad, seed ^ ((k as u64) << 40), &mut breakdown)?;
                self.opts[k].step(&mut self.weights[k], &grad_rt);
            }
        }

        self.loss = self.global_loss();
        Ok(EpochResult {
            breakdown,
            loss: self.loss,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Accelerator, BackendKind};
    use crate::data::generators::DatasetSpec;
    use he::paillier::PaillierKeyPair;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn env(kind: BackendKind) -> FlEnv {
        let mut rng = ChaCha8Rng::seed_from_u64(0x2207);
        let keys = PaillierKeyPair::generate(&mut rng, 128).unwrap();
        FlEnv::new(Accelerator::new(kind, keys, 4).unwrap(), 2)
    }

    fn small_dataset() -> Dataset {
        let mut spec = DatasetSpec::synthetic();
        spec.features = 24;
        spec.nnz_per_row = 24;
        spec.instances = 300;
        spec.generate(1.0)
    }

    #[test]
    fn loss_decreases() {
        let data = small_dataset();
        let cfg = TrainConfig {
            batch_size: 64,
            ..TrainConfig::default()
        };
        let env = env(BackendKind::FlBooster);
        let mut model = HeteroLr::new(&data, 2, &cfg).unwrap();
        let initial = model.loss();
        for e in 0..3 {
            model.run_epoch(&env, &cfg, e).unwrap();
        }
        assert!(
            model.loss() < initial - 0.01,
            "{} vs {initial}",
            model.loss()
        );
    }

    #[test]
    fn breakdown_has_all_components() {
        let data = small_dataset();
        let cfg = TrainConfig {
            batch_size: 128,
            ..TrainConfig::default()
        };
        let env = env(BackendKind::Haflo);
        let mut model = HeteroLr::new(&data, 3, &cfg).unwrap();
        let b = model.run_epoch(&env, &cfg, 0).unwrap().breakdown;
        assert!(b.he_seconds > 0.0 && b.comm_seconds > 0.0 && b.other_seconds > 0.0);
        // Scores + residual broadcasts + gradient uploads all pass HE.
        assert!(b.he_values > 0);
    }

    #[test]
    fn shards_receive_gradient_updates() {
        let data = small_dataset();
        let cfg = TrainConfig {
            batch_size: 64,
            ..TrainConfig::default()
        };
        let env = env(BackendKind::FlBooster);
        let mut model = HeteroLr::new(&data, 2, &cfg).unwrap();
        model.run_epoch(&env, &cfg, 0).unwrap();
        for (k, w) in model.weights().iter().enumerate() {
            assert!(
                w.iter().any(|&x| x != 0.0),
                "shard {k} weights never updated"
            );
        }
    }

    #[test]
    fn single_party_degenerates_to_plain_lr() {
        let data = small_dataset();
        let cfg = TrainConfig {
            batch_size: 64,
            ..TrainConfig::default()
        };
        let env = env(BackendKind::FlBooster);
        let mut model = HeteroLr::new(&data, 1, &cfg).unwrap();
        let initial = model.loss();
        model.run_epoch(&env, &cfg, 0).unwrap();
        assert!(model.loss() < initial);
    }
}
