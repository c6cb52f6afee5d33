//! Homogeneous (horizontal) logistic regression.
//!
//! Every participant holds complete feature vectors for a disjoint set of
//! instances. Each SGD round (paper Fig. 2): clients compute local
//! mini-batch gradients, encrypt and upload them; the server aggregates
//! the ciphertexts and broadcasts the encrypted sum; clients decrypt,
//! average, and take the same optimizer step, so all replicas stay
//! synchronized.

#![expect(
    clippy::indexing_slicing,
    reason = "gradient/weight buffers are allocated to `num_features` and indexed by \
              validated feature ids"
)]

use crate::data::{horizontal_split, Dataset};
use crate::engine::run_round;
use crate::metrics::{EpochBreakdown, EpochResult};
use crate::optim::Adam;
use crate::train::{logloss, sigmoid, FlEnv, FlModel, TrainConfig};
use crate::Result;

/// Horizontally-federated logistic regression.
pub struct HomoLr {
    dataset_name: String,
    parts: Vec<Dataset>,
    weights: Vec<f64>,
    opt: Adam,
    loss: f64,
}

impl HomoLr {
    /// Splits `dataset` across `participants` clients and initializes a
    /// zero model.
    pub fn new(dataset: &Dataset, participants: u32, cfg: &TrainConfig) -> Self {
        let parts = horizontal_split(dataset, participants);
        let mut opt = Adam::new(cfg.learning_rate);
        opt.l2 = cfg.l2;
        let mut model = HomoLr {
            dataset_name: dataset.name.clone(),
            parts,
            weights: vec![0.0; dataset.num_features],
            opt,
            loss: f64::NAN,
        };
        model.loss = model.global_loss();
        model
    }

    /// The shared model weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Local mini-batch gradient for one client: `(1/|B|) Σ (σ(x·w)−y)·x`.
    /// Returns `(gradient, flops)`.
    fn local_gradient(&self, part: usize, range: std::ops::Range<usize>) -> (Vec<f64>, u64) {
        let data = &self.parts[part];
        let mut grad = vec![0.0; self.weights.len()];
        let mut flops = 0u64;
        let count = range.len().max(1);
        for i in range {
            let row = &data.rows[i];
            let p = sigmoid(row.dot(&self.weights));
            let residual = p - data.labels[i];
            row.axpy_into(residual / count as f64, &mut grad);
            flops += 4 * row.nnz() as u64 + 8;
        }
        (grad, flops)
    }

    /// Training loss over the union of all parts.
    fn global_loss(&self) -> f64 {
        let mut preds = Vec::new();
        let mut labels = Vec::new();
        for part in &self.parts {
            for (row, &y) in part.rows.iter().zip(&part.labels) {
                preds.push(sigmoid(row.dot(&self.weights)));
                labels.push(y);
            }
        }
        logloss(&preds, &labels)
    }
}

impl FlModel for HomoLr {
    fn name(&self) -> &'static str {
        "Homo LR"
    }

    fn dataset_name(&self) -> &str {
        &self.dataset_name
    }

    fn loss(&self) -> f64 {
        self.loss
    }

    fn run_epoch(&mut self, env: &FlEnv, cfg: &TrainConfig, epoch: usize) -> Result<EpochResult> {
        let mut breakdown = EpochBreakdown::default();
        let p = self.parts.len();
        // Clients iterate their local batches in lockstep; the round count
        // is the smallest client's batch count (parts are balanced ±1 row).
        let rounds = self
            .parts
            .iter()
            .map(|d| d.len().div_ceil(cfg.batch_size).max(1))
            .min()
            .unwrap_or(0);

        for round in 0..rounds {
            let mut grads = Vec::with_capacity(p);
            let mut flops = Vec::with_capacity(p);
            for k in 0..p {
                let n = self.parts[k].len();
                let lo = (round * cfg.batch_size).min(n);
                let hi = ((round + 1) * cfg.batch_size).min(n);
                let (g, f) = self.local_gradient(k, lo..hi);
                grads.push(g);
                flops.push(f);
            }

            let seed = cfg.seed ^ ((epoch as u64) << 24) ^ (round as u64);
            // The engine charges local compute (clients run in parallel:
            // the mean per-client cost, with its heterogeneity
            // multipliers) and may drop stragglers — average over the
            // clients that actually made the round.
            let out = run_round(env, &cfg.engine, cfg, &grads, &flops, seed, &mut breakdown)?;
            let n = out.survivors.len().max(1) as f64;
            let grad: Vec<f64> = out.sums.iter().map(|s| s / n).collect();
            self.opt.step(&mut self.weights, &grad);
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
        let mut rng = ChaCha8Rng::seed_from_u64(0x1107);
        let keys = PaillierKeyPair::generate(&mut rng, 128).unwrap();
        FlEnv::new(Accelerator::new(kind, keys, 4).unwrap(), 1)
    }

    fn small_dataset() -> Dataset {
        // Use a feature-scaled synthetic set so tests are fast.
        let mut spec = DatasetSpec::synthetic();
        spec.features = 32;
        spec.nnz_per_row = 32;
        spec.instances = 400;
        spec.generate(1.0)
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let data = small_dataset();
        let cfg = TrainConfig {
            batch_size: 64,
            max_epochs: 3,
            ..TrainConfig::default()
        };
        let env = env(BackendKind::FlBooster);
        let mut model = HomoLr::new(&data, 4, &cfg);
        let initial = model.loss();
        for e in 0..3 {
            model.run_epoch(&env, &cfg, e).unwrap();
        }
        assert!(
            model.loss() < initial - 0.01,
            "loss {} did not improve from {initial}",
            model.loss()
        );
    }

    #[test]
    fn epoch_charges_all_components() {
        let data = small_dataset();
        let cfg = TrainConfig {
            batch_size: 128,
            ..TrainConfig::default()
        };
        let env = env(BackendKind::Fate);
        let mut model = HomoLr::new(&data, 4, &cfg);
        let result = model.run_epoch(&env, &cfg, 0).unwrap();
        let b = result.breakdown;
        assert!(b.he_seconds > 0.0, "HE time missing");
        assert!(b.comm_seconds > 0.0, "comm time missing");
        assert!(b.other_seconds > 0.0, "local compute missing");
        assert!(b.comm_bytes > 0 && b.ciphertexts > 0);
        assert_eq!(
            b.he_values,
            32 * (400_usize.div_ceil(4).div_ceil(128)) as u64
        );
    }

    #[test]
    fn fate_epoch_slower_than_flbooster() {
        let data = small_dataset();
        let cfg = TrainConfig {
            batch_size: 128,
            ..TrainConfig::default()
        };
        let mut fate_model = HomoLr::new(&data, 4, &cfg);
        let fate_t = fate_model
            .run_epoch(&env(BackendKind::Fate), &cfg, 0)
            .unwrap()
            .breakdown
            .total_seconds();
        let mut boost_model = HomoLr::new(&data, 4, &cfg);
        let boost_t = boost_model
            .run_epoch(&env(BackendKind::FlBooster), &cfg, 0)
            .unwrap()
            .breakdown
            .total_seconds();
        assert!(
            fate_t > 5.0 * boost_t,
            "FATE {fate_t} should be much slower than FLBooster {boost_t}"
        );
    }

    #[test]
    fn weights_identical_across_backends() {
        // Same quantizer and protocol => bit-identical model updates.
        let data = small_dataset();
        let cfg = TrainConfig {
            batch_size: 128,
            ..TrainConfig::default()
        };
        let mut w = Vec::new();
        for kind in [BackendKind::Fate, BackendKind::FlBooster] {
            let env = env(kind);
            let mut model = HomoLr::new(&data, 4, &cfg);
            model.run_epoch(&env, &cfg, 0).unwrap();
            w.push(model.weights().to_vec());
        }
        assert_eq!(w[0], w[1]);
    }
}
