//! Heterogeneous neural network (the paper's "Hetero NN": a split
//! network in the style of GELU-Net / FATE's Hetero NN).
//!
//! Each party owns a *bottom* linear model over its feature shard; the
//! active party additionally owns the *top* model (a logistic head over
//! the shared hidden layer). Per mini-batch:
//!
//! 1. every party computes its partial pre-activations `Z_k = X_k·W_k`
//!    (batch × hidden) and the interaction layer is formed by a *secure
//!    sum* — the encrypted aggregation of the partial activations;
//! 2. the active party applies `tanh`, runs the top model, and computes
//!    the output error;
//! 3. the hidden-layer error `δ_Z` (batch × hidden) is *encrypted once* and
//!    [broadcast](FlEnv::encrypted_broadcast) to the passive parties;
//! 4. each party updates its bottom weights from `X_kᵀ δ_Z / |B|`; the
//!    active party updates the top model.
//!
//! The forward activations and backward errors are exactly the tensors
//! FATE's Hetero NN moves through its encrypted interactive layer, so the
//! HE volume per batch (`2 · batch · hidden`) matches the real workload.

#![expect(
    clippy::indexing_slicing,
    reason = "matrix buffers are `batch × hidden` / `features × hidden` row-major with \
              loop bounds taken from those same dimensions"
)]

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::data::{vertical_split, Dataset, VerticalShard};
use crate::metrics::{EpochBreakdown, EpochResult};
use crate::models::{scale_down, scale_up, sum_scores};
use crate::optim::Adam;
use crate::train::{logloss, sigmoid, FlEnv, FlModel, TrainConfig};
use crate::{Error, Result};

/// Hidden-layer width of the split network.
pub const HIDDEN: usize = 16;

/// Vertically-federated split neural network.
pub struct HeteroNn {
    dataset_name: String,
    shards: Vec<VerticalShard>,
    labels: Vec<f64>,
    /// Bottom weights per party: `[shard][feature * HIDDEN + unit]`.
    bottoms: Vec<Vec<f64>>,
    /// Top model: HIDDEN weights + bias.
    top: Vec<f64>,
    bottom_opts: Vec<Adam>,
    top_opt: Adam,
    loss: f64,
}

impl HeteroNn {
    /// Builds the split network over a vertical partition.
    pub fn new(dataset: &Dataset, participants: u32, cfg: &TrainConfig) -> Result<Self> {
        let shards = vertical_split(dataset, participants);
        let labels = shards[0]
            .labels
            .clone()
            .ok_or_else(|| Error::BadConfig("active party must hold labels".into()))?;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x4E4E);
        let bottoms: Vec<Vec<f64>> = shards
            .iter()
            .map(|s| {
                (0..s.num_features() * HIDDEN)
                    .map(|_| rng.gen_range(-0.1..0.1))
                    .collect()
            })
            .collect();
        let top: Vec<f64> = (0..=HIDDEN).map(|_| rng.gen_range(-0.1..0.1)).collect();
        let bottom_opts = shards
            .iter()
            .map(|_| {
                let mut o = Adam::new(cfg.learning_rate);
                o.l2 = cfg.l2;
                o
            })
            .collect();
        let mut top_opt = Adam::new(cfg.learning_rate);
        top_opt.l2 = cfg.l2;
        let mut model = HeteroNn {
            dataset_name: dataset.name.clone(),
            shards,
            labels,
            bottoms,
            top,
            bottom_opts,
            top_opt,
            loss: f64::NAN,
        };
        model.loss = model.global_loss();
        Ok(model)
    }

    /// Partial pre-activations of one shard for a batch:
    /// `(batch × HIDDEN flattened, flops)`.
    fn partial_activations(&self, shard: usize, range: &std::ops::Range<usize>) -> (Vec<f64>, u64) {
        let s = &self.shards[shard];
        let w = &self.bottoms[shard];
        let mut out = vec![0.0; range.len() * HIDDEN];
        let mut flops = 0u64;
        for (j, i) in range.clone().enumerate() {
            let row = &s.rows[i];
            for (&fi, &v) in row.indices.iter().zip(&row.values) {
                let base = fi as usize * HIDDEN;
                for u in 0..HIDDEN {
                    out[j * HIDDEN + u] += v * w[base + u];
                }
            }
            flops += 2 * (row.nnz() * HIDDEN) as u64;
        }
        (out, flops)
    }

    /// Full forward pass for loss evaluation (no HE, no accounting).
    fn forward_all(&self) -> Vec<f64> {
        let n = self.labels.len();
        let range = 0..n;
        let mut z = vec![0.0; n * HIDDEN];
        for k in 0..self.shards.len() {
            let (zk, _) = self.partial_activations(k, &range);
            for (a, b) in z.iter_mut().zip(&zk) {
                *a += b;
            }
        }
        (0..n)
            .map(|j| {
                let mut acc = self.top[HIDDEN]; // bias
                for u in 0..HIDDEN {
                    acc += z[j * HIDDEN + u].tanh() * self.top[u];
                }
                sigmoid(acc)
            })
            .collect()
    }

    fn global_loss(&self) -> f64 {
        logloss(&self.forward_all(), &self.labels)
    }
}

impl FlModel for HeteroNn {
    fn name(&self) -> &'static str {
        "Hetero NN"
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
        let bs = cfg.batch_size.max(1);

        for (round, start) in (0..n).step_by(bs).enumerate() {
            let range = start..(start + bs).min(n);
            let b = range.len();
            let seed = cfg.seed ^ ((epoch as u64) << 24) ^ ((round as u64) << 4);

            // (1) secure sum of partial pre-activations.
            let mut parts = Vec::with_capacity(p);
            let mut flops = 0u64;
            for k in 0..p {
                let (zk, f) = self.partial_activations(k, &range);
                parts.push(zk);
                flops += f;
            }
            env.charge_local_compute(flops / p as u64, cfg, &mut breakdown);
            let z = sum_scores(env, cfg, &parts, seed, &mut breakdown)?;

            // (2) top model forward + output error (active party).
            let mut hidden = vec![0.0; b * HIDDEN];
            let mut delta = vec![0.0; b];
            for j in 0..b {
                let mut acc = self.top[HIDDEN];
                for u in 0..HIDDEN {
                    let t = z[j * HIDDEN + u].tanh();
                    hidden[j * HIDDEN + u] = t;
                    acc += t * self.top[u];
                }
                delta[j] = sigmoid(acc) - self.labels[range.start + j];
            }
            env.charge_local_compute((4 * b * HIDDEN) as u64, cfg, &mut breakdown);

            // Hidden-layer error δ_Z = δ · w_top ⊙ (1 − tanh²).
            let mut delta_z = vec![0.0; b * HIDDEN];
            for j in 0..b {
                for u in 0..HIDDEN {
                    let t = hidden[j * HIDDEN + u];
                    delta_z[j * HIDDEN + u] = delta[j] * self.top[u] * (1.0 - t * t);
                }
            }

            // (3) δ_Z, encrypted once and broadcast to the passive parties.
            let delta_z_rt = scale_up(&env.encrypted_broadcast(
                &scale_down(&delta_z),
                p - 1,
                seed ^ (1 << 16),
                &mut breakdown,
            )?);

            // (4) bottom updates (passive parties use the round-tripped
            // errors; the active party its exact ones) and top update.
            for k in 0..p {
                let dz = if k == 0 { &delta_z } else { &delta_z_rt };
                let s = &self.shards[k];
                let mut grad = vec![0.0; self.bottoms[k].len()];
                let mut flops = 0u64;
                for (j, i) in range.clone().enumerate() {
                    let row = &s.rows[i];
                    for (&fi, &v) in row.indices.iter().zip(&row.values) {
                        let base = fi as usize * HIDDEN;
                        for u in 0..HIDDEN {
                            grad[base + u] += v * dz[j * HIDDEN + u] / b as f64;
                        }
                    }
                    flops += 2 * (row.nnz() * HIDDEN) as u64;
                }
                env.charge_local_compute(flops / p as u64, cfg, &mut breakdown);
                self.bottom_opts[k].step(&mut self.bottoms[k], &grad);
            }

            let mut top_grad = vec![0.0; HIDDEN + 1];
            for j in 0..b {
                for u in 0..HIDDEN {
                    top_grad[u] += delta[j] * hidden[j * HIDDEN + u] / b as f64;
                }
                top_grad[HIDDEN] += delta[j] / b as f64;
            }
            self.top_opt.step(&mut self.top, &top_grad);
            env.charge_local_compute((2 * b * HIDDEN) as u64, cfg, &mut breakdown);
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

    fn env(kind: BackendKind) -> FlEnv {
        let mut rng = ChaCha8Rng::seed_from_u64(0x4E4E);
        let keys = PaillierKeyPair::generate(&mut rng, 128).unwrap();
        FlEnv::new(Accelerator::new(kind, keys, 4).unwrap(), 4)
    }

    fn small_dataset() -> Dataset {
        let mut spec = DatasetSpec::synthetic();
        spec.features = 16;
        spec.nnz_per_row = 16;
        spec.instances = 200;
        spec.generate(1.0)
    }

    #[test]
    fn loss_decreases() {
        let data = small_dataset();
        let cfg = TrainConfig {
            batch_size: 50,
            learning_rate: 0.05,
            ..TrainConfig::default()
        };
        let env = env(BackendKind::FlBooster);
        let mut model = HeteroNn::new(&data, 2, &cfg).unwrap();
        let initial = model.loss();
        for e in 0..4 {
            model.run_epoch(&env, &cfg, e).unwrap();
        }
        assert!(
            model.loss() < initial - 0.01,
            "{} vs {initial}",
            model.loss()
        );
    }

    #[test]
    fn he_volume_is_two_batch_hidden_per_round() {
        let data = small_dataset();
        let cfg = TrainConfig {
            batch_size: 200,
            ..TrainConfig::default()
        };
        let env = env(BackendKind::FlBooster);
        for parties in [2, 4] {
            let mut model = HeteroNn::new(&data, parties, &cfg).unwrap();
            let b = model.run_epoch(&env, &cfg, 0).unwrap().breakdown;
            // One round of 200 instances: activations (200·16) + errors
            // (200·16, encrypted once whatever the fan-out).
            assert_eq!(b.he_values, 2 * 200 * HIDDEN as u64, "{parties} parties");
        }
    }

    #[test]
    fn breakdown_components_present() {
        let data = small_dataset();
        let cfg = TrainConfig {
            batch_size: 64,
            ..TrainConfig::default()
        };
        let env = env(BackendKind::Fate);
        let mut model = HeteroNn::new(&data, 2, &cfg).unwrap();
        let b = model.run_epoch(&env, &cfg, 0).unwrap().breakdown;
        assert!(b.he_seconds > 0.0 && b.comm_seconds > 0.0 && b.other_seconds > 0.0);
    }

    #[test]
    fn bottom_and_top_models_update() {
        let data = small_dataset();
        let cfg = TrainConfig {
            batch_size: 64,
            ..TrainConfig::default()
        };
        let env = env(BackendKind::FlBooster);
        let mut model = HeteroNn::new(&data, 4, &cfg).unwrap();
        let top_before = model.top.clone();
        let bottoms_before = model.bottoms.clone();
        model.run_epoch(&env, &cfg, 0).unwrap();
        assert_ne!(model.top, top_before, "top model frozen");
        for (k, (after, before)) in model.bottoms.iter().zip(&bottoms_before).enumerate() {
            assert_ne!(after, before, "bottom {k} frozen");
        }
    }
}
