//! The federated training loop and its cost-accounted environment.
//!
//! [`FlEnv`] pairs an [`Accelerator`] with a [`Network`]. Secure-
//! aggregation rounds run through [`crate::engine::run_round`], configured
//! by [`TrainConfig::engine`]; the pairwise encrypted exchange the vertical
//! models also need lives here. Every simulated second enters the epoch's
//! [`EpochBreakdown`] through [`EpochBreakdown::charge`]. [`train`] runs
//! epochs until the paper's stopping rule ("if the loss difference between
//! two successive epochs is less than 1e-6, the model reaches convergence")
//! or an epoch cap.

use crate::backend::Accelerator;
use crate::engine::EngineConfig;
use crate::metrics::{Charge, EpochBreakdown, EpochResult, TrainReport};
use crate::net::Network;
use crate::Result;

/// Training hyper-parameters (paper Sec. VI-B defaults).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Mini-batch size (paper: 1024).
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 penalty coefficient (paper: 0.01).
    pub l2: f64,
    /// Epoch cap.
    pub max_epochs: usize,
    /// Convergence tolerance on successive losses (paper: 1e-6).
    pub tolerance: f64,
    /// Seed for batching/blinding randomness.
    pub seed: u64,
    /// Simulated seconds per local floating-point operation — the cost
    /// model for the "Others" component (calibrated to FATE's effective
    /// local-compute rate).
    pub sec_per_flop: f64,
    /// How every model's secure-aggregation rounds run on the
    /// [round engine](crate::engine). The default is
    /// [`EngineConfig::sequential`]: no phase overlap, no stragglers.
    pub engine: EngineConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch_size: 1024,
            learning_rate: 0.1,
            l2: 0.01,
            max_epochs: 20,
            tolerance: 1e-6,
            seed: 0xF1,
            sec_per_flop: 4.0e-9,
            engine: EngineConfig::sequential(),
        }
    }
}

/// The execution environment one model trains in.
pub struct FlEnv {
    /// The acceleration backend under test.
    pub accel: Accelerator,
    /// The simulated client↔server link.
    pub network: Network,
}

impl FlEnv {
    /// Builds an environment; the network profile follows the backend.
    pub fn new(accel: Accelerator, seed: u64) -> Self {
        let network = Network::new(accel.network_profile(), seed);
        FlEnv { accel, network }
    }

    /// Pairwise encrypted exchange: one party encrypts `values` and sends
    /// them; the receiver (or arbiter) decrypts. Returns the values after
    /// their quantize→encrypt→decrypt round trip — the exact degradation
    /// the receiving party trains on.
    pub fn encrypted_exchange(
        &self,
        values: &[f64],
        seed: u64,
        breakdown: &mut EpochBreakdown,
    ) -> Result<Vec<f64>> {
        let (ev, enc_t) = self.accel.encrypt_timed(values, seed)?;
        breakdown.charge(Charge::EncryptHe, enc_t.he_seconds);
        breakdown.charge(Charge::EncryptCodec, enc_t.codec_seconds);
        let t = self.network.send(ev.ciphertext_count(), ev.bytes())?;
        breakdown.charge(Charge::Uplink, t);
        breakdown.comm_bytes += ev.bytes();
        breakdown.ciphertexts += ev.ciphertext_count();
        let (out, dec_t) = self.accel.decrypt_sum_timed(&ev, 1)?;
        breakdown.charge(Charge::DecryptHe, dec_t.he_seconds);
        breakdown.charge(Charge::DecryptCodec, dec_t.codec_seconds);
        breakdown.he_values += values.len() as u64;
        Ok(out)
    }

    /// Charges `flops` of local model computation to "Others".
    pub fn charge_local_compute(
        &self,
        flops: u64,
        cfg: &TrainConfig,
        breakdown: &mut EpochBreakdown,
    ) {
        breakdown.charge(Charge::Compute, flops as f64 * cfg.sec_per_flop);
    }
}

/// A federated model trainable epoch-by-epoch.
pub trait FlModel {
    /// Display name matching the paper ("Homo LR", ...).
    fn name(&self) -> &'static str;

    /// Runs one epoch, returning its timing and post-epoch loss.
    fn run_epoch(&mut self, env: &FlEnv, cfg: &TrainConfig, epoch: usize) -> Result<EpochResult>;

    /// Current global training loss.
    fn loss(&self) -> f64;

    /// Dataset name the model was built on.
    fn dataset_name(&self) -> &str;
}

/// Trains to the paper's stopping rule and assembles the report.
pub fn train(model: &mut dyn FlModel, env: &FlEnv, cfg: &TrainConfig) -> Result<TrainReport> {
    let mut epochs = Vec::new();
    let mut prev_loss = f64::INFINITY;
    let mut converged = false;
    for e in 0..cfg.max_epochs {
        let result = model.run_epoch(env, cfg, e)?;
        let loss = result.loss;
        epochs.push(result);
        if (prev_loss - loss).abs() < cfg.tolerance {
            converged = true;
            break;
        }
        prev_loss = loss;
    }
    Ok(TrainReport {
        model: model.name().to_string(),
        dataset: model.dataset_name().to_string(),
        backend: env.accel.name().to_string(),
        key_bits: env.accel.key_bits(),
        epochs,
        converged,
    })
}

mod shared;
pub use shared::{logloss, sigmoid};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use he::paillier::PaillierKeyPair;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn encrypted_exchange_round_trips_and_tolerates_an_empty_vector() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x7E);
        let keys = PaillierKeyPair::generate(&mut rng, 128).unwrap();
        for kind in [
            BackendKind::Fate,
            BackendKind::Haflo,
            BackendKind::FlBooster,
            BackendKind::WithoutGhe,
            BackendKind::WithoutBc,
        ] {
            let env = FlEnv::new(Accelerator::new(kind, keys.clone(), 2).unwrap(), 1);
            let values = [0.5, -0.25, 0.125];
            let mut b = EpochBreakdown::default();
            let back = env.encrypted_exchange(&values, 9, &mut b).unwrap();
            let bound = env.accel.codec().quantizer().max_error();
            for (a, r) in values.iter().zip(&back) {
                assert!((a - r).abs() <= bound, "{kind:?}");
            }
            assert_eq!(b.he_values, 3, "{kind:?}");
            assert!(b.he_seconds > 0.0 && b.comm_seconds > 0.0 && b.other_seconds > 0.0);
            // Nothing overlaps: elapsed is the work, up to add order.
            assert!((b.round_seconds - b.phases.total()).abs() <= 1e-12 * b.round_seconds);

            // Nothing to protect is not an error (and never a panic): an
            // empty message still crosses the wire and pays its latency.
            let mut empty = EpochBreakdown::default();
            assert_eq!(env.encrypted_exchange(&[], 9, &mut empty).unwrap(), []);
            assert_eq!((empty.he_values, empty.ciphertexts), (0, 0), "{kind:?}");
            assert_eq!(empty.total_seconds(), empty.phases.uplink_seconds);
        }
    }
}
