//! The federated training loop and its cost-accounted environment.
//!
//! [`FlEnv`] pairs an [`Accelerator`] with a [`Network`]; a model spends
//! simulated time only through the [engine](crate::engine)'s steps on it,
//! the secure-aggregation round configured by [`TrainConfig::engine`]
//! among them. [`train`] runs epochs until the paper's stopping rule ("if
//! the loss difference between two successive epochs is less than 1e-6,
//! the model reaches convergence") or an epoch cap.

use crate::backend::Accelerator;
use crate::engine::EngineConfig;
use crate::metrics::{EpochResult, TrainReport};
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
    use crate::metrics::EpochBreakdown;
    use he::paillier::PaillierKeyPair;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const ALL_BACKENDS: [BackendKind; 5] = [
        BackendKind::Fate,
        BackendKind::Haflo,
        BackendKind::FlBooster,
        BackendKind::WithoutGhe,
        BackendKind::WithoutBc,
    ];

    #[test]
    fn encrypted_exchange_round_trips_and_tolerates_an_empty_vector() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x7E);
        let keys = PaillierKeyPair::generate(&mut rng, 128).unwrap();
        for kind in ALL_BACKENDS {
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

    #[test]
    fn encrypted_broadcast_is_one_encryption_one_decryption_and_a_send_per_receiver() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x7E);
        let keys = PaillierKeyPair::generate(&mut rng, 128).unwrap();
        let values = [0.5, -0.25, 0.125, 0.75, -1.0];
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b;
        for kind in ALL_BACKENDS {
            // A fresh environment per call: same key, same seed, same pool
            // state, so the ciphertexts (and their byte lengths) are equal.
            let env = || FlEnv::new(Accelerator::new(kind, keys.clone(), 4).unwrap(), 1);
            let mut one = EpochBreakdown::default();
            let exchanged = env().encrypted_exchange(&values, 9, &mut one).unwrap();

            for receivers in 1..=3u64 {
                let env = env();
                let mut b = EpochBreakdown::default();
                let back = env
                    .encrypted_broadcast(&values, usize::try_from(receivers).unwrap(), 9, &mut b)
                    .unwrap();
                let bound = env.accel.codec().quantizer().max_error();
                for ((v, r), x) in values.iter().zip(&back).zip(&exchanged) {
                    assert_eq!(r.to_bits(), x.to_bits(), "{kind:?} × {receivers}");
                    assert!((v - r).abs() <= bound, "{kind:?} × {receivers}");
                }
                // One encryption and one decryption, whatever the fan-out:
                // the four HE / codec charges are one exchange's, to the bit.
                assert_eq!(b.he_seconds, one.he_seconds, "{kind:?} × {receivers}");
                assert_eq!(b.other_seconds, one.other_seconds, "{kind:?} × {receivers}");
                assert_eq!(b.phases.encrypt_seconds, one.phases.encrypt_seconds);
                assert_eq!(b.phases.decrypt_seconds, one.phases.decrypt_seconds);
                assert_eq!(b.he_values, values.len() as u64, "{kind:?} × {receivers}");
                // One send per receiver, in series, charged as downlink: the
                // exchange's upload seconds, moved to the other link phase.
                assert_eq!(b.phases.uplink_seconds, 0.0, "{kind:?} × {receivers}");
                assert!(close(
                    b.phases.downlink_seconds,
                    receivers as f64 * one.phases.uplink_seconds
                ));
                if receivers == 1 {
                    assert_eq!(b.comm_seconds, one.comm_seconds, "{kind:?}");
                    assert_eq!(b.round_seconds, one.round_seconds, "{kind:?}");
                }
                assert_eq!(b.comm_bytes, receivers * one.comm_bytes, "{kind:?}");
                assert_eq!(b.ciphertexts, receivers * one.ciphertexts, "{kind:?}");
                assert_eq!(env.network.stats().messages, receivers, "{kind:?}");
                assert!(close(b.round_seconds, b.phases.total()));
            }

            // No receiver: nothing is protected, sent or charged.
            let env = env();
            let mut none = EpochBreakdown::default();
            assert_eq!(
                env.encrypted_broadcast(&values, 0, 9, &mut none).unwrap(),
                values
            );
            assert_eq!(none, EpochBreakdown::default(), "{kind:?}");
            assert_eq!(env.network.stats(), Default::default(), "{kind:?}");
            assert_eq!(env.accel.timing(), Default::default(), "{kind:?}");

            // An empty payload still crosses each link and pays its latency.
            let mut empty = EpochBreakdown::default();
            assert_eq!(env.encrypted_broadcast(&[], 3, 9, &mut empty).unwrap(), []);
            assert_eq!((empty.he_values, empty.ciphertexts), (0, 0), "{kind:?}");
            assert_eq!(empty.total_seconds(), empty.phases.downlink_seconds);
            assert!(close(
                empty.phases.downlink_seconds,
                3.0 * env.network.config().latency_seconds
            ));
            assert_eq!(env.network.stats().messages, 3, "{kind:?}");
        }
    }
}
