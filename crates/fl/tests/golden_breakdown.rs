//! Epoch 0 of each of the four models, pinned bit-for-bit.
//!
//! The FLBooster constants were captured (128-bit test keys) from the
//! hand-charged sequential round loop that `fl::engine` and
//! `EpochBreakdown::charge` replaced, just before it was deleted: every
//! `EpochBreakdown` field and the post-epoch loss, as `f64::to_bits`.
//! They hold the float add order at every accumulator — a re-associated
//! sum, a charge routed to the wrong component or phase, or a changed
//! round shape moves at least one bit here. The FATE and HAFLO pins were
//! captured at the commit before `he::ghe` wrote each batched operation
//! once: they hold the CPU schedule (SBT's skewed bucket folds included)
//! and the fixed-block device manager to the same standard.
//!
//! The three FLBooster rows whose ciphertexts cross the wire in numbers
//! (Hetero LR, NN, SBT) had `comm_bytes` and the four sums that follow it
//! (`comm`, `uplink`, `downlink`, `round`) captured again when a pooled
//! blinding factor became a fixed-base power `h_s^a`: a ciphertext is
//! charged at its minimal byte length, so other ciphertext bits move the
//! odd leading-zero byte (−1, +1 and −7 bytes of 11–103 kB). Every HE
//! charge, every count, the compute / encrypt / aggregate / decrypt phases
//! and the loss stayed as first captured, as did all of Homo LR and the
//! pool-less FATE and HAFLO rows.

use fl::data::generators::DatasetSpec;
use fl::data::Dataset;
use fl::metrics::PhaseBreakdown;
use fl::models::{HeteroLr, HeteroNn, HeteroSbt, HomoLr};
use fl::train::{FlEnv, FlModel, TrainConfig};
use fl::{Accelerator, BackendKind, EpochBreakdown};
use he::paillier::PaillierKeyPair;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn dataset() -> Dataset {
    let mut spec = DatasetSpec::synthetic();
    spec.features = 16;
    spec.nnz_per_row = 16;
    spec.instances = 120;
    spec.generate(1.0)
}

fn cfg(batch_size: usize) -> TrainConfig {
    TrainConfig {
        batch_size,
        ..TrainConfig::default()
    }
}

/// `[he, comm, other, comm_bytes, ciphertexts, he_values, compute,
/// encrypt, uplink, aggregate, downlink, decrypt, round, loss]`.
type Golden = [u64; 14];

fn assert_epoch_zero(
    kind: BackendKind,
    model: &mut dyn FlModel,
    parties: u32,
    cfg: &TrainConfig,
    golden: Golden,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x601D);
    let keys = PaillierKeyPair::generate(&mut rng, 128).unwrap();
    let env = FlEnv::new(Accelerator::new(kind, keys, parties).unwrap(), 1);
    let result = model.run_epoch(&env, cfg, 0).unwrap();
    let s = f64::from_bits;
    let [he, comm, other, comm_bytes, ciphertexts, he_values, compute, encrypt, uplink, aggregate, downlink, decrypt, round, loss] =
        golden;
    let expected = EpochBreakdown {
        he_seconds: s(he),
        comm_seconds: s(comm),
        other_seconds: s(other),
        comm_bytes,
        ciphertexts,
        he_values,
        phases: PhaseBreakdown {
            compute_seconds: s(compute),
            encrypt_seconds: s(encrypt),
            uplink_seconds: s(uplink),
            aggregate_seconds: s(aggregate),
            downlink_seconds: s(downlink),
            decrypt_seconds: s(decrypt),
        },
        round_seconds: s(round),
    };
    assert_eq!(result.breakdown, expected, "{} on {kind:?}", model.name());
    assert_eq!(result.loss.to_bits(), loss, "{} loss", model.name());
}

#[test]
fn homo_lr_epoch_zero_matches_golden_bits() {
    let cfg = cfg(32);
    assert_epoch_zero(
        BackendKind::FlBooster,
        &mut HomoLr::new(&dataset(), 4, &cfg),
        4,
        &cfg,
        [
            0x3e805e36456051e8,
            0x3f771e7705e843c3,
            0x3f261a9e91d0f856,
            0x600,
            0x30,
            0x10,
            0x3ee21e908ed8f651,
            0x3f14fa1393160308,
            0x3f671e7705e843c3,
            0x3e50ed192548cd1e,
            0x3f671e7705e843c3,
            0x3f14fe77c8412a76,
            0x3f77cf6cb6e35646,
            0x3fe3e8582b93244a,
        ],
    );
}

#[test]
fn hetero_lr_epoch_zero_matches_golden_bits() {
    let cfg = cfg(40);
    assert_epoch_zero(
        BackendKind::FlBooster,
        &mut HeteroLr::new(&dataset(), 3, &cfg).unwrap(),
        3,
        &cfg,
        [
            0x3ec5e922b87f06e7,
            0x3fa2a681df68b0c5,
            0x3f70c0e9250355dc,
            0x2c3d,
            0x162,
            0x198,
            0x3ee570f7dc3c78ce,
            0x3f60b73a695d66b8,
            0x3f98962c854cb91f,
            0x3e6ed8df9f855869,
            0x3f896dae730950d1,
            0x3f60ba82589b88c4,
            0x3fa4bef6a893fd7a,
            0x3fe13a60db92491c,
        ],
    );
}

#[test]
fn hetero_nn_epoch_zero_matches_golden_bits() {
    let cfg = cfg(40);
    assert_epoch_zero(
        BackendKind::FlBooster,
        &mut HeteroNn::new(&dataset(), 2, &cfg).unwrap(),
        2,
        &cfg,
        [
            0x3ef84e989e6f6cf2,
            0x3fd18065152d8eae,
            0x3fa3cf6ab6d818de,
            0x1912c,
            0xc8a,
            0xf00,
            0x3f33204341733ce4,
            0x3f93aa55c7905582,
            0x3fc500794c9d119e,
            0x3e97adf418f6ef23,
            0x3fbc00a1bb7c177d,
            0x3f93adfa914d9228,
            0x3fd3fab3a66b0b86,
            0x3fdc8122d2d61f29,
        ],
    );
}

#[test]
fn hetero_sbt_epoch_zero_matches_golden_bits() {
    let cfg = cfg(40);
    assert_epoch_zero(
        BackendKind::FlBooster,
        &mut HeteroSbt::new(&dataset(), 3, &cfg).unwrap(),
        3,
        &cfg,
        [
            0x3ef0539bc171e627,
            0x3fb3476a1945c3a7,
            0x3f14a2cf4d5aa6c1,
            0x63d4,
            0x358,
            0x5c0,
            0x3f1360afee19ce89,
            0x3ee11ddf8ef14a02,
            0x3fabfff00730ee2c,
            0x3ecc81c92f5c3d2f,
            0x3f951dc856b53240,
            0x3ee279e0a22234bd,
            0x3fb34d9806d5316d,
            0x3fe1d811ea234cbe,
        ],
    );
}

#[test]
fn hetero_sbt_on_fate_epoch_zero_matches_golden_bits() {
    let cfg = cfg(40);
    assert_epoch_zero(
        BackendKind::Fate,
        &mut HeteroSbt::new(&dataset(), 3, &cfg).unwrap(),
        3,
        &cfg,
        [
            0x3f718fc1cbdf337a,
            0x3fe8c4ae5f124dfa,
            0x3f14a2cf4d5aa6c1,
            0xc7ac,
            0x6b0,
            0x5c0,
            0x3f1360afee19ce89,
            0x3f51d20f81d3295d,
            0x3fe1d6ed039b6268,
            0x3f48ea06c46a52af,
            0x3fcbb7056ddbae45,
            0x3f64060b20b44459,
            0x3fe8e872f9247738,
            0x3fe1d811ea234cbe,
        ],
    );
}

#[test]
fn homo_lr_on_haflo_epoch_zero_matches_golden_bits() {
    let cfg = cfg(32);
    assert_epoch_zero(
        BackendKind::Haflo,
        &mut HomoLr::new(&dataset(), 4, &cfg),
        4,
        &cfg,
        [
            0x3eb81eee9de69729,
            0x3fae53c19e1a87c0,
            0x3f261a9e91d0f856,
            0xfff,
            0x80,
            0x10,
            0x3ee21e908ed8f651,
            0x3f1537b5083bb711,
            0x3f9e53c15962581f,
            0x3e6d0037b5989609,
            0x3f9e53c1e2d2b761,
            0x3f151691bd0c021b,
            0x3fae6a0c7a899485,
            0x3fe3e8582b93244a,
        ],
    );
}
