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
//!
//! Both SBT rows were captured again when a passive party's histogram
//! reply became "non-empty buckets only, packed where the backend
//! packs". The epoch is 7 split-candidate nodes × 88 passive buckets (11
//! features × 8 bins over the two passive parties) = 616 buckets, 59 of
//! them empty; the loss word, `other`, `compute`, `encrypt` and
//! `downlink` did not move on either row. What moved, and by what:
//!
//! - **FATE** (two streams, a ciphertext per filled bucket per stream):
//!   the 59 empty buckets no longer send their two unit ciphertexts —
//!   `ciphertexts` 1712 → 1594, `he_values` 1472 → 1354 and, at one byte
//!   each, `comm_bytes` 51116 → 50998 (−118 all three); `uplink` falls by
//!   118 × 4.5e-4 s + 118 B / 125 MB/s = 0.053100944 s over the same 14
//!   messages; `decrypt` by 118 `decrypt_op_estimate`s at `β_cpu`, now in
//!   7 launches (one per node) instead of 14. `aggregate` is bit-equal:
//!   the CPU schedule charged an empty fold nothing and a one-slot
//!   "pack" is no operation.
//! - **FLBooster** (one `g‖h` stream, 46-bit buckets, two to a 128-bit
//!   key's word): 616 replies become the 280 words the 557 filled
//!   buckets pack into — `ciphertexts` 856 → 520, `he_values` 1472 → 1354
//!   (−2 × 59), `comm_bytes` 25556 → 16634; `uplink` falls by
//!   336 × 8.4e-5 s + 8922 B / 125 MB/s = 0.028295376 s; `decrypt` pays
//!   280 decryptions in 7 launches, not 616 in 14. `aggregate` *rises*
//!   (3.40e-6 → 5.66e-6 s): the 557 folds are charged as before, the 59
//!   one-op floors of empty device threads are gone, and 277
//!   `pack_op_estimate(2, 46)` shift-and-adds are new; each of the 14
//!   launches copies back its packed words, not every bucket.
//!
//! `he`, `comm` and `round` are the sums of the phases above.
//!
//! The FLBooster SBT row moved once more when its `g‖h` encryption went
//! through `Accelerator::encrypt_words_timed`, which charges every word
//! the pooled encrypt (64 limb-ops at this key) instead of the inline
//! `r^n` (2256): 263,040 fewer device ops over the 120 words of one
//! launch — `encrypt`, `he` and `round` each −2.996875e-6 s. Each word's
//! blinding factor is computed in the encrypt item that uses it and is
//! the factor that word was blinded with before, so the ciphertexts are
//! the same bits: the loss, every count, `comm` and the other phases did
//! not move; the FATE row has no pool and is untouched.
//!
//! The Hetero LR row (3 parties, 3 batches of 40 residuals = 14 words
//! each) was re-derived when the residual broadcast became one encryption,
//! a send per passive party and one receiver's decryption
//! (`FlEnv::encrypted_broadcast`) instead of an encrypt–send–decrypt per
//! passive party. Per batch one `encrypt` and one `decrypt` launch of the
//! 14 words are gone; one exchange of that vector on this key charges
//! 4.8208e-8 s + 2.00229e-7 s of HE and 2 × 40 × 5 µs of codec:
//!
//! - `he_values` 408 → 288 (−3 × 40);
//! - `other` −1.2e-3 s (3 × 2 × 2e-4) and `he` −7.453125e-7 s
//!   (3 × 2.484375e-7);
//! - `encrypt` −6.00144625e-4 s and `decrypt` −6.006006875e-4 s (each
//!   3 × (2e-4 codec + its HE share)); `round` −1.2007453125e-3 s, their sum;
//! - `comm`, `uplink`, `downlink`, `comm_bytes` (11325), `ciphertexts` (354),
//!   `compute`, `aggregate` and the loss word did not move: the same 14
//!   words still cross two links per batch, and here the one ciphertext
//!   sent twice has the byte length the two it replaces had.
//!
//! The 2-party Hetero NN row, all of Homo LR and every SBT row are as they
//! were (one receiver is the old exchange). The two 4-party Hetero NN rows
//! were added with the broadcast so a fan-out of three is pinned on a
//! pooled (FLBooster) and a pool-less (FATE) backend. Against the
//! per-receiver protocol on the same inputs they read: `he_values`
//! 7680 → 3840 (per batch the 640-value `δ_Z` is protected once, not three
//! times), `encrypt` and `decrypt` exactly halved (4 → 2 vector launches
//! per batch, the secure sum's and the broadcast's), `other` −3.84e-2 s,
//! `ciphertexts` equal (7062 / 21120), `comm_bytes` −6 / −12 leading-zero
//! bytes with `uplink` down by those bytes over 125 MB/s, and the loss
//! word (0x3fdc8122d34d5b84 on both) equal.
//!
//! The four broadcasting rows (Hetero LR, and Hetero NN at 2 and 4
//! parties) were re-derived when `FlEnv::encrypted_broadcast` began
//! charging its sends as `downlink`, the phase SecureBoost and the round
//! engine already charge the active party's fan-out to; Hetero LR's
//! gradient upload (`encrypted_exchange`) stays `uplink`. A send costs
//! 2e-4 s of latency, 8.4e-5 s (FLBooster) or 4.5e-4 s (FATE) per
//! ciphertext and its bytes over 125 MB/s, and each moved send leaves
//! `uplink` for `downlink` whole:
//!
//! - Hetero LR: 3 batches × 2 passive parties = 6 sends of the 14-word
//!   residual vector, 84 words and 2,688 B in all: 8.277504e-3 s.
//! - Hetero NN, 2 parties: 3 sends of `δ_Z`'s 640 values in 214 packed
//!   words, 642 words and 20,538 B: 5.4692304e-2 s.
//! - Hetero NN, 4 parties, FLBooster: 9 sends, 1,926 words and
//!   61,617 B: 1.64076936e-1 s.
//! - Hetero NN, 4 parties, FATE: 9 sends of 640 ciphertexts, 5,760 in
//!   all and 184,278 B: 2.595274224 s.
//!
//! `uplink` falls and `downlink` rises by that amount, up to their last
//! bits: each sum now adds its terms in a different order. `comm`,
//! `round`, the other phases, the counts and the loss are bit-equal, since
//! a send adds the same seconds to `comm` and `round` in the same order
//! whichever link phase it lands in. Homo LR and every SBT row are as
//! they were.

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
/// encrypt, uplink, aggregate, downlink, decrypt, round, loss]`: seconds
/// and the loss as `f64::to_bits`, the three counts as themselves.
type Golden = [u64; 14];

const FIELDS: [&str; 14] = [
    "he",
    "comm",
    "other",
    "comm_bytes",
    "ciphertexts",
    "he_values",
    "compute",
    "encrypt",
    "uplink",
    "aggregate",
    "downlink",
    "decrypt",
    "round",
    "loss",
];

/// Which of [`FIELDS`] are counts rather than `f64` bit patterns.
const COUNTS: std::ops::Range<usize> = 3..6;

fn words(b: &EpochBreakdown, loss: f64) -> Golden {
    let PhaseBreakdown {
        compute_seconds,
        encrypt_seconds,
        uplink_seconds,
        aggregate_seconds,
        downlink_seconds,
        decrypt_seconds,
    } = b.phases;
    [
        b.he_seconds.to_bits(),
        b.comm_seconds.to_bits(),
        b.other_seconds.to_bits(),
        b.comm_bytes,
        b.ciphertexts,
        b.he_values,
        compute_seconds.to_bits(),
        encrypt_seconds.to_bits(),
        uplink_seconds.to_bits(),
        aggregate_seconds.to_bits(),
        downlink_seconds.to_bits(),
        decrypt_seconds.to_bits(),
        b.round_seconds.to_bits(),
        loss.to_bits(),
    ]
}

/// One `field: old → new (Δ …)` line per word that differs, so re-deriving
/// a row is a reading of the deltas rather than a hex hunt.
fn moved_fields(golden: &Golden, got: &Golden) -> Vec<String> {
    let mut moved = Vec::new();
    for (i, ((&old, &new), name)) in golden.iter().zip(got).zip(FIELDS).enumerate() {
        if old == new {
            continue;
        }
        moved.push(if COUNTS.contains(&i) {
            format!("{name}: {old} → {new} (Δ {:+})", new as i128 - old as i128)
        } else {
            let (o, n) = (f64::from_bits(old), f64::from_bits(new));
            format!(
                "{name}: {old:#018x} → {new:#018x} ({o:e} → {n:e}, Δ {:e})",
                n - o
            )
        });
    }
    moved
}

#[expect(
    clippy::unwrap_used,
    reason = "a failed setup is the calling test's failure"
)]
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
    let moved = moved_fields(&golden, &words(&result.breakdown, result.loss));
    assert!(
        moved.is_empty(),
        "{} on {kind:?}, {parties} parties — golden → got:\n  {}",
        model.name(),
        moved.join("\n  ")
    );
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
            0x3ebf512dae69a92e,
            0x3fa2a681df68b0c5,
            0x3f67ad3d31dc1289,
            0x2c3d,
            0x162,
            0x120,
            0x3ee570f7dc3c78ce,
            0x3f579944705893d2,
            0x3f901c46a168dfab,
            0x3e6ed8df9f855869,
            0x3f9530bd1d6881da,
            0x3f579dea9d5373ac,
            0x3fa4219454e1cebf,
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
            0x3fbc00a20034471d,
            0x3e97adf418f6ef23,
            0x3fc500792a40f9ce,
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
            0x3ee50b7f33210975,
            0x3fa81218ed72f0c9,
            0x3f14a2cf4d5aa6c1,
            0x40fa,
            0x208,
            0x54a,
            0x3f1360afee19ce89,
            0x3ed5a9e063ad7975,
            0x3f9b06698430af54,
            0x3ed7c298eebc537f,
            0x3f951dc856b53240,
            0x3ed0cc7b07e5c96c,
            0x3fa81dbb0d0cd02d,
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
            0x3f709a45d5bbf884,
            0x3fe711ad9ed691be,
            0x3f14a2cf4d5aa6c1,
            0xc736,
            0x63a,
            0x54a,
            0x3f1360afee19ce89,
            0x3f51d20f81d3295d,
            0x3fe023ec435fa62d,
            0x3f48ea06c46a52af,
            0x3fcbb7056ddbae45,
            0x3f621b13346dce6e,
            0x3fe7338740fc7485,
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

#[test]
fn hetero_nn_four_parties_epoch_zero_matches_golden_bits() {
    let cfg = cfg(40);
    assert_epoch_zero(
        BackendKind::FlBooster,
        &mut HeteroNn::new(&dataset(), 4, &cfg).unwrap(),
        4,
        &cfg,
        [
            0x3ef90c083f37246b,
            0x3fe3406f3dc7d915,
            0x3fa3bf4f8bae7473,
            0x37297,
            0x1b96,
            0xf00,
            0x3f26255b5942109e,
            0x3f93aa55c7905582,
            0x3fcc00a1ddd82f4f,
            0x3eb1c27712b9335a,
            0x3fd8808d8ca39a82,
            0x3f93adfa914d9228,
            0x3fe47c964e933ec9,
            0x3fdc8122d34d5b84,
        ],
    );
}

#[test]
fn hetero_nn_four_parties_on_fate_epoch_zero_matches_golden_bits() {
    let cfg = cfg(40);
    assert_epoch_zero(
        BackendKind::Fate,
        &mut HeteroNn::new(&dataset(), 4, &cfg).unwrap(),
        4,
        &cfg,
        [
            0x3f9a1c0af881867e,
            0x40230831eb2368d5,
            0x3fa3bf4f8bae7473,
            0xa4f93,
            0x5280,
            0xf00,
            0x3f26255b5942109e,
            0x3fa2b38bde1a271f,
            0x400baed44805162c,
            0x3f421e908ed8f652,
            0x401838f9b244468f,
            0x3f9b76531880d554,
            0x402328ff402b580d,
            0x3fdc8122d34d5b84,
        ],
    );
}

/// What the parties train on is pinned, not assumed: the post-epoch-1 loss
/// of both broadcasting models at 2, 3 and 4 parties, captured on the commit
/// that still encrypted and decrypted the backward tensor once per passive
/// party (and kept the last receiver's copy). One encryption and one
/// decryption give every receiver the same words — the round trip is a
/// function of the plaintext and the quantizer, not of the blinding — and
/// the three backends share that quantizer, so one constant serves all.
#[test]
fn vertical_losses_match_the_per_receiver_protocol_at_2_3_4_parties() {
    const LOSSES: [(u32, u64, u64); 3] = [
        (2, 0x3fb64488058baaad, 0x3fd42a6ff5ab9e2b),
        (3, 0x3fb6448807b1e7f4, 0x3fd42a6ff58afa41),
        (4, 0x3fb6448807876cb8, 0x3fd42a6ff59ebddb),
    ];
    let cfg = cfg(12);
    let mut spec = DatasetSpec::synthetic();
    spec.features = 16;
    spec.nnz_per_row = 16;
    spec.instances = 24;
    let data = spec.generate(1.0);
    let mut rng = ChaCha8Rng::seed_from_u64(0x601D);
    let keys = PaillierKeyPair::generate(&mut rng, 128).unwrap();
    for kind in [
        BackendKind::FlBooster,
        BackendKind::Fate,
        BackendKind::Haflo,
    ] {
        for (parties, nn_loss, lr_loss) in LOSSES {
            let env = FlEnv::new(Accelerator::new(kind, keys.clone(), parties).unwrap(), 1);
            let mut nn = HeteroNn::new(&data, parties, &cfg).unwrap();
            let mut lr = HeteroLr::new(&data, parties, &cfg).unwrap();
            for epoch in 0..2 {
                nn.run_epoch(&env, &cfg, epoch).unwrap();
                lr.run_epoch(&env, &cfg, epoch).unwrap();
            }
            let got = (nn.loss().to_bits(), lr.loss().to_bits());
            assert_eq!(
                got,
                (nn_loss, lr_loss),
                "{kind:?}, {parties} parties: got {got:#018x?}"
            );
        }
    }
}
