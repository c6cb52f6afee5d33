//! Shared scaffolding for the experiment binary, `src/bin/paper.rs`,
//! which regenerates every table and figure of the paper's evaluation
//! (Sec. VI) and the modeled gates beside them: scaled dataset presets,
//! deterministic per-key-size key material, a model factory and simple
//! table rendering.
//!
//! Scaling: the paper's full datasets (677 k–1.7 M instances, up to 1 M
//! features) with 1024–4096-bit CPU Paillier would take days per cell, as
//! the paper's own Table III shows. The presets shrink the instance and
//! feature counts while preserving the *relative* geometry between
//! datasets (RCV1 : Avazu : Synthetic feature ratios, sparse vs dense),
//! which is what drives every trend the paper reports. All crypto is
//! real at the configured key size; simulated time is reported.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::OnceLock;

use fl::data::generators::DatasetSpec;
use fl::data::Dataset;
use fl::train::{FlModel, TrainConfig};
use fl::{Accelerator, BackendKind};
use he::paillier::PaillierKeyPair;
use parking_lot::Mutex;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub mod table;

/// The four benchmark models in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Homogeneous logistic regression.
    HomoLr,
    /// Heterogeneous logistic regression.
    HeteroLr,
    /// Heterogeneous SecureBoost.
    HeteroSbt,
    /// Heterogeneous split neural network.
    HeteroNn,
}

impl ModelKind {
    /// All four, in the paper's order.
    pub fn all() -> [ModelKind; 4] {
        [
            ModelKind::HomoLr,
            ModelKind::HeteroLr,
            ModelKind::HeteroSbt,
            ModelKind::HeteroNn,
        ]
    }

    /// Paper display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::HomoLr => "Homo LR",
            ModelKind::HeteroLr => "Hetero LR",
            ModelKind::HeteroSbt => "Hetero SBT",
            ModelKind::HeteroNn => "Hetero NN",
        }
    }

    /// Builds the model over `dataset` for `participants` parties.
    pub fn build(
        &self,
        dataset: &Dataset,
        participants: u32,
        cfg: &TrainConfig,
    ) -> fl::Result<Box<dyn FlModel>> {
        Ok(match self {
            ModelKind::HomoLr => {
                Box::new(fl::models::HomoLr::new(dataset, participants, cfg)) as Box<dyn FlModel>
            }
            ModelKind::HeteroLr => Box::new(fl::models::HeteroLr::new(dataset, participants, cfg)?),
            ModelKind::HeteroSbt => {
                Box::new(fl::models::HeteroSbt::new(dataset, participants, cfg)?)
            }
            ModelKind::HeteroNn => Box::new(fl::models::HeteroNn::new(dataset, participants, cfg)?),
        })
    }
}

/// Which of the three evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// RCV1-like (sparse text).
    Rcv1,
    /// Avazu-like (very sparse CTR).
    Avazu,
    /// LEAF-Synthetic-like (dense).
    Synthetic,
}

impl DatasetKind {
    /// All three, in the paper's order.
    pub fn all() -> [DatasetKind; 3] {
        [
            DatasetKind::Rcv1,
            DatasetKind::Avazu,
            DatasetKind::Synthetic,
        ]
    }

    /// Paper display name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Rcv1 => "RCV1",
            DatasetKind::Avazu => "Avazu",
            DatasetKind::Synthetic => "Synthetic",
        }
    }
}

/// Harness size presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Seconds-per-cell: tiny instances and feature spaces. Every trained
    /// cell of the harness uses it.
    Quick,
    /// Larger instance and feature counts (Fig. 6's saturation probe).
    Default,
}

impl Preset {
    /// `(instances, feature-scale numerator)` knobs per preset.
    fn knobs(&self) -> (usize, f64) {
        match self {
            Preset::Quick => (48, 0.002),
            Preset::Default => (128, 0.005),
        }
    }
}

/// Generates the scaled benchmark dataset for `kind` under `preset`.
///
/// Feature counts keep the paper's RCV1 : Avazu : Synthetic ratios
/// (47 236 : 1 000 000 : 10 000) at the preset's scale; instance counts
/// are capped so real multi-kilobit crypto finishes in seconds per cell.
#[expect(
    clippy::cast_possible_truncation,
    reason = "two floors of positive f64s: the scaled feature and non-zero counts"
)]
pub fn bench_dataset(kind: DatasetKind, preset: Preset) -> Dataset {
    let (instances, feat_scale) = preset.knobs();
    let mut spec = match kind {
        DatasetKind::Rcv1 => DatasetSpec::rcv1(),
        DatasetKind::Avazu => DatasetSpec::avazu(),
        DatasetKind::Synthetic => DatasetSpec::synthetic(),
    };
    let dense = spec.nnz_per_row >= spec.features;
    spec.features = ((spec.features as f64 * feat_scale) as usize).max(16);
    spec.nnz_per_row = if dense {
        spec.features
    } else {
        ((spec.nnz_per_row as f64 * feat_scale.sqrt()) as usize).clamp(4, spec.features)
    };
    spec.instances = instances;
    spec.generate(1.0)
}

/// Deterministic shared key material per key size (cached per process;
/// 4096-bit generation takes a few seconds). Generation runs outside the
/// cache lock: two threads that miss together generate the same keys, and
/// the first insert wins.
pub fn shared_keys(key_bits: u32) -> PaillierKeyPair {
    static CACHE: OnceLock<Mutex<BTreeMap<u32, PaillierKeyPair>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    if let Some(keys) = cache.with(|c| c.get(&key_bits).cloned()) {
        return keys;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(0xF1B0_0057 ^ u64::from(key_bits));
    let keys = PaillierKeyPair::generate(&mut rng, key_bits).expect("key generation");
    cache.with(|c| c.entry(key_bits).or_insert(keys).clone())
}

/// Builds a backend over the shared keys for `key_bits`.
pub fn backend(kind: BackendKind, key_bits: u32, participants: u32) -> Accelerator {
    Accelerator::new(kind, shared_keys(key_bits), participants).expect("backend construction")
}

/// Paper-default training configuration scaled for harness datasets (the
/// epoch cap is each caller's).
pub fn harness_train_config() -> TrainConfig {
    TrainConfig {
        batch_size: 64,
        ..TrainConfig::default()
    }
}

/// Participants in every experiment (the paper's four servers).
pub const PARTICIPANTS: u32 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_monotonically() {
        let q = bench_dataset(DatasetKind::Rcv1, Preset::Quick);
        let d = bench_dataset(DatasetKind::Rcv1, Preset::Default);
        assert!(q.len() < d.len());
        assert!(q.num_features < d.num_features);
    }

    #[test]
    fn dataset_geometry_preserved() {
        let r = bench_dataset(DatasetKind::Rcv1, Preset::Default);
        let a = bench_dataset(DatasetKind::Avazu, Preset::Default);
        let s = bench_dataset(DatasetKind::Synthetic, Preset::Default);
        // Avazu has the widest feature space, synthetic is dense.
        assert!(a.num_features > r.num_features);
        assert!(r.num_features > s.num_features);
        assert!((s.density() - 1.0).abs() < 1e-9);
        assert!(r.density() < 0.5);
    }

    #[test]
    fn shared_keys_are_cached_and_deterministic() {
        let k1 = shared_keys(128);
        let k2 = shared_keys(128);
        assert_eq!(k1.public.n, k2.public.n);
        assert_eq!(k1.public.key_bits, 128);
    }

    /// `paper` trains each cell once, to the most epochs any view reads,
    /// and a view of `E` epochs reads the first `E`. That holds only while
    /// no model reads `TrainConfig::max_epochs` (only `train` may): a
    /// longer run must repeat a shorter one epoch for epoch, to the bit,
    /// and its epoch 0 must be a fresh model's `run_epoch(.., 0)`.
    #[test]
    fn training_longer_only_appends_epochs() {
        use fl::metrics::EpochResult;
        use fl::train::{train, FlEnv};

        const E: usize = 3;
        let data = bench_dataset(DatasetKind::Rcv1, Preset::Quick);
        let setup = |model: ModelKind, kind: BackendKind, max_epochs: usize| {
            let cfg = TrainConfig {
                max_epochs,
                ..harness_train_config()
            };
            let env = FlEnv::new(backend(kind, 128, PARTICIPANTS), cfg.seed);
            let built = model.build(&data, PARTICIPANTS, &cfg).unwrap();
            (cfg, env, built)
        };
        let same = |a: &EpochResult, b: &EpochResult| {
            a.breakdown == b.breakdown && a.loss.to_bits() == b.loss.to_bits()
        };
        for model in ModelKind::all() {
            for kind in [BackendKind::Fate, BackendKind::FlBooster] {
                let (cfg, env, mut m) = setup(model, kind, E);
                let long = train(m.as_mut(), &env, &cfg).unwrap();
                assert_eq!(long.epochs.len(), E, "{model:?} {kind:?} converged early");
                for k in 1..E {
                    let (cfg, env, mut m) = setup(model, kind, k);
                    let short = train(m.as_mut(), &env, &cfg).unwrap();
                    assert_eq!(short.epochs.len(), k);
                    for (e, (s, l)) in short.epochs.iter().zip(&long.epochs).enumerate() {
                        assert!(same(s, l), "{model:?} {kind:?}: epoch {e} of {k} vs {E}");
                    }
                    assert_eq!(
                        (&short.model, &short.dataset, &short.backend, short.key_bits),
                        (&long.model, &long.dataset, &long.backend, long.key_bits)
                    );
                }
                let (cfg, env, mut m) = setup(model, kind, 1000);
                let first = m.run_epoch(&env, &cfg, 0).unwrap();
                assert!(same(&first, &long.epochs[0]), "{model:?} {kind:?}: epoch 0");
            }
        }
    }

    #[test]
    fn all_models_build_on_all_datasets() {
        let cfg = harness_train_config();
        for dk in DatasetKind::all() {
            let data = bench_dataset(dk, Preset::Quick);
            for mk in ModelKind::all() {
                let model = mk.build(&data, PARTICIPANTS, &cfg).unwrap();
                assert_eq!(model.name(), mk.name());
                assert!(model.loss().is_finite());
            }
        }
    }
}
