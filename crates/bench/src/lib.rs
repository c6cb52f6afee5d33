//! Shared scaffolding for the table/figure harness binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (Sec. VI). They share: scaled dataset presets,
//! deterministic per-key-size key material, a model factory, simple table
//! rendering, and a tiny flag parser.
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
use std::sync::Mutex;
use std::sync::OnceLock;

use fl::data::generators::DatasetSpec;
use fl::data::Dataset;
use fl::train::{FlModel, TrainConfig};
use fl::{Accelerator, BackendKind};
use he::paillier::PaillierKeyPair;
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
    /// Seconds-per-cell: tiny instances and feature spaces (CI smoke).
    Quick,
    /// The default: small minutes for a full table.
    Default,
    /// Larger run preserving more of the paper's geometry.
    Large,
}

impl Preset {
    /// `(instances, feature-scale numerator)` knobs per preset.
    fn knobs(&self) -> (usize, f64) {
        match self {
            Preset::Quick => (48, 0.002),
            Preset::Default => (128, 0.005),
            Preset::Large => (512, 0.02),
        }
    }

    /// Parses `--preset quick|default|large`.
    pub fn parse(s: &str) -> Option<Preset> {
        match s {
            "quick" => Some(Preset::Quick),
            "default" => Some(Preset::Default),
            "large" => Some(Preset::Large),
            _ => None,
        }
    }
}

/// Generates the scaled benchmark dataset for `kind` under `preset`.
///
/// Feature counts keep the paper's RCV1 : Avazu : Synthetic ratios
/// (47 236 : 1 000 000 : 10 000) at the preset's scale; instance counts
/// are capped so real multi-kilobit crypto finishes in seconds per cell.
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
    let cached = cache
        .lock()
        .expect("key cache poisoned")
        .get(&key_bits)
        .cloned();
    if let Some(keys) = cached {
        return keys;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(0xF1B0_0057 ^ key_bits as u64);
    let keys = PaillierKeyPair::generate(&mut rng, key_bits).expect("key generation");
    cache
        .lock()
        .expect("key cache poisoned")
        .entry(key_bits)
        .or_insert(keys)
        .clone()
}

/// Builds a backend over the shared keys for `key_bits`.
pub fn backend(kind: BackendKind, key_bits: u32, participants: u32) -> Accelerator {
    Accelerator::new(kind, shared_keys(key_bits), participants).expect("backend construction")
}

/// Paper-default training configuration scaled for harness datasets.
pub fn harness_train_config() -> TrainConfig {
    TrainConfig {
        batch_size: 64,
        max_epochs: 8,
        ..TrainConfig::default()
    }
}

/// Key sizes the paper sweeps.
pub const KEY_SIZES: [u32; 3] = [1024, 2048, 4096];

/// Participants in every experiment (the paper's four servers).
pub const PARTICIPANTS: u32 = 4;

/// Minimal flag parser: `--name value` pairs plus bare flags.
#[derive(Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn parse() -> Args {
        let mut out = Args::default();
        let mut iter = std::env::args().skip(1).peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        out.values
                            .insert(name.to_string(), iter.next().expect("peeked"));
                    }
                    _ => out.flags.push(name.to_string()),
                }
            }
        }
        out
    }

    /// Value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(|s| s.as_str())
    }

    /// Whether bare `--name` was passed.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Preset from `--preset`, defaulting to [`Preset::Default`]
    /// (or [`Preset::Quick`] with `--quick`).
    pub fn preset(&self) -> Preset {
        if self.has("quick") {
            return Preset::Quick;
        }
        self.get("preset")
            .and_then(Preset::parse)
            .unwrap_or(Preset::Default)
    }

    /// Key sizes from `--keys 1024,2048`, defaulting to [`KEY_SIZES`].
    pub fn key_sizes(&self) -> Vec<u32> {
        self.key_sizes_or(&KEY_SIZES)
    }

    /// Key sizes from `--keys`, defaulting to the given list (used by the
    /// heavier full-training harnesses, which default to 1024 only).
    pub fn key_sizes_or(&self, default: &[u32]) -> Vec<u32> {
        match self.get("keys") {
            None => default.to_vec(),
            Some(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        }
    }

    /// Models from `--models homo-lr,hetero-sbt`, defaulting to all four.
    pub fn models(&self) -> Vec<ModelKind> {
        match self.get("models") {
            None => ModelKind::all().to_vec(),
            Some(s) => s
                .split(',')
                .filter_map(|t| match t.trim() {
                    "homo-lr" => Some(ModelKind::HomoLr),
                    "hetero-lr" => Some(ModelKind::HeteroLr),
                    "hetero-sbt" => Some(ModelKind::HeteroSbt),
                    "hetero-nn" => Some(ModelKind::HeteroNn),
                    _ => None,
                })
                .collect(),
        }
    }

    /// Datasets from `--datasets rcv1,avazu`, defaulting to all three.
    pub fn datasets(&self) -> Vec<DatasetKind> {
        match self.get("datasets") {
            None => DatasetKind::all().to_vec(),
            Some(s) => s
                .split(',')
                .filter_map(|t| match t.trim() {
                    "rcv1" => Some(DatasetKind::Rcv1),
                    "avazu" => Some(DatasetKind::Avazu),
                    "synthetic" => Some(DatasetKind::Synthetic),
                    _ => None,
                })
                .collect(),
        }
    }
}

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
