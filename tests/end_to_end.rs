//! End-to-end integration tests spanning every crate: encrypted
//! federated training must match its plaintext counterpart within the
//! quantization bound, all backends must agree on results while
//! disagreeing (correctly) on cost, and the full platform pipeline must
//! be self-consistent.

use fl::data::generators::DatasetSpec;
use fl::models::{HeteroLr, HeteroNn, HeteroSbt, HomoLr};
use fl::train::{train, FlEnv, FlModel, TrainConfig};
use fl::{Accelerator, BackendKind};
use he::paillier::PaillierKeyPair;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn keys() -> PaillierKeyPair {
    let mut rng = ChaCha8Rng::seed_from_u64(0xE2E);
    PaillierKeyPair::generate(&mut rng, 128).unwrap()
}

fn dataset(features: usize, instances: usize) -> fl::data::Dataset {
    let mut spec = DatasetSpec::synthetic();
    spec.features = features;
    spec.nnz_per_row = features;
    spec.instances = instances;
    spec.generate(1.0)
}

#[test]
fn encrypted_fedavg_equals_plaintext_fedavg_within_quantization() {
    // Train Homo LR federated (encrypted) and compare its weights with a
    // plaintext centralized run using the same batching and optimizer.
    let data = dataset(24, 200);
    let cfg = TrainConfig {
        batch_size: 50,
        ..TrainConfig::default()
    };
    let env = FlEnv::new(
        Accelerator::new(BackendKind::FlBooster, keys(), 4).unwrap(),
        1,
    );
    let mut fed = HomoLr::new(&data, 4, &cfg);
    fed.run_epoch(&env, &cfg, 0).unwrap();

    // Plaintext reference: same protocol via the mathematical definition —
    // average the 4 clients' exact batch gradients and step the same Adam.
    use fl::data::horizontal_split;
    use fl::optim::Adam;
    use fl::train::sigmoid;
    let parts = horizontal_split(&data, 4);
    let mut w = vec![0.0; data.num_features];
    let mut opt = Adam::new(cfg.learning_rate);
    opt.l2 = cfg.l2;
    for round in 0..(parts[0].len().div_ceil(cfg.batch_size)) {
        let mut grad = vec![0.0; w.len()];
        for part in &parts {
            let lo = (round * cfg.batch_size).min(part.len());
            let hi = ((round + 1) * cfg.batch_size).min(part.len());
            let count = (hi - lo).max(1) as f64;
            for i in lo..hi {
                let p = sigmoid(part.rows[i].dot(&w));
                part.rows[i].axpy_into((p - part.labels[i]) / count, &mut grad);
            }
        }
        let grad: Vec<f64> = grad.iter().map(|g| g / parts.len() as f64).collect();
        opt.step(&mut w, &grad);
    }

    // Quantization error per aggregated component is bounded; after Adam
    // normalization the weight difference stays tiny.
    let max_diff = fed
        .weights()
        .iter()
        .zip(&w)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_diff < 2e-3, "weights diverged by {max_diff}");
}

#[test]
fn all_backends_produce_identical_models() {
    let data = dataset(16, 120);
    let cfg = TrainConfig {
        batch_size: 40,
        ..TrainConfig::default()
    };
    let shared = keys();
    let mut final_losses = Vec::new();
    for kind in [
        BackendKind::Fate,
        BackendKind::Haflo,
        BackendKind::FlBooster,
        BackendKind::WithoutGhe,
        BackendKind::WithoutBc,
    ] {
        let env = FlEnv::new(Accelerator::new(kind, shared.clone(), 4).unwrap(), 1);
        let mut model = HomoLr::new(&data, 4, &cfg);
        model.run_epoch(&env, &cfg, 0).unwrap();
        final_losses.push(model.loss());
    }
    for l in &final_losses[1..] {
        assert_eq!(*l, final_losses[0], "backends disagreed on the model");
    }
}

#[test]
fn backend_cost_ordering_holds_across_models() {
    // FATE must be the slowest and FLBooster the fastest, for every model.
    let data = dataset(16, 96);
    let cfg = TrainConfig {
        batch_size: 48,
        ..TrainConfig::default()
    };
    let shared = keys();

    type Builder = Box<dyn Fn(&fl::data::Dataset, &TrainConfig) -> Box<dyn FlModel>>;
    let builders: Vec<(&str, Builder)> = vec![
        (
            "homo-lr",
            Box::new(|d: &fl::data::Dataset, c: &TrainConfig| {
                Box::new(HomoLr::new(d, 4, c)) as Box<dyn FlModel>
            }),
        ),
        (
            "hetero-lr",
            Box::new(|d, c| Box::new(HeteroLr::new(d, 4, c).unwrap())),
        ),
        (
            "hetero-sbt",
            Box::new(|d, c| Box::new(HeteroSbt::new(d, 4, c).unwrap())),
        ),
        (
            "hetero-nn",
            Box::new(|d, c| Box::new(HeteroNn::new(d, 4, c).unwrap())),
        ),
    ];

    for (name, build) in &builders {
        let mut totals = Vec::new();
        for kind in BackendKind::headline() {
            let env = FlEnv::new(Accelerator::new(kind, shared.clone(), 4).unwrap(), 1);
            let mut model = build(&data, &cfg);
            let r = model.run_epoch(&env, &cfg, 0).unwrap();
            totals.push(r.breakdown.total_seconds());
        }
        assert!(
            totals[0] > totals[2],
            "{name}: FATE ({}) must be slower than FLBooster ({})",
            totals[0],
            totals[2]
        );
        assert!(
            totals[1] > totals[2],
            "{name}: HAFLO ({}) must be slower than FLBooster ({})",
            totals[1],
            totals[2]
        );
    }
}

#[test]
fn training_to_convergence_stops_on_tolerance() {
    let data = dataset(8, 64);
    let cfg = TrainConfig {
        batch_size: 64,
        max_epochs: 50,
        tolerance: 1e-3, // loose tolerance converges in a few epochs
        learning_rate: 0.3,
        ..TrainConfig::default()
    };
    let env = FlEnv::new(
        Accelerator::new(BackendKind::FlBooster, keys(), 4).unwrap(),
        1,
    );
    let mut model = HomoLr::new(&data, 4, &cfg);
    let report = train(&mut model, &env, &cfg).unwrap();
    assert!(report.converged, "should hit the tolerance rule");
    assert!(report.epochs.len() < 50, "converged before the epoch cap");
    // Loss is monotone non-increasing in this convex setting (up to
    // quantization jitter).
    for w in report.epochs.windows(2) {
        assert!(w[1].loss <= w[0].loss + 1e-3);
    }
}

#[test]
fn platform_pipeline_matches_direct_he_path() {
    // The Accelerator pipeline (quantize→pack→encrypt→decrypt→unpack)
    // must agree with manually composing codec + he.
    let mut rng = ChaCha8Rng::seed_from_u64(0xAB);
    let keys = PaillierKeyPair::generate(&mut rng, 256).unwrap();
    let platform = Accelerator::new(BackendKind::FlBooster, keys.clone(), 2).unwrap();

    let grads: Vec<f64> = (0..40).map(|i| ((i as f64) * 0.1).sin() * 0.8).collect();
    let encrypted = platform.encrypt(&grads, 5).unwrap();
    let via_pipeline = platform.decrypt_sum(&encrypted, 1).unwrap();

    // Manual path with the same codec.
    let packed = platform.codec().pack(&grads).unwrap();
    let manual: Vec<f64> = {
        let mut words = Vec::new();
        for (i, word) in packed.iter().enumerate() {
            let c = keys
                .public
                .encrypt(&word.clone(), &mut ChaCha8Rng::seed_from_u64(i as u64))
                .unwrap();
            words.push(keys.private.decrypt_crt(&c).unwrap());
        }
        platform.codec().unpack(&words, grads.len()).unwrap()
    };
    assert_eq!(
        via_pipeline, manual,
        "pipeline and manual paths must agree exactly"
    );
}

#[test]
fn hetero_models_train_through_all_ablations() {
    let data = dataset(12, 80);
    let cfg = TrainConfig {
        batch_size: 40,
        ..TrainConfig::default()
    };
    let shared = keys();
    for kind in BackendKind::ablations() {
        let env = FlEnv::new(Accelerator::new(kind, shared.clone(), 3).unwrap(), 2);
        let mut lr = HeteroLr::new(&data, 3, &cfg).unwrap();
        let before = lr.loss();
        lr.run_epoch(&env, &cfg, 0).unwrap();
        assert!(
            lr.loss() < before,
            "{}: hetero LR failed to learn",
            kind.name()
        );

        let mut sbt = HeteroSbt::new(&data, 3, &cfg).unwrap();
        let before = sbt.loss();
        sbt.run_epoch(&env, &cfg, 0).unwrap();
        assert!(sbt.loss() < before, "{}: SBT failed to learn", kind.name());
    }
}

#[test]
fn phase_breakdown_sums_to_the_component_totals_for_every_model() {
    // The six-phase re-attribution must account for exactly the seconds
    // already charged to Others/HE/Comm — nothing gained, nothing lost —
    // and sequential paths must report elapsed == work (no overlap).
    let data = dataset(16, 96);
    let cfg = TrainConfig {
        batch_size: 48,
        ..TrainConfig::default()
    };
    let shared = keys();

    type Builder = Box<dyn Fn(&fl::data::Dataset, &TrainConfig) -> Box<dyn FlModel>>;
    let builders: Vec<(&str, Builder)> = vec![
        (
            "homo-lr",
            Box::new(|d: &fl::data::Dataset, c: &TrainConfig| {
                Box::new(HomoLr::new(d, 4, c)) as Box<dyn FlModel>
            }),
        ),
        (
            "hetero-lr",
            Box::new(|d, c| Box::new(HeteroLr::new(d, 4, c).unwrap())),
        ),
        (
            "hetero-sbt",
            Box::new(|d, c| Box::new(HeteroSbt::new(d, 4, c).unwrap())),
        ),
        (
            "hetero-nn",
            Box::new(|d, c| Box::new(HeteroNn::new(d, 4, c).unwrap())),
        ),
    ];

    let pipelined = TrainConfig {
        engine: fl::EngineConfig::default(),
        ..cfg.clone()
    };

    for (name, build) in &builders {
        let epoch = |cfg: &TrainConfig| {
            let env = FlEnv::new(
                Accelerator::new(BackendKind::FlBooster, shared.clone(), 4).unwrap(),
                1,
            );
            build(&data, cfg).run_epoch(&env, cfg, 0).unwrap()
        };
        let seq = epoch(&cfg);
        let b = seq.breakdown;
        let total = b.total_seconds();
        let phase_total = b.phases.total();
        assert!(total > 0.0, "{name}: nothing charged");
        // Same charges, different summation grouping: equal to ulps.
        assert!(
            (phase_total - total).abs() <= 1e-9 * total,
            "{name}: phases {phase_total} != components {total}"
        );
        assert!(
            (b.round_seconds - total).abs() <= 1e-9 * total,
            "{name}: sequential elapsed {} != work {total}",
            b.round_seconds
        );
        assert!((b.overlap_speedup() - 1.0).abs() < 1e-6, "{name}");

        // Every model honours a pipelined `cfg.engine`: the same work
        // lands in the same components and phases and the model learns
        // the same thing, but the elapsed round is shorter wherever a
        // secure-aggregation round ran. SBT has none — its histogram
        // folds drive the HE backend directly — so nothing overlaps.
        let piped = epoch(&pipelined);
        let pb = piped.breakdown;
        assert_eq!(piped.loss, seq.loss, "{name}");
        assert_eq!(pb.phases, b.phases, "{name}");
        assert_eq!(
            (pb.he_seconds, pb.comm_seconds, pb.other_seconds),
            (b.he_seconds, b.comm_seconds, b.other_seconds),
            "{name}"
        );
        if *name == "hetero-sbt" {
            assert_eq!(pb, b, "{name}");
        } else {
            assert!(pb.round_seconds < total, "{name}: engine must overlap");
            assert!(pb.overlap_speedup() > 1.0, "{name}");
        }
    }
}
