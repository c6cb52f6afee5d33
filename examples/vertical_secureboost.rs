//! Vertical federated SecureBoost: three organizations hold disjoint
//! feature sets for the same customers; only the first holds labels.
//! Boosted trees are grown with encrypted gradient histograms — the
//! passive parties never see gradients, the active party never sees
//! foreign features.
//!
//! ```text
//! cargo run --release --example vertical_secureboost
//! ```

use fl::data::generators::DatasetSpec;
use fl::models::HeteroSbt;
use fl::train::{FlEnv, FlModel, TrainConfig};
use fl::{Accelerator, BackendKind};
use he::paillier::PaillierKeyPair;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let mut spec = DatasetSpec::rcv1();
    spec.features = 30; // 10 features per organization
    spec.nnz_per_row = 12;
    spec.instances = 240;
    let dataset = spec.generate(1.0);
    println!(
        "joint task: {} customers, {} features split across 3 organizations",
        dataset.len(),
        dataset.num_features
    );

    let cfg = TrainConfig::default();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5B7);
    let keys = PaillierKeyPair::generate(&mut rng, 256).expect("keygen");
    let accel = Accelerator::new(BackendKind::FlBooster, keys, 3).expect("backend");
    let env = FlEnv::new(accel, cfg.seed);

    let mut model = HeteroSbt::new(&dataset, 3, &cfg).expect("model");
    println!("initial loss: {:.5}", model.loss());

    for round in 0..4 {
        let result = model.run_epoch(&env, &cfg, round).expect("boosting round");
        let tree = model.trees().last().expect("tree grown");
        // Down: one g‖h word per customer to each of the two passive
        // organizations. Up: their packed histogram replies, a few
        // ciphertexts per tree node, each decrypted once.
        let down = 2 * dataset.len() as u64;
        let up = result.breakdown.ciphertexts - down;
        println!(
            "round {}: tree with {} leaves, loss {:.5}, {:.3} sim s \
             ({down} ciphertexts down, {up} up, {up} decrypts)",
            round + 1,
            tree.leaf_count(),
            result.loss,
            result.breakdown.total_seconds(),
        );
    }

    let stats = env.network.stats();
    println!(
        "\ntraffic: {} messages, {} ciphertexts, {} bytes, {} retries",
        stats.messages, stats.ciphertexts, stats.bytes, stats.retries
    );
    println!("note: gradients crossed the wire only as Paillier ciphertexts (GH-packed).");
}
