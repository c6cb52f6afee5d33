//! **Aggregation topology benchmark**: a weighted fold through a flat
//! server versus a k-ary edge-aggregator tree at growing party counts,
//! as full [`fl::Accelerator`] rounds with the FLBooster backend. Edge
//! aggregators fold their fan-in on simulated GPU devices, each slot
//! charged as the Bos–Coster chain it runs and each launch its fix-up's
//! `R`-power; partials ride up the tree with per-hop wire charges from
//! [`fl::Network`]. Every printed number is a count or a simulated
//! second, so `results/bench_aggregate.txt` repeats to the byte; wall
//! clock for the same folds is flbench's `accel.aggregate_weighted_ms`
//! and `accel.aggregate_tree_ms`.
//!
//! Gate (exit 1 on failure; `run_harness.sh` traps it): every tree
//! result must equal the flat fold's ciphertexts exactly.
//!
//! ```text
//! cargo run -p flbooster-bench --release --bin bench_aggregate -- [--quick]
//! ```

use fl::backend::EncryptedVector;
use fl::{AggregationTopology, BackendKind, Network};
use flbooster_bench::table::Table;
use flbooster_bench::{backend, quick_tier, shared_keys};
use he::paillier::{Ciphertext, PaillierKeyPair};
use mpint::Natural;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Key size of every fold.
const KEY_BITS: u32 = 1024;
/// Edge-aggregator fan-in for the tree comparison.
const TREE_ARITY: usize = 16;

/// Distinct ciphertexts generated before tiling (bounds keygen-side
/// encryption work; aggregation cost does not depend on repetition).
const BASE_CTS: usize = 64;

/// Deterministic odd 32-bit aggregation weights: quantized per-party
/// sample counts.
fn weights(count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|k| (k.wrapping_mul(2_654_435_761) & 0xFFFF_FFFF) | 1)
        .collect()
}

/// `parties` ciphertexts tiled from [`BASE_CTS`] distinct encryptions.
fn party_cts(keys: &PaillierKeyPair, parties: usize) -> Vec<Ciphertext> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA66_05 ^ parties as u64);
    let base: Vec<Ciphertext> = (0..BASE_CTS.min(parties))
        .map(|i| {
            let m = Natural::from(rng.next_u64());
            let r = keys.public.batch_blinding(0xA66, i);
            keys.public.encrypt_with_r(&m, &r).expect("encrypt")
        })
        .collect();
    (0..parties).map(|i| base[i % base.len()].clone()).collect()
}

struct TreeRow {
    parties: usize,
    uplink_messages: u64,
    uplink_bytes: u64,
    uplink_sim_seconds: f64,
    flat_sim_he_seconds: f64,
    tree_sim_he_seconds: f64,
    identical: bool,
}

fn tree_compare(key_bits: u32, parties: usize) -> TreeRow {
    let keys = shared_keys(key_bits);
    let cts = party_cts(&keys, parties);
    let vectors: Vec<EncryptedVector> = cts
        .into_iter()
        .map(|ct| EncryptedVector {
            cts: vec![ct],
            count: 1,
        })
        .collect();
    let ws = weights(parties);

    let flat_acc = backend(BackendKind::FlBooster, key_bits, 4);
    let flat = flat_acc
        .aggregate_weighted(&vectors, &ws)
        .expect("flat aggregate");
    let flat_t = flat_acc.take_timing();

    let topology = AggregationTopology::tree(TREE_ARITY);
    let tree_acc = backend(BackendKind::FlBooster, key_bits, 4).with_topology(topology);
    let tree = tree_acc
        .aggregate_weighted(&vectors, &ws)
        .expect("tree aggregate");
    let tree_t = tree_acc.take_timing();

    // Per-hop wire charges for the intermediate partial aggregates.
    let net = Network::new(tree_acc.network_profile(), 0x7EE);
    let hops = topology.uplink_messages(parties);
    let mut uplink_sim_seconds = 0.0;
    for _ in 0..hops {
        uplink_sim_seconds += net
            .send(tree.ciphertext_count(), tree.bytes())
            .expect("uplink send");
    }

    TreeRow {
        parties,
        uplink_messages: hops,
        uplink_bytes: hops * tree.bytes(),
        uplink_sim_seconds,
        flat_sim_he_seconds: flat_t.he_seconds,
        tree_sim_he_seconds: tree_t.he_seconds,
        identical: tree == flat,
    }
}

fn main() {
    let (quick, _) = quick_tier(0, "bench_aggregate [--quick]");
    let tree_parties: Vec<usize> = if quick {
        vec![1_000, 4_000]
    } else {
        vec![1_000, 10_000, 100_000]
    };

    println!(
        "Aggregation topology — {KEY_BITS}-bit keys, tree arity {TREE_ARITY}, \
         parties {tree_parties:?}\n"
    );

    let tree_rows: Vec<TreeRow> = tree_parties
        .iter()
        .map(|&p| tree_compare(KEY_BITS, p))
        .collect();
    let mut ttable = Table::new([
        "Parties",
        "Uplink msgs",
        "Uplink bytes",
        "Uplink sim s",
        "Flat HE sim s",
        "Tree HE sim s",
        "Identical",
    ]);
    for r in &tree_rows {
        ttable.row([
            r.parties.to_string(),
            r.uplink_messages.to_string(),
            r.uplink_bytes.to_string(),
            format!("{:.4}", r.uplink_sim_seconds),
            format!("{:.4}", r.flat_sim_he_seconds),
            format!("{:.4}", r.tree_sim_he_seconds),
            r.identical.to_string(),
        ]);
    }
    ttable.print();
    println!();

    let mut failed = false;
    for r in &tree_rows {
        if !r.identical {
            println!(
                "GATE FAILED: tree aggregate at {} parties diverged from flat",
                r.parties
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("gate ok: tree results bit-identical to flat");
}
