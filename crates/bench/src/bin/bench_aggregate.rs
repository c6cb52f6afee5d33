//! **Aggregation scaling benchmark**: sharded Straus cost versus shard
//! count at fixed memory, and flat versus k-ary edge-aggregator tree at
//! growing party counts. Every printed number is a count or a simulated
//! second, so `results/bench_aggregate.txt` repeats to the byte; wall
//! clock for the same folds is flbench's `accel.aggregate_weighted_ms`
//! and `accel.aggregate_tree_ms`.
//!
//! Two families:
//!
//! * **Shard sweep** — one `parties`-way, single-slot weighted fold at
//!   the anchor key size, re-run at each shard count. The ciphertext
//!   working set is identical at every setting (the shards slice one
//!   stream — fixed memory), so the sweep isolates the split itself.
//!   The scaling column is the MAC-derived critical-path estimate
//!   ([`he::paillier::PaillierPublicKey::weighted_sum_critical_path_estimate`]):
//!   flat MACs over widest-shard-plus-merge MACs is what a
//!   `shards`-wide pool tracks.
//! * **Flat vs tree** — full [`fl::Accelerator`] rounds with the
//!   FLBooster backend: edge aggregators fold their fan-in on simulated
//!   GPU devices (charged from the sharded MAC estimates), partials ride
//!   up the tree with per-hop wire charges from [`fl::Network`].
//!
//! Gates (exit 1 on failure; `run_harness.sh` traps them):
//!
//! 1. **Bit identity** — every sharded result and every tree result must
//!    equal the flat fold's ciphertexts exactly.
//! 2. **Scaling floor** — modeled critical-path speedup at 4 shards must
//!    be ≥ 1.5× flat (1024-bit anchor).
//! 3. **Flat no-regression** — the sharded estimate at 1 shard must
//!    equal the flat estimate *exactly*.
//!
//! ```text
//! cargo run -p flbooster-bench --release --bin bench_aggregate -- \
//!     [--keys 1024] [--parties 10000] [--quick]
//! ```

use fl::backend::EncryptedVector;
use fl::{AggregationTopology, BackendKind, Network};
use flbooster_bench::table::Table;
use flbooster_bench::{backend, shared_keys, Args};
use he::paillier::{Ciphertext, PaillierKeyPair};
use mpint::Natural;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Aggregation-weight width: quantized per-party sample counts.
const WEIGHT_BITS: u32 = 32;
/// Shard counts swept at fixed memory.
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Edge-aggregator fan-in for the tree comparison.
const TREE_ARITY: usize = 16;
/// Modeled critical-path scaling floor at 4 shards.
const SCALING_FLOOR: f64 = 1.5;

/// Distinct ciphertexts generated before tiling (bounds keygen-side
/// encryption work; aggregation cost does not depend on repetition).
const BASE_CTS: usize = 64;

/// Deterministic odd 32-bit aggregation weights.
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

struct ShardRow {
    shards: usize,
    total_limb_mults: u64,
    critical_path_limb_mults: u64,
    modeled_scaling: f64,
    identical: bool,
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

fn shard_sweep(keys: &PaillierKeyPair, parties: usize) -> Vec<ShardRow> {
    let pk = &keys.public;
    let cts = party_cts(keys, parties);
    let wnat: Vec<Natural> = weights(parties).iter().map(|&w| Natural::from(w)).collect();
    let flat = pk.weighted_sum(&cts, &wnat).expect("flat fold");
    let flat_est = pk.weighted_sum_op_estimate(parties, WEIGHT_BITS);
    SHARD_SWEEP
        .iter()
        .map(|&shards| {
            let result = pk
                .weighted_sum_sharded(&cts, &wnat, shards)
                .expect("sharded fold");
            let cp = pk.weighted_sum_critical_path_estimate(parties, WEIGHT_BITS, shards);
            ShardRow {
                shards,
                total_limb_mults: pk.weighted_sum_sharded_op_estimate(parties, WEIGHT_BITS, shards),
                critical_path_limb_mults: cp,
                modeled_scaling: flat_est as f64 / cp.max(1) as f64,
                identical: result == flat,
            }
        })
        .collect()
}

fn tree_compare(key_bits: u32, parties: usize, shards: usize) -> TreeRow {
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
    let tree_acc = backend(BackendKind::FlBooster, key_bits, 4)
        .with_topology(topology)
        .with_aggregation_shards(shards);
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
    let args = Args::parse();
    let quick = args.has("quick");
    let key_bits = args.key_sizes_or(&[1024])[0];
    let parties: usize = args
        .get("parties")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let tree_parties: Vec<usize> = if quick {
        vec![1_000, 4_000]
    } else {
        vec![1_000, 10_000, 100_000]
    };

    println!(
        "Aggregation scaling — {key_bits}-bit keys, {parties} parties, \
         shards {SHARD_SWEEP:?}, tree arity {TREE_ARITY}, parties {tree_parties:?}\n"
    );

    let keys = shared_keys(key_bits);
    let shard_rows = shard_sweep(&keys, parties);
    let mut table = Table::new([
        "Shards",
        "Total mults",
        "Critical-path mults",
        "Modeled scaling",
        "Identical",
    ]);
    for r in &shard_rows {
        table.row([
            r.shards.to_string(),
            r.total_limb_mults.to_string(),
            r.critical_path_limb_mults.to_string(),
            format!("{:.2}x", r.modeled_scaling),
            r.identical.to_string(),
        ]);
    }
    table.print();
    println!();

    let tree_rows: Vec<TreeRow> = tree_parties
        .iter()
        .map(|&p| tree_compare(key_bits, p, 4))
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

    // Gate 1: bit identity everywhere.
    for r in &shard_rows {
        if !r.identical {
            println!(
                "GATE FAILED: {} shards diverged from the flat fold",
                r.shards
            );
            failed = true;
        }
    }
    for r in &tree_rows {
        if !r.identical {
            println!(
                "GATE FAILED: tree aggregate at {} parties diverged from flat",
                r.parties
            );
            failed = true;
        }
    }
    if !failed {
        println!("gate ok: sharded and tree results bit-identical to flat");
    }

    // Gate 2: modeled critical-path scaling floor at 4 shards.
    if let Some(r4) = shard_rows.iter().find(|r| r.shards == 4) {
        if r4.modeled_scaling < SCALING_FLOOR {
            println!(
                "GATE FAILED: modeled scaling {:.2}x at 4 shards < required {SCALING_FLOOR}x",
                r4.modeled_scaling
            );
            failed = true;
        } else {
            println!(
                "gate ok: modeled scaling {:.2}x at 4 shards >= {SCALING_FLOOR}x",
                r4.modeled_scaling
            );
        }
    }

    // Gate 3: flat no-regression — estimates equal exactly at 1 shard.
    let pk = &keys.public;
    let flat_est = pk.weighted_sum_op_estimate(parties, WEIGHT_BITS);
    let shard1_est = pk.weighted_sum_sharded_op_estimate(parties, WEIGHT_BITS, 1);
    if shard1_est != flat_est {
        println!("GATE FAILED: 1-shard estimate {shard1_est} != flat estimate {flat_est}");
        failed = true;
    } else {
        println!("gate ok: 1-shard estimate equals flat estimate ({flat_est})");
    }

    if failed {
        std::process::exit(1);
    }
    println!("All aggregation gates passed.");
}
