//! Property-based tests for the FL substrate: partitioning conservation,
//! secure aggregation correctness, and network-model monotonicity.

use fl::data::generators::DatasetSpec;
use fl::data::{horizontal_split, vertical_split, Dataset, SparseRow};
use fl::engine::{run_round, EngineConfig};
use fl::train::{FlEnv, TrainConfig};
use fl::{Accelerator, AggregationTopology, BackendKind, EpochBreakdown, Network, NetworkConfig};
use he::paillier::PaillierKeyPair;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

#[expect(
    clippy::unwrap_used,
    reason = "a failed keygen is the calling test's failure"
)]
fn keys() -> &'static PaillierKeyPair {
    static KEYS: OnceLock<PaillierKeyPair> = OnceLock::new();
    KEYS.get_or_init(|| {
        PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(0xF1), 128).unwrap()
    })
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (4usize..64, 8usize..60, any::<u64>()).prop_map(|(features, instances, seed)| {
        let mut spec = DatasetSpec::rcv1();
        spec.features = features;
        spec.nnz_per_row = (features / 2).max(1);
        spec.instances = instances;
        spec.seed = seed;
        spec.generate(1.0)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn horizontal_split_conserves_everything(data in arb_dataset(), parts in 1u32..8) {
        let split = horizontal_split(&data, parts);
        prop_assert_eq!(split.len(), parts as usize);
        let total: usize = split.iter().map(|p| p.len()).sum();
        prop_assert_eq!(total, data.len());
        let label_sum: f64 = data.labels.iter().sum();
        let split_sum: f64 = split.iter().flat_map(|p| p.labels.iter()).sum();
        prop_assert!((label_sum - split_sum).abs() < 1e-9);
        let sizes: Vec<usize> = split.iter().map(|p| p.len()).collect();
        prop_assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn vertical_split_partitions_features(data in arb_dataset(), parts in 1u32..4) {
        prop_assume!(data.num_features >= parts as usize);
        let shards = vertical_split(&data, parts);
        // Ranges tile [0, num_features).
        prop_assert_eq!(shards[0].feature_range.0, 0);
        prop_assert_eq!(shards.last().unwrap().feature_range.1 as usize, data.num_features);
        // Reassembling rows from shards reproduces the originals.
        for (i, row) in data.rows.iter().enumerate() {
            let mut rebuilt: Vec<(u32, f64)> = Vec::new();
            for shard in &shards {
                let (lo, _) = shard.feature_range;
                for (j, &idx) in shard.rows[i].indices.iter().enumerate() {
                    rebuilt.push((idx + lo, shard.rows[i].values[j]));
                }
            }
            let original: Vec<(u32, f64)> =
                row.indices.iter().copied().zip(row.values.iter().copied()).collect();
            prop_assert_eq!(rebuilt, original, "row {} not conserved", i);
        }
    }

    #[test]
    fn sparse_dot_matches_dense(indices in proptest::collection::btree_set(0u32..64, 0..20),
                                 seed in any::<u64>()) {
        let indices: Vec<u32> = indices.into_iter().collect();
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 500.0 - 1.0
        };
        let values: Vec<f64> = indices.iter().map(|_| next()).collect();
        let weights: Vec<f64> = (0..64).map(|_| next()).collect();
        let row = SparseRow::new(indices.clone(), values.clone());
        let mut dense = vec![0.0; 64];
        for (&i, &v) in indices.iter().zip(&values) {
            dense[i as usize] = v;
        }
        let expected: f64 = dense.iter().zip(&weights).map(|(a, b)| a * b).sum();
        prop_assert!((row.dot(&weights) - expected).abs() < 1e-9);
    }

    #[test]
    fn engine_round_sum_is_correct_for_any_party_count(
        values in proptest::collection::vec(-0.9f64..0.9, 1..40),
        parties in 1usize..4,
    ) {
        let env = FlEnv::new(
            Accelerator::new(BackendKind::FlBooster, keys().clone(), 4).unwrap(),
            1,
        );
        let vectors: Vec<Vec<f64>> = (0..parties)
            .map(|k| values.iter().map(|v| v * (k as f64 + 1.0) / parties as f64).collect())
            .collect();
        let mut breakdown = EpochBreakdown::default();
        let out = run_round(
            &env,
            &EngineConfig::sequential(),
            &TrainConfig::default(),
            &vectors,
            &vec![0; parties],
            99,
            &mut breakdown,
        )
        .unwrap();
        let bound = parties as f64 * env.accel.codec().quantizer().max_error() + 1e-12;
        for (i, s) in out.sums.iter().enumerate() {
            let expected: f64 = vectors.iter().map(|v| v[i]).sum();
            prop_assert!((s - expected).abs() <= bound, "component {}: {} vs {}", i, s, expected);
        }
        // Every charged second sits in one component and one phase, and
        // a sequential round's elapsed time is its work.
        let total = breakdown.total_seconds();
        prop_assert!((breakdown.phases.total() - total).abs() <= 1e-9 * total);
        prop_assert!((breakdown.round_seconds - total).abs() <= 1e-9 * total);
    }

    /// Deterministic simulation of `run_round` over a random cell of
    /// heterogeneity × deadline × topology × duplex × pipelining × link
    /// loss. A deadline-free dry run of the same seed on a lossless link
    /// gives every client's `encrypt_done` (a client's compute and encrypt
    /// do not touch the network), so who a deadline drops is known before
    /// the run under test. On a lossy link a send may exhaust its attempts:
    /// the round is then the typed `NetworkFailure`, never a panic or a
    /// wrong sum.
    #[test]
    fn engine_round_invariants_hold_for_any_schedule(
        values in proptest::collection::vec(-0.9f64..0.9, 1..10),
        parties in 1usize..7,
        seed in any::<u64>(),
        timeout_sel in 0usize..4,
        topology_sel in 0usize..3,
        duplex in 1u32..3,
        pipelined in any::<bool>(),
        lossy in any::<bool>(),
    ) {
        let topology = [
            AggregationTopology::Flat,
            AggregationTopology::tree(2),
            AggregationTopology::tree(4),
        ][topology_sel];
        let accel = Accelerator::new(BackendKind::FlBooster, keys().clone(), 8)
            .unwrap()
            .with_topology(topology);
        let link = accel.network_profile().with_duplex_streams(duplex);
        let mut env = FlEnv { accel, network: Network::new(link, seed) };
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let multipliers: Vec<f64> =
            (0..parties).map(|_| 0.5 + (next() % 1000) as f64 / 250.0).collect();
        let vectors: Vec<Vec<f64>> = (0..parties)
            .map(|k| values.iter().map(|v| v * (k as f64 + 1.0) / parties as f64).collect())
            .collect();
        let engine = EngineConfig { pipelined, ..EngineConfig::default() }
            .with_compute_multipliers(multipliers);
        let run = |env: &FlEnv, engine: &EngineConfig, breakdown: &mut EpochBreakdown| {
            let flops = vec![50_000; parties];
            run_round(env, engine, &TrainConfig::default(), &vectors, &flops, seed, breakdown)
        };

        let dry = run(&env, &engine, &mut EpochBreakdown::default()).unwrap();
        let mut done: Vec<f64> = dry.timelines.iter().map(|t| t.encrypt_done).collect();
        done.sort_by(f64::total_cmp);
        // No deadline; one nobody meets; the median client's; one everybody meets.
        let timeout = [
            None,
            Some(done[0] / 2.0),
            Some(done[(parties - 1) / 2]),
            Some(done[parties - 1] * 2.0),
        ][timeout_sel];
        let late = |k: &usize| timeout.is_some_and(|t| dry.timelines[*k].encrypt_done > t);
        let (dropped, survivors): (Vec<usize>, Vec<usize>) = (0..parties).partition(late);

        let drop_probability = if lossy { 0.3 } else { 0.0 };
        env.network = Network::new(link.with_drop_probability(drop_probability), seed);
        let mut breakdown = EpochBreakdown::default();
        let engine = EngineConfig { straggler_timeout: timeout, ..engine };
        let out = match run(&env, &engine, &mut breakdown) {
            Ok(out) => out,
            Err(e @ fl::Error::NetworkFailure { .. }) => {
                prop_assert!(lossy, "{} on a lossless link", e);
                prop_assert_eq!(e.to_string(), "network send failed after 5 attempts");
                return Ok(());
            }
            Err(e) => {
                prop_assert!(survivors.is_empty(), "{} with survivors {:?}", e, survivors);
                prop_assert_eq!(e, fl::Error::StragglerTimeout { client: dropped[0] });
                return Ok(());
            }
        };
        // Survivors and dropped partition 0..p, each ascending.
        prop_assert_eq!(&out.dropped, &dropped);
        prop_assert_eq!(&out.survivors, &survivors);
        // The sums are the survivors' alone.
        let bound = survivors.len() as f64 * env.accel.codec().quantizer().max_error() + 1e-12;
        for (i, s) in out.sums.iter().enumerate() {
            let expected: f64 = survivors.iter().map(|&k| vectors[k][i]).sum();
            prop_assert!((s - expected).abs() <= bound, "component {}: {} vs {}", i, s, expected);
        }
        let total = breakdown.total_seconds();
        prop_assert!((breakdown.phases.total() - total).abs() <= 1e-9 * total);
        // One phase per client at a time: a survivor's stamps are in phase
        // order, and when anyone dropped the server waited for the deadline
        // before broadcasting. A dropped client has no stamp past its
        // encryption.
        let mut last_decrypt = 0.0f64;
        for &k in &out.survivors {
            let t = &out.timelines[k];
            let stamps = [
                t.compute_done,
                t.encrypt_done,
                t.uplink_start,
                t.uplink_done,
                t.downlink_done,
                t.decrypt_done,
            ];
            prop_assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "client {}: {:?}", k, stamps);
            if let (Some(deadline), false) = (timeout, dropped.is_empty()) {
                prop_assert!(t.downlink_done >= deadline, "client {} before {}", k, deadline);
            }
            last_decrypt = last_decrypt.max(t.decrypt_done);
        }
        for &k in &out.dropped {
            let t = &out.timelines[k];
            prop_assert_eq!([t.uplink_start, t.uplink_done, t.downlink_done, t.decrypt_done], [0.0; 4]);
        }
        // A pipelined round lasts until its last survivor has decrypted.
        if pipelined {
            prop_assert_eq!(out.round_seconds.to_bits(), last_decrypt.to_bits());
        }
        // The link carried every delivered payload once, plus one copy per
        // retry, which only a lossy link makes.
        let net = env.network.stats();
        prop_assert_eq!(net.ciphertexts, breakdown.ciphertexts);
        prop_assert!(net.bytes >= breakdown.comm_bytes);
        prop_assert_eq!(net.bytes > breakdown.comm_bytes, net.retries > 0);
        prop_assert!(lossy || net.retries == 0);
    }

    #[test]
    fn network_time_is_monotone(cts in 0u64..1000, bytes in 0u64..1_000_000, extra in 1u64..100) {
        let net = Network::new(NetworkConfig::fate_profile(), 1);
        let base = net.send(cts, bytes).unwrap();
        let more_cts = net.send(cts + extra, bytes).unwrap();
        let more_bytes = net.send(cts, bytes + extra * 1000).unwrap();
        prop_assert!(more_cts > base);
        prop_assert!(more_bytes > base);
    }
}

/// The failure branch of the lossy cell above, made certain: on a link that
/// drops everything, the first uplink burns its five attempts and the round
/// is `NetworkFailure` — nothing delivered, every attempt's bytes counted.
#[test]
fn a_round_over_a_dead_link_is_a_network_failure() {
    let accel = Accelerator::new(BackendKind::FlBooster, keys().clone(), 4).unwrap();
    let dead = accel.network_profile().with_drop_probability(1.0);
    let env = FlEnv {
        accel,
        network: Network::new(dead, 3),
    };
    let vectors = vec![vec![0.25, -0.5]; 3];
    let err = run_round(
        &env,
        &EngineConfig::default(),
        &TrainConfig::default(),
        &vectors,
        &[0; 3],
        7,
        &mut EpochBreakdown::default(),
    )
    .unwrap_err();
    assert_eq!(err, fl::Error::NetworkFailure { attempts: 5 });
    assert_eq!(err.to_string(), "network send failed after 5 attempts");
    // Client 0 uploads first, encrypted under the round seed.
    let (upload, _) = env.accel.encrypt_timed(&vectors[0], 7).unwrap();
    let net = env.network.stats();
    assert_eq!((net.messages, net.ciphertexts, net.retries), (0, 0, 5));
    assert_eq!(net.bytes, 5 * upload.bytes());
}

proptest! {
    // HE-heavy cases: fewer iterations, each at a random tree arity.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Flat and tree aggregation must decrypt to exactly what the naive
    /// per-party scalar-mul + add loop decrypts to, for every tree arity
    /// and both decryption paths.
    #[test]
    fn sharded_and_tree_aggregation_decrypt_like_the_naive_loop(
        parties in 2usize..10,
        slots in 1usize..4,
        arity_sel in 0usize..3,
        seed in any::<u64>(),
    ) {
        const ARITIES: [usize; 3] = [2, 4, 16];
        let k = keys();
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Party batches of raw HE ciphertexts with deterministic
        // blinding, plus small weights so the plaintext sum is checkable
        // in u64 arithmetic.
        let plain: Vec<Vec<u64>> = (0..parties)
            .map(|_| (0..slots).map(|_| next() % (1 << 16)).collect())
            .collect();
        let weights: Vec<u64> = (0..parties).map(|_| next() % (1 << 10) + 1).collect();
        let batches: Vec<Vec<he::paillier::Ciphertext>> = plain
            .iter()
            .enumerate()
            .map(|(p, ms)| {
                ms.iter()
                    .enumerate()
                    .map(|(j, &m)| {
                        let r = k.public.batch_blinding(seed ^ p as u64, j);
                        k.public.encrypt_with_r(&mpint::Natural::from(m), &r).unwrap()
                    })
                    .collect()
            })
            .collect();
        let wnat: Vec<mpint::Natural> =
            weights.iter().map(|&w| mpint::Natural::from(w)).collect();
        let vectors: Vec<fl::backend::EncryptedVector> = batches
            .iter()
            .map(|cts| fl::backend::EncryptedVector { cts: cts.clone(), count: slots })
            .collect();
        // The server's flat fold.
        let flat = Accelerator::new(BackendKind::Fate, k.clone(), 4)
            .unwrap()
            .aggregate_weighted(&vectors, &weights)
            .unwrap();

        for j in 0..slots {
            // Naive reference: per-party scalar_mul then a serial add.
            let mut naive = k.public.zero_ciphertext();
            for p in 0..parties {
                let scaled = k.public.checked_scalar_mul(&batches[p][j], &wnat[p]).unwrap();
                naive = k.public.checked_add(&naive, &scaled).unwrap();
            }
            let expected: u64 = (0..parties).map(|p| weights[p] * plain[p][j]).sum();
            prop_assert_eq!(k.private.decrypt(&naive).unwrap(), mpint::Natural::from(expected));

            // Server fold: same ciphertext, hence same plaintext under
            // both decryption paths.
            let server = &flat.cts[j];
            prop_assert_eq!(server, &naive);
            prop_assert_eq!(k.private.decrypt(server).unwrap(), mpint::Natural::from(expected));
            prop_assert_eq!(k.private.decrypt_crt(server).unwrap(), mpint::Natural::from(expected));
        }

        // Tree-of-edge-aggregators route at the Accelerator layer.
        let tree = Accelerator::new(BackendKind::Fate, k.clone(), 4)
            .unwrap()
            .with_topology(fl::AggregationTopology::tree(ARITIES[arity_sel]));
        let agg = tree.aggregate_weighted(&vectors, &weights).unwrap();
        for (j, ct) in agg.cts.iter().enumerate() {
            let expected: u64 = (0..parties).map(|p| weights[p] * plain[p][j]).sum();
            prop_assert_eq!(k.private.decrypt(ct).unwrap(), mpint::Natural::from(expected));
            prop_assert_eq!(k.private.decrypt_crt(ct).unwrap(), mpint::Natural::from(expected));
        }
    }
}
