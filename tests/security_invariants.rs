//! Security- and failure-oriented integration tests: what must never
//! leak, and how the system degrades under injected faults.

use fl::data::generators::DatasetSpec;
use fl::models::HomoLr;
use fl::train::{FlEnv, FlModel, TrainConfig};
use fl::{Accelerator, BackendKind, Network, NetworkConfig};
use flcheck::{collect_files, lexer::lex, lexer::TokKind, source::SourceFile};
use he::paillier::PaillierKeyPair;
use mpint::Natural;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn keys(seed: u64) -> PaillierKeyPair {
    PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(seed), 128).unwrap()
}

#[test]
fn ciphertexts_are_semantically_hiding() {
    // Identical plaintexts under fresh blinding are unlinkable, and the
    // encoding does not expose a plaintext exponent (the attack the paper
    // raises against significand/exponent encodings).
    let k = keys(1);
    let acc = Accelerator::new(BackendKind::FlBooster, k, 4).unwrap();
    let tiny = vec![1e-9; 8]; // tiny magnitudes
    let large = vec![0.999; 8]; // large magnitudes
    let c_tiny = acc.encrypt(&tiny, 11).unwrap();
    let c_large = acc.encrypt(&large, 12).unwrap();
    // Same ciphertext shape regardless of magnitude: byte sizes match.
    assert_eq!(c_tiny.ciphertext_count(), c_large.ciphertext_count());
    let size = |v: &fl::backend::EncryptedVector| -> Vec<usize> {
        v.cts
            .iter()
            .map(|c| c.value.bit_len() as usize / 8)
            .collect()
    };
    // Bit lengths differ only by blinding noise, not systematically.
    assert_eq!(size(&c_tiny).len(), size(&c_large).len());

    // Fresh encryptions of the same vector differ.
    let c1 = acc.encrypt(&tiny, 100).unwrap();
    let c2 = acc.encrypt(&tiny, 101).unwrap();
    assert_ne!(c1.cts[0].value, c2.cts[0].value);
}

#[test]
fn cross_key_ciphertexts_are_rejected_not_garbled() {
    let acc1 = Accelerator::new(BackendKind::Fate, keys(2), 4).unwrap();
    let acc2 = Accelerator::new(BackendKind::Fate, keys(3), 4).unwrap();
    let enc = acc1.encrypt(&[0.5, -0.5], 0).unwrap();
    let err = acc2.decrypt_sum(&enc, 1);
    assert!(err.is_err(), "foreign ciphertexts must be rejected loudly");
}

#[test]
fn decrypted_words_an_honest_sum_cannot_make_are_typed_errors() {
    // A decrypted vector is exactly the words its values occupy, and no
    // word has a bit past its last used slot: an extra word, a missing
    // one, or a high bit (a tampered or mis-keyed decryption) is refused,
    // packed or not, rather than dropped or truncated.
    for kind in [BackendKind::FlBooster, BackendKind::Fate] {
        let acc = Accelerator::new(kind, keys(5), 4).unwrap();
        let enc = acc.encrypt(&[0.1, 0.2], 0).unwrap();
        assert!(acc.decrypt_sum(&enc, 4).is_ok());
        let words = enc.cts.len();
        let refused =
            |bad: &fl::backend::EncryptedVector| acc.decrypt_sum(bad, 4).unwrap_err().to_string();

        let mut extra = enc.clone();
        extra.cts.push(enc.cts[0].clone());
        assert_eq!(
            refused(&extra),
            format!(
                "platform: codec: {} words given but the values occupy {words}",
                words + 1
            ),
            "{kind:?}"
        );

        // Bit 64 is past the one 32-bit slot of an unpacked word, and past
        // the two used 32-bit slots of the packed one.
        let (mut plain, _) = acc.decrypt_words_timed(&enc.cts).unwrap();
        plain[0].add_assign_ref(&Natural::from(1u64).shl_bits(64));
        let (cts, _) = acc.encrypt_words_timed(&plain, 1).unwrap();
        let tampered = fl::backend::EncryptedVector { cts, count: 2 };
        let end = if acc.batch_compression() { 64 } else { 32 };
        assert_eq!(
            refused(&tampered),
            format!("platform: codec: word 0 is 65 bits long but its used slots end at bit {end}"),
            "{kind:?}"
        );
    }
    let acc = Accelerator::new(BackendKind::Fate, keys(5), 4).unwrap();
    let mut short = acc.encrypt(&[0.1, 0.2], 0).unwrap();
    short.cts.pop();
    assert_eq!(
        acc.decrypt_sum(&short, 1).unwrap_err().to_string(),
        "platform: codec: requested 2 values but only 1 are packed"
    );
}

#[test]
fn guard_bit_exhaustion_is_a_typed_error() {
    // 4 participants reserve 2 guard bits; claiming a 5-term sum must be
    // rejected before decoding garbage.
    let acc = Accelerator::new(BackendKind::FlBooster, keys(4), 4).unwrap();
    let enc = acc.encrypt(&[0.1, 0.2], 0).unwrap();
    let result = acc.decrypt_sum(&enc, 5);
    match result {
        Err(fl::Error::Platform(flbooster_core::Error::Codec(
            codec::Error::OverflowBitsExhausted {
                terms: 5,
                max_terms: 4,
            },
        ))) => {}
        other => panic!("expected OverflowBitsExhausted, got {other:?}"),
    }
}

#[test]
fn plaintext_too_large_is_rejected_at_the_he_boundary() {
    let k = keys(5);
    let big = &k.public.n + &Natural::one();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    assert!(matches!(
        k.public.encrypt(&big, &mut rng),
        Err(he::Error::PlaintextTooLarge { .. })
    ));
}

#[test]
fn lossy_network_retries_and_training_still_succeeds() {
    let mut spec = DatasetSpec::synthetic();
    spec.features = 8;
    spec.nnz_per_row = 8;
    spec.instances = 40;
    let data = spec.generate(1.0);
    let cfg = TrainConfig {
        batch_size: 40,
        ..TrainConfig::default()
    };

    let accel = Accelerator::new(BackendKind::FlBooster, keys(6), 4).unwrap();
    let lossy = NetworkConfig::flbooster_profile().with_drop_probability(0.3);
    let env = FlEnv {
        network: Network::new(lossy, 0xBAD),
        accel,
    };
    let mut model = HomoLr::new(&data, 4, &cfg);
    let before = model.loss();
    let result = model.run_epoch(&env, &cfg, 0).unwrap();
    assert!(
        model.loss() < before,
        "training must survive a 30%-loss link"
    );
    assert!(env.network.stats().retries > 0, "drops must actually occur");
    // Retries inflate communication time.
    assert!(result.breakdown.comm_seconds > 0.0);
}

#[test]
fn dead_network_surfaces_a_typed_failure() {
    let mut spec = DatasetSpec::synthetic();
    spec.features = 8;
    spec.nnz_per_row = 8;
    spec.instances = 16;
    let data = spec.generate(1.0);
    let cfg = TrainConfig {
        batch_size: 16,
        ..TrainConfig::default()
    };

    let accel = Accelerator::new(BackendKind::FlBooster, keys(7), 4).unwrap();
    let dead = NetworkConfig::flbooster_profile().with_drop_probability(1.0);
    let env = FlEnv {
        network: Network::new(dead, 1),
        accel,
    };
    let mut model = HomoLr::new(&data, 4, &cfg);
    match model.run_epoch(&env, &cfg, 0) {
        Err(fl::Error::NetworkFailure { attempts }) => assert_eq!(attempts, 5),
        other => panic!("expected NetworkFailure, got {other:?}"),
    }
    // The attempts that failed still crossed the wire.
    assert!(env.network.stats().bytes > 0);
}

#[test]
fn vertical_split_never_moves_raw_features() {
    // Structural invariant: vertical shards partition the feature space;
    // the only cross-party payloads in the protocols are Ciphertext
    // values (enforced by the EncryptedVector type), never SparseRows.
    let data = DatasetSpec::rcv1().generate(0.0001);
    let shards = fl::data::vertical_split(&data, 3);
    for (i, shard) in shards.iter().enumerate() {
        let (lo, hi) = shard.feature_range;
        for row in &shard.rows {
            for &idx in &row.indices {
                assert!(
                    (idx as usize) < (hi - lo) as usize,
                    "shard {i} leaked foreign feature"
                );
            }
        }
    }
    // Labels exist only at the active party.
    assert!(shards[0].labels.is_some());
    assert!(shards[1..].iter().all(|s| s.labels.is_none()));
}

#[test]
fn quantizer_and_keys_must_be_consistent() {
    // A key too small for the paper quantizer is rejected at
    // construction, not at first use.
    let k = keys(8); // 128-bit keys: 4 slots of 32 bits => works
    assert!(Accelerator::new(BackendKind::FlBooster, k, 4).is_ok());
    let tiny = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(9), 64).unwrap();
    // 64-bit key = 2 slots - 1 usable: still constructible…
    let acc = Accelerator::new(BackendKind::FlBooster, tiny, 4).unwrap();
    // …and correct, just with compression ratio 1.
    let enc = acc.encrypt(&[0.25, -0.75], 0).unwrap();
    let back = acc.decrypt_sum(&enc, 1).unwrap();
    assert!((back[0] - 0.25).abs() < 1e-8);
    assert!((back[1] + 0.75).abs() < 1e-8);
}

#[test]
fn out_of_range_ciphertexts_fail_closed_on_the_unweighted_path() {
    // `0` and `n²` are outside `[1, n²)`. A hostile upload carrying one
    // must be a typed error on every unweighted fold, never a sum.
    use fl::AggregationTopology;
    use he::{CpuHe, GpuHe, HeBackend};

    let k = keys(10);
    let out_of_range =
        fl::Error::Platform(flbooster_core::Error::He(he::Error::CiphertextOutOfRange));
    assert_eq!(
        out_of_range.to_string(),
        "platform: homomorphic encryption: ciphertext outside the ciphertext space"
    );
    for bad_value in [Natural::zero(), k.public.n_squared.clone()] {
        for topology in [AggregationTopology::Flat, AggregationTopology::tree(2)] {
            let acc = Accelerator::new(BackendKind::Fate, k.clone(), 4)
                .unwrap()
                .with_topology(topology);
            let good = acc.encrypt(&[0.5, -0.25], 1).unwrap();
            let mut bad = acc.encrypt(&[0.1, 0.2], 2).unwrap();
            bad.cts[1].value = bad_value.clone();
            // Last of three: on the tree it enters at the second level.
            let uploads = [good.clone(), good.clone(), bad.clone()];
            assert_eq!(acc.aggregate(&uploads).unwrap_err(), out_of_range);
            assert_eq!(acc.add_timed(&good, &bad).unwrap_err(), out_of_range);
            assert_eq!(acc.add_timed(&bad, &good).unwrap_err(), out_of_range);
        }

        let device = gpu_sim::Device::new(gpu_sim::DeviceConfig::rtx3090());
        let backends: [&dyn HeBackend; 2] =
            [&CpuHe::default(), &GpuHe::new(std::sync::Arc::new(device))];
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let good = k.public.encrypt(&Natural::one(), &mut rng).unwrap();
        let mut bad = good.clone();
        bad.value = bad_value;
        for he in backends {
            let groups = vec![vec![good.clone()], vec![good.clone(), bad.clone()]];
            assert_eq!(
                he.fold_groups(&k.public, &groups).unwrap_err(),
                he::Error::CiphertextOutOfRange,
                "{}",
                he.name()
            );
        }
    }
}

#[test]
fn one_hostile_upload_among_128_fails_every_unweighted_topology_closed() {
    // A k-way fold validates every operand before it multiplies any: one
    // out-of-range or foreign-key ciphertext, wherever its party sits in
    // the fan-in, is the typed error a pairwise add would have raised.
    use fl::AggregationTopology;

    let k = keys(12);
    let he_error = |e| fl::Error::Platform(flbooster_core::Error::He(e));
    let honest = Accelerator::new(BackendKind::Fate, k.clone(), 4).unwrap();
    let good = honest.encrypt(&[0.5, -0.25, 0.125], 1).unwrap();
    let foreign = Accelerator::new(BackendKind::Fate, keys(13), 4)
        .unwrap()
        .encrypt(&[0.5, -0.25, 0.125], 1)
        .unwrap();
    let with_value = |value: &Natural| {
        let mut bad = good.clone();
        bad.cts[0].value = value.clone();
        bad
    };
    let faults = [
        (
            with_value(&Natural::zero()),
            he::Error::CiphertextOutOfRange,
        ),
        (
            with_value(&k.public.n_squared),
            he::Error::CiphertextOutOfRange,
        ),
        (foreign, he::Error::KeyMismatch),
    ];
    for topology in [
        AggregationTopology::Flat,
        AggregationTopology::tree(2),
        AggregationTopology::tree(16),
    ] {
        let acc = Accelerator::new(BackendKind::Fate, k.clone(), 4)
            .unwrap()
            .with_topology(topology);
        let mut uploads = vec![good.clone(); 128];
        assert!(acc.aggregate(&uploads).is_ok());
        for (bad, error) in &faults {
            for party in [0usize, 64, 127] {
                let honest_upload = std::mem::replace(&mut uploads[party], bad.clone());
                assert_eq!(
                    acc.aggregate(&uploads).unwrap_err(),
                    he_error(error.clone()),
                    "{topology:?}, party {party}"
                );
                uploads[party] = honest_upload;
            }
        }
    }
}

#[test]
fn one_hostile_upload_among_128_fails_every_weighted_topology_closed() {
    // A weighted fold hands the ciphertexts to the Montgomery kernel as
    // they came, so its key and `[1, n²)` checks are all that keep an
    // upload from the kernel's `a < n` precondition: one out-of-range or
    // foreign-key ciphertext, wherever its party sits in the fan-in, is a
    // typed error naming its place in the leaf, never a sum.
    use fl::backend::EncryptedVector;
    use fl::AggregationTopology;
    use he::paillier::Ciphertext;
    use he::{CpuHe, GpuHe, HeBackend};

    let k = keys(17);
    let he_error = |e| fl::Error::Platform(flbooster_core::Error::He(e));
    let honest = Accelerator::new(BackendKind::Fate, k.clone(), 4).unwrap();
    let good = honest.encrypt(&[0.5, -0.25, 0.125], 1).unwrap();
    let foreign = Accelerator::new(BackendKind::Fate, keys(18), 4)
        .unwrap()
        .encrypt(&[0.5, -0.25, 0.125], 1)
        .unwrap();
    let with_value = |value: &Natural| {
        let mut bad = good.clone();
        bad.cts[0].value = value.clone();
        bad
    };
    // Each fault with the error it raises at `index` within its leaf.
    let faults: [(EncryptedVector, fn(usize) -> he::Error); 3] = [
        (with_value(&Natural::zero()), |_| {
            he::Error::CiphertextOutOfRange
        }),
        (with_value(&k.public.n_squared), |_| {
            he::Error::CiphertextOutOfRange
        }),
        (foreign, |index| he::Error::AggregandKeyMismatch { index }),
    ];
    let weights: Vec<u64> = (0..128).map(|i| 100 + 7 * i).collect();
    let parties = [0usize, 64, 127];
    for (topology, arity) in [
        (AggregationTopology::Flat, 128),
        (AggregationTopology::tree(2), 2),
        (AggregationTopology::tree(16), 16),
    ] {
        let acc = Accelerator::new(BackendKind::Fate, k.clone(), 4)
            .unwrap()
            .with_topology(topology);
        let mut uploads = vec![good.clone(); 128];
        assert!(acc.aggregate_weighted(&uploads, &weights).is_ok());
        for (bad, error) in &faults {
            for party in parties {
                let honest_upload = std::mem::replace(&mut uploads[party], bad.clone());
                assert_eq!(
                    acc.aggregate_weighted(&uploads, &weights).unwrap_err(),
                    he_error(error(party % arity)),
                    "{topology:?}, party {party}"
                );
                uploads[party] = honest_upload;
            }
        }
    }

    let device = gpu_sim::Device::new(gpu_sim::DeviceConfig::rtx3090());
    let backends: [&dyn HeBackend; 2] =
        [&CpuHe::default(), &GpuHe::new(std::sync::Arc::new(device))];
    for he in backends {
        let mut batches: Vec<&[Ciphertext]> = vec![&good.cts; 128];
        assert!(he.weighted_aggregate(&k.public, &batches, &weights).is_ok());
        for (bad, error) in &faults {
            for party in parties {
                let honest_batch = std::mem::replace(&mut batches[party], &bad.cts);
                assert_eq!(
                    he.weighted_aggregate(&k.public, &batches, &weights)
                        .unwrap_err(),
                    error(party),
                    "{}, party {party}",
                    he.name()
                );
                batches[party] = honest_batch;
            }
        }
    }
}

#[test]
fn one_hostile_ciphertext_anywhere_in_a_packed_reply_fails_it_closed() {
    // A packed histogram reply validates like the sums it is made of:
    // every operand of every bucket and of every run is checked before
    // one is multiplied, foreign keys before ranges — on the kernel, on
    // both schedules and through the accelerator's entry point.
    use he::{CpuHe, GpuHe, HeBackend};

    let k = keys(14);
    let mut rng = ChaCha8Rng::seed_from_u64(15);
    let good = k.public.encrypt(&Natural::from(3u64), &mut rng).unwrap();
    let foreign = keys(16)
        .public
        .encrypt(&Natural::from(3u64), &mut rng)
        .unwrap();
    let with_value = |value: &Natural| {
        let mut bad = good.clone();
        bad.value = value.clone();
        bad
    };
    let zero = with_value(&Natural::zero());
    let faults = [
        (&zero, he::Error::CiphertextOutOfRange),
        (
            &with_value(&k.public.n_squared),
            he::Error::CiphertextOutOfRange,
        ),
        (&foreign, he::Error::KeyMismatch),
    ];
    // 128-bit key, 30-bit slots: four to a word.
    let slot_bits = 30;
    assert_eq!(k.public.pack_capacity(slot_bits).unwrap(), 4);
    for (bad, error) in &faults {
        for at in 0..4 {
            let mut run = [&good; 4];
            run[at] = bad;
            assert_eq!(
                k.public.checked_pack(&run, slot_bits).unwrap_err(),
                *error,
                "operand {at}"
            );
        }
    }
    // A foreign key outranks a bad range, wherever either sits.
    assert_eq!(
        k.public
            .checked_pack(&[&zero, &good, &foreign], slot_bits)
            .unwrap_err(),
        he::Error::KeyMismatch
    );

    // Ten filled buckets of up to three members, empty ones between them,
    // make three runs; the fault is tried in the first, a middle and the last.
    let device = gpu_sim::Device::new(gpu_sim::DeviceConfig::rtx3090());
    let backends: [&dyn HeBackend; 2] =
        [&CpuHe::default(), &GpuHe::new(std::sync::Arc::new(device))];
    let accels = [BackendKind::FlBooster, BackendKind::Fate]
        .map(|kind| Accelerator::new(kind, k.clone(), 4).unwrap());
    let he_error = |e| fl::Error::Platform(flbooster_core::Error::He(e));
    let honest: Vec<Vec<&he::paillier::Ciphertext>> = (0..14).map(|b| vec![&good; b % 4]).collect();
    for he in backends {
        let (reply, _) = he.fold_packed(&k.public, &honest, slot_bits).unwrap();
        assert_eq!(reply.len(), 3, "{}", he.name());
    }
    for (bad, error) in &faults {
        for (bucket, member) in [(1usize, 0usize), (6, 1), (13, 0)] {
            let mut groups = honest.clone();
            groups[bucket][member] = bad;
            for he in backends {
                assert_eq!(
                    he.fold_packed(&k.public, &groups, slot_bits).unwrap_err(),
                    *error,
                    "{}, bucket {bucket}",
                    he.name()
                );
            }
            for acc in &accels {
                assert_eq!(
                    acc.fold_packed_decrypt_timed(std::slice::from_ref(&groups), slot_bits)
                        .unwrap_err(),
                    he_error(error.clone()),
                    "{}, bucket {bucket}",
                    acc.name()
                );
                // Nothing was charged for the refused reply.
                assert_eq!(acc.timing(), fl::backend::AccelTiming::default());
            }
        }
    }

    // Three hosts folded side by side: party 2 holds an out-of-range
    // operand, party 3 a foreign one in an earlier bucket. Party 2's
    // error wins however the pool ran them, and nothing is charged.
    let fault = |bucket: usize, bad| {
        let mut groups = honest.clone();
        groups[bucket][0] = bad;
        groups
    };
    let parties = [honest.clone(), fault(6, &zero), fault(1, &foreign)];
    for threads in [1usize, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        for acc in &accels {
            let err = pool.install(|| {
                acc.fold_packed_decrypt_timed(&parties, slot_bits)
                    .unwrap_err()
            });
            assert_eq!(
                err,
                he_error(he::Error::CiphertextOutOfRange),
                "{}, threads={threads}",
                acc.name()
            );
            assert_eq!(
                err.to_string(),
                "platform: homomorphic encryption: ciphertext outside the ciphertext space",
                "{}",
                acc.name()
            );
            assert_eq!(acc.timing(), fl::backend::AccelTiming::default());
        }
    }
}

#[test]
fn no_unsafe_code_anywhere_the_pool_can_reach() {
    // flcheck no longer polices closures crossing the host thread pool:
    // the `Fn + Sync` bounds on the rayon shim's entry points do, and
    // they are only as strong as the absence of `unsafe` (which could
    // forge `Send`/`Sync` or alias captures). So: no `unsafe` token in
    // any scanned file, shim or analyzer source, and every crate root
    // forbids it. Lexed, so comments and strings do not count.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = collect_files(root).expect("workspace walk");
    let mut stack = vec![root.join("crates/shims"), root.join("crates/flcheck/src")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files.dedup();
    // The walk reaches every crate: each crate root is among its files.
    for dir in ["crates", "crates/shims"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("read dir") {
            let lib = entry.expect("dir entry").path().join("src/lib.rs");
            assert!(
                !lib.exists() || files.contains(&lib),
                "walk missed {}",
                lib.display()
            );
        }
    }
    for path in &files {
        let tokens = lex(&std::fs::read_to_string(path).expect("read")).tokens;
        if let Some(t) = tokens.iter().find(|t| t.is_ident("unsafe")) {
            panic!("`unsafe` at {}:{}", path.display(), t.line);
        }
        if path.ends_with("src/lib.rs") {
            let guarded = tokens.windows(3).any(|w| {
                (w[0].is_ident("forbid") || w[0].is_ident("deny"))
                    && w[1].text == "("
                    && w[2].is_ident("unsafe_code")
            });
            assert!(guarded, "{} lacks forbid(unsafe_code)", path.display());
        }
    }
}

#[test]
fn every_mask_comes_from_ct_mask() {
    // An optimizer that can see a mask may branch around the loads the
    // mask drops, which puts a secret back into the access pattern.
    // `mpint::ct::ct_mask` returns every mask through `black_box`, so in
    // non-test code of `crates/mpint/src` that is the one `black_box`, and
    // the mask argument of every `ct_sub_masked(..)` call is a
    // `ct_mask(..)` call. Lexed, so comments and docs do not count.
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/mpint/src");
    let files = collect_files(&src).expect("crate walk");
    assert!(files.len() >= 15, "mpint: {} files", files.len());
    let (mut opaque, mut masked_subs) = (Vec::new(), 0);
    for path in &files {
        let rel = path.display().to_string();
        let file = SourceFile::parse(&rel, &std::fs::read_to_string(path).expect("read"));
        let toks = &file.tokens;
        // The token that closes the group opened at `open`.
        let close = |open: usize| {
            let mut depth = 0i32;
            (open..toks.len()).find(|&j| {
                match toks[j].kind {
                    TokKind::Open => depth += 1,
                    TokKind::Close => depth -= 1,
                    _ => {}
                }
                depth == 0
            })
        };
        for i in (1..toks.len().saturating_sub(1)).filter(|&i| !file.in_test_region(i)) {
            let at = format!("{rel}:{}", toks[i].line);
            if toks[i].is_ident("black_box") {
                let home = file
                    .fns
                    .iter()
                    .filter(|f| (f.body_start..f.body_end).contains(&i))
                    .min_by_key(|f| f.body_end - f.body_start)
                    .map(|f| f.name.as_str());
                assert!(
                    rel.ends_with("ct.rs") && home == Some("ct_mask"),
                    "`black_box` outside `ct_mask` at {at}"
                );
                opaque.push(at.clone());
            }
            let called = toks[i].is_ident("ct_sub_masked")
                && toks[i + 1].text == "("
                && !toks[i - 1].is_ident("fn");
            if called {
                let mut end = close(i + 1).unwrap_or_else(|| panic!("unclosed call at {at}"));
                if toks[end - 1].is_op(",") {
                    end -= 1;
                }
                // The last argument: after the last comma at depth one.
                let mut depth = 0i32;
                let mut last = i + 2;
                for (j, t) in toks.iter().enumerate().take(end).skip(i + 1) {
                    match t.kind {
                        TokKind::Open => depth += 1,
                        TokKind::Close => depth -= 1,
                        _ if depth == 1 && t.is_op(",") => last = j + 1,
                        _ => {}
                    }
                }
                let is_ct_mask_call = toks[last].is_ident("ct_mask")
                    && toks[last + 1].text == "("
                    && close(last + 1) == Some(end - 1);
                assert!(
                    is_ct_mask_call,
                    "`ct_sub_masked` mask not from `ct_mask(..)` at {at}"
                );
                masked_subs += 1;
            }
        }
    }
    assert_eq!(opaque.len(), 1, "`ct_mask` must hide its mask: {opaque:?}");
    assert!(
        masked_subs >= 3,
        "found {masked_subs} `ct_sub_masked` calls"
    );
}
