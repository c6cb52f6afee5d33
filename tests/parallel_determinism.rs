//! Cross-layer determinism under the shared-cursor pool: every public
//! parallel surface — shim iterators, GPU-sim launches, HE batches —
//! must produce bit-identical results at any thread count, and a panic
//! in one work item must surface without wedging later work.

use std::sync::Arc;

use gpu_sim::{Device, DeviceConfig, ItemOutcome};
use he::paillier::{ObfuscatorPool, PaillierKeyPair};
use he::{CpuHe, GpuHe, HeBackend};
use mpint::Natural;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 4, 16];

/// Runs `body` inside a dedicated pool of `threads` workers.
fn in_pool<T: Send>(threads: usize, body: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build")
        .install(body)
}

#[test]
fn collect_order_and_zip_alignment_are_thread_count_invariant() {
    let data: Vec<u64> = (0..1000).map(|i| i * 7 + 3).collect();
    let weights: Vec<u64> = (0..1000).map(|i| i % 13).collect();
    let reference: Vec<u64> = data
        .iter()
        .zip(&weights)
        .enumerate()
        .map(|(i, (d, w))| d * w + i as u64)
        .collect();
    for threads in THREAD_COUNTS {
        let got: Vec<u64> = in_pool(threads, || {
            data.par_iter()
                .zip(weights.par_iter())
                .enumerate()
                .map(|(i, (d, w))| d * w + i as u64)
                .collect()
        });
        assert_eq!(got, reference, "threads={threads}");
    }
}

#[test]
fn device_launch_outputs_identical_across_thread_counts() {
    let inputs: Vec<u64> = (0..512).map(|i| i * i + 1).collect();
    let spec = gpu_sim::KernelSpec::simple("determinism_probe");
    let mut reference: Option<(Vec<u64>, usize)> = None;
    for threads in THREAD_COUNTS {
        let device = Device::new(DeviceConfig::rtx3090());
        let (outputs, report) = in_pool(threads, || {
            device.launch(&spec, &inputs, 0, 0, |i, &x| {
                ItemOutcome::new(x.wrapping_mul(0x9E37_79B9).rotate_left((i % 31) as u32), 3)
            })
        });
        assert_eq!(report.pool_threads, threads, "threads={threads}");
        match &reference {
            None => reference = Some((outputs, report.items)),
            Some((ref_out, ref_items)) => {
                assert_eq!(&outputs, ref_out, "threads={threads}");
                assert_eq!(report.items, *ref_items);
            }
        }
    }
}

#[test]
fn he_batches_are_bit_identical_across_thread_counts() {
    let keys = {
        let mut rng = ChaCha8Rng::seed_from_u64(0xD0_0D);
        PaillierKeyPair::generate(&mut rng, 128).expect("keygen")
    };
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let ms: Vec<Natural> = (0..96).map(|_| Natural::from(rng.next_u64())).collect();
    let seed = 0xFEED_F00D;

    let mut reference: Option<Vec<Natural>> = None;
    for threads in THREAD_COUNTS {
        // Exercise both backends: CpuHe parallelizes directly over the
        // shim; GpuHe goes through Device::launch.
        let cpu = CpuHe::default();
        let gpu = GpuHe::new(Arc::new(Device::new(DeviceConfig::rtx3090())));
        let (cts_cpu, cts_gpu) = in_pool(threads, || {
            let a = cpu.encrypt_batch(&keys.public, &ms, seed).expect("cpu").0;
            let b = gpu.encrypt_batch(&keys.public, &ms, seed).expect("gpu").0;
            (a, b)
        });
        let values: Vec<Natural> = cts_cpu.iter().map(|c| c.value().clone()).collect();
        let gpu_values: Vec<Natural> = cts_gpu.iter().map(|c| c.value().clone()).collect();
        assert_eq!(
            values, gpu_values,
            "cpu and gpu backends agree at threads={threads}"
        );
        match &reference {
            None => reference = Some(values),
            Some(r) => assert_eq!(&values, r, "threads={threads}"),
        }
    }
}

#[test]
fn pooled_encryption_is_bit_identical_to_inline_at_every_thread_count() {
    let keys = {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB11D);
        PaillierKeyPair::generate(&mut rng, 128).expect("keygen")
    };
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let ms: Vec<Natural> = (0..64).map(|_| Natural::from(rng.next_u64())).collect();
    let seed = 0xCAFE_D00D;

    // Reference: a pooled backend on one thread.
    let reference: Vec<Natural> = in_pool(1, || {
        CpuHe::default()
            .with_pool(Arc::new(ObfuscatorPool::new(&keys.public)))
            .encrypt_batch(&keys.public, &ms, seed)
            .expect("pooled")
            .0
            .iter()
            .map(|c| c.value().clone())
            .collect()
    });

    for threads in THREAD_COUNTS {
        // Each item computes its factor on the worker that encrypts it.
        let (cpu_vals, gpu_vals, hits) = in_pool(threads, || {
            let pool = Arc::new(ObfuscatorPool::new(&keys.public));
            let cpu = CpuHe::default().with_pool(Arc::clone(&pool));
            let a = cpu.encrypt_batch(&keys.public, &ms, seed).expect("cpu").0;
            let cpu_hits = pool.hits();

            let gpu = GpuHe::new(Arc::new(Device::new(DeviceConfig::rtx3090())))
                .with_pool(Arc::new(ObfuscatorPool::new(&keys.public)));
            let b = gpu.encrypt_batch(&keys.public, &ms, seed).expect("gpu").0;
            (
                a.iter().map(|c| c.value().clone()).collect::<Vec<_>>(),
                b.iter().map(|c| c.value().clone()).collect::<Vec<_>>(),
                cpu_hits,
            )
        });
        assert_eq!(hits, ms.len() as u64, "one factor per item");
        assert_eq!(cpu_vals, reference, "pooled cpu threads={threads}");
        assert_eq!(gpu_vals, reference, "pooled gpu threads={threads}");
    }
}

#[test]
fn owner_pool_backend_encrypts_the_public_pool_ciphertexts() {
    // `WithoutBc`: unpacked, behind an obfuscator pool whose holder is the
    // key owner (two half-width combs and a CRT step). A `GpuHe` behind a
    // public-key pool (one full-width comb) must give the same
    // ciphertexts for the same `(words, seed)` at any thread count. The
    // pool-less `Fate` baseline blinds with a uniform `r`: other
    // ciphertexts, the same values.
    use fl::{Accelerator, BackendKind};
    let keys = {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0B0E);
        PaillierKeyPair::generate(&mut rng, 128).expect("keygen")
    };
    let values: Vec<f64> = (0..24).map(|i| ((i as f64) * 0.61).cos() * 0.9).collect();
    let seed = 0x00C0_FFEE;
    let all = || {
        let baseline = Accelerator::new(BackendKind::Fate, keys.clone(), 4).expect("fate");
        let pooled = Accelerator::new(BackendKind::WithoutBc, keys.clone(), 4).expect("w/o bc");
        let words: Vec<Natural> = values
            .iter()
            .map(|&v| Natural::from(pooled.codec().quantizer().quantize(v).expect("quantize")))
            .collect();
        let public = GpuHe::new(Arc::new(Device::new(DeviceConfig::rtx3090())))
            .with_pool(Arc::new(ObfuscatorPool::new(&keys.public)));
        let fate = baseline.encrypt(&values, seed).expect("fate encrypt");
        let owner = pooled.encrypt(&values, seed).expect("w/o bc encrypt");
        assert_eq!(
            baseline.decrypt_sum(&fate, 1).expect("fate decrypt"),
            pooled.decrypt_sum(&owner, 1).expect("w/o bc decrypt"),
        );
        (
            fate,
            owner.cts,
            public
                .encrypt_batch(&keys.public, &words, seed)
                .expect("public pool")
                .0,
        )
    };
    let (fate_reference, reference, _) = in_pool(1, all);
    assert_eq!(reference.len(), values.len(), "one ciphertext per value");
    assert_ne!(fate_reference.cts, reference, "uniform r against h_s^a");
    // `None` is the ambient pool: as many workers as the host offers.
    for threads in [Some(1), Some(2), None] {
        let (baseline, owner, public) = match threads {
            Some(t) => in_pool(t, all),
            None => all(),
        };
        assert_eq!(baseline, fate_reference, "FATE, threads={threads:?}");
        assert_eq!(owner, reference, "w/o BC, threads={threads:?}");
        assert_eq!(public, reference, "public pool, threads={threads:?}");
    }
}

#[test]
fn weighted_aggregate_matches_scalar_mul_add_loop_across_thread_counts() {
    let keys = {
        let mut rng = ChaCha8Rng::seed_from_u64(0x57A5);
        PaillierKeyPair::generate(&mut rng, 128).expect("keygen")
    };
    let parties = 8usize;
    let slots = 12usize;
    let weights: Vec<u64> = (0..parties as u64).map(|k| k * 977 + 1).collect();
    let batches: Vec<Vec<_>> = (0..parties)
        .map(|k| {
            let ms: Vec<Natural> = (0..slots as u64)
                .map(|j| Natural::from(j * 31 + k as u64 + 1))
                .collect();
            CpuHe::default()
                .encrypt_batch(&keys.public, &ms, k as u64)
                .expect("encrypt")
                .0
        })
        .collect();

    let slices: Vec<&[_]> = batches.iter().map(Vec::as_slice).collect();

    // Naive reference: per-party scalar_mul then homomorphic add.
    let naive: Vec<Natural> = (0..slots)
        .map(|j| {
            let mut acc = keys.public.zero_ciphertext();
            for (k, batch) in batches.iter().enumerate() {
                let scaled = keys
                    .public
                    .checked_scalar_mul(&batch[j], &Natural::from(weights[k]))
                    .expect("scalar_mul");
                acc = keys.public.checked_add(&acc, &scaled).expect("add");
            }
            acc.value().clone()
        })
        .collect();

    let mut reference: Option<Vec<Natural>> = None;
    for threads in THREAD_COUNTS {
        let (cpu_vals, gpu_vals) = in_pool(threads, || {
            let cpu = CpuHe::default();
            let gpu = GpuHe::new(Arc::new(Device::new(DeviceConfig::rtx3090())));
            let a = cpu
                .weighted_aggregate(&keys.public, &slices, &weights)
                .expect("cpu")
                .0;
            let b = gpu
                .weighted_aggregate(&keys.public, &slices, &weights)
                .expect("gpu")
                .0;
            (
                a.iter().map(|c| c.value().clone()).collect::<Vec<_>>(),
                b.iter().map(|c| c.value().clone()).collect::<Vec<_>>(),
            )
        });
        assert_eq!(cpu_vals, naive, "straus == naive at threads={threads}");
        assert_eq!(gpu_vals, naive, "gpu straus == naive at threads={threads}");
        match &reference {
            None => reference = Some(cpu_vals),
            Some(r) => assert_eq!(&cpu_vals, r, "threads={threads}"),
        }
    }
}

#[test]
fn sharded_and_tree_aggregation_bit_identical_at_any_thread_count() {
    let keys = {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5AAD);
        PaillierKeyPair::generate(&mut rng, 128).expect("keygen")
    };
    let parties = 13usize;
    let slots = 6usize;
    let weights: Vec<u64> = (0..parties as u64).map(|k| k * 977 + 1).collect();
    let batches: Vec<Vec<_>> = (0..parties)
        .map(|k| {
            let ms: Vec<Natural> = (0..slots as u64)
                .map(|j| Natural::from(j * 131 + k as u64 + 2))
                .collect();
            CpuHe::default()
                .encrypt_batch(&keys.public, &ms, 0x900 + k as u64)
                .expect("encrypt")
                .0
        })
        .collect();

    let slices: Vec<&[_]> = batches.iter().map(Vec::as_slice).collect();

    // The flat fold on one thread is the reference everything else must
    // reproduce bit for bit.
    let flat: Vec<Natural> = in_pool(1, || {
        CpuHe::default()
            .weighted_aggregate(&keys.public, &slices, &weights)
            .expect("flat")
            .0
            .iter()
            .map(|c| c.value().clone())
            .collect()
    });

    // HE layer: every thread count, CPU and GPU.
    for threads in THREAD_COUNTS {
        let (cpu_vals, gpu_vals) = in_pool(threads, || {
            let cpu = CpuHe::default();
            let gpu = GpuHe::new(Arc::new(Device::new(DeviceConfig::rtx3090())));
            let a = cpu
                .weighted_aggregate(&keys.public, &slices, &weights)
                .expect("cpu")
                .0;
            let b = gpu
                .weighted_aggregate(&keys.public, &slices, &weights)
                .expect("gpu")
                .0;
            (
                a.iter().map(|c| c.value().clone()).collect::<Vec<_>>(),
                b.iter().map(|c| c.value().clone()).collect::<Vec<_>>(),
            )
        });
        assert_eq!(cpu_vals, flat, "cpu threads={threads}");
        assert_eq!(gpu_vals, flat, "gpu threads={threads}");
    }

    // FL layer: edge-aggregator trees over the same batches.
    let vectors: Vec<fl::backend::EncryptedVector> = batches
        .iter()
        .map(|cts| fl::backend::EncryptedVector {
            cts: cts.clone(),
            count: slots,
        })
        .collect();
    for threads in THREAD_COUNTS {
        for arity in [2usize, 4, 16] {
            let vals: Vec<Natural> = in_pool(threads, || {
                let acc = fl::Accelerator::new(fl::BackendKind::Fate, keys.clone(), 4)
                    .expect("accel")
                    .with_topology(fl::AggregationTopology::tree(arity));
                acc.aggregate_weighted(&vectors, &weights)
                    .expect("tree")
                    .cts
                    .iter()
                    .map(|c| c.value().clone())
                    .collect()
            });
            assert_eq!(vals, flat, "tree threads={threads} arity={arity}");
        }
    }
}

/// `with_aggregation_shards` is inert: a weighted fold is one bucket pass
/// per slot and is charged as that pass, so no shard count moves a
/// ciphertext or a charge, flat or through a tree, CPU or device.
#[test]
fn aggregation_shards_move_neither_ciphertexts_nor_charges() {
    let keys = {
        let mut rng = ChaCha8Rng::seed_from_u64(0x54A2D);
        PaillierKeyPair::generate(&mut rng, 128).expect("keygen")
    };
    let encryptor = fl::Accelerator::new(fl::BackendKind::Fate, keys.clone(), 4).expect("accel");
    let grads: Vec<f64> = (0..9).map(|i| (f64::from(i) * 0.29).sin() * 0.7).collect();
    let vectors: Vec<fl::backend::EncryptedVector> = (0..37u64)
        .map(|k| encryptor.encrypt(&grads, 0x540 + k).expect("encrypt"))
        .collect();
    let weights: Vec<u64> = (0..37u64).map(|k| k * 613 + 5).collect();
    for kind in [fl::BackendKind::Fate, fl::BackendKind::Haflo] {
        for topology in [
            fl::AggregationTopology::Flat,
            fl::AggregationTopology::tree(16),
        ] {
            let mut reference = None;
            for shards in [1usize, 2, 8] {
                let acc = fl::Accelerator::new(kind, keys.clone(), 4)
                    .expect("accel")
                    .with_topology(topology)
                    .with_aggregation_shards(shards);
                let out = acc
                    .aggregate_weighted(&vectors, &weights)
                    .expect("weighted");
                let charged = acc.take_timing();
                let what = format!("{kind:?} {topology:?} shards={shards}");
                let (cts, timing) = reference.get_or_insert_with(|| (out.clone(), charged));
                assert_eq!(*cts, out, "{what}");
                assert_eq!(*timing, charged, "{what}");
            }
        }
    }
}

#[test]
fn unweighted_aggregate_is_bit_and_charge_identical_at_any_thread_count() {
    let keys = {
        let mut rng = ChaCha8Rng::seed_from_u64(0xA66);
        PaillierKeyPair::generate(&mut rng, 128).expect("keygen")
    };
    let encryptor = fl::Accelerator::new(fl::BackendKind::Fate, keys.clone(), 4).expect("accel");
    let grads: Vec<f64> = (0..21).map(|i| (f64::from(i) * 0.41).cos() * 0.6).collect();
    let vectors: Vec<fl::backend::EncryptedVector> = (0..37u64)
        .map(|k| encryptor.encrypt(&grads, 0xA00 + k).expect("encrypt"))
        .collect();
    let mut sum = None;
    for kind in [fl::BackendKind::Fate, fl::BackendKind::Haflo] {
        for topology in [
            fl::AggregationTopology::Flat,
            fl::AggregationTopology::tree(4),
            fl::AggregationTopology::tree(16),
        ] {
            let mut charged = None;
            for threads in [1usize, 2, 8] {
                let (out, timing) = in_pool(threads, || {
                    let acc = fl::Accelerator::new(kind, keys.clone(), 4)
                        .expect("accel")
                        .with_topology(topology);
                    let out = acc.aggregate(&vectors).expect("aggregate");
                    (out, acc.timing())
                });
                let what = format!("{kind:?} {topology:?} threads={threads}");
                // One ciphertext vector whatever ran it; one charge per
                // (backend, topology) whatever the thread count.
                assert_eq!(sum.get_or_insert_with(|| out.clone()), &out, "{what}");
                assert_eq!(*charged.get_or_insert(timing), timing, "{what}");
            }
        }
    }
}

#[test]
fn packed_histogram_replies_are_bit_and_charge_identical_at_any_thread_count() {
    let keys = {
        let mut rng = ChaCha8Rng::seed_from_u64(0x9AC4);
        PaillierKeyPair::generate(&mut rng, 128).expect("keygen")
    };
    let ms: Vec<Natural> = (0..40u64).map(|i| Natural::from(i * 31 + 1)).collect();
    let (cts, _) = CpuHe::default()
        .encrypt_batch(&keys.public, &ms, 0x51)
        .expect("encrypt");
    // Skewed buckets, a few of them empty; 21-bit slots, six to a word.
    let groups: Vec<Vec<&he::paillier::Ciphertext>> = (0..29)
        .map(|b| cts.iter().skip(b).step_by(7).take(b % 5).collect())
        .collect();
    let slot_bits = 21;
    let filled = groups.iter().filter(|g| !g.is_empty()).count();
    let mut reply = None;
    for gpu_schedule in [false, true] {
        let mut charged = None;
        for threads in [1usize, 2, 8] {
            let (out, timing) = in_pool(threads, || {
                let device = Arc::new(Device::new(DeviceConfig::rtx3090()));
                let he: Box<dyn HeBackend> = if gpu_schedule {
                    Box::new(GpuHe::new(device))
                } else {
                    Box::new(CpuHe::default())
                };
                he.fold_packed(&keys.public, &groups, slot_bits)
                    .expect("fold_packed")
            });
            let what = format!("gpu={gpu_schedule} threads={threads}");
            assert_eq!(out.len(), filled.div_ceil(6), "{what}");
            // One reply whatever ran it; one charge per schedule whatever
            // the thread count.
            assert_eq!(reply.get_or_insert_with(|| out.clone()), &out, "{what}");
            assert_eq!(*charged.get_or_insert(timing), timing, "{what}");
        }
    }
    // And it is the histogram: slot `j` of the reply is bucket `j`'s sum.
    let words: Vec<Natural> = reply
        .expect("ran")
        .iter()
        .map(|c| keys.private.decrypt_crt(c).expect("decrypt"))
        .collect();
    let sums: Vec<Natural> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| {
            let sum = keys.public.checked_sum(g).expect("sum");
            keys.private.decrypt_crt(&sum).expect("decrypt")
        })
        .collect();
    assert_eq!(
        keys.public
            .unpack_runs(&words, filled, slot_bits)
            .expect("unpack"),
        sums
    );

    // Several hosts' replies side by side: party by party, the fan-out
    // returns the reply and charge of that party's own one-party launch,
    // at any pool width. Parties of several runs nest a drive; the
    // empty one launches nothing.
    let parties: Vec<Vec<Vec<&he::paillier::Ciphertext>>> = (0..4)
        .map(|p| groups.iter().skip(5 * p).cloned().collect())
        .chain([Vec::new()])
        .collect();
    for kind in [
        fl::BackendKind::FlBooster,
        fl::BackendKind::Fate,
        fl::BackendKind::Haflo,
    ] {
        let mut replies = None;
        for threads in [1usize, 2, 8] {
            let (side_by_side, one_by_one) = in_pool(threads, || {
                let acc = fl::Accelerator::new(kind, keys.clone(), 4).expect("accel");
                let all = acc
                    .fold_packed_decrypt_timed(&parties, slot_bits)
                    .expect("fan-out")
                    .replies;
                let single: Vec<_> = parties
                    .iter()
                    .flat_map(|party| {
                        acc.fold_packed_decrypt_timed(std::slice::from_ref(party), slot_bits)
                            .expect("one party")
                            .replies
                    })
                    .collect();
                (all, single)
            });
            let what = format!("{kind:?} threads={threads}");
            assert_eq!(side_by_side.len(), parties.len(), "{what}");
            assert_eq!(side_by_side, one_by_one, "{what}");
            assert_eq!(
                replies.get_or_insert_with(|| side_by_side.clone()),
                &side_by_side,
                "{what}"
            );
        }
    }
}

#[test]
fn hetero_sbt_epoch_is_bit_and_charge_identical_at_any_thread_count() {
    // Four passive parties fold side by side on the pool; the epoch must
    // still charge and send them in party order, so the tree, the loss,
    // every breakdown bit and the link's counters are one value per
    // backend whatever the width.
    use fl::models::HeteroSbt;
    use fl::train::{FlEnv, FlModel, TrainConfig};

    let keys = {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5B8);
        PaillierKeyPair::generate(&mut rng, 128).expect("keygen")
    };
    let mut spec = fl::data::generators::DatasetSpec::synthetic();
    spec.features = 20;
    spec.nnz_per_row = 20;
    spec.instances = 160;
    let data = spec.generate(1.0);
    for kind in [fl::BackendKind::FlBooster, fl::BackendKind::Haflo] {
        let mut epoch = None;
        for threads in [1usize, 2, 8] {
            let got = in_pool(threads, || {
                let cfg = TrainConfig::default();
                let accel = fl::Accelerator::new(kind, keys.clone(), 5).expect("accel");
                let env = FlEnv::new(accel, 1);
                let mut model = HeteroSbt::new(&data, 5, &cfg).expect("model");
                let result = model.run_epoch(&env, &cfg, 0).expect("epoch");
                // `Debug` prints every f64 round-trip exact.
                (
                    format!("{:?}", model.trees()),
                    result.loss.to_bits(),
                    format!("{:?}", result.breakdown),
                    format!("{:?}", env.network.stats()),
                    format!("{:?}", env.accel.device_stats()),
                )
            });
            assert!(got.0.contains("Split"), "{kind:?}: no split grown");
            let what = format!("{kind:?} threads={threads}");
            assert_eq!(epoch.get_or_insert_with(|| got.clone()), &got, "{what}");
        }
    }
}

#[test]
fn multi_party_fold_packed_records_device_stats_in_party_order() {
    // Every passive party's fold-and-pack launch shares one pool drive
    // with the node's decrypt launch; the device must still record the
    // packs in party order, whatever order they finish in, and then the
    // decrypt, so the stats are one value at two threads. Party 0 has the
    // most runs, so it finishes last if it runs alone.
    use fl::{Accelerator, BackendKind};
    use he::paillier::Ciphertext;

    let keys = {
        let mut rng = ChaCha8Rng::seed_from_u64(0xF01D);
        PaillierKeyPair::generate(&mut rng, 128).expect("keygen")
    };
    let accel = || Accelerator::new(BackendKind::FlBooster, keys.clone(), 5).expect("accel");
    let words: Vec<Natural> = (0..40u64).map(|i| Natural::from(i * 3 + 1)).collect();
    let (cts, _) = accel().encrypt_words_timed(&words, 9).expect("encrypt");
    let slot_bits = 20;
    let parties: Vec<Vec<Vec<&Ciphertext>>> = [40usize, 12, 3, 25, 7]
        .iter()
        .map(|&groups| {
            (0..groups)
                .map(|g| cts.iter().skip(g).step_by(groups).take(3).collect())
                .collect()
        })
        .collect();
    // Each party's own fold-and-pack sample (its own decrypt follows it).
    let want: Vec<_> = parties
        .iter()
        .map(|party| {
            let alone = accel();
            let reply = alone.fold_packed_decrypt_timed(std::slice::from_ref(party), slot_bits);
            assert!(reply.expect("fold").replies.len() == 1);
            alone
                .device_stats()
                .expect("gpu")
                .utilization_samples
                .remove(0)
        })
        .collect();
    assert_eq!(want.len(), parties.len());
    assert!(
        want.windows(2).all(|w| w[0] != w[1]),
        "parties must be told apart by their samples"
    );
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..24 {
        let acc = accel();
        let replies = in_pool(2, || acc.fold_packed_decrypt_timed(&parties, slot_bits))
            .expect("fold")
            .replies;
        assert_eq!(replies.len(), parties.len());
        let stats = acc.device_stats().expect("gpu");
        let (packs, decrypt) = stats.utilization_samples.split_at(parties.len());
        assert_eq!(packs, want, "samples out of party order");
        let decrypt: Vec<_> = decrypt.iter().map(|s| s.kernel).collect();
        assert_eq!(decrypt, ["paillier_decrypt"]);
        seen.insert(format!("{stats:?}"));
    }
    assert_eq!(seen.len(), 1, "device stats differ run to run: {seen:#?}");
}

#[test]
fn panic_in_one_item_surfaces_and_pool_stays_usable() {
    let hit = std::panic::catch_unwind(|| {
        let v: Vec<u32> = (0..64u32).collect();
        let _: Vec<u32> = v
            .par_iter()
            .map(|&x| {
                if x == 37 {
                    panic!("item 37 exploded");
                }
                x * 2
            })
            .collect();
    });
    let payload = hit.expect_err("the item panic must surface to the caller");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("item 37"), "payload preserved: {msg}");

    // The global pool must keep working after the panic.
    let v: Vec<u32> = (0..256u32).collect();
    let doubled: Vec<u32> = v.par_iter().map(|&x| x * 2).collect();
    assert_eq!(doubled, (0..256u32).map(|x| x * 2).collect::<Vec<_>>());
}

#[test]
fn dataset_generation_and_pooled_blinding_are_hash_order_free() {
    // Regression for the two result-path maps that used to be HashMaps:
    // the planted-concept table in dataset generation (feeds labels), an
    // ordered map now, so generation must be bit-identical across pool
    // widths (a HashMap would at least *permit* hash-order leaks; BTreeMap
    // cannot); and the obfuscator pool's store (fed ciphertext blinding),
    // gone now: a pooled factor is a function of `(key, seed, index)`, so
    // two pool instances blind alike.
    let spec = fl::data::generators::DatasetSpec::rcv1();
    let reference = spec.generate(0.00002);
    for threads in THREAD_COUNTS {
        let spec = fl::data::generators::DatasetSpec::rcv1();
        let got = in_pool(threads, move || spec.generate(0.00002));
        assert_eq!(got.rows, reference.rows, "rows differ at threads={threads}");
        assert_eq!(
            got.labels, reference.labels,
            "labels differ at threads={threads}"
        );
    }

    let keys = {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0DD);
        PaillierKeyPair::generate(&mut rng, 128).expect("keygen")
    };
    let ms: Vec<Natural> = (0..16u64).map(|i| Natural::from(i * 131 + 7)).collect();
    let pooled = || {
        CpuHe::default()
            .with_pool(Arc::new(ObfuscatorPool::new(&keys.public)))
            .encrypt_batch(&keys.public, &ms, 0x5EED)
            .expect("pooled")
            .0
    };
    assert_eq!(pooled(), pooled(), "two pool instances");
}

#[test]
fn round_engine_is_thread_count_invariant_and_matches_the_classic_loop() {
    use fl::metrics::PhaseBreakdown;
    use fl::models::HomoLr;
    use fl::train::{FlEnv, FlModel, TrainConfig};
    use fl::{Accelerator, BackendKind, EngineConfig, EpochBreakdown};

    let keys = {
        let mut rng = ChaCha8Rng::seed_from_u64(0x40B);
        PaillierKeyPair::generate(&mut rng, 128).expect("keygen")
    };
    let mut spec = fl::data::generators::DatasetSpec::synthetic();
    spec.features = 16;
    spec.nnz_per_row = 16;
    spec.instances = 160;
    let data = spec.generate(1.0);

    let run = |threads: Option<usize>, engine: EngineConfig| {
        let keys = keys.clone();
        let data = data.clone();
        let body = move || {
            let cfg = TrainConfig {
                batch_size: 40,
                engine,
                ..TrainConfig::default()
            };
            let accel = Accelerator::new(BackendKind::FlBooster, keys, 4).expect("accel");
            let env = FlEnv::new(accel, 1);
            let mut model = HomoLr::new(&data, 4, &cfg);
            let result = model.run_epoch(&env, &cfg, 0).expect("epoch");
            (model.weights().to_vec(), result.breakdown)
        };
        match threads {
            Some(t) => in_pool(t, body),
            None => body(), // the process-global (unbounded) pool
        }
    };

    // The reference is the barrier-by-barrier sequential loop the engine
    // replaced: what it charged this epoch and the weights it reached,
    // captured from it bit-for-bit before it was deleted. `comm_bytes`
    // (+3 of 1532) and the comm / uplink / downlink / round sums over it
    // were captured again when pooled blinding became a fixed-base power:
    // a ciphertext is charged at its minimal byte length, and its bits
    // changed. The HE and compute charges, the counts and the weights are
    // the classic loop's still.
    let s = f64::from_bits;
    let classic_b = EpochBreakdown {
        he_seconds: s(0x3e805e36456051e8),
        comm_seconds: s(0x3f771e74e026c6be),
        other_seconds: s(0x3f267b4194cad2cd),
        comm_bytes: 0x5ff,
        ciphertexts: 0x30,
        he_values: 0x10,
        phases: PhaseBreakdown {
            compute_seconds: s(0x3ee828c0be769dc2),
            encrypt_seconds: s(0x3f14fa1393160308),
            uplink_seconds: s(0x3f671e72ba6549b9),
            aggregate_seconds: s(0x3e50ed192548cd1e),
            downlink_seconds: s(0x3f671e7705e843c3),
            decrypt_seconds: s(0x3f14fe77c8412a76),
        },
        round_seconds: s(0x3f77d26fa939a815),
    };
    let classic_w: Vec<f64> = [
        0x3fb999996a833dc8u64,
        0x3fb9996a0ab6552c,
        0xbfb99997d1e081cc,
        0xbfb99998a338e617,
        0x3fb999996695e330,
        0xbfb99998f6648961,
        0xbfb9999946f77685,
        0x3fb99998e04cfaf7,
        0x3fb9999974b16762,
        0x3fb99997f1e7340c,
        0xbfb99995f1a791dd,
        0xbfb99998af4acc6d,
        0xbfb9999973e0d0b9,
        0xbfb99996f64c54a9,
        0x3fb9999971d4be7b,
        0xbfb9999834976d19,
    ]
    .into_iter()
    .map(f64::from_bits)
    .collect();

    let sweeps: [Option<usize>; 4] = [Some(1), Some(2), Some(8), None];
    let mut pipelined_ref = None;
    for threads in sweeps {
        // Sequential engine: bit-identical weights AND bit-identical
        // breakdown (components, phases, round_seconds) to the classic
        // loop, at every thread count.
        let (w, b) = run(threads, EngineConfig::sequential());
        assert_eq!(w, classic_w, "sequential engine weights, {threads:?}");
        assert_eq!(b, classic_b, "sequential engine breakdown, {threads:?}");

        // Pipelined engine: same weights and same work, shorter round.
        let (w, b) = run(threads, EngineConfig::default());
        assert_eq!(w, classic_w, "pipelined engine weights, {threads:?}");
        assert_eq!(b.he_seconds, classic_b.he_seconds, "{threads:?}");
        assert_eq!(b.comm_seconds, classic_b.comm_seconds, "{threads:?}");
        assert_eq!(b.other_seconds, classic_b.other_seconds, "{threads:?}");
        assert_eq!(b.phases, classic_b.phases, "{threads:?}");
        assert!(
            b.round_seconds < classic_b.round_seconds,
            "pipelined {} !< classic {} at {threads:?}",
            b.round_seconds,
            classic_b.round_seconds
        );
        match &pipelined_ref {
            None => pipelined_ref = Some(b),
            Some(r) => assert_eq!(&b, r, "pipelined breakdown drifted at {threads:?}"),
        }
    }
}

#[test]
fn round_engine_straggler_outcomes_identical_at_every_thread_count() {
    use fl::engine::{run_round, EngineConfig};
    use fl::metrics::EpochBreakdown;
    use fl::train::{FlEnv, TrainConfig};
    use fl::{Accelerator, BackendKind};

    let keys = {
        let mut rng = ChaCha8Rng::seed_from_u64(0x57AC);
        PaillierKeyPair::generate(&mut rng, 128).expect("keygen")
    };
    let parties: Vec<Vec<f64>> = (0..6)
        .map(|k| {
            (0..10)
                .map(|i| ((k * 10 + i) as f64 * 0.23).cos() * 0.4)
                .collect()
        })
        .collect();
    let flops = vec![200_000u64; 6];
    let tcfg = TrainConfig::default();
    // Clients 2 and 5 run 80x slower than the rest.
    let multipliers = vec![1.0, 1.0, 80.0, 1.0, 1.0, 80.0];

    let run = |threads: Option<usize>, ecfg: EngineConfig| {
        let keys = keys.clone();
        let parties = parties.clone();
        let flops = flops.clone();
        let tcfg = tcfg.clone();
        let body = move || {
            let accel = Accelerator::new(BackendKind::Fate, keys, 8).expect("accel");
            let profile = accel.network_profile().with_duplex_streams(4);
            let env = FlEnv {
                network: fl::Network::new(profile, 1),
                accel,
            };
            let mut b = EpochBreakdown::default();
            let out = run_round(&env, &ecfg, &tcfg, &parties, &flops, 21, &mut b).expect("round");
            (out, b)
        };
        match threads {
            Some(t) => in_pool(t, body),
            None => body(),
        }
    };

    // Pick a deadline between the fast and slow groups from a probe run.
    let probe = run(
        Some(1),
        EngineConfig::default().with_compute_multipliers(multipliers.clone()),
    )
    .0;
    let deadline = (probe.timelines[1].encrypt_done + probe.timelines[2].encrypt_done) / 2.0;
    let ecfg = EngineConfig::default()
        .with_compute_multipliers(multipliers)
        .with_straggler_timeout(deadline);

    let mut reference = None;
    for threads in [Some(1), Some(2), Some(8), None] {
        let (out, b) = run(threads, ecfg.clone());
        assert_eq!(out.dropped, vec![2, 5], "dropout set at {threads:?}");
        assert_eq!(out.survivors, vec![0, 1, 3, 4], "survivors at {threads:?}");
        match &reference {
            None => reference = Some((out, b)),
            Some((ro, rb)) => {
                // Sums, timelines, and the charged breakdown are all
                // bit-identical across pool widths.
                assert_eq!(&out, ro, "outcome drifted at {threads:?}");
                assert_eq!(&b, rb, "breakdown drifted at {threads:?}");
            }
        }
    }
}
