//! Every batched operation on every backend configuration, pinned
//! bit-for-bit.
//!
//! The constants were captured (128-bit fixed-seed key) at the commit
//! before `he::ghe` wrote each operation once over a two-arm schedule,
//! when `CpuHe` and `GpuHe` each spelled out their own copy and the flat
//! weighted fold was a separate method from the sharded one. A row is
//! `(label, FNV-1a of the output limbs, sim_seconds.to_bits(), ops,
//! items)`; the device rows are the simulated GPU's running totals after
//! the same calls. A changed op count, a float product taken in another
//! order, a transfer charged differently or a floor applied on the wrong
//! arm moves at least one value here.
//!
//! The `cpu+pool encrypt` / `gpu+pool encrypt` FNV columns, and only
//! those, were captured again when a pooled blinding factor became a
//! fixed-base power `h_s^a` instead of a uniform `r^n`: a pooled
//! ciphertext stopped being the pool-less one bit for bit. Their
//! `sim_seconds`, `ops` and `items`, the device rows and every pool-less
//! row stayed as first captured; the folds take pool-less operands, so
//! `SUM_GOLDEN` did not move either.
//!
//! The `cpu+pool encrypt` / `gpu+pool encrypt` `sim_seconds` and `ops`
//! columns and the `gpu+pool` device row were captured again when a
//! pooled item came always to be charged the pooled encrypt: the batch
//! had been pinned as three prefilled items and two charged the full
//! inline `r^n`, and a pool no longer holds prefilled items. Their FNV
//! column did not move.
//!
//! The `weighted` rows, the device rows (running totals that include the
//! weighted launches) and the `weighted_sum_op_estimate` rows were
//! captured again when a weighted fold came to be charged as the bucket
//! pass it runs, and its shard count, which only that charge read, went.
//! They were captured once more when the bucket pass gave way to a
//! Bos–Coster chain and a launch came to be charged its fix-up's
//! `R`-power too; their FNV column did not move.
//!
//! `SUM_GOLDEN` holds the k-way `sum_batches` (k = 2, 3, 128), added when
//! `add_batch` became its two-batch call: the k = 2 rows are held to the
//! `add` rows of `GOLDEN`, and every output to the chain of pairwise
//! adds it replaces. `PACK_GOLDEN` holds `fold_packed`, packed four to a
//! word and one to a word, and every output to the `scalar_mul` + `add`
//! spelling of the same word.
//!
//! `ESTIMATE_GOLDEN` holds one row per op-cost estimator and kernel it
//! prices — the per-operator prices behind every simulated second. The
//! row binds the kernel through a typed fn pointer, so renaming the
//! kernel or changing its parameter list fails to compile, and pins the
//! estimator's value at the same 128-bit key.

use std::sync::Arc;

use gpu_sim::{resource::ResourceManager, Device, DeviceConfig};
use he::ghe::HeTiming;
use he::paillier::{
    Ciphertext, Obfuscator, ObfuscatorPool, PaillierKeyPair, PaillierPrivateKey, PaillierPublicKey,
};
use he::rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
use he::{CpuHe, GpuHe, HeBackend, Result};
use mpint::Natural;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

type Row = (String, u64, u64, u64, u64);
type GoldenRow = (&'static str, u64, u64, u64, u64);

/// `[launches, items, bytes_in, bytes_out, thread_ops, h2d, kernel, d2h]`,
/// the three times as `f64::to_bits`.
type DeviceRow = (&'static str, [u64; 8]);

fn fnv<'a>(values: impl Iterator<Item = &'a Natural>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in values {
        eat(v.limbs().len() as u64);
        v.limbs().iter().copied().for_each(&mut eat);
    }
    h
}

fn row(label: String, out: &[Ciphertext], t: &HeTiming) -> Row {
    let h = fnv(out.iter().map(|c| &c.value));
    (label, h, t.sim_seconds.to_bits(), t.ops, t.items)
}

#[expect(
    clippy::unwrap_used,
    reason = "a failed call is the calling test's failure"
)]
fn weighted(
    be: &dyn HeBackend,
    pk: &PaillierPublicKey,
    batches: &[Vec<Ciphertext>],
    weights: &[u64],
) -> (Vec<Ciphertext>, HeTiming) {
    let batches: Vec<&[Ciphertext]> = batches.iter().map(Vec::as_slice).collect();
    be.weighted_aggregate(pk, &batches, weights).unwrap()
}

/// Operands for the folds come from the unpooled CPU path, so every
/// configuration folds the same inputs.
#[expect(
    clippy::unwrap_used,
    reason = "a failed call is the calling test's failure"
)]
fn fold_operands(pk: &PaillierPublicKey, seed: u64, vals: &[u64]) -> Vec<Ciphertext> {
    let ms: Vec<Natural> = vals.iter().map(|&v| Natural::from(v)).collect();
    CpuHe::default().encrypt_batch(pk, &ms, seed).unwrap().0
}

/// Runs every operation once on `be` and returns one row per call.
#[expect(
    clippy::unwrap_used,
    clippy::indexing_slicing,
    reason = "a failed call is the calling test's failure; the operand vectors hold \
              five ciphertexts each"
)]
fn exercise(name: &str, be: &dyn HeBackend, keys: &PaillierKeyPair) -> Vec<Row> {
    let pk = &keys.public;
    let ms: Vec<Natural> = [3u64, 1 << 40, 0, 977, u64::MAX]
        .iter()
        .map(|&v| Natural::from(v))
        .collect();
    let mut rows = Vec::new();

    let (cts, t) = be.encrypt_batch(pk, &ms, 11).unwrap();
    rows.push(row(format!("{name} encrypt"), &cts, &t));
    let (plain, t) = be.decrypt_batch(&keys.private, &cts).unwrap();
    assert_eq!(plain, ms, "{name}");
    rows.push((
        format!("{name} decrypt"),
        fnv(plain.iter()),
        t.sim_seconds.to_bits(),
        t.ops,
        t.items,
    ));

    let enc = |seed: u64, vals: &[u64]| fold_operands(pk, seed, vals);
    let a = enc(21, &[1, 2, 3, 4, 5]);
    let b = enc(22, &[10, 20, 30, 40, 50]);
    let (sum, t) = be.add_batch(pk, &a, &b).unwrap();
    rows.push(row(format!("{name} add"), &sum, &t));

    // A skewed histogram with one empty bucket.
    let groups = vec![a[..3].to_vec(), Vec::new(), b[3..].to_vec()];
    let (folded, t) = be.fold_groups(pk, &groups).unwrap();
    rows.push(row(format!("{name} fold"), &folded, &t));

    let batches: Vec<Vec<Ciphertext>> = (0..4u64)
        .map(|p| enc(30 + p, &[p + 1, 100 * p + 7, p * p]))
        .collect();
    let weights = [1u64, 977, 65_536, 12];
    let (out, t) = weighted(be, pk, &batches, &weights);
    rows.push(row(format!("{name} weighted"), &out, &t));
    let empty = vec![Vec::new(), Vec::new()];
    let (out, t) = weighted(be, pk, &empty, &[5, 6]);
    rows.push(row(format!("{name} weighted/zero-slot"), &out, &t));
    rows
}

fn device_row(device: &Device) -> [u64; 8] {
    let s = device.stats();
    [
        s.launches,
        s.items,
        s.bytes_in,
        s.bytes_out,
        s.thread_ops,
        s.sim_h2d_seconds.to_bits(),
        s.sim_kernel_seconds.to_bits(),
        s.sim_d2h_seconds.to_bits(),
    ]
}

#[test]
fn every_operation_on_every_backend_matches_golden_bits() {
    let keys = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(0x5C4ED), 128).unwrap();
    // The owner's pool: every pooled encrypt item is charged the pooled
    // encrypt.
    let pool = || Arc::new(ObfuscatorPool::for_owner(&keys.private));
    let adaptive = || Arc::new(Device::new(DeviceConfig::rtx3090()));
    let fixed = Arc::new(Device::with_manager(
        DeviceConfig::rtx3090(),
        ResourceManager::fixed(256),
    ));
    let (gpu_dev, pooled_dev) = (adaptive(), adaptive());

    let mut rows = Vec::new();
    rows.extend(exercise("cpu", &CpuHe::default(), &keys));
    rows.extend(exercise(
        "cpu+pool",
        &CpuHe::default().with_pool(pool()),
        &keys,
    ));
    rows.extend(exercise("gpu", &GpuHe::new(Arc::clone(&gpu_dev)), &keys));
    rows.extend(exercise(
        "gpu-fixed256",
        &GpuHe::new(Arc::clone(&fixed)),
        &keys,
    ));
    rows.extend(exercise(
        "gpu+pool",
        &GpuHe::new(Arc::clone(&pooled_dev)).with_pool(pool()),
        &keys,
    ));
    let devices = [
        ("gpu", device_row(&gpu_dev)),
        ("gpu-fixed256", device_row(&fixed)),
        ("gpu+pool", device_row(&pooled_dev)),
    ];

    let golden: Vec<Row> = GOLDEN
        .iter()
        .map(|&(l, h, s, o, i)| (l.to_string(), h, s, o, i))
        .collect();
    if rows != golden || devices[..] != *DEVICES {
        for (l, h, s, o, i) in &rows {
            println!("    ({l:?}, {h:#018x}, {s:#018x}, {o}, {i}),");
        }
        for (l, d) in &devices {
            println!("    ({l:?}, {d:#x?}),");
        }
    }
    assert_eq!(rows, golden);
    assert_eq!(devices[..], *DEVICES);
}

/// `sum_batches` over 2, 3 and 128 batches on `be`. The two-batch call
/// folds the operands of the `add` row above.
#[expect(
    clippy::unwrap_used,
    clippy::indexing_slicing,
    reason = "a failed call is the calling test's failure; `k` is at most the 128 \
              batches built here"
)]
fn exercise_sums(name: &str, be: &dyn HeBackend, pk: &PaillierPublicKey) -> Vec<Row> {
    let mut batches = vec![
        fold_operands(pk, 21, &[1, 2, 3, 4, 5]),
        fold_operands(pk, 22, &[10, 20, 30, 40, 50]),
    ];
    batches.extend((2..128u64).map(|p| fold_operands(pk, 21 + p, &[p, 3 * p + 2, p * p, 7, 0])));
    let batches: Vec<&[Ciphertext]> = batches.iter().map(Vec::as_slice).collect();
    [2usize, 3, 128]
        .into_iter()
        .map(|k| {
            let (out, t) = be.sum_batches(pk, &batches[..k]).unwrap();
            // The same bits as the chain of pairwise adds it replaces.
            let chained = batches[1..k].iter().fold(batches[0].to_vec(), |acc, b| {
                CpuHe::default().add_batch(pk, &acc, b).unwrap().0
            });
            assert_eq!(out, chained, "{name} sum/{k}");
            row(format!("{name} sum/{k}"), &out, &t)
        })
        .collect()
}

/// The k-way sum on every backend configuration. Its two-batch rows are
/// not new constants: they must equal the `add` rows of [`GOLDEN`], which
/// were captured when `add_batch` had a body of its own.
#[test]
fn sum_batches_on_every_backend_matches_golden_bits() {
    let keys = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(0x5C4ED), 128).unwrap();
    let pk = &keys.public;
    let adaptive = || Arc::new(Device::new(DeviceConfig::rtx3090()));
    let fixed = Arc::new(Device::with_manager(
        DeviceConfig::rtx3090(),
        ResourceManager::fixed(256),
    ));
    let pool = Arc::new(ObfuscatorPool::for_owner(&keys.private));
    let backends: [(&str, Box<dyn HeBackend>); 5] = [
        ("cpu", Box::new(CpuHe::default())),
        (
            "cpu+pool",
            Box::new(CpuHe::default().with_pool(Arc::clone(&pool))),
        ),
        ("gpu", Box::new(GpuHe::new(adaptive()))),
        ("gpu-fixed256", Box::new(GpuHe::new(fixed))),
        ("gpu+pool", Box::new(GpuHe::new(adaptive()).with_pool(pool))),
    ];
    let mut rows = Vec::new();
    for (name, be) in &backends {
        let sums = exercise_sums(name, be.as_ref(), pk);
        let add = GOLDEN
            .iter()
            .find(|row| row.0 == format!("{name} add"))
            .unwrap();
        let two = &sums[0];
        assert_eq!((two.1, two.2, two.3, two.4), (add.1, add.2, add.3, add.4));
        rows.extend(sums);
    }
    let golden: Vec<Row> = SUM_GOLDEN
        .iter()
        .map(|&(l, h, s, o, i)| (l.to_string(), h, s, o, i))
        .collect();
    if rows != golden {
        for (l, h, s, o, i) in &rows {
            println!("    ({l:?}, {h:#018x}, {s:#018x}, {o}, {i}),");
        }
    }
    assert_eq!(rows, golden);
}

/// `fold_packed` over a skewed nine-bucket histogram (two buckets empty)
/// on every backend configuration, at 30-bit slots — four to this key's
/// word, so two runs — and at a slot as wide as the word, the unpacked
/// baselines' one sum per ciphertext. The output is held to the
/// `scalar_mul` + `add` spelling of the same packing, limb for limb.
#[test]
fn fold_packed_on_every_backend_matches_golden_bits() {
    let keys = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(0x5C4ED), 128).unwrap();
    let pk = &keys.public;
    let cts = fold_operands(pk, 41, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
    let groups: Vec<Vec<&Ciphertext>> = [3usize, 0, 1, 2, 0, 4, 1, 2, 5]
        .iter()
        .enumerate()
        .map(|(b, &len)| cts.iter().cycle().skip(b).take(len).collect())
        .collect();
    let adaptive = || Arc::new(Device::new(DeviceConfig::rtx3090()));
    let fixed = Arc::new(Device::with_manager(
        DeviceConfig::rtx3090(),
        ResourceManager::fixed(256),
    ));
    let backends: [(&str, Box<dyn HeBackend>); 3] = [
        ("cpu", Box::new(CpuHe::default())),
        ("gpu", Box::new(GpuHe::new(adaptive()))),
        ("gpu-fixed256", Box::new(GpuHe::new(fixed))),
    ];
    let word = pk.n.bit_len() - 1;
    let mut rows = Vec::new();
    for (name, be) in &backends {
        for slot_bits in [30, word] {
            let (out, t) = be.fold_packed(pk, &groups, slot_bits).unwrap();
            let sums: Vec<Ciphertext> = groups
                .iter()
                .filter(|g| !g.is_empty())
                .map(|g| pk.checked_sum(g).unwrap())
                .collect();
            let per_word = pk.pack_capacity(slot_bits).unwrap().min(4);
            let spelled: Vec<Ciphertext> = sums
                .chunks(per_word)
                .map(|run| {
                    run.iter()
                        .enumerate()
                        .fold(pk.zero_ciphertext(), |acc, (j, c)| {
                            #[expect(
                                clippy::cast_possible_truncation,
                                reason = "a slot index below four"
                            )]
                            let shift = Natural::one().shl_bits(j as u32 * slot_bits);
                            pk.checked_add(&acc, &pk.checked_scalar_mul(c, &shift).unwrap())
                                .unwrap()
                        })
                })
                .collect();
            assert_eq!(out, spelled, "{name} pack/{slot_bits}");
            rows.push(row(format!("{name} pack/{slot_bits}"), &out, &t));
        }
    }
    let golden: Vec<Row> = PACK_GOLDEN
        .iter()
        .map(|&(l, h, s, o, i)| (l.to_string(), h, s, o, i))
        .collect();
    if rows != golden {
        for (l, h, s, o, i) in &rows {
            println!("    ({l:?}, {h:#018x}, {s:#018x}, {o}, {i}),");
        }
    }
    assert_eq!(rows, golden);
}

/// `(estimator, kernel, estimate)`: the kernel is bound to `$sig`, so a
/// rename or an arity change is a compile error, not a stale row.
macro_rules! pairing {
    ($estimator:literal = $estimate:expr, $kernel:expr, $sig:ty) => {{
        let _bound: $sig = $kernel;
        ($estimator, stringify!($kernel), $estimate)
    }};
}

type Pk = PaillierPublicKey;
type Sk = PaillierPrivateKey;

/// Every estimator at the golden key, next to the kernel it prices. The
/// argument-taking estimators are read at the Bos–Coster chain over 128
/// ten-bit weights, a 64-bit scalar and four 30-bit slots.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "prices the unchecked ops beside their checked forms"
)]
fn every_estimator_prices_its_kernel_at_golden_values() {
    let keys = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(0x5C4ED), 128).unwrap();
    let rsa = RsaKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(0x5C4ED), 128).unwrap();
    let (pk, sk) = (&keys.public, &keys.private);
    let encrypt = pk.encrypt_op_estimate();
    let add = pk.add_op_estimate();
    let scalar_mul = pk.scalar_mul_op_estimate(64);
    let decrypt = sk.decrypt_op_estimate();
    let rsa_decrypt = rsa.private.decrypt_op_estimate();
    type Weighted =
        fn(&CpuHe, &Pk, &[&[Ciphertext]], &[u64]) -> Result<(Vec<Ciphertext>, HeTiming)>;
    let weights: Vec<Natural> = (0..128u64).map(|i| Natural::from(512 + 3 * i)).collect();
    let plan = mpint::straus::multi_exp_plan(&weights);
    let weighted = pk.weighted_sum_op_estimate(&plan);
    let rows: Vec<(&str, &str, u64)> = vec![
        pairing!(
            "encrypt_op_estimate" = encrypt,
            Pk::encrypt::<ChaCha8Rng>,
            fn(&Pk, &Natural, &mut ChaCha8Rng) -> Result<Ciphertext>
        ),
        pairing!(
            "encrypt_op_estimate" = encrypt,
            Pk::encrypt_with_r,
            fn(&Pk, &Natural, &Natural) -> Result<Ciphertext>
        ),
        pairing!(
            "encrypt_op_estimate" = encrypt,
            Pk::precompute_obfuscator,
            fn(&Pk, &Natural) -> Obfuscator
        ),
        pairing!(
            "encrypt_pooled_op_estimate" = pk.encrypt_pooled_op_estimate(),
            Pk::encrypt_with_obfuscator,
            fn(&Pk, &Natural, Obfuscator) -> Result<Ciphertext>
        ),
        pairing!(
            "add_op_estimate" = add,
            Pk::add,
            fn(&Pk, &Ciphertext, &Ciphertext) -> Ciphertext
        ),
        pairing!(
            "add_op_estimate" = add,
            Pk::checked_add,
            fn(&Pk, &Ciphertext, &Ciphertext) -> Result<Ciphertext>
        ),
        pairing!(
            "add_op_estimate" = add,
            Pk::checked_sum,
            fn(&Pk, &[&Ciphertext]) -> Result<Ciphertext>
        ),
        pairing!(
            "scalar_mul_op_estimate" = scalar_mul,
            Pk::scalar_mul,
            fn(&Pk, &Ciphertext, &Natural) -> Ciphertext
        ),
        pairing!(
            "scalar_mul_op_estimate" = scalar_mul,
            Pk::checked_scalar_mul,
            fn(&Pk, &Ciphertext, &Natural) -> Result<Ciphertext>
        ),
        pairing!(
            "pack_op_estimate" = pk.pack_op_estimate(4, 30),
            Pk::checked_pack,
            fn(&Pk, &[&Ciphertext], u32) -> Result<Ciphertext>
        ),
        pairing!(
            "weighted_sum_op_estimate" = weighted,
            Pk::weighted_sum,
            fn(&Pk, &[Ciphertext], &[Natural]) -> Result<Ciphertext>
        ),
        pairing!(
            "weighted_sum_op_estimate" = weighted,
            <CpuHe as HeBackend>::weighted_aggregate,
            Weighted
        ),
        pairing!(
            "weighted_fixup_op_estimate" = pk.weighted_fixup_op_estimate(&plan),
            <CpuHe as HeBackend>::weighted_aggregate,
            Weighted
        ),
        pairing!(
            "decrypt_op_estimate" = decrypt,
            Sk::decrypt,
            fn(&Sk, &Ciphertext) -> Result<Natural>
        ),
        pairing!(
            "decrypt_op_estimate" = decrypt,
            Sk::decrypt_crt,
            fn(&Sk, &Ciphertext) -> Result<Natural>
        ),
        pairing!(
            "rsa encrypt_op_estimate" = rsa.public.encrypt_op_estimate(),
            RsaPublicKey::encrypt,
            fn(&RsaPublicKey, &Natural) -> Result<Natural>
        ),
        pairing!(
            "rsa decrypt_op_estimate" = rsa_decrypt,
            RsaPrivateKey::decrypt,
            fn(&RsaPrivateKey, &Natural) -> Result<Natural>
        ),
        pairing!(
            "rsa decrypt_op_estimate" = rsa_decrypt,
            RsaPrivateKey::decrypt_direct,
            fn(&RsaPrivateKey, &Natural) -> Result<Natural>
        ),
    ];
    if rows != ESTIMATE_GOLDEN {
        for (e, k, v) in &rows {
            println!("    ({e:?}, {k:?}, {v}),");
        }
    }
    assert_eq!(rows, ESTIMATE_GOLDEN);
}

const ESTIMATE_GOLDEN: &[(&str, &str, u64)] = &[
    ("encrypt_op_estimate", "Pk::encrypt::<ChaCha8Rng>", 2256),
    ("encrypt_op_estimate", "Pk::encrypt_with_r", 2256),
    ("encrypt_op_estimate", "Pk::precompute_obfuscator", 2256),
    (
        "encrypt_pooled_op_estimate",
        "Pk::encrypt_with_obfuscator",
        64,
    ),
    ("add_op_estimate", "Pk::add", 48),
    ("add_op_estimate", "Pk::checked_add", 48),
    ("add_op_estimate", "Pk::checked_sum", 48),
    ("scalar_mul_op_estimate", "Pk::scalar_mul", 1184),
    ("scalar_mul_op_estimate", "Pk::checked_scalar_mul", 1184),
    ("pack_op_estimate", "Pk::checked_pack", 1977),
    ("weighted_sum_op_estimate", "Pk::weighted_sum", 4264),
    (
        "weighted_sum_op_estimate",
        "<CpuHe as HeBackend>::weighted_aggregate",
        4264,
    ),
    (
        "weighted_fixup_op_estimate",
        "<CpuHe as HeBackend>::weighted_aggregate",
        400,
    ),
    ("decrypt_op_estimate", "Sk::decrypt", 992),
    ("decrypt_op_estimate", "Sk::decrypt_crt", 992),
    ("rsa encrypt_op_estimate", "RsaPublicKey::encrypt", 68),
    ("rsa decrypt_op_estimate", "RsaPrivateKey::decrypt", 264),
    (
        "rsa decrypt_op_estimate",
        "RsaPrivateKey::decrypt_direct",
        264,
    ),
];

const PACK_GOLDEN: &[GoldenRow] = &[
    (
        "cpu pack/30",
        0x81d4fbd7665df18a,
        0x3ee171b13708ef82,
        4159,
        2,
    ),
    (
        "cpu pack/127",
        0x58a648e65c585895,
        0x3ebcfdb417c18a1b,
        864,
        7,
    ),
    (
        "gpu pack/30",
        0x81d4fbd7665df18a,
        0x3e6bb30f045a2f04,
        4159,
        2,
    ),
    (
        "gpu pack/127",
        0x58a648e65c585895,
        0x3e59a8c92c86fbb0,
        864,
        7,
    ),
    (
        "gpu-fixed256 pack/30",
        0x81d4fbd7665df18a,
        0x3e7eaf3bb94ba2db,
        4159,
        2,
    ),
    (
        "gpu-fixed256 pack/127",
        0x58a648e65c585895,
        0x3e63f9f1b9195af3,
        864,
        7,
    ),
];

const SUM_GOLDEN: &[GoldenRow] = &[
    ("cpu sum/2", 0x1f9e4cb2c0ac35a2, 0x3ea01b2b29a4692c, 240, 5),
    ("cpu sum/3", 0x644aadcf34a15724, 0x3eb01b2b29a4692c, 480, 5),
    (
        "cpu sum/128",
        0x82a11f4e586ae4a6,
        0x3f0ff5e9a6a240b3,
        30480,
        5,
    ),
    (
        "cpu+pool sum/2",
        0x1f9e4cb2c0ac35a2,
        0x3ea01b2b29a4692c,
        240,
        5,
    ),
    (
        "cpu+pool sum/3",
        0x644aadcf34a15724,
        0x3eb01b2b29a4692c,
        480,
        5,
    ),
    (
        "cpu+pool sum/128",
        0x82a11f4e586ae4a6,
        0x3f0ff5e9a6a240b3,
        30480,
        5,
    ),
    ("gpu sum/2", 0x1f9e4cb2c0ac35a2, 0x3e3446d5a9b4dd11, 240, 5),
    ("gpu sum/3", 0x644aadcf34a15724, 0x3e3ff6a55f564ed8, 480, 5),
    (
        "gpu sum/128",
        0x82a11f4e586ae4a6,
        0x3e97533c443cab73,
        30480,
        5,
    ),
    (
        "gpu-fixed256 sum/2",
        0x1f9e4cb2c0ac35a2,
        0x3e4053514411c8e2,
        240,
        5,
    ),
    (
        "gpu-fixed256 sum/3",
        0x644aadcf34a15724,
        0x3e4c5b1f8e19dc1f,
        480,
        5,
    ),
    (
        "gpu-fixed256 sum/128",
        0x82a11f4e586ae4a6,
        0x3ea7f0ab66d02d04,
        30480,
        5,
    ),
    (
        "gpu+pool sum/2",
        0x1f9e4cb2c0ac35a2,
        0x3e3446d5a9b4dd11,
        240,
        5,
    ),
    (
        "gpu+pool sum/3",
        0x644aadcf34a15724,
        0x3e3ff6a55f564ed8,
        480,
        5,
    ),
    (
        "gpu+pool sum/128",
        0x82a11f4e586ae4a6,
        0x3e97533c443cab73,
        30480,
        5,
    ),
];

const GOLDEN: &[GoldenRow] = &[
    (
        "cpu encrypt",
        0xe764b49631df6f05,
        0x3ef7a7e765297a78,
        11280,
        5,
    ),
    (
        "cpu decrypt",
        0x9333ee1624913449,
        0x3ee4cdc26b1f07d8,
        4960,
        5,
    ),
    ("cpu add", 0x1f9e4cb2c0ac35a2, 0x3ea01b2b29a4692c, 240, 5),
    ("cpu fold", 0xdab59bad4d51a466, 0x3ea01b2b29a4692c, 240, 3),
    (
        "cpu weighted",
        0xbbf6035278ae127c,
        0x3ec9443882ed1e96,
        1506,
        3,
    ),
    (
        "cpu weighted/zero-slot",
        0xcbf29ce484222325,
        0x0000000000000000,
        0,
        0,
    ),
    (
        "cpu+pool encrypt",
        0xbea6c54defe01eea,
        0x3ea5798ee2308c3a,
        320,
        5,
    ),
    (
        "cpu+pool decrypt",
        0x9333ee1624913449,
        0x3ee4cdc26b1f07d8,
        4960,
        5,
    ),
    (
        "cpu+pool add",
        0x1f9e4cb2c0ac35a2,
        0x3ea01b2b29a4692c,
        240,
        5,
    ),
    (
        "cpu+pool fold",
        0xdab59bad4d51a466,
        0x3ea01b2b29a4692c,
        240,
        3,
    ),
    (
        "cpu+pool weighted",
        0xbbf6035278ae127c,
        0x3ec9443882ed1e96,
        1506,
        3,
    ),
    (
        "cpu+pool weighted/zero-slot",
        0xcbf29ce484222325,
        0x0000000000000000,
        0,
        0,
    ),
    (
        "gpu encrypt",
        0xe764b49631df6f05,
        0x3e82e4bc4aece526,
        11280,
        5,
    ),
    (
        "gpu decrypt",
        0x9333ee1624913449,
        0x3e73451a06b07d71,
        4960,
        5,
    ),
    ("gpu add", 0x1f9e4cb2c0ac35a2, 0x3e3446d5a9b4dd11, 240, 5),
    ("gpu fold", 0xdab59bad4d51a466, 0x3e42ec8c6ba84b1a, 241, 3),
    (
        "gpu weighted",
        0xbbf6035278ae127c,
        0x3e5b3ae39910ff59,
        1506,
        3,
    ),
    (
        "gpu weighted/zero-slot",
        0xcbf29ce484222325,
        0x3e112e0be826d695,
        0,
        0,
    ),
    (
        "gpu-fixed256 encrypt",
        0xe764b49631df6f05,
        0x3e94f963d8f85181,
        11280,
        5,
    ),
    (
        "gpu-fixed256 decrypt",
        0x9333ee1624913449,
        0x3e83c5c6adeb2374,
        4960,
        5,
    ),
    (
        "gpu-fixed256 add",
        0x1f9e4cb2c0ac35a2,
        0x3e4053514411c8e2,
        240,
        5,
    ),
    (
        "gpu-fixed256 fold",
        0xdab59bad4d51a466,
        0x3e4e1b6c6ef35af4,
        241,
        3,
    ),
    (
        "gpu-fixed256 weighted",
        0xbbf6035278ae127c,
        0x3e6bc3e1ff09769b,
        1506,
        3,
    ),
    (
        "gpu-fixed256 weighted/zero-slot",
        0xcbf29ce484222325,
        0x3e112e0be826d695,
        0,
        0,
    ),
    (
        "gpu+pool encrypt",
        0xbea6c54defe01eea,
        0x3e506a80d742c51b,
        320,
        5,
    ),
    (
        "gpu+pool decrypt",
        0x9333ee1624913449,
        0x3e73451a06b07d71,
        4960,
        5,
    ),
    (
        "gpu+pool add",
        0x1f9e4cb2c0ac35a2,
        0x3e3446d5a9b4dd11,
        240,
        5,
    ),
    (
        "gpu+pool fold",
        0xdab59bad4d51a466,
        0x3e42ec8c6ba84b1a,
        241,
        3,
    ),
    (
        "gpu+pool weighted",
        0xbbf6035278ae127c,
        0x3e5b3ae39910ff59,
        1506,
        3,
    ),
    (
        "gpu+pool weighted/zero-slot",
        0xcbf29ce484222325,
        0x3e112e0be826d695,
        0,
        0,
    ),
];

const DEVICES: &[DeviceRow] = &[
    (
        "gpu",
        [
            0x6,
            0x15,
            0x10a,
            0x1b0,
            0x4733,
            0x3e51d9d85f385af6,
            0x3f26ef0c038b1691,
            0x3e5cfdb417c18a1c,
        ],
    ),
    (
        "gpu-fixed256",
        [
            0x6,
            0x15,
            0x10a,
            0x1b0,
            0x4733,
            0x3e51d9d85f385af6,
            0x3f320eff2faed29e,
            0x3e5cfdb417c18a1c,
        ],
    ),
    (
        "gpu+pool",
        [
            0x6,
            0x15,
            0x10a,
            0x1b0,
            0x1c63,
            0x3e51d9d85f385af6,
            0x3f13f94816dbfb80,
            0x3e5cfdb417c18a1c,
        ],
    ),
];
