//! Property-based tests for the Paillier and RSA cryptosystems.
//!
//! Keys are generated once (128-bit, seeded) and shared across cases; the
//! properties quantify over plaintexts and blinding factors.

use std::sync::{Arc, OnceLock};

use he::paillier::{Ciphertext, ObfuscatorPool, PaillierKeyPair};
use he::rsa::RsaKeyPair;
use he::{CpuHe, HeBackend};
use mpint::{straus, MontgomeryCtx, Natural};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[expect(
    clippy::unwrap_used,
    reason = "a failed keygen is the calling test's failure"
)]
fn paillier() -> &'static PaillierKeyPair {
    static KEYS: OnceLock<PaillierKeyPair> = OnceLock::new();
    KEYS.get_or_init(|| {
        PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(0xDEC0DE), 128).unwrap()
    })
}

#[expect(
    clippy::unwrap_used,
    reason = "a failed keygen is the calling test's failure"
)]
fn rsa() -> &'static RsaKeyPair {
    static KEYS: OnceLock<RsaKeyPair> = OnceLock::new();
    KEYS.get_or_init(|| {
        RsaKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(0x4257u64), 128).unwrap()
    })
}

fn plaintext(seed: u64) -> Natural {
    // Uniform below n via rejection from a seeded stream.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    mpint::random::random_below(&mut rng, &paillier().public.n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decrypt_inverts_encrypt(seed in any::<u64>(), rseed in any::<u64>()) {
        let k = paillier();
        let m = plaintext(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(rseed);
        let c = k.public.encrypt(&m, &mut rng).unwrap();
        prop_assert_eq!(k.private.decrypt(&c).unwrap(), m.clone());
        prop_assert_eq!(k.private.decrypt_crt(&c).unwrap(), m);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "tests the unchecked op itself"
    )]
    fn homomorphic_addition_mod_n(s1 in any::<u64>(), s2 in any::<u64>()) {
        let k = paillier();
        let (m1, m2) = (plaintext(s1), plaintext(s2));
        let mut rng = ChaCha8Rng::seed_from_u64(s1 ^ s2);
        let c1 = k.public.encrypt(&m1, &mut rng).unwrap();
        let c2 = k.public.encrypt(&m2, &mut rng).unwrap();
        let sum = k.public.add(&c1, &c2);
        let expected = &(&m1 + &m2) % &k.public.n;
        prop_assert_eq!(k.private.decrypt_crt(&sum).unwrap(), expected);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "tests the unchecked op itself"
    )]
    fn scalar_multiplication_mod_n(seed in any::<u64>(), scalar in 0u64..10_000) {
        let k = paillier();
        let m = plaintext(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let c = k.public.encrypt(&m, &mut rng).unwrap();
        let scaled = k.public.scalar_mul(&c, &Natural::from(scalar));
        let expected = &(&m * &Natural::from(scalar)) % &k.public.n;
        prop_assert_eq!(k.private.decrypt_crt(&scaled).unwrap(), expected);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "tests the unchecked op itself"
    )]
    fn fold_of_many_ciphertexts(seeds in proptest::collection::vec(any::<u64>(), 1..6)) {
        let k = paillier();
        let ms: Vec<Natural> = seeds.iter().map(|&s| plaintext(s)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(1234);
        let mut acc = k.public.zero_ciphertext();
        let mut expected = Natural::zero();
        for m in &ms {
            let c = k.public.encrypt(m, &mut rng).unwrap();
            acc = k.public.add(&acc, &c);
            expected = &(&expected + m) % &k.public.n;
        }
        prop_assert_eq!(k.private.decrypt_crt(&acc).unwrap(), expected);
    }

    /// `checked_pack` puts operand `j` in slot `j`: it decrypts to
    /// `Σ mⱼ·2^(j·w)`, as the `scalar_mul` + `add` spelling does, and
    /// `unpack_runs` slices the operands back out. One operand comes back
    /// as it went in.
    #[test]
    fn pack_is_shift_and_add_of_the_plaintexts(
        seed in any::<u64>(),
        slot_bits in 1u32..=63,
        fill in 1usize..=127,
    ) {
        let k = paillier();
        let cap = k.public.pack_capacity(slot_bits).unwrap();
        prop_assert_eq!(cap, (127 / slot_bits) as usize);
        let count = 1 + (fill - 1) % cap;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ms: Vec<Natural> = (0..count)
            .map(|_| Natural::from(rand::Rng::gen::<u64>(&mut rng) >> (64 - slot_bits)))
            .collect();
        let cts: Vec<_> = ms.iter().map(|m| k.public.encrypt(m, &mut rng).unwrap()).collect();
        let refs: Vec<_> = cts.iter().collect();
        let packed = k.public.checked_pack(&refs, slot_bits).unwrap();

        let mut word = Natural::zero();
        let mut spelled = k.public.zero_ciphertext();
        for (j, (m, c)) in (0u32..).zip(ms.iter().zip(&cts)) {
            let shift = Natural::one().shl_bits(j * slot_bits);
            word = &word + &(m * &shift);
            let term = k.public.checked_scalar_mul(c, &shift).unwrap();
            spelled = k.public.checked_add(&spelled, &term).unwrap();
        }
        let plain = k.private.decrypt_crt(&packed).unwrap();
        prop_assert_eq!(&plain, &word);
        prop_assert_eq!(k.private.decrypt_crt(&spelled).unwrap(), word);
        prop_assert_eq!(k.public.unpack_runs(&[plain], count, slot_bits).unwrap(), ms);
        if count == 1 {
            prop_assert_eq!(&packed, &cts[0]);
        }
    }

    #[test]
    fn rsa_roundtrip_and_homomorphism(s1 in any::<u64>(), s2 in any::<u64>()) {
        let k = rsa();
        let mut rng = ChaCha8Rng::seed_from_u64(s1);
        let m1 = mpint::random::random_below(&mut rng, &k.public.n);
        let mut rng = ChaCha8Rng::seed_from_u64(s2);
        let m2 = mpint::random::random_below(&mut rng, &k.public.n);
        let c1 = k.public.encrypt(&m1).unwrap();
        let c2 = k.public.encrypt(&m2).unwrap();
        prop_assert_eq!(k.private.decrypt(&c1).unwrap(), m1.clone());
        prop_assert_eq!(k.private.decrypt_direct(&c1).unwrap(), m1.clone());
        let prod = k.public.mul(&c1, &c2);
        prop_assert_eq!(
            k.private.decrypt(&prod).unwrap(),
            &(&m1 * &m2) % &k.public.n
        );
    }
}

/// `r^n mod n²` as an obfuscator carries it: `E(0) = g^0 · r^n`, so the
/// ciphertext value of a zero plaintext is the residue itself.
#[expect(
    clippy::unwrap_used,
    reason = "a zero plaintext is in range; a failure is the calling test's"
)]
fn residue(k: &PaillierKeyPair, obf: he::paillier::Obfuscator) -> Natural {
    k.public
        .encrypt_with_obfuscator(&Natural::zero(), obf)
        .unwrap()
        .value
}

/// What must hold of a key's blinding routes over `items` draws of the
/// batch `seed`. For an explicit `r` — how a pool computes its base at
/// set-up — the owner's and the public power agree limb for limb. An
/// owner's pool and a public-key pool give equal ciphertexts and
/// charges, and each computes one factor per item. Every pooled factor
/// is an `n`-th residue: bare, it decrypts to zero, and under a plaintext
/// it decrypts to the plaintext. Pooled and pool-less ciphertexts differ
/// in their blinding only: other bits, same values, and they add.
#[expect(
    clippy::unwrap_used,
    reason = "a failed encryption or decryption is the calling test's failure"
)]
fn check_owner_route(k: &PaillierKeyPair, seed: u64, items: usize) {
    for i in 0..items {
        let r = k.public.batch_blinding(seed, i);
        let public = residue(k, k.public.precompute_obfuscator(&r));
        let owner = residue(k, k.private.precompute_obfuscator(&r));
        assert_eq!(owner.limbs(), public.limbs(), "item {i} of batch {seed:#x}");
    }
    let ms: Vec<Natural> = (0..items as u64)
        .map(|i| Natural::from(i * 977 + 5))
        .collect();
    let run = |pool: ObfuscatorPool, ms: &[Natural]| {
        let pool = Arc::new(pool);
        let he = CpuHe::default().with_pool(Arc::clone(&pool));
        let (cts, timing) = he.encrypt_batch(&k.public, ms, seed).unwrap();
        (cts, timing, pool.hits(), pool.misses())
    };
    let owner = run(ObfuscatorPool::for_owner(&k.private), &ms);
    let public = run(ObfuscatorPool::new(&k.public), &ms);
    assert_eq!(owner, public, "batch {seed:#x}, {items} items");
    assert_eq!((owner.2, owner.3), (items as u64, 0));
    assert_eq!(
        owner.1.ops,
        items as u64 * k.public.encrypt_pooled_op_estimate()
    );

    let zeros = vec![Natural::zero(); items];
    let (bare, ..) = run(ObfuscatorPool::for_owner(&k.private), &zeros);
    let (inline, _) = CpuHe::default()
        .encrypt_batch(&k.public, &ms, seed)
        .unwrap();
    assert_eq!(
        (bare.len(), owner.0.len(), inline.len()),
        (items, items, items)
    );
    let items = bare.iter().zip(&owner.0).zip(&inline).zip(&ms);
    for (i, (((bare, pooled), inline), m)) in items.enumerate() {
        assert_eq!(
            k.private.decrypt(bare).unwrap(),
            Natural::zero(),
            "factor {i}"
        );
        assert_eq!(k.private.decrypt_crt(pooled).unwrap(), *m);
        assert_eq!(k.private.decrypt(inline).unwrap(), *m);
        assert_ne!(pooled, inline, "pooled and pool-less blinding");
        let sum = k.public.checked_add(pooled, inline).unwrap();
        assert_eq!(k.private.decrypt(&sum).unwrap(), m + m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A weighted launch is charged the chain it replays and the
    /// `R`-power its fix-up takes in: each slot costs
    /// `weighted_sum_op_estimate` of the plan, the launch once more
    /// `weighted_fixup_op_estimate` of it, and the replay at that plan
    /// makes exactly its planned kernel calls, the fix-up's `R`-power
    /// exactly the priced ones, and lands on the launch's ciphertext.
    /// Shape 0 draws all-zero weights, 1 a single party, 2 full 32-bit
    /// weights and 3 ten-bit sample counts.
    #[test]
    fn weighted_charge_is_the_chain_that_runs_and_its_fixup(
        shape in 0usize..4,
        parties in 2usize..12,
        slots in 1usize..4,
        seed in any::<u64>(),
    ) {
        let k = paillier();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let parties = if shape == 1 { 1 } else { parties };
        let weights: Vec<u64> = (0..parties)
            .map(|_| match shape {
                0 => 0,
                2 => u64::from(rng.next_u32()),
                _ => rng.next_u64() % 1024,
            })
            .collect();
        let batches: Vec<Vec<Ciphertext>> = (0..parties as u64)
            .map(|p| {
                let ms: Vec<Natural> = (0..slots as u64).map(|j| Natural::from(p * 7 + j)).collect();
                CpuHe::default().encrypt_batch(&k.public, &ms, seed ^ p).unwrap().0
            })
            .collect();
        let batches: Vec<&[Ciphertext]> = batches.iter().map(Vec::as_slice).collect();
        let (out, t) = CpuHe::default()
            .weighted_aggregate(&k.public, &batches, &weights)
            .unwrap();

        let wnat: Vec<Natural> = weights.iter().map(|&w| Natural::from(w)).collect();
        let plan = straus::multi_exp_plan(&wnat);
        let per_slot = k.public.weighted_sum_op_estimate(&plan);
        let fixup_ops = k.public.weighted_fixup_op_estimate(&plan);
        prop_assert_eq!(t.ops, slots as u64 * per_slot + fixup_ops);
        let ctx = MontgomeryCtx::new(&k.public.n_squared).unwrap();
        let fixup = ctx.r_power(&plan.deficit);
        let (squarings, multiplies) = MontgomeryCtx::r_power_calls(&plan.deficit);
        prop_assert_eq!(fixup.calls(), squarings + multiplies);
        for (j, sum) in out.iter().enumerate() {
            let mut bases: Vec<mpint::Limb> = batches
                .iter()
                .flat_map(|b| b[j].value.to_padded_limbs(ctx.width()))
                .collect();
            let acc = straus::multi_exp_mont(&ctx, &mut bases, &plan, fixup.as_limbs());
            prop_assert_eq!(acc.calls(), plan.squarings + plan.multiplies);
            prop_assert_eq!(&acc.into_natural(), &sum.value);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fresh keys of three sizes, each prime order.
    #[test]
    fn owner_route_matches_public_route_on_random_keys(
        key_seed in any::<u64>(),
        size in 0usize..3,
        swap in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let bits = [128u32, 256, 512][size];
        let k = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(key_seed), bits).unwrap();
        let (p, q) = (k.private.p.clone(), k.private.q.clone());
        let (p, q) = if (p < q) == swap { (q, p) } else { (p, q) };
        // swap = true puts the larger prime first.
        prop_assert_eq!(p > q, swap);
        let k = PaillierKeyPair::from_primes(p, q, bits).unwrap();
        check_owner_route(&k, seed, 4);
    }
}

#[test]
fn pack_shape_errors_are_typed() {
    let k = paillier();
    let c = k
        .public
        .encrypt(&Natural::from(5u64), &mut ChaCha8Rng::seed_from_u64(1))
        .unwrap();
    assert_eq!(
        k.public.checked_pack(&[], 42).unwrap_err(),
        he::Error::InvalidParameter("nothing to pack")
    );
    assert_eq!(
        k.public.checked_pack(&[&c], 0).unwrap_err().to_string(),
        "invalid parameter: a packed slot needs at least one bit"
    );
    // ⌊127 / 42⌋ = 3 slots fit a 128-bit key's plaintext; four do not,
    // and neither does one slot of 128 bits.
    assert_eq!(k.public.pack_capacity(42).unwrap(), 3);
    assert!(k.public.checked_pack(&[&c; 3], 42).is_ok());
    let over = k.public.checked_pack(&[&c; 4], 42).unwrap_err();
    assert_eq!(
        over,
        he::Error::PlaintextTooLarge {
            plaintext_bits: 168,
            modulus_bits: 128
        }
    );
    assert_eq!(
        over.to_string(),
        "plaintext of 168 bits exceeds the 128-bit plaintext space"
    );
    assert!(k.public.checked_pack(&[&c], 127).is_ok());
    assert_eq!(
        k.public.pack_capacity(128).unwrap_err(),
        he::Error::PlaintextTooLarge {
            plaintext_bits: 128,
            modulus_bits: 128
        }
    );
    // Packed words that are not the ones `count` values pack into.
    assert_eq!(
        k.public.unpack_runs(&[Natural::one()], 4, 42).unwrap_err(),
        he::Error::InvalidParameter("packed words do not match the slot count")
    );
}
