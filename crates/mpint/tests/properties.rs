//! Property-based tests for the multi-precision arithmetic core.
//!
//! Strategy: compare every operation against a `u128` oracle on small
//! operands, and against algebraic identities (ring axioms, reconstruction,
//! inverse laws) on multi-limb operands where no native oracle exists.

use mpint::{cios, modpow, straus, Natural};
use proptest::prelude::*;

fn nat(v: u128) -> Natural {
    Natural::from(v)
}

/// Arbitrary multi-limb natural of up to 8 limbs.
fn big_natural() -> impl Strategy<Value = Natural> {
    proptest::collection::vec(any::<u64>(), 0..8).prop_map(Natural::from_limbs)
}

/// Arbitrary odd multi-limb modulus of 1..=4 limbs, > 1.
fn odd_modulus() -> impl Strategy<Value = Natural> {
    proptest::collection::vec(any::<u64>(), 1..=4).prop_map(|mut limbs| {
        if let Some(low) = limbs.first_mut() {
            *low |= 1; // odd
        }
        let mut n = Natural::from_limbs(limbs);
        if n.is_one() {
            n = Natural::from(3u64);
        }
        n
    })
}

/// Arbitrary odd modulus of 1..=32 limbs with the top limb's high bit
/// set, exercising the squaring kernel across its full width range —
/// up to 2048-bit operands — with maximal-weight top words.
fn wide_odd_modulus() -> impl Strategy<Value = Natural> {
    proptest::collection::vec(any::<u64>(), 1..=32).prop_map(|mut limbs| {
        if let Some(low) = limbs.first_mut() {
            *low |= 1; // odd
        }
        if let Some(top) = limbs.last_mut() {
            *top |= 1 << 63; // top-limb-set
        }
        Natural::from_limbs(limbs)
    })
}

/// Arbitrary natural up to 32 limbs (wide operands for the squaring
/// kernel).
fn wide_natural() -> impl Strategy<Value = Natural> {
    proptest::collection::vec(any::<u64>(), 0..=32).prop_map(Natural::from_limbs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(&nat(a as u128) + &nat(b as u128), nat(a as u128 + b as u128));
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(&nat(a as u128) * &nat(b as u128), nat(a as u128 * b as u128));
    }

    #[test]
    fn div_rem_matches_u128(a in any::<u128>(), b in 1..=u128::MAX) {
        let (q, r) = nat(a).div_rem(&nat(b));
        prop_assert_eq!(q, nat(a / b));
        prop_assert_eq!(r, nat(a % b));
    }

    #[test]
    fn addition_commutes_and_associates(a in big_natural(), b in big_natural(), c in big_natural()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn multiplication_commutes_and_associates(a in big_natural(), b in big_natural(), c in big_natural()) {
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn distributive_law(a in big_natural(), b in big_natural(), c in big_natural()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn sub_inverts_add(a in big_natural(), b in big_natural()) {
        prop_assert_eq!((&a + &b).checked_sub(&b), Some(a));
    }

    #[test]
    fn division_reconstruction(a in big_natural(), b in big_natural()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shift_is_mul_by_power_of_two(a in big_natural(), bits in 0u32..200) {
        let shifted = a.shl_bits(bits);
        let pow2 = Natural::one().shl_bits(bits);
        prop_assert_eq!(&shifted, &(&a * &pow2));
        prop_assert_eq!(shifted.shr_bits(bits), a);
    }

    #[test]
    fn low_bits_is_remainder(a in big_natural(), bits in 1u32..200) {
        let pow2 = Natural::one().shl_bits(bits);
        prop_assert_eq!(a.low_bits(bits), &a % &pow2);
    }

    #[test]
    fn bytes_and_hex_roundtrip(a in big_natural()) {
        prop_assert_eq!(Natural::from_le_bytes(&a.to_le_bytes()), a.clone());
        prop_assert_eq!(Natural::from_hex(&a.to_hex()).unwrap(), a.clone());
        prop_assert_eq!(Natural::from_decimal_str(&a.to_decimal_string()).unwrap(), a);
    }

    #[test]
    fn gcd_divides_both_and_lcm_identity(a in big_natural(), b in big_natural()) {
        let g = mpint::gcd(&a, &b);
        if !g.is_zero() {
            prop_assert!((&a % &g).is_zero());
            prop_assert!((&b % &g).is_zero());
            // gcd * lcm == a * b
            prop_assert_eq!(&g * &mpint::lcm(&a, &b), &a * &b);
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    #[test]
    fn mod_inv_law(a in big_natural(), n in odd_modulus()) {
        let a = &a % &n;
        match mpint::mod_inv(&a, &n) {
            Ok(inv) => {
                prop_assert!(inv < n);
                prop_assert_eq!(&(&inv * &a) % &n, &Natural::one() % &n);
            }
            Err(_) => {
                prop_assert!(!mpint::gcd(&a, &n).is_one());
            }
        }
    }

    #[test]
    fn montgomery_roundtrip_and_mul(a in big_natural(), b in big_natural(), n in odd_modulus()) {
        let ctx = mpint::MontgomeryCtx::new(&n).unwrap();
        let a = &a % &n;
        let b = &b % &n;
        let am = ctx.to_mont(&a);
        let bm = ctx.to_mont(&b);
        prop_assert_eq!(ctx.from_mont(&am), a.clone());
        let prod = ctx.from_mont(&ctx.mont_mul(&am, &bm));
        prop_assert_eq!(prod, &(&a * &b) % &n);
    }

    #[test]
    fn flat_cios_agrees_with_ctx(a in big_natural(), b in big_natural(), n in odd_modulus()) {
        let ctx = mpint::MontgomeryCtx::new(&n).unwrap();
        let am = ctx.to_mont(&(&a % &n));
        let bm = ctx.to_mont(&(&b % &n));
        let reference = ctx.mont_mul(&am, &bm);
        let s = ctx.width();
        let (ap, bp) = (am.to_padded_limbs(s), bm.to_padded_limbs(s));
        let flat = cios::mont_mul(&ap, &bp, n.limbs(), ctx.n0_inv());
        prop_assert_eq!(&Natural::from_limbs(flat), &reference);
    }

    #[test]
    fn mod_mul_matches_naive_for_unreduced_inputs(a in wide_natural(), b in wide_natural(), n in odd_modulus()) {
        // Operands up to 32 limbs against a modulus of at most 4: almost
        // always unreduced, occasionally (short vectors) already below n.
        let ctx = mpint::MontgomeryCtx::new(&n).unwrap();
        prop_assert_eq!(ctx.mod_mul(&a, &b), &(&a * &b) % &n);
    }

    #[test]
    fn modpow_matches_iterated_multiplication(
        base in big_natural(),
        e in 0u32..24,
        n in odd_modulus(),
    ) {
        let got = modpow::mod_pow(&base, &Natural::from(e as u64), &n).unwrap();
        let mut expected = &Natural::one() % &n;
        for _ in 0..e {
            expected = &(&expected * &base) % &n;
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn modpow_sliding_equals_binary(base in big_natural(), exp in big_natural(), n in odd_modulus()) {
        prop_assert_eq!(
            modpow::mod_pow(&base, &exp, &n).unwrap(),
            modpow::mod_pow_binary(&base, &exp, &n).unwrap()
        );
    }

    #[test]
    fn modpow_product_law(base in big_natural(), e1 in 0u64..1000, e2 in 0u64..1000, n in odd_modulus()) {
        // base^(e1+e2) == base^e1 * base^e2 (mod n)
        let p1 = modpow::mod_pow(&base, &Natural::from(e1), &n).unwrap();
        let p2 = modpow::mod_pow(&base, &Natural::from(e2), &n).unwrap();
        let sum = modpow::mod_pow(&base, &Natural::from(e1 + e2), &n).unwrap();
        prop_assert_eq!(&(&p1 * &p2) % &n, sum);
    }

    #[test]
    fn mont_sqr_matches_mont_mul(a in wide_natural(), n in wide_odd_modulus()) {
        let ctx = mpint::MontgomeryCtx::new(&n).unwrap();
        let am = ctx.to_mont(&(&a % &n));
        // The dedicated squaring kernel must agree bit-for-bit with the
        // general multiply on equal operands, at every limb width.
        prop_assert_eq!(ctx.mont_sqr(&am), ctx.mont_mul(&am, &am));
        // ... and limb for limb in the caller-buffer forms.
        let s = ctx.width();
        let ap = am.to_padded_limbs(s);
        let (mut via_mul, mut via_sqr) = (vec![0; s], vec![0; s]);
        let mut scratch = vec![0; cios::scratch_len(s)];
        cios::mont_mul_into(&mut via_mul, &ap, &ap, n.limbs(), ctx.n0_inv());
        cios::mont_sqr_into(&mut via_sqr, &mut scratch, &ap, n.limbs(), ctx.n0_inv());
        prop_assert_eq!(via_sqr, via_mul);
        // Boundary operands: zero and the maximal residue n-1.
        let zero = Natural::zero();
        prop_assert_eq!(ctx.mont_sqr(&zero), ctx.mont_mul(&zero, &zero));
        let top = ctx.to_mont(&n.checked_sub(&Natural::one()).unwrap());
        prop_assert_eq!(ctx.mont_sqr(&top), ctx.mont_mul(&top, &top));
    }

    #[test]
    fn straus_multi_exp_matches_pairwise(
        pairs in proptest::collection::vec((big_natural(), any::<u64>()), 0..6),
        n in odd_modulus(),
    ) {
        let ctx = mpint::MontgomeryCtx::new(&n).unwrap();
        let bases: Vec<Natural> = pairs.iter().map(|(b, _)| b % &n).collect();
        let exps: Vec<Natural> = pairs.iter().map(|(_, e)| Natural::from(*e)).collect();
        let got = straus::multi_exp_ctx(&ctx, &bases, &exps);
        let mut expected = &Natural::one() % &n;
        for (b, e) in bases.iter().zip(&exps) {
            expected = &(&expected * &modpow::mod_pow(b, e, &n).unwrap()) % &n;
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn extract_bits_agrees_with_shift_mask(a in big_natural(), offset in 0u32..300, count in 0u32..=64) {
        // `count <= 64`, so the masked value always fits a `u64`.
        let expected = a.shr_bits(offset).low_bits(count).to_u64();
        prop_assert_eq!(Some(a.extract_bits(offset, count)), expected);
    }
}

// ---------------------------------------------------------------------
// Differential kernel tests: every Montgomery kernel and every
// exponentiation built on them against whole-integer `(a·b) % n` /
// square-and-multiply, at the limb widths where carries, the deferred
// reduction bit and the masked final subtraction change behaviour.
// ---------------------------------------------------------------------

/// Limb widths on both sides of the 16/32-limb key sizes, plus the
/// degenerate 1- and 2-limb moduli and the 4096-bit `n²` width.
const WIDTHS: [usize; 8] = [1, 2, 15, 16, 17, 32, 33, 64];

/// Deterministic limb source (splitmix64): fixtures, not randomness.
fn limb_stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Odd `s`-limb moduli: a generic one with the top bit set, one whose top
/// limb is all ones, and `2^{64s} − 1` (every limb all ones — carries out
/// of every word of every row).
fn edge_moduli(s: usize) -> Vec<Natural> {
    let mut next = limb_stream(s as u64);
    let mut generic: Vec<u64> = (0..s).map(|_| next()).collect();
    if let Some(low) = generic.first_mut() {
        *low |= 1;
    }
    if let Some(top) = generic.last_mut() {
        *top |= 1 << 63;
    }
    let mut ones_top = generic.clone();
    if let Some(top) = ones_top.last_mut() {
        *top = u64::MAX;
    }
    vec![
        Natural::from_limbs(generic),
        Natural::from_limbs(ones_top),
        Natural::from_limbs(vec![u64::MAX; s]),
    ]
}

/// Residues below `n`: `0`, `1`, `n−1`, the widest all-ones value below
/// `n`, the single top bit, and one generic value.
#[expect(
    clippy::unwrap_used,
    reason = "an odd modulus is at least 3, so `n − 1` and `2^⌊log n⌋ − 1` are natural"
)]
fn edge_operands(n: &Natural) -> Vec<Natural> {
    let one = Natural::one();
    let top_bit = one.shl_bits(n.bit_len() - 1);
    let mut next = limb_stream(n.bit_len() as u64 ^ 0xA5A5);
    let generic = Natural::from_limbs((0..n.limb_len()).map(|_| next()).collect());
    vec![
        Natural::zero(),
        one.clone(),
        n.checked_sub(&one).unwrap(),
        top_bit.checked_sub(&one).unwrap(),
        top_bit,
        &generic % n,
    ]
}

/// Exponents around the limb boundary; wide moduli take the short list so
/// the whole-integer reference stays affordable in debug builds.
fn edge_exponents(s: usize) -> Vec<Natural> {
    let mut next = limb_stream(s as u64 ^ 0xE);
    let mut exps = vec![
        Natural::zero(),
        Natural::one(),
        Natural::from(u64::MAX),
        Natural::one().shl_bits(64),
    ];
    if s <= 17 {
        exps.push(Natural::from_limbs(vec![next(), next(), 0b11]));
    }
    exps
}

fn naive_pow(base: &Natural, exp: &Natural, n: &Natural) -> Natural {
    let mut acc = &Natural::one() % n;
    for i in (0..exp.bit_len()).rev() {
        acc = &(&acc * &acc) % n;
        if exp.bit(i) {
            acc = &(&acc * base) % n;
        }
    }
    acc
}

#[test]
fn multiply_kernels_match_naive_product_at_limb_boundaries() {
    for s in WIDTHS {
        for n in edge_moduli(s) {
            let ctx = mpint::MontgomeryCtx::new(&n).unwrap();
            assert_eq!(ctx.width(), s);
            let n0 = ctx.n0_inv();
            let operands = edge_operands(&n);
            let in_domain: Vec<Natural> = operands.iter().map(|a| ctx.to_mont(a)).collect();
            let mut scratch = vec![0; cios::scratch_len(s)];
            for (a, am) in operands.iter().zip(&in_domain) {
                assert_eq!(&ctx.from_mont(am), a, "{s} limbs: domain round trip of {a}");
                let ap = am.to_padded_limbs(s);
                for (b, bm) in operands.iter().zip(&in_domain) {
                    let expected = &(a * b) % &n;
                    let what = format!("{s} limbs: {a} * {b} mod {n}");
                    let prod_m = ctx.mont_mul(am, bm);
                    assert_eq!(ctx.from_mont(&prod_m), expected, "mont_mul, {what}");
                    assert_eq!(ctx.mod_mul(a, b), expected, "mod_mul, {what}");
                    let mut out = vec![u64::MAX; s]; // stale contents must not leak
                    cios::mont_mul_into(&mut out, &ap, &bm.to_padded_limbs(s), n.limbs(), n0);
                    assert_eq!(out, prod_m.to_padded_limbs(s), "mont_mul_into, {what}");
                }
                let expected = &(a * a) % &n;
                let sq_m = ctx.mont_sqr(am);
                assert_eq!(
                    ctx.from_mont(&sq_m),
                    expected,
                    "mont_sqr, {s} limbs: {a}² mod {n}"
                );
                let mut out = vec![u64::MAX; s];
                scratch.fill(u64::MAX);
                cios::mont_sqr_into(&mut out, &mut scratch, &ap, n.limbs(), n0);
                assert_eq!(
                    out,
                    sq_m.to_padded_limbs(s),
                    "mont_sqr_into, {s} limbs: {a}²"
                );
            }
        }
    }
}

#[test]
fn exponentiations_match_square_and_multiply_at_limb_boundaries() {
    for s in WIDTHS {
        let exps = edge_exponents(s);
        for n in edge_moduli(s) {
            let ctx = mpint::MontgomeryCtx::new(&n).unwrap();
            for base in edge_operands(&n) {
                let base_m = ctx.to_mont(&base);
                for exp in &exps {
                    let expected = naive_pow(&base, exp, &n);
                    let what = format!("{s} limbs: {base}^{exp} mod {n}");
                    for window in [1, 4, modpow::window_size_for(exp.bit_len())] {
                        let got = ctx.from_mont(&modpow::mod_pow_mont(&ctx, &base_m, exp, window));
                        assert_eq!(got, expected, "mod_pow_mont w={window}, {what}");
                    }
                    // The fixed window over the exact bound and a padded one.
                    for bits in [exp.bit_len(), exp.bit_len() + 3] {
                        let got = modpow::mod_pow_ct(&ctx, &base, exp, bits);
                        assert_eq!(got, expected, "mod_pow_ct over {bits} bits, {what}");
                    }
                }
            }
        }
    }
}

/// The square-and-multiply-always ladder `mod_pow_ct` ran before the
/// fixed window: one squaring and one multiply on every bit of the bound,
/// the multiplied value kept or rolled back by a masked limb-select. Kept
/// here as the reference the window is checked against; nothing ships
/// that runs it.
fn ladder_mod_pow_ct(
    ctx: &mpint::MontgomeryCtx,
    base: &Natural,
    exp: &Natural,
    exp_bits: u32,
) -> Natural {
    let s = ctx.width();
    let (n, n0_inv) = (ctx.modulus().limbs(), ctx.n0_inv());
    let base_m = ctx.to_mont(&(base % ctx.modulus())).to_padded_limbs(s);
    let e = exp.to_padded_limbs(exp_bits.div_ceil(mpint::LIMB_BITS) as usize);
    let mut acc = ctx.one_mont().to_padded_limbs(s);
    let mut squared = vec![0; s];
    let mut scratch = vec![0; cios::scratch_len(s)];
    for i in (0..exp_bits).rev() {
        cios::mont_sqr_into(&mut squared, &mut scratch, &acc, n, n0_inv);
        cios::mont_mul_into(&mut acc, &squared, &base_m, n, n0_inv);
        #[expect(
            clippy::indexing_slicing,
            reason = "`e` is padded to `exp_bits` bits and `i < exp_bits`"
        )]
        let bit = (e[(i / mpint::LIMB_BITS) as usize] >> (i % mpint::LIMB_BITS)) & 1;
        let mask = mpint::ct::ct_mask(bit);
        for (a, &sq) in acc.iter_mut().zip(&squared) {
            *a = mpint::ct_select(mask, *a, sq);
        }
    }
    ctx.from_mont(&Natural::from_limbs(acc))
}

/// Exponent bounds where the fixed-window schedule changes shape: every
/// bound up to 8 (`w − 1`, `w`, `w + 1` and a non-multiple of `w` for the
/// narrow windows), and each threshold of the window table with its two
/// neighbours, found by scanning the public schedule up to `limit`.
fn window_edge_bounds(limit: u32) -> Vec<u32> {
    let window = |bits| modpow::mod_pow_ct_counts(1, bits).window;
    let mut bounds: Vec<u32> = (0..=8).collect();
    let mut thresholds = 0;
    for bits in 9..=limit {
        if window(bits) != window(bits - 1) {
            bounds.extend([bits - 1, bits, bits + 1]);
            thresholds += 1;
        }
    }
    // The table widens one bit at a time, so the scan saw every step.
    assert_eq!(thresholds, window(limit) - window(8));
    for w in 1..=window(limit) {
        // A few whole digits plus one bit: the top digit is partial.
        bounds.extend([w - 1, w, w + 1, 7 * w + 1]);
    }
    bounds.sort_unstable();
    bounds.dedup();
    bounds
}

#[test]
fn ct_window_matches_ladder_and_square_and_multiply_at_limb_boundaries() {
    for s in WIDTHS {
        // The references are quadratic in the width and linear in the
        // bound, and the schedule does not depend on the width: only the
        // narrow moduli go past the last threshold, the key-size ones stop
        // after the 97-bit one, the wide ones after the 25-bit one.
        let limit = if s <= 2 {
            4200
        } else if s <= 17 {
            130
        } else {
            30
        };
        let bounds = window_edge_bounds(limit);
        let moduli = edge_moduli(s);
        for (mi, n) in moduli.iter().enumerate() {
            let ctx = mpint::MontgomeryCtx::new(n).unwrap();
            let operands = edge_operands(n);
            // Every modulus meets the generic base; up to the key-size
            // widths the generic modulus meets 0 and n − 1 as well.
            let bases = if mi == 0 && s <= 17 {
                vec![&operands[0], &operands[2], &operands[5]]
            } else {
                vec![&operands[5]]
            };
            let mut next = limb_stream(s as u64 ^ 0xC7);
            for &bits in &bounds {
                let all_ones = Natural::one()
                    .shl_bits(bits)
                    .checked_sub(&Natural::one())
                    .unwrap();
                let generic = Natural::from_limbs((0..bits.div_ceil(64)).map(|_| next()).collect())
                    .low_bits(bits);
                let mut exps = vec![generic, Natural::zero(), all_ones];
                if bits >= 1 {
                    exps.push(Natural::one());
                    exps.push(Natural::one().shl_bits(bits - 1));
                }
                for base in &bases {
                    for (ei, exp) in exps.iter().enumerate() {
                        let what = format!("{s} limbs, {bits}-bit bound: {base}^{exp} mod {n}");
                        let got = modpow::mod_pow_ct(&ctx, base, exp, bits);
                        assert_eq!(
                            got,
                            ladder_mod_pow_ct(&ctx, base, exp, bits),
                            "ladder, {what}"
                        );
                        assert_eq!(got, naive_pow(base, exp, n), "naive, {what}");
                        if ei == 0 {
                            // Leading zero bits change the schedule of the
                            // generic exponent, not the value.
                            let padded = exp.bit_len() + 70;
                            assert_eq!(
                                modpow::mod_pow_ct(&ctx, base, exp, padded),
                                got,
                                "{padded}-bit bound, {what}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn multi_exp_matches_naive_product_at_limb_boundaries() {
    for s in WIDTHS {
        let exp_pool = edge_exponents(s);
        for n in edge_moduli(s) {
            let ctx = mpint::MontgomeryCtx::new(&n).unwrap();
            let bases = edge_operands(&n);
            // Every base paired with a different exponent, zero included.
            let exps: Vec<Natural> = (0..bases.len())
                .map(|i| exp_pool[i % exp_pool.len()].clone())
                .collect();
            // The zero base meets the zero exponent here (0^0 = 1, a base
            // no bucket takes) and a live one in the rotation below.
            let mut expected = &Natural::one() % &n;
            for (b, e) in bases.iter().zip(&exps) {
                expected = &(&expected * &naive_pow(b, e, &n)) % &n;
            }
            assert_eq!(
                straus::multi_exp_ctx(&ctx, &bases, &exps),
                expected,
                "{s} limbs, mod {n}"
            );
            let mut rotated = exps.clone();
            rotated.rotate_left(1);
            assert!(
                straus::multi_exp_ctx(&ctx, &bases, &rotated).is_zero(),
                "{s} limbs: a zero base with a nonzero exponent zeroes the product"
            );
        }
    }
}

/// `count` exponents of at most `bits` bits in five mixes: generic with
/// every third one zero, all equal, a single nonzero one, all zero, and
/// the top bit over three low ones, whose digit columns between are empty
/// at every width.
fn exponent_mixes(count: usize, bits: u32, seed: u64) -> Vec<Vec<Natural>> {
    let mut next = limb_stream(seed);
    let mut draw = || {
        let limbs = (0..bits.div_ceil(64)).map(|_| next()).collect();
        Natural::from_limbs(limbs).low_bits(bits)
    };
    let generic = (0..count)
        .map(|i| if i % 3 == 2 { Natural::zero() } else { draw() })
        .collect();
    let equal = vec![draw(); count];
    let mut single = vec![Natural::zero(); count];
    if let Some(one) = single.get_mut(count / 2) {
        *one = draw();
    }
    let zero = vec![Natural::zero(); count];
    let top = Natural::one().shl_bits(bits - 1);
    let sparse = (0..count)
        .map(|i| &top + &Natural::from(i as u64 % 8).low_bits(bits - 1))
        .collect();
    vec![generic, equal, single, zero, sparse]
}

/// Kernel calls of the bucket pass (Pippenger's method) at width `c`,
/// replayed from the method rather than counted by formula: per column
/// `c` squarings below the top one, a multiply per bucket arrival after
/// the first, then from the top bucket down a multiply per running-sum
/// step after the first and one per digit value once the running sum has
/// started — but the very first, which seeds the product — and last the
/// fix-up. The pass the Bos–Coster chain replaced; test-only, it is the
/// cost the chain is held to.
#[expect(
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    reason = "a digit is `c ≤ 12` bits wide, so it fits a `usize` and indexes the \
              `2^c` buckets"
)]
fn bucket_pass_calls(exps: &[Natural], c: u32) -> u64 {
    let max_bits = exps.iter().map(Natural::bit_len).max().unwrap_or(0);
    let columns = max_bits.div_ceil(c);
    let (mut calls, mut seeded) = (1, false);
    for col in 0..columns {
        if col + 1 < columns {
            calls += u64::from(c);
        }
        let mut filled = vec![false; 1 << c];
        for e in exps {
            let d = e.extract_bits(col * c, c) as usize;
            if d != 0 {
                calls += u64::from(filled[d]);
                filled[d] = true;
            }
        }
        let mut started = false;
        for d in (1..filled.len()).rev() {
            calls += u64::from(filled[d] && started);
            started |= filled[d];
            calls += u64::from(started && seeded);
            seeded |= started;
        }
    }
    calls
}

/// The cheapest bucket pass over `exps`, widths 1 to 12.
fn best_bucket_pass_calls(exps: &[Natural]) -> u64 {
    (1..=12)
        .map(|c| bucket_pass_calls(exps, c))
        .min()
        .unwrap_or(u64::MAX)
}

/// Replays [`straus::multi_exp_plan`] over `exps` on `bases` (reduced,
/// `s` limbs each) and checks what every replay must hold: the deficit
/// is `Σ e`, the fix-up's `R`-power makes the calls
/// `MontgomeryCtx::r_power_calls` prices, the chain makes exactly its
/// planned calls, and it lands on the pairwise product of powers.
/// Returns the chain's calls.
fn check_chain(ctx: &mpint::MontgomeryCtx, bases: &[Natural], exps: &[Natural], what: &str) -> u64 {
    let (n, s) = (ctx.modulus(), ctx.width());
    let plan = straus::multi_exp_plan(exps);
    let sum = exps.iter().fold(Natural::zero(), |sum, e| &sum + e);
    assert_eq!(plan.deficit, sum, "{what}");
    let fixup = ctx.r_power(&plan.deficit);
    let (sq, mul) = mpint::MontgomeryCtx::r_power_calls(&plan.deficit);
    assert_eq!(fixup.calls(), sq + mul, "{what}: fix-up of {sum}");
    let mut padded: Vec<u64> = bases.iter().flat_map(|b| b.to_padded_limbs(s)).collect();
    let acc = straus::multi_exp_mont(ctx, &mut padded, &plan, fixup.as_limbs());
    let calls = plan.squarings + plan.multiplies;
    assert_eq!(acc.calls(), calls, "{what}: {plan:?}");
    let mut expected = &Natural::one() % n;
    for (b, e) in bases.iter().zip(exps) {
        expected = ctx.mod_mul(&expected, &modpow::mod_pow_ctx(ctx, b, e));
    }
    assert_eq!(acc.into_natural(), expected, "{what}");
    calls
}

#[test]
fn bos_coster_chain_is_the_product_of_powers_at_its_counted_cost() {
    const BASES: [usize; 9] = [0, 1, 2, 3, 8, 16, 64, 128, 257];
    // 160-bit weights put the fix-up's `R`-power past `u128`.
    const BITS: [u32; 6] = [1, 10, 32, 64, 100, 160];
    for s in [1usize, 16, 32, 33] {
        let n = edge_moduli(s).swap_remove(0);
        let ctx = mpint::MontgomeryCtx::new(&n).unwrap();
        let mut next = limb_stream(s as u64 ^ 0xB0C7);
        let pool: Vec<Natural> = (0..BASES[BASES.len() - 1])
            .map(|_| &Natural::from_limbs((0..s).map(|_| next()).collect()) % &n)
            .collect();
        for (i, count) in BASES.into_iter().enumerate() {
            let bases = &pool[..count];
            // The unoptimized references are quadratic in the width: past
            // 16 limbs each base count meets two of the widths, in
            // rotation, so every width still meets the wide counts.
            let widths = if s <= 16 {
                BITS.to_vec()
            } else {
                vec![BITS[i % BITS.len()], BITS[(i + 3) % BITS.len()]]
            };
            for bits in widths {
                for exps in exponent_mixes(count, bits, (count as u64) << 8 | u64::from(bits)) {
                    let what = format!("{s} limbs, {count} bases, {bits} bits");
                    let calls = check_chain(&ctx, bases, &exps, &what);
                    let bucket = best_bucket_pass_calls(&exps);
                    assert!(
                        calls <= bucket,
                        "{what}: {calls} calls, bucket pass {bucket}"
                    );
                }
            }
        }
    }
}

/// The chain against the bucket pass at the shapes the server folds: a
/// flat 128-way fold and 16-way tree leaves of 10-bit sample counts, and
/// `bench_aggregate`'s 32-bit golden-ratio weights over 1,000 parties,
/// flat and cut into 16-way leaves. The chain never makes more calls
/// than the best bucket width; on a leaf it makes about a third fewer.
#[test]
fn the_chain_makes_no_more_calls_than_the_best_bucket_pass_at_server_shapes() {
    /// `(chain, best bucket pass)` calls summed over `folds`, each fold
    /// held to the bucket pass on its own.
    fn totals<'a>(folds: impl Iterator<Item = &'a [Natural]>) -> (u64, u64) {
        folds.fold((0, 0), |(chain, bucket), exps| {
            let plan = straus::multi_exp_plan(exps);
            let (calls, best) = (
                plan.squarings + plan.multiplies,
                best_bucket_pass_calls(exps),
            );
            assert!(calls <= best, "{calls} calls, bucket pass {best}: {exps:?}");
            (chain + calls, bucket + best)
        })
    }
    let mut next = limb_stream(0x5E4F);
    let sample_counts: Vec<Natural> = (0..16 * 128)
        .map(|_| Natural::from(100 + next() % 900))
        .collect();
    let (chain, bucket) = totals(sample_counts.chunks(16));
    assert!(
        4 * chain <= 3 * bucket,
        "16-way leaves: {chain} vs {bucket}"
    );
    let (chain, bucket) = totals(sample_counts.chunks(128));
    assert!(chain < bucket, "128-way folds: {chain} vs {bucket}");
    let golden: Vec<Natural> = (0..1000u64)
        .map(|k| Natural::from((k.wrapping_mul(2_654_435_761) & 0xFFFF_FFFF) | 1))
        .collect();
    let (chain, bucket) = totals(std::iter::once(&golden[..]));
    assert!(
        2 * chain <= bucket,
        "flat 1,000 parties: {chain} vs {bucket}"
    );
    let (chain, bucket) = totals(golden.chunks(16));
    assert!(
        2 * chain <= bucket,
        "16-way tree over 1,000: {chain} vs {bucket}"
    );
}

/// Shapes at the edges of the chain: equal weights (every quotient 1,
/// every remainder 0), a lone weight of 1 (no power at all), zeros
/// between live weights, one weight far above the rest (a quotient
/// power of many squarings), weights wider than a limb, and a zero base
/// under a live weight, each against the pairwise product at its
/// counted calls.
#[test]
fn degenerate_weights_land_on_the_pairwise_product_at_their_counted_calls() {
    let w = |v: u128| Natural::from(v);
    for s in [1usize, 4, 33] {
        let n = edge_moduli(s).swap_remove(0);
        let ctx = mpint::MontgomeryCtx::new(&n).unwrap();
        let mut next = limb_stream(s as u64 ^ 0xDE6E);
        let bases: Vec<Natural> = (0..9)
            .map(|_| &Natural::from_limbs((0..s).map(|_| next()).collect()) % &n)
            .collect();
        let wide = Natural::one().shl_bits(130);
        let cases: Vec<(&str, Vec<Natural>)> = vec![
            ("equal", vec![w(777); 9]),
            ("lone 1", vec![w(1)]),
            (
                "zeros interleaved",
                (0..9)
                    .map(|i| w(if i % 2 == 0 { 0 } else { 300 + i }))
                    .collect(),
            ),
            (
                "one far above",
                (0..9)
                    .map(|i| w(if i == 4 { 1 << 100 } else { 5 + i }))
                    .collect(),
            ),
            (
                "wider than 64 bits",
                (0..9).map(|i| &wide + &w(i * 0xFFFF_FFFF_FFFF)).collect(),
            ),
        ];
        for (what, exps) in &cases {
            let calls = check_chain(
                &ctx,
                &bases[..exps.len()],
                exps,
                &format!("{s} limbs, {what}"),
            );
            if *what != "one far above" {
                assert!(calls <= best_bucket_pass_calls(exps), "{s} limbs, {what}");
            }
        }
        // A lone weight of 1 is the base itself and the fix-up.
        let lone = straus::multi_exp_plan(&[w(1)]);
        assert_eq!((lone.squarings, lone.multiplies), (0, 1));
        // The far weight is one binary power of its quotient over the
        // next weight, `⌊2^100 / 13⌋`: 96 squarings and a multiply per set
        // bit — the one shape here where the bucket pass, which spends
        // nothing on the empty digits, makes fewer calls.
        let far = straus::multi_exp_plan(&cases[3].1);
        assert!((96..=100).contains(&far.squarings), "{far:?}");
        let mut zeroed = bases.clone();
        zeroed[3] = Natural::zero();
        let live: Vec<Natural> = (0..9).map(|i| w(10 + i)).collect();
        check_chain(&ctx, &zeroed, &live, &format!("{s} limbs, zero base"));
        assert!(straus::multi_exp_ctx(&ctx, &zeroed, &live).is_zero());
    }
}

/// A flat 128-way slot at `server_agg_1024`'s shape — weights uniform in
/// 100..=999, 32-limb operands as under `n²` of a 1024-bit key — makes
/// exactly its counted kernel calls, fix-up included, ≈ 271 on average:
/// no base is converted into the Montgomery domain.
#[test]
fn a_flat_128_way_slot_makes_its_counted_calls_and_at_most_280_on_average() {
    const SLOTS: u64 = 16;
    let n = edge_moduli(32).swap_remove(0);
    let ctx = mpint::MontgomeryCtx::new(&n).unwrap();
    let mut next = limb_stream(0x5107);
    let bases: Vec<u64> = (0..128)
        .flat_map(|_| {
            (&Natural::from_limbs((0..32).map(|_| next()).collect()) % &n).to_padded_limbs(32)
        })
        .collect();
    let mut total = 0;
    for slot in 0..SLOTS {
        let exps: Vec<Natural> = (0..128)
            .map(|_| Natural::from(100 + next() % 900))
            .collect();
        let plan = straus::multi_exp_plan(&exps);
        let fixup = ctx.r_power(&plan.deficit);
        let acc = straus::multi_exp_mont(&ctx, &mut bases.clone(), &plan, fixup.as_limbs());
        assert_eq!(
            acc.calls(),
            plan.squarings + plan.multiplies,
            "slot {slot}: {plan:?}"
        );
        total += acc.calls();
    }
    assert!(
        total <= 280 * SLOTS,
        "{} calls a slot on average",
        total as f64 / SLOTS as f64
    );
}

/// `mod_product` against the whole-integer `(∏ factors) mod n` and against
/// chained `mod_mul`, at the arities where the `R^k` power gains a bit or
/// a multiply (2^j − 1, 2^j, 2^j + 1) and at the degenerate 0, 1 and 2.
#[test]
fn chain_product_matches_whole_integer_and_chained_mod_mul_at_limb_boundaries() {
    for s in [1usize, 2, 16, 32, 33] {
        for n in edge_moduli(s) {
            let ctx = mpint::MontgomeryCtx::new(&n).unwrap();
            let one = Natural::one();
            let mut next = limb_stream(s as u64 ^ 0xC4A1);
            // 1, n−1, a value whose top limb (top half-limb at one limb)
            // is zero, and a generic residue.
            let pool = [
                one.clone(),
                n.checked_sub(&one).unwrap(),
                n.shr_bits(64.min(n.bit_len() / 2)),
                &Natural::from_limbs((0..s).map(|_| next()).collect()) % &n,
            ];
            for k in [0usize, 1, 2, 3, 16, 17, 127, 128, 129] {
                let mut pick = || usize::try_from(next() % 4).unwrap();
                let mixed: Vec<&Natural> = (0..k).map(|_| &pool[pick()]).collect();
                for factors in [mixed, vec![&pool[1]; k], vec![&pool[3]; k]] {
                    let mut expected = &one % &n;
                    for f in &factors {
                        expected = &(&expected * *f) % &n;
                    }
                    let chained = factors
                        .iter()
                        .map(|f| (*f).clone())
                        .reduce(|acc, f| ctx.mod_mul(&acc, &f))
                        .unwrap_or_else(Natural::one);
                    let got = ctx.mod_product(&factors);
                    assert_eq!(got, expected, "{s} limbs, k = {k}, mod {n}");
                    assert_eq!(got, chained, "{s} limbs, k = {k}: chained mod_mul");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The R-deficit argument itself: `mont_mul` of canonical residues
    /// strips one `R` per call, so *any* multiplication tree over `k`
    /// factors — here a random sequence of pairwise merges — lands on
    /// `P·R^{−(k−1)}`, and one more multiply by `R^k mod n` is the
    /// canonical product whatever the tree's shape.
    #[test]
    fn any_merge_order_of_the_raw_chain_takes_the_same_fixup(
        factors in proptest::collection::vec(wide_natural(), 2..12),
        picks in proptest::collection::vec(any::<u64>(), 22),
        n in wide_odd_modulus(),
    ) {
        let ctx = mpint::MontgomeryCtx::new(&n).unwrap();
        let k = factors.len();
        let mut parts: Vec<Natural> = factors.iter().map(|f| f % &n).collect();
        let mut expected = &Natural::one() % &n;
        for f in &parts {
            expected = &(&expected * f) % &n;
        }
        let mut picks = picks.into_iter();
        while parts.len() > 1 {
            let mut pick = |len: usize| usize::try_from(picks.next().unwrap() % len as u64).unwrap();
            let a = parts.swap_remove(pick(parts.len()));
            let b = parts.swap_remove(pick(parts.len()));
            parts.push(ctx.mont_mul(&a, &b));
        }
        let r = &Natural::one().shl_bits(ctx.r_bits()) % &n;
        let mut r_to_k = &Natural::one() % &n;
        for _ in 0..k {
            r_to_k = &(&r_to_k * &r) % &n;
        }
        prop_assert_eq!(&ctx.mont_mul(&parts[0], &r_to_k), &expected);
        let refs: Vec<&Natural> = factors.iter().collect();
        prop_assert_eq!(&ctx.mod_product(&refs), &expected);
    }
}
