//! Modular exponentiation: binary square-and-multiply, the sliding-window
//! method for public exponents and a constant-time fixed window for secret
//! ones.
//!
//! The paper integrates its GPU Montgomery multiplication with "an
//! extension of the sliding window exponential method, successfully
//! reducing the complexity of modular exponentiation from `e` to
//! `log_{2^b} e`" (Sec. IV-A3). Both methods here run entirely in the
//! Montgomery domain so each step is one [`MontgomeryCtx::mont_mul`];
//! they are cross-checked against each other and against iterated
//! multiplication in the tests.
//!
//! For *secret* exponents (RSA/Paillier decryption, the key owner's
//! blinding powers) the sliding-window schedule leaks the exponent's bit
//! pattern through its multiply sequence; [`mod_pow_ct`] is the one
//! secret-exponent path: a fixed-window exponentiation that multiplies on
//! every digit and fetches its table entry by a masked scan, so the kernel
//! calls it makes and the addresses it touches depend only on the public
//! bit-width. [`mod_pow_ct_counts`] gives that schedule.

use crate::cios;
use crate::ct::ct_lookup_limbs;
use crate::limb::{split, Limb, LIMB_BITS};
use crate::montgomery::{MontAcc, MontgomeryCtx};
use crate::natural::Natural;
use crate::{Error, Result};

/// Chooses a sliding-window width (in bits) for an exponent of `bits`
/// bits; widths follow the usual table-size/op-count trade-off from
/// Menezes et al., *Handbook of Applied Cryptography*, Alg. 14.85.
pub fn window_size_for(bits: u32) -> u32 {
    match bits {
        0..=6 => 1,
        7..=24 => 2,
        25..=79 => 3,
        80..=239 => 4,
        240..=671 => 5,
        672..=1791 => 6,
        _ => 7,
    }
}

/// `base^exp mod n` for odd `n`, sliding-window method.
pub fn mod_pow(base: &Natural, exp: &Natural, n: &Natural) -> Result<Natural> {
    let ctx = MontgomeryCtx::new(n)?;
    Ok(mod_pow_ctx(&ctx, base, exp))
}

/// Sliding-window exponentiation with a prepared context.
///
/// `base` may be unreduced; the result is in `[0, n)`, *not* in Montgomery
/// form.
pub fn mod_pow_ctx(ctx: &MontgomeryCtx, base: &Natural, exp: &Natural) -> Natural {
    if exp.is_zero() {
        // x^0 = 1 for all x, including 0^0 by the usual crypto convention.
        return &Natural::one() % ctx.modulus();
    }
    let base_m = ctx.to_mont(&ctx.reduce(base));
    let result_m = mod_pow_mont(ctx, &base_m, exp, window_size_for(exp.bit_len()));
    ctx.from_mont(&result_m)
}

/// Core sliding-window loop over a Montgomery-form base; returns a
/// Montgomery-form result. Exposed so batch GPU dispatch can share
/// precomputation.
///
/// The odd-power table is one flat buffer of `2^(w-1)` fixed-width
/// entries and the running product a [`MontAcc`]: the number of
/// allocations is fixed, whatever the exponent length.
pub fn mod_pow_mont(ctx: &MontgomeryCtx, base_m: &Natural, exp: &Natural, window: u32) -> Natural {
    debug_assert!((1..=12).contains(&window));
    if exp.is_zero() {
        return ctx.one_mont();
    }
    let s = ctx.width();
    let (n, n0_inv) = (ctx.modulus().limbs(), ctx.n0_inv());
    // Odd powers base^1, base^3, ..., base^(2^w - 1), entry k at
    // table[k·s..(k+1)·s]; each is the previous one times base².
    let table_len = 1usize << (window - 1);
    let mut table = base_m.to_padded_limbs(s);
    if table_len > 1 {
        let mut base_sq = vec![0; s];
        let mut scratch = vec![0; cios::scratch_len(s)];
        cios::mont_sqr_into(&mut base_sq, &mut scratch, &table, n, n0_inv);
        table.resize(table_len * s, 0);
        let (base, powers) = table.split_at_mut(s);
        let mut prev: &[Limb] = base;
        for entry in powers.chunks_exact_mut(s) {
            cios::mont_mul_into(entry, prev, &base_sq, n, n0_inv);
            prev = entry;
        }
    }

    // The top exponent bit is set, so the first loop pass opens a window
    // and seeds the accumulator straight from the table.
    let mut acc: Option<MontAcc<'_>> = None;
    // Bits [0, end) are still to be scanned, from the top down.
    let mut end = exp.bit_len();
    while end > 0 {
        let i = end - 1;
        if !exp.bit(i) {
            if let Some(acc) = acc.as_mut() {
                acc.sqr();
            }
            end = i;
            continue;
        }
        // Greedy window: longest run of <= `window` bits ending in a 1.
        let mut j = end.saturating_sub(window);
        while !exp.bit(j) {
            j += 1;
        }
        let width = end - j;
        // Window value: bits [j, i] inclusive — always odd, so value/2
        // indexes the odd-power table (value < 2^w ⇒ value/2 < table_len).
        let value = exp.extract_bits(j, width);
        debug_assert!(value & 1 == 1);
        let k = (value >> 1) as usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "value < 2^w, so value/2 < table_len"
        )]
        let entry = &table[k * s..(k + 1) * s];
        match acc.as_mut() {
            Some(acc) => {
                for _ in 0..width {
                    acc.sqr();
                }
                acc.mul(entry);
            }
            None => acc = Some(MontAcc::new(ctx, entry.to_vec())),
        }
        end = j;
    }
    acc.map_or_else(|| ctx.one_mont(), MontAcc::into_natural)
}

/// Window width (bits per digit) of the fixed-window schedule
/// [`mod_pow_ct`] runs under a public exponent bound of `exp_bits` bits.
///
/// A fixed window pays one multiply per digit whatever the digit is, a
/// table of all `2^w` powers rather than the odd ones, and a scan of the
/// whole table per digit, so its break-even widths sit below
/// [`window_size_for`]'s: `w` minimizes `⌈bits/w⌉ + 2^w` multiplies, with
/// the upper thresholds pushed out by what the scans cost on the operand
/// widths those exponent sizes come with.
fn ct_window_size_for(exp_bits: u32) -> u32 {
    match exp_bits {
        0..=4 => 1,
        5..=24 => 2,
        25..=96 => 3,
        97..=383 => 4,
        384..=1535 => 5,
        _ => 6,
    }
}

/// What one [`mod_pow_ct`] pass over `limbs`-limb operands runs under the
/// exponent bound `exp_bits`: the shape of its schedule and the kernel
/// calls it makes. `mod_pow_ct` takes its loop bounds from here, so the
/// counts are the schedule that runs; every field but `macs` is a function
/// of `exp_bits` alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtPowCounts {
    /// Window width `w`: exponent bits consumed per digit.
    pub window: u32,
    /// Digits scanned, `⌈exp_bits / w⌉`.
    pub windows: u32,
    /// Squarings: `w` per digit after the first.
    pub squarings: u64,
    /// Multiplies: the base's conversion into the domain, `2^w − 2` table
    /// entries, and one per digit after the first.
    pub multiplies: u64,
    /// MACs of all of the above plus the final conversion out of the
    /// domain ([`cios::mont_reduce_into`], half a multiply).
    pub macs: u64,
}

/// The schedule and kernel-call counts of [`mod_pow_ct`] at `limbs`-limb
/// operands under the exponent bound `exp_bits` — see [`CtPowCounts`].
pub fn mod_pow_ct_counts(limbs: usize, exp_bits: u32) -> CtPowCounts {
    let window = ct_window_size_for(exp_bits);
    let windows = exp_bits.div_ceil(window);
    let after_first = u64::from(windows.saturating_sub(1));
    let squarings = after_first * u64::from(window);
    let multiplies = 1 + ((1u64 << window) - 2) + after_first;
    let mul_macs = cios::mont_mul_mac_count(limbs);
    CtPowCounts {
        window,
        windows,
        squarings,
        multiplies,
        macs: squarings * cios::mont_sqr_mac_count(limbs) + multiplies * mul_macs + mul_macs / 2,
    }
}

/// Constant-time `base^exp mod n` for secret exponents: fixed-window
/// exponentiation over exactly `exp_bits` exponent bits.
///
/// The exponent is cut into `⌈exp_bits/w⌉` digits of `w` bits, `w` chosen
/// from `exp_bits` alone ([`mod_pow_ct_counts`]). A flat table holds
/// `base^0 … base^(2^w − 1)` in Montgomery form. The top digit's power
/// seeds the running product; every further digit costs `w` squarings
/// (the dedicated [`cios::mont_sqr_into`] kernel) and **one multiply,
/// always** — by `base^0 = 1` when the digit is zero — with the table
/// entry fetched by [`ct_lookup_limbs`], a masked scan over *all*
/// entries. No table index, branch or loop bound is derived from `exp`:
/// the kernel calls made and the addresses touched depend only on the
/// public bound `exp_bits` (a key-size parameter such as `n.bit_len()`)
/// and the operand width. Compare the sliding-window path, whose multiply
/// schedule mirrors the exponent's windows. The table and the working
/// buffers are allocated once, before the first digit.
///
/// `base` may be unreduced. Bringing it below `n` is the one step that
/// looks at its value — a comparison when it is already reduced, a
/// division otherwise — so a caller whose base is itself secret (the
/// owner's blinding route) passes a reduced one; after that the base is
/// only ever data. `exp.bit_len()` must not exceed `exp_bits`. Returns
/// the result in `[0, n)`, not in Montgomery form. Use this only when the
/// exponent is secret: it scans the table on every digit and cannot skip
/// zero digits, which [`mod_pow_ctx`] does.
// flcheck: ct-fn
pub fn mod_pow_ct(ctx: &MontgomeryCtx, base: &Natural, exp: &Natural, exp_bits: u32) -> Natural {
    debug_assert!(
        exp.bit_len() <= exp_bits,
        "exp_bits must bound the secret exponent"
    );
    let s = ctx.width();
    let (n, n0_inv) = (ctx.modulus().limbs(), ctx.n0_inv());
    let CtPowCounts {
        window, windows, ..
    } = mod_pow_ct_counts(s, exp_bits);

    // Entry k is base^k: 1, base, then each the previous one times base.
    let mut table = ctx.one_mont().to_padded_limbs(s);
    table.extend(ctx.to_mont(&ctx.reduce(base)).to_padded_limbs(s));
    table.resize(s << window, 0);
    let (fixed, powers) = table.split_at_mut(2 * s);
    let (_, base_m) = fixed.split_at(s);
    let mut prev = base_m;
    for entry in powers.chunks_exact_mut(s) {
        cios::mont_mul_into(entry, prev, base_m, n, n0_inv);
        prev = entry;
    }

    // Padding copies the exponent into a buffer of *public* width; the
    // copy length is bounded by exp_bits, which the caller supplies as a
    // key-size parameter.
    let e = exp.to_padded_limbs(exp_bits.div_ceil(LIMB_BITS) as usize);
    // Digit i is exponent bits [i·w, i·w + w): read from the two limbs it
    // can straddle, both at public positions (zero past the buffer).
    let digit = |i: u32| -> Limb {
        let (at, shift) = ((i * window / LIMB_BITS) as usize, i * window % LIMB_BITS);
        let lo = e.get(at).copied().unwrap_or(0);
        let hi = e.get(at + 1).copied().unwrap_or(0);
        let pair = (lo as u128) | (hi as u128) << LIMB_BITS;
        split(pair >> shift).0 & ((1 << window) - 1)
    };

    let mut acc = vec![0; s];
    let mut next = vec![0; s];
    let mut entry = vec![0; s];
    let mut scratch = vec![0; cios::scratch_len(s)];
    // The top digit's power seeds the product; with no digits at all
    // (exp_bits = 0) digit 0 reads as zero and seeds base^0.
    let below_top = windows.saturating_sub(1);
    ct_lookup_limbs(&mut acc, &table, digit(below_top));
    for i in (0..below_top).rev() {
        for _ in 0..window {
            cios::mont_sqr_into(&mut next, &mut scratch, &acc, n, n0_inv);
            std::mem::swap(&mut acc, &mut next);
        }
        ct_lookup_limbs(&mut entry, &table, digit(i));
        cios::mont_mul_into(&mut next, &acc, &entry, n, n0_inv);
        std::mem::swap(&mut acc, &mut next);
    }
    ctx.from_mont(&Natural::from_limbs(acc))
}

/// Plain binary (left-to-right square-and-multiply) exponentiation: the
/// test reference the sliding-window paths are checked against.
pub fn mod_pow_binary(base: &Natural, exp: &Natural, n: &Natural) -> Result<Natural> {
    let ctx = MontgomeryCtx::new(n)?;
    if exp.is_zero() {
        return Ok(&Natural::one() % n);
    }
    let base_m = ctx.to_mont(&ctx.reduce(base)).to_padded_limbs(ctx.width());
    let mut acc = MontAcc::new(&ctx, ctx.one_mont().to_padded_limbs(ctx.width()));
    for i in (0..exp.bit_len()).rev() {
        acc.sqr();
        if exp.bit(i) {
            acc.mul(&base_m);
        }
    }
    Ok(ctx.from_mont(&acc.into_natural()))
}

/// `x^p % n` where `n` may be even: falls back to repeated
/// square-and-multiply with full reductions (no Montgomery domain).
/// Needed for Table-I `mod_pow` on arbitrary moduli.
pub fn mod_pow_any(base: &Natural, exp: &Natural, n: &Natural) -> Result<Natural> {
    if n.is_zero() {
        return Err(Error::DivisionByZero);
    }
    if n.is_odd() {
        return mod_pow(base, exp, n);
    }
    let mut acc = &Natural::one() % n;
    let mut b = base % n;
    for i in 0..exp.bit_len() {
        if exp.bit(i) {
            acc = &(&acc * &b) % n;
        }
        if i + 1 < exp.bit_len() {
            b = &(&b * &b) % n;
        }
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn zero_exponent_gives_one() {
        assert_eq!(mod_pow(&n(5), &n(0), &n(7)).unwrap(), n(1));
        assert_eq!(mod_pow(&n(0), &n(0), &n(7)).unwrap(), n(1));
        assert_eq!(mod_pow_any(&n(5), &n(0), &n(8)).unwrap(), n(1));
    }

    #[test]
    fn matches_u128_reference() {
        fn pow_ref(mut b: u128, mut e: u128, m: u128) -> u128 {
            let mut acc = 1u128 % m;
            b %= m;
            while e > 0 {
                if e & 1 == 1 {
                    acc = acc * b % m;
                }
                b = b * b % m;
                e >>= 1;
            }
            acc
        }
        let m = 1_000_000_007u128; // fits: products stay under 2^60
        for (b, e) in [
            (2u128, 10u128),
            (3, 1_000_000),
            (999_999_999, 12345),
            (7, 1),
        ] {
            assert_eq!(
                mod_pow(&n(b), &n(e), &n(m)).unwrap(),
                n(pow_ref(b, e, m)),
                "{b}^{e} mod {m}"
            );
        }
    }

    #[test]
    fn sliding_window_matches_binary() {
        let p = (1u128 << 127) - 1;
        let cases = [
            (3u128, (1u128 << 90) + 12345),
            (p - 2, p - 1),
            (65537, 0xFFFF_FFFF),
        ];
        for (b, e) in cases {
            assert_eq!(
                mod_pow(&n(b), &n(e), &n(p)).unwrap(),
                mod_pow_binary(&n(b), &n(e), &n(p)).unwrap(),
                "{b}^{e}"
            );
        }
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p-1) ≡ 1 mod p for prime p, a not divisible by p.
        let p = (1u128 << 127) - 1;
        for a in [2u128, 3, 0xDEAD_BEEF] {
            assert_eq!(mod_pow(&n(a), &n(p - 1), &n(p)).unwrap(), n(1));
        }
    }

    #[test]
    fn even_modulus_fallback() {
        assert_eq!(mod_pow_any(&n(3), &n(5), &n(100)).unwrap(), n(243 % 100));
        assert_eq!(mod_pow_any(&n(2), &n(10), &n(1 << 20)).unwrap(), n(1024));
        // Odd modulus routes through Montgomery and agrees.
        assert_eq!(
            mod_pow_any(&n(3), &n(100), &n(101)).unwrap(),
            mod_pow(&n(3), &n(100), &n(101)).unwrap()
        );
    }

    #[test]
    fn even_modulus_rejected_by_montgomery_path() {
        assert!(mod_pow(&n(3), &n(5), &n(100)).is_err());
        assert!(mod_pow_any(&n(3), &n(5), &n(0)).is_err());
    }

    #[test]
    fn unreduced_base_is_reduced_first() {
        assert_eq!(
            mod_pow(&n(1000), &n(3), &n(7)).unwrap(),
            n(1000u128.pow(3) % 7)
        );
    }

    #[test]
    fn ct_ladder_matches_sliding_window() {
        let p = (1u128 << 127) - 1;
        let ctx = MontgomeryCtx::new(&n(p)).unwrap();
        let cases = [
            (3u128, (1u128 << 90) + 12345),
            (p - 2, p - 1),
            (65537, 0xFFFF_FFFF),
            (0xDEAD_BEEF, 1),
            (42, 0),
        ];
        for (b, e) in cases {
            let exp = n(e);
            let got = mod_pow_ct(&ctx, &n(b), &exp, exp.bit_len().max(1));
            assert_eq!(got, mod_pow_ctx(&ctx, &n(b), &exp), "{b}^{e} ct window");
        }
    }

    #[test]
    fn ct_ladder_padding_does_not_change_result() {
        // Running over a wider public bound (leading zero bits) must not
        // change the value — only the digit count.
        let p = 1_000_000_007u128;
        let ctx = MontgomeryCtx::new(&n(p)).unwrap();
        let exp = n(0xAB_CDEF);
        let reference = mod_pow_ctx(&ctx, &n(12345), &exp);
        for bits in [exp.bit_len(), exp.bit_len() + 1, 64, 130] {
            assert_eq!(
                mod_pow_ct(&ctx, &n(12345), &exp, bits),
                reference,
                "{bits}-bit bound"
            );
        }
    }

    #[test]
    fn ct_ladder_zero_bits_gives_one() {
        let ctx = MontgomeryCtx::new(&n(101)).unwrap();
        assert_eq!(mod_pow_ct(&ctx, &n(7), &n(0), 0), n(1));
    }

    #[test]
    fn ct_counts_are_a_function_of_exp_bits_only() {
        for bits in [0u32, 1, 4, 5, 96, 97, 512, 1024, 2048, 4100] {
            let at = |limbs| mod_pow_ct_counts(limbs, bits);
            let c = at(1);
            for limbs in [2usize, 16, 64] {
                let d = at(limbs);
                assert_eq!(
                    (d.window, d.windows, d.squarings, d.multiplies),
                    (c.window, c.windows, c.squarings, c.multiplies),
                    "{bits} bits at {limbs} limbs"
                );
                assert!(d.macs > c.macs, "MACs grow with the width");
            }
            assert_eq!(c.windows, bits.div_ceil(c.window));
            assert!(c.windows * c.window >= bits, "the digits cover the bound");
            assert_eq!(
                c.squarings,
                u64::from(c.windows.saturating_sub(1) * c.window)
            );
            assert_eq!(
                c.multiplies,
                (1 << c.window) - 1 + u64::from(c.windows.saturating_sub(1))
            );
        }
        // One multiply per digit instead of one per bit: past a few dozen
        // bits the schedule is well under the bit-serial 2·bits calls.
        let c = mod_pow_ct_counts(16, 512);
        assert!(c.squarings + c.multiplies < 2 * 512 * 2 / 3);
    }

    #[test]
    fn window_sizes_monotone() {
        for table in [window_size_for, ct_window_size_for] {
            let mut last = 0;
            for bits in [1u32, 10, 50, 100, 500, 1024, 4096] {
                let w = table(bits);
                assert!(
                    w >= last,
                    "window size should not shrink with exponent size"
                );
                last = w;
            }
        }
    }

    #[test]
    fn large_exponent_exercises_multiple_windows() {
        // 1024-bit modulus-sized exponent against both implementations.
        let p_hex = "f".repeat(32); // 128-bit all-ones = 2^128 - 1 (odd)
        let m = Natural::from_hex(&p_hex).unwrap();
        let e = Natural::from_hex(&"a5".repeat(16)).unwrap();
        let b = n(0x1234_5678_9ABC_DEF0);
        assert_eq!(
            mod_pow(&b, &e, &m).unwrap(),
            mod_pow_binary(&b, &e, &m).unwrap()
        );
    }
}
