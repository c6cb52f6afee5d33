//! CIOS Montgomery multiplication — the paper's Algorithm 2.
//!
//! Of the five CPU Montgomery variants analysed by Koç, Acar & Kaliski
//! (SOS, CIOS, FIOS, FIPS, CIHS), the paper selects CIOS — Coarsely
//! Integrated Operand Scanning — as the fastest and smallest, and ports it
//! to the GPU with each thread owning `x = s/T` words of every operand
//! (Sec. IV-A3). This module is the one Montgomery kernel of the
//! workspace — everything in [`crate::montgomery`], [`crate::modpow`] and
//! [`crate::straus`] bottoms out here:
//!
//! - [`mont_mul_into`]: CIOS with the two inner loops of each round fused
//!   into one pass, writing into the caller's buffer;
//! - [`mont_sqr_into`]: the symmetric squaring (~25% fewer MACs), whose
//!   reduction half is [`mont_reduce_into`] (plain REDC);
//! - [`mont_mul_partitioned`]: the same multiplication *partitioned into
//!   `T` lanes of `x` words each*, reporting per-lane work so the GPU
//!   simulator can account occupancy and inter-thread communication
//!   exactly as the paper describes.
//!
//! All of them end in the same masked, branch-free final subtraction, and
//! all agree with the whole-integer Algorithm 1 kept as a test reference
//! in [`crate::montgomery`]; the agreement is property-tested.

#![expect(
    clippy::indexing_slicing,
    reason = "the fused kernels' inner loops are zipped slices; what is indexed is one \
              sub-slice or carry word per row, and the partitioned kernel's per-lane \
              accounting, all bounded by the fixed operand width `s` asserted on entry"
)]
// flcheck: allow-file(pf-assert) — width preconditions are documented API
// contract (covered by `unpadded_operands_rejected`), mirroring slice-length
// panics in std.

use crate::ct::{ct_ge_then_sub, ct_is_zero, ct_lt, ct_mask, ct_sub_masked};
use crate::limb::{adc, mac, mul_wide, Limb, LIMB_BITS};

/// Per-lane work accounting for the partitioned kernel.
///
/// One entry per simulated GPU thread; used by `gpu-sim` to model SM
/// occupancy and the carry-propagation communication between threads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Multiply-accumulate limb operations executed by each lane.
    pub mac_ops: Vec<u64>,
    /// Inter-lane carry/borrow propagations (the paper's "inter-thread
    /// communication" for carry and borrow).
    pub carry_transfers: u64,
}

impl LaneStats {
    /// Total MAC operations across lanes.
    pub fn total_mac_ops(&self) -> u64 {
        self.mac_ops.iter().sum()
    }

    /// Load imbalance: max lane work / mean lane work (1.0 = perfectly
    /// balanced). Returns 1.0 for empty stats.
    pub fn imbalance(&self) -> f64 {
        if self.mac_ops.is_empty() {
            return 1.0;
        }
        let max = self.mac_ops.iter().max().copied().unwrap_or(0) as f64;
        let mean = self.total_mac_ops() as f64 / self.mac_ops.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Fused CIOS Montgomery multiplication into a caller-provided buffer:
/// `out ← a·b·R^{-1} mod n` where `R = 2^{64·s}`, `s = n.len()`, for
/// `a, b < n` and odd `n`.
///
/// Each outer round folds Algorithm 2's two inner loops (`t += a·b_i`,
/// lines 3–9, and `t += m·n` with the one-word shift, lines 10–17) into a
/// single pass over the accumulator: `m` depends only on the round's low
/// word, so it is known before the pass starts, and the two products ride
/// on two independent carry chains. `out` is the accumulator itself — `s`
/// words plus a one-bit `top` kept in a register (`t < 2n` after every
/// round) — so the call allocates nothing.
///
/// `a`, `b` and `out` must be exactly `s` limbs
/// ([`crate::Natural::to_padded_limbs`]);
/// `n0_inv = -n[0]^{-1} mod 2^64` ([`crate::limb::mont_neg_inv`]).
// flcheck: ct-fn
// flcheck: secret(a, b)
pub fn mont_mul_into(out: &mut [Limb], a: &[Limb], b: &[Limb], n: &[Limb], n0_inv: Limb) {
    let s = n.len();
    assert_eq!(a.len(), s, "operand a must be padded to the modulus width");
    assert_eq!(b.len(), s, "operand b must be padded to the modulus width");
    assert_eq!(out.len(), s, "output must be padded to the modulus width");
    out.fill(0);
    let a0 = a.first().copied().unwrap_or(0);
    let mut top = 0;
    for &bi in b {
        // m = (t + a·b_i)[0] · n'_0 mod 2^64 (line 10), from the low words.
        let t0 = out.first().copied().unwrap_or(0);
        let m = a0.wrapping_mul(bi).wrapping_add(t0).wrapping_mul(n0_inv);
        // t ← (t + a·b_i + m·n) / 2^64: word j lands in slot j−1; the low
        // word is zero by construction and falls into `sink`.
        let (mut c1, mut c2) = (0, 0);
        let mut sink = 0;
        let mut slot = &mut sink;
        for ((tj, &aj), &nj) in out.iter_mut().zip(a).zip(n) {
            let (x, hi1) = mac(aj, bi, *tj, c1);
            let (lo, hi2) = mac(m, nj, x, c2);
            (c1, c2) = (hi1, hi2);
            *slot = lo;
            slot = tj;
        }
        (*slot, top) = adc(top, c1, c2);
    }
    // Final reduction (lines 18–22) of top·R + out < 2n: subtract n when
    // the top bit is set or the low words alone reach n — by mask, never
    // by branch, since the accumulator is secret-derived. The borrow out
    // of the low words cancels the top bit.
    let ge = top | ct_is_zero(ct_lt(out, n));
    ct_sub_masked(out, n, ct_mask(ge));
}

/// Allocating form of [`mont_mul_into`].
pub fn mont_mul(a: &[Limb], b: &[Limb], n: &[Limb], n0_inv: Limb) -> Vec<Limb> {
    let mut out = vec![0; n.len()];
    mont_mul_into(&mut out, a, b, n, n0_inv);
    out
}

/// MAC (multiply-accumulate) operations one [`mont_mul_into`] call executes
/// for an `s`-limb modulus: `s` MACs for `a·b_i` plus `s` MACs for `m·n` in
/// each of the `s` outer rounds (fusing the loops reorders them, it does
/// not remove any).
pub const fn mont_mul_mac_count(s: usize) -> u64 {
    2 * (s as u64) * (s as u64)
}

/// MAC operations one [`mont_sqr_into`] call executes for an `s`-limb
/// modulus: `s·(s−1)/2` off-diagonal products (each `a_i·a_j`, `i < j`,
/// computed once and doubled by a shift), `s` diagonal products `a_i²`, and
/// `s²` reduction MACs — `1.5·s² + 0.5·s` total, versus `2·s²` for the
/// general multiplication. The saved `0.5·s² − 0.5·s` MACs are exactly the
/// `a_i·a_j`/`a_j·a_i` symmetry.
pub const fn mont_sqr_mac_count(s: usize) -> u64 {
    // s·(s−1)/2 + s  =  s·(s+1)/2, written underflow-safe.
    let s = s as u64;
    s * (s + 1) / 2 + s * s
}

/// Limbs of scratch [`mont_sqr_into`] and [`mont_reduce_into`] work in:
/// the `2s`-limb square plus one word of reduction headroom.
pub const fn scratch_len(s: usize) -> usize {
    2 * s + 1
}

/// Dedicated Montgomery squaring into a caller-provided buffer:
/// `out ← a²·R^{-1} mod n` for `a < n` and odd `n`, with ~25% fewer MACs
/// than `mont_mul_into(out, a, a, ..)` (see [`mont_sqr_mac_count`]).
///
/// The product phase exploits the `a_i·a_j = a_j·a_i` symmetry: each
/// off-diagonal pair is multiplied once into `scratch`, then one pass
/// doubles the partial sum and adds the diagonal terms `a_i²`.
/// [`mont_reduce_into`] finishes. Every loop bound is the public width
/// `s` — squarings sit inside the constant-time window of
/// [`crate::modpow::mod_pow_ct`], where the squared value derives from
/// secret exponent bits.
///
/// `a` and `out` must be exactly `s = n.len()` limbs and `scratch`
/// [`scratch_len`]`(s)`; `n0_inv` as in [`mont_mul_into`]. The result is
/// bit-identical to `mont_mul_into(out, a, a, n, n0_inv)` (property-tested
/// across limb widths).
// flcheck: ct-fn
// flcheck: secret(a)
pub fn mont_sqr_into(out: &mut [Limb], scratch: &mut [Limb], a: &[Limb], n: &[Limb], n0_inv: Limb) {
    let s = n.len();
    assert_eq!(a.len(), s, "operand a must be padded to the modulus width");
    assert_eq!(scratch.len(), scratch_len(s), "scratch must be 2s+1 limbs");
    scratch.fill(0);

    // Off-diagonal half-product: t += a_i·a_j for all i < j. Row i's
    // carry lands at t[i+s], which no earlier row has written (row k
    // writes words [2k+1, k+s-1] and its carry at k+s < i+s).
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0;
        for (tk, &aj) in scratch[2 * i + 1..i + s].iter_mut().zip(&a[i + 1..]) {
            (*tk, carry) = mac(ai, aj, *tk, carry);
        }
        scratch[i + s] = carry;
    }

    // Double the half-product and add the diagonal a_i² at words
    // (2i, 2i+1) in one pass. 2·Σ_{i<j} a_i·a_j + Σ a_i² = a² < 2^{128·s},
    // so neither the shifted-out bit nor the carry escapes word 2s-1.
    let (mut shifted_out, mut carry) = (0, 0);
    for (pair, &ai) in scratch.chunks_exact_mut(2).zip(a) {
        let (lo, hi) = (pair[0], pair[1]);
        let (sq_lo, sq_hi) = mul_wide(ai, ai);
        let (r0, c) = adc((lo << 1) | shifted_out, sq_lo, carry);
        (pair[1], carry) = adc((hi << 1) | (lo >> (LIMB_BITS - 1)), sq_hi, c);
        pair[0] = r0;
        shifted_out = hi >> (LIMB_BITS - 1);
    }
    debug_assert_eq!(shifted_out | carry, 0, "a² fits in 2s limbs");

    mont_reduce_into(out, scratch, n, n0_inv);
}

/// Allocating form of [`mont_sqr_into`].
pub fn mont_sqr(a: &[Limb], n: &[Limb], n0_inv: Limb) -> Vec<Limb> {
    let s = n.len();
    let mut out = vec![0; s];
    mont_sqr_into(&mut out, &mut vec![0; scratch_len(s)], a, n, n0_inv);
    out
}

/// Montgomery reduction (REDC) of a double-width value:
/// `out ← t·R^{-1} mod n` for `t < n·R`, consuming `t`.
///
/// `s` rounds of `m = t_i·n'₀; t += m·n·B^i`. Round `i`'s carry belongs at
/// word `i+s`; the single bit that can overflow *that* word is deferred
/// into round `i+1`'s carry word instead of rippling to the top of the
/// accumulator, so a round costs `s` MACs and one add. What is left in
/// words `[s, 2s]` is `< 2n`; one masked subtraction reduces it.
///
/// `t` must be [`scratch_len`]`(s)` limbs and `out` exactly `s`.
// flcheck: ct-fn
// flcheck: secret(t)
pub fn mont_reduce_into(out: &mut [Limb], t: &mut [Limb], n: &[Limb], n0_inv: Limb) {
    let s = n.len();
    assert_eq!(out.len(), s, "output must be padded to the modulus width");
    assert_eq!(t.len(), scratch_len(s), "t must be padded to 2s+1 limbs");
    let mut deferred = 0;
    for i in 0..s {
        let m = t[i].wrapping_mul(n0_inv);
        let mut carry = 0;
        for (tk, &nj) in t[i..i + s].iter_mut().zip(n) {
            (*tk, carry) = mac(m, nj, *tk, carry);
        }
        (t[i + s], deferred) = adc(t[i + s], carry, deferred);
    }
    // Same masked final subtraction as `mont_mul_into`, the top bit being
    // the headroom word plus the last deferred carry.
    out.copy_from_slice(&t[s..2 * s]);
    let ge = t[2 * s].wrapping_add(deferred) | ct_is_zero(ct_lt(out, n));
    ct_sub_masked(out, n, ct_mask(ge));
}

/// Partitioned CIOS: identical arithmetic to [`mont_mul`] but with every
/// operand split into `threads` lanes of `x = ceil(s/threads)` words, as in
/// the paper's GPU kernel. Returns the product limbs plus per-lane stats.
///
/// The lane structure is *semantic* (it drives the simulator's accounting);
/// execution here is sequential, because the real parallel scheduling is
/// the GPU simulator's job.
pub fn mont_mul_partitioned(
    a: &[Limb],
    b: &[Limb],
    n: &[Limb],
    n0_inv: Limb,
    threads: usize,
) -> (Vec<Limb>, LaneStats) {
    let s = n.len();
    assert!(threads > 0, "at least one lane required");
    assert_eq!(a.len(), s);
    assert_eq!(b.len(), s);
    let x = s.div_ceil(threads);
    let mut stats = LaneStats {
        mac_ops: vec![0; threads],
        carry_transfers: 0,
    };
    let lane_of = |word: usize| (word / x).min(threads - 1);

    let mut t = vec![0 as Limb; s + 2];
    // Outer structure of Algorithm 2: every lane i walks its x words of b
    // (lines 1–2); the flat iteration order below visits the same (i, j)
    // pairs. Each b-word is fetched from its owning lane — one inter-thread
    // transfer when the consumer differs from the owner.
    for (bw, &bi) in b.iter().enumerate() {
        let owner = lane_of(bw);
        let mut carry = 0;
        for (j, &aj) in a.iter().enumerate() {
            let (lo, hi) = mac(aj, bi, t[j], carry);
            t[j] = lo;
            carry = hi;
            stats.mac_ops[lane_of(j)] += 1;
            if lane_of(j) != owner {
                stats.carry_transfers += 1; // b_i broadcast across lanes
            }
        }
        let (s0, c) = adc(t[s], carry, 0);
        t[s] = s0;
        t[s + 1] = t[s + 1].wrapping_add(c);
        stats.carry_transfers += 1; // carry into the top lane

        let m = t[0].wrapping_mul(n0_inv);
        let (_, mut carry) = mac(m, n[0], t[0], 0);
        stats.mac_ops[0] += 1;
        for j in 1..s {
            let (lo, hi) = mac(m, n[j], t[j], carry);
            t[j - 1] = lo;
            carry = hi;
            stats.mac_ops[lane_of(j)] += 1;
            if lane_of(j) != lane_of(j - 1) {
                stats.carry_transfers += 1; // word shift crosses a lane edge
            }
        }
        let (s1, c) = adc(t[s], carry, 0);
        t[s - 1] = s1;
        t[s] = t[s + 1].wrapping_add(c);
        t[s + 1] = 0;
    }

    // Overflow check / subtraction (lines 18–22) runs on all lanes; the
    // borrow chain is one more full propagation.
    stats.carry_transfers += threads as u64;
    ct_ge_then_sub(&mut t, n);
    t.truncate(s);
    (t, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limb::mont_neg_inv;
    use crate::montgomery::algorithm1_mont_mul;
    use crate::{MontgomeryCtx, Natural};

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    /// The flat kernel over a context's padded operands.
    fn mont_mul_natural(ctx: &MontgomeryCtx, a: &Natural, b: &Natural) -> Natural {
        let s = ctx.width();
        Natural::from_limbs(mont_mul(
            &a.to_padded_limbs(s),
            &b.to_padded_limbs(s),
            ctx.modulus().limbs(),
            ctx.n0_inv(),
        ))
    }

    fn check_against_alg1(modulus: u128, a: u128, b: u128) {
        let ctx = MontgomeryCtx::new(&n(modulus)).unwrap();
        let am = ctx.to_mont(&n(a));
        let bm = ctx.to_mont(&n(b));
        let expected = algorithm1_mont_mul(&ctx, &am, &bm);
        let got = mont_mul_natural(&ctx, &am, &bm);
        assert_eq!(got, expected, "CIOS vs Alg.1 for {a}*{b} mod {modulus}");
    }

    #[test]
    fn cios_matches_algorithm1_single_limb() {
        check_against_alg1(0xFFFF_FFFF_FFFF_FFC5, 3, 5);
        check_against_alg1(0xFFFF_FFFF_FFFF_FFC5, 0xFFFF_FFFF_FFFF_FFC4, 2);
        check_against_alg1(101, 100, 100);
    }

    #[test]
    fn cios_matches_algorithm1_two_limbs() {
        let p = (1u128 << 127) - 1;
        check_against_alg1(p, (1 << 100) + 7, (1 << 120) + 13);
        check_against_alg1(p, p - 1, p - 1);
        check_against_alg1(p, 0, 42);
    }

    #[test]
    fn cios_full_modmul_via_context() {
        let p = (1u128 << 127) - 1;
        let ctx = MontgomeryCtx::new(&n(p)).unwrap();
        let (a, b) = ((1u128 << 126) + 3, (1u128 << 125) + 11);
        let am = ctx.to_mont(&n(a));
        let bm = ctx.to_mont(&n(b));
        let prod = ctx.from_mont(&mont_mul_natural(&ctx, &am, &bm));
        assert_eq!(prod, &(&n(a) * &n(b)) % &n(p));
    }

    #[test]
    fn partitioned_matches_flat_and_reports_lanes() {
        let p = (1u128 << 127) - 1;
        let ctx = MontgomeryCtx::new(&n(p)).unwrap();
        let s = ctx.width();
        let a = ctx.to_mont(&n((1 << 99) + 1)).to_padded_limbs(s);
        let b = ctx.to_mont(&n((1 << 88) + 9)).to_padded_limbs(s);
        let nn = ctx.modulus().to_padded_limbs(s);
        let flat = mont_mul(&a, &b, &nn, ctx.n0_inv());
        for threads in [1usize, 2] {
            let (part, stats) = mont_mul_partitioned(&a, &b, &nn, ctx.n0_inv(), threads);
            assert_eq!(part, flat, "{threads} lanes");
            assert_eq!(stats.mac_ops.len(), threads);
            assert!(stats.total_mac_ops() > 0);
        }
    }

    #[test]
    fn partitioned_carry_transfers_grow_with_lanes() {
        // Build an 8-limb odd modulus.
        let mut limbs = vec![u64::MAX; 8];
        limbs[0] = u64::MAX - 2; // still odd
        let modulus = Natural::from_limbs(limbs);
        let ctx = MontgomeryCtx::new(&modulus).unwrap();
        let s = ctx.width();
        let a = n(123_456_789).to_padded_limbs(s);
        let b = n(987_654_321).to_padded_limbs(s);
        let nn = modulus.to_padded_limbs(s);
        let (_, s1) = mont_mul_partitioned(&a, &b, &nn, ctx.n0_inv(), 1);
        let (_, s4) = mont_mul_partitioned(&a, &b, &nn, ctx.n0_inv(), 4);
        assert!(s4.carry_transfers > s1.carry_transfers);
        // Same arithmetic => same total work.
        assert_eq!(s1.total_mac_ops(), s4.total_mac_ops());
    }

    #[test]
    fn lane_stats_imbalance() {
        let balanced = LaneStats {
            mac_ops: vec![10, 10, 10],
            carry_transfers: 0,
        };
        assert!((balanced.imbalance() - 1.0).abs() < 1e-12);
        let skewed = LaneStats {
            mac_ops: vec![30, 0, 0],
            carry_transfers: 0,
        };
        assert!((skewed.imbalance() - 3.0).abs() < 1e-12);
        assert!((LaneStats::default().imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mont_identity_element() {
        // mont_mul(xR, R mod n) should give x·R·R·R^{-1} = xR ... i.e.
        // multiplying by the Montgomery form of 1 is the identity.
        let p = 1_000_000_007u128;
        let ctx = MontgomeryCtx::new(&n(p)).unwrap();
        let s = ctx.width();
        let x = ctx.to_mont(&n(999_999_999));
        let one = ctx.one_mont();
        let out = mont_mul(
            &x.to_padded_limbs(s),
            &one.to_padded_limbs(s),
            &ctx.modulus().to_padded_limbs(s),
            ctx.n0_inv(),
        );
        assert_eq!(Natural::from_limbs(out), x);
    }

    #[test]
    fn n0_inv_consistency() {
        let p = 0xFFFF_FFFF_FFFF_FFC5u64;
        assert_eq!(mont_neg_inv(p).wrapping_mul(p), 1u64.wrapping_neg());
    }

    #[test]
    #[should_panic(expected = "padded")]
    fn unpadded_operands_rejected() {
        mont_mul(&[1], &[1, 2], &[3, 5], mont_neg_inv(3));
    }

    #[test]
    fn sqr_matches_mul_small_moduli() {
        for (modulus, a) in [
            (101u128, 0u128),
            (101, 100),
            (0xFFFF_FFFF_FFFF_FFC5, 0xFFFF_FFFF_FFFF_FFC4),
            ((1 << 127) - 1, (1 << 126) + 12345),
            ((1 << 127) - 1, 0),
        ] {
            let ctx = MontgomeryCtx::new(&n(modulus)).unwrap();
            let s = ctx.width();
            let am = ctx.to_mont(&n(a)).to_padded_limbs(s);
            let nn = ctx.modulus().to_padded_limbs(s);
            let via_mul = mont_mul(&am, &am, &nn, ctx.n0_inv());
            let via_sqr = mont_sqr(&am, &nn, ctx.n0_inv());
            assert_eq!(via_sqr, via_mul, "{a}² mod {modulus}");
        }
    }

    #[test]
    fn sqr_full_modsquare_via_context() {
        let p = (1u128 << 127) - 1;
        let ctx = MontgomeryCtx::new(&n(p)).unwrap();
        let a = (1u128 << 126) + 7;
        let am = ctx.to_mont(&n(a));
        let sq = ctx.from_mont(&ctx.mont_sqr(&am));
        assert_eq!(sq, &(&n(a) * &n(a)) % &n(p));
    }

    #[test]
    fn sqr_mac_count_beats_mul() {
        // s = 1 has no off-diagonal terms to save: counts are equal.
        assert_eq!(mont_sqr_mac_count(1), mont_mul_mac_count(1));
        for s in [2usize, 8, 16, 32, 64] {
            let (mul, sqr) = (mont_mul_mac_count(s), mont_sqr_mac_count(s));
            assert!(sqr < mul, "s={s}: sqr {sqr} !< mul {mul}");
            // Asymptotically 1.5s² + s/2 vs 2s²: the ratio approaches 3/4.
            if s >= 16 {
                let ratio = sqr as f64 / mul as f64;
                assert!((0.74..0.78).contains(&ratio), "s={s}: ratio {ratio}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "padded")]
    fn sqr_unpadded_operand_rejected() {
        mont_sqr(&[1], &[3, 5], mont_neg_inv(3));
    }
}
