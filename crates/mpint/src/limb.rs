//! Limb-level primitives.
//!
//! A *limb* is one machine word of a multi-precision integer. The paper
//! (Sec. IV-A1) uses base `2^w` with `w = 32` on 32-bit systems and
//! `w = 64` on 64-bit systems; we fix `w = 64`. All multi-precision
//! algorithms in this crate are expressed in terms of the carry/borrow
//! primitives defined here, which mirror the `(C, S) <- ...` steps of the
//! paper's Algorithms 1 and 2.
//!
//! Splitting a double limb into its two halves is where this module
//! truncates on purpose: `t as Limb` keeps the low `w` bits, and every
//! cast here narrows a `DoubleLimb` whose high half is taken separately
//! (or, in `div2by1`, is zero by the precondition).

#![expect(
    clippy::cast_possible_truncation,
    reason = "double-limb splits: `as Limb` keeps the low half, the high half is shifted down first"
)]

/// One word of a multi-precision integer (the paper's base-`2^w` digit).
pub type Limb = u64;

/// A double-width intermediate used for limb products.
pub type DoubleLimb = u128;

/// Number of bits per limb (`w` in the paper).
pub const LIMB_BITS: u32 = Limb::BITS;

/// Number of bytes per limb.
pub const LIMB_BYTES: usize = (LIMB_BITS as usize) / 8;

/// Splits a double limb into `(low, high)`.
#[inline(always)]
pub fn split(t: DoubleLimb) -> (Limb, Limb) {
    (t as Limb, (t >> LIMB_BITS) as Limb)
}

/// Adds `a + b + carry`, returning `(sum, carry_out)`.
///
/// This is the `(C, S) <- a + b + C` primitive of Algorithm 2; `carry_out`
/// is always 0 or 1.
// flcheck: ct-fn
#[inline(always)]
pub fn adc(a: Limb, b: Limb, carry: Limb) -> (Limb, Limb) {
    split(a as DoubleLimb + b as DoubleLimb + carry as DoubleLimb)
}

/// Subtracts `a - b - borrow`, returning `(diff, borrow_out)`.
///
/// `borrow_out` is always 0 or 1.
// flcheck: ct-fn
#[inline(always)]
pub fn sbb(a: Limb, b: Limb, borrow: Limb) -> (Limb, Limb) {
    let t = (a as DoubleLimb)
        .wrapping_sub(b as DoubleLimb)
        .wrapping_sub(borrow as DoubleLimb);
    (t as Limb, ((t >> LIMB_BITS) as Limb) & 1)
}

/// Computes `a * b + c + carry`, returning `(low, high)`.
///
/// The result never overflows: `(2^w-1)^2 + 2*(2^w-1) = 2^{2w} - 1`.
/// This is the inner-product step `(C, S) <- t[k] + a[k]*b_i[j] + C` of
/// Algorithm 2.
// flcheck: ct-fn
#[inline(always)]
pub fn mac(a: Limb, b: Limb, c: Limb, carry: Limb) -> (Limb, Limb) {
    // The product and addend are summed first, off the carry chain: a row
    // of MACs then waits on `carry` for one add and one increment only.
    let p = a as DoubleLimb * b as DoubleLimb + c as DoubleLimb;
    let (lo, k) = (p as Limb).overflowing_add(carry);
    (lo, ((p >> LIMB_BITS) as Limb).wrapping_add(k as Limb))
}

/// Full `w x w -> 2w` multiplication, returning `(low, high)`.
// flcheck: ct-fn
#[inline(always)]
pub fn mul_wide(a: Limb, b: Limb) -> (Limb, Limb) {
    split(a as DoubleLimb * b as DoubleLimb)
}

/// Divides the double-limb `(high, low)` by `divisor`, returning
/// `(quotient, remainder)`.
///
/// # Panics
///
/// Panics in debug builds if `high >= divisor` (the quotient would not fit
/// in a single limb); callers must pre-normalize as Knuth's Algorithm D
/// does.
#[inline(always)]
pub fn div2by1(high: Limb, low: Limb, divisor: Limb) -> (Limb, Limb) {
    debug_assert!(high < divisor, "2-by-1 division quotient overflow");
    let n = ((high as DoubleLimb) << LIMB_BITS) | low as DoubleLimb;
    (
        (n / divisor as DoubleLimb) as Limb,
        (n % divisor as DoubleLimb) as Limb,
    )
}

/// Computes `-n^{-1} mod 2^w` for odd `n`.
///
/// This is the `n'_0 = -n_0[0] mod 2^w` pre-computation required by
/// Montgomery multiplication (Algorithms 1 and 2). Uses Newton–Hensel
/// lifting: each iteration doubles the number of correct low-order bits.
///
/// # Panics
///
/// Panics if `n` is even (no inverse exists modulo a power of two).
#[inline]
pub fn mont_neg_inv(n: Limb) -> Limb {
    // Documented panic: no inverse exists modulo a power of two.
    // flcheck: allow(pf-assert)
    assert!(n & 1 == 1, "Montgomery modulus must be odd");
    // Start with a 5-bit-correct seed: n * n ≡ 1 (mod 2^5) wants inv = n
    // for odd n modulo 2^3 already; standard trick uses inv = n which is
    // correct mod 2^3, then 5 lifts reach 2^96 > 2^64.
    let mut inv: Limb = n; // correct mod 2^3
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(n.wrapping_mul(inv)));
    }
    debug_assert_eq!(n.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_carries() {
        assert_eq!(adc(Limb::MAX, 1, 0), (0, 1));
        assert_eq!(adc(Limb::MAX, Limb::MAX, 1), (Limb::MAX, 1));
        assert_eq!(adc(1, 2, 1), (4, 0));
    }

    #[test]
    fn sbb_borrows() {
        assert_eq!(sbb(0, 1, 0), (Limb::MAX, 1));
        assert_eq!(sbb(0, Limb::MAX, 1), (0, 1));
        assert_eq!(sbb(5, 3, 1), (1, 0));
    }

    #[test]
    fn mac_never_overflows() {
        // (2^64-1)^2 + (2^64-1) + (2^64-1) == 2^128 - 1 exactly
        let (lo, hi) = mac(Limb::MAX, Limb::MAX, Limb::MAX, Limb::MAX);
        assert_eq!(lo, Limb::MAX);
        assert_eq!(hi, Limb::MAX);
    }

    #[test]
    fn mul_wide_basic() {
        assert_eq!(mul_wide(0, 12345), (0, 0));
        assert_eq!(mul_wide(1 << 32, 1 << 32), (0, 1));
        let (lo, hi) = mul_wide(Limb::MAX, 2);
        assert_eq!(lo, Limb::MAX - 1);
        assert_eq!(hi, 1);
    }

    #[test]
    fn div2by1_roundtrip() {
        let (q, r) = div2by1(3, 42, 7);
        let n = ((3u128) << 64) | 42;
        assert_eq!(q as u128, n / 7);
        assert_eq!(r as u128, n % 7);
    }

    #[test]
    fn mont_neg_inv_is_negative_inverse() {
        for n in [1u64, 3, 5, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5679, 999_999_937] {
            let ninv = mont_neg_inv(n);
            assert_eq!(n.wrapping_mul(ninv), 1u64.wrapping_neg());
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn mont_neg_inv_rejects_even() {
        mont_neg_inv(4);
    }
}
