//! Multi-precision division: Knuth's Algorithm D.
//!
//! The paper replaces "complex division and rest operations" on the GPU
//! with repeated multiply/subtract refinement (Sec. IV-A1); on the CPU we
//! keep the textbook Algorithm D (TAOCP Vol. 2, 4.3.1), which the GPU
//! variant must agree with — the agreement is property-tested in
//! `crates/mpint/tests`.

#![expect(
    clippy::indexing_slicing,
    reason = "Algorithm D addresses `u[j+n]`-style windows whose bounds come from the \
              normalised operand widths; the indices mirror TAOCP's notation and are \
              covered by the property tests"
)]

use crate::limb::{adc, div2by1, mul_wide, sbb, Limb, LIMB_BITS};
use crate::natural::Natural;
use crate::{Error, Result};

/// Computes `(a / b, a % b)`.
pub(crate) fn div_rem(a: &Natural, b: &Natural) -> Result<(Natural, Natural)> {
    if b.is_zero() {
        return Err(Error::DivisionByZero);
    }
    if a < b {
        return Ok((Natural::zero(), a.clone()));
    }
    if b.limb_len() == 1 {
        let (q, r) = a.div_rem_small(b.limbs()[0]);
        return Ok((q, Natural::from(r)));
    }
    Ok(knuth_d(a, b))
}

/// Algorithm D for divisors of at least two limbs.
fn knuth_d(a: &Natural, b: &Natural) -> (Natural, Natural) {
    let n = b.limb_len();
    let m = a.limb_len() - n;

    // D1: normalize so the divisor's top bit is set, making the quotient
    // estimate off by at most 2.
    let shift = b.limbs().last().map_or(0, |l| l.leading_zeros());
    let v = shl_bits(b.limbs(), shift);
    let mut u = shl_bits_ext(a.limbs(), shift); // one extra high limb

    let mut q = vec![0 as Limb; m + 1];
    let v_top = v[n - 1];
    let v_next = v[n - 2];

    // D2–D7: main loop over quotient digits, most significant first.
    for j in (0..=m).rev() {
        // D3: estimate q̂ from the top two dividend limbs. Normalization
        // keeps u[j+n] <= v_top; equality means q̂ starts at B-1 with
        // r̂ = u[j+n-1] + v_top (refinement is moot if r̂ overflows B).
        let (mut qhat, mut rhat, refine) = if u[j + n] >= v_top {
            let (r, overflow) = u[j + n - 1].overflowing_add(v_top);
            (Limb::MAX, r, !overflow)
        } else {
            let (q, r) = div2by1(u[j + n], u[j + n - 1], v_top);
            (q, r, true)
        };
        // Refine: while q̂ * v[n-2] > r̂*B + u[j+n-2], decrement q̂.
        if refine {
            loop {
                let (lo, hi) = mul_wide(qhat, v_next);
                if hi > rhat || (hi == rhat && lo > u[j + n - 2]) {
                    qhat -= 1;
                    let (r, overflow) = rhat.overflowing_add(v_top);
                    if overflow {
                        break; // r̂ >= B: test can no longer fail
                    }
                    rhat = r;
                } else {
                    break;
                }
            }
        }

        // D4: multiply-subtract u[j..j+n+1] -= q̂ * v.
        let borrow = u_submul(&mut u, j, &v, qhat, n);
        // D5–D6: if it went negative, add one v back and decrement q̂.
        if borrow {
            qhat -= 1;
            let mut carry = 0;
            for i in 0..n {
                let (s, c) = adc(u[j + i], v[i], carry);
                u[j + i] = s;
                carry = c;
            }
            u[j + n] = u[j + n].wrapping_add(carry);
        }
        q[j] = qhat;
    }

    // D8: denormalize the remainder.
    let rem = shr_bits(&u[..n], shift);
    (Natural::from_limbs(q), Natural::from_limbs(rem))
}

/// `u[j..j+n+1] -= qhat * v[..n]`; returns true if the subtraction
/// borrowed out (q̂ was one too large).
fn u_submul(u: &mut [Limb], j: usize, v: &[Limb], qhat: Limb, n: usize) -> bool {
    let mut borrow: Limb = 0;
    let mut carry: Limb = 0;
    for i in 0..n {
        let (plo, phi) = mul_wide(qhat, v[i]);
        let (plo, c0) = adc(plo, carry, 0);
        carry = phi.wrapping_add(c0);
        let (d, br) = sbb(u[j + i], plo, borrow);
        u[j + i] = d;
        borrow = br;
    }
    let (d, br) = sbb(u[j + n], carry, borrow);
    u[j + n] = d;
    br != 0
}

/// Shifts limbs left by `shift < 64` bits, same length.
fn shl_bits(limbs: &[Limb], shift: u32) -> Vec<Limb> {
    if shift == 0 {
        return limbs.to_vec();
    }
    let mut out = Vec::with_capacity(limbs.len());
    let mut carry = 0;
    for &l in limbs {
        out.push((l << shift) | carry);
        carry = l >> (LIMB_BITS - shift);
    }
    debug_assert_eq!(carry, 0, "caller guarantees top bits are free");
    out
}

/// Shifts limbs left by `shift < 64` bits, with one extra high limb.
fn shl_bits_ext(limbs: &[Limb], shift: u32) -> Vec<Limb> {
    let mut out = Vec::with_capacity(limbs.len() + 1);
    if shift == 0 {
        out.extend_from_slice(limbs);
        out.push(0);
        return out;
    }
    let mut carry = 0;
    for &l in limbs {
        out.push((l << shift) | carry);
        carry = l >> (LIMB_BITS - shift);
    }
    out.push(carry);
    out
}

/// Shifts limbs right by `shift < 64` bits.
fn shr_bits(limbs: &[Limb], shift: u32) -> Vec<Limb> {
    if shift == 0 {
        return limbs.to_vec();
    }
    let mut out = vec![0; limbs.len()];
    let mut carry = 0;
    for i in (0..limbs.len()).rev() {
        out[i] = (limbs[i] >> shift) | carry;
        carry = limbs[i] << (LIMB_BITS - shift);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn division_by_zero_is_error() {
        assert_eq!(
            div_rem(&n(5), &Natural::zero()).unwrap_err(),
            Error::DivisionByZero
        );
    }

    #[test]
    fn small_dividend_short_circuits() {
        let (q, r) = div_rem(&n(5), &n(7)).unwrap();
        assert!(q.is_zero());
        assert_eq!(r, n(5));
    }

    #[test]
    fn u128_cases_match_native() {
        let cases = [
            (u128::MAX, 3u128),
            (u128::MAX, u64::MAX as u128 + 1),
            (u128::MAX - 1, u128::MAX),
            ((1u128 << 100) + 12345, (1u128 << 65) + 7),
            (1u128 << 127, (1u128 << 64) - 1),
        ];
        for (a, b) in cases {
            let (q, r) = div_rem(&n(a), &n(b)).unwrap();
            assert_eq!(q, n(a / b), "{a} / {b}");
            assert_eq!(r, n(a % b), "{a} % {b}");
        }
    }

    #[test]
    fn reconstruction_identity_large() {
        // (a*b + r) / b == a with r < b, using multi-limb operands.
        let mut la = vec![0u64; 17];
        let mut lb = vec![0u64; 9];
        let mut x: u64 = 42;
        for l in la.iter_mut().chain(lb.iter_mut()) {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            *l = x;
        }
        let a = Natural::from_limbs(la);
        let b = Natural::from_limbs(lb);
        let r = n(123_456);
        assert!(r < b);
        let v = &(&a * &b) + &r;
        let (q, rem) = div_rem(&v, &b).unwrap();
        assert_eq!(q, a);
        assert_eq!(rem, r);
    }

    #[test]
    fn qhat_correction_path() {
        // Crafted so the initial q̂ estimate is too large and must be
        // corrected (top limbs of dividend close to divisor's).
        let a = Natural::from_limbs(vec![0, u64::MAX, u64::MAX - 1]);
        let b = Natural::from_limbs(vec![u64::MAX, u64::MAX]);
        let (q, r) = div_rem(&a, &b).unwrap();
        let recon = &(&q * &b) + &r;
        assert_eq!(recon, a);
        assert!(r < b);
    }

    #[test]
    fn exact_division_has_zero_remainder() {
        let b = Natural::from_limbs(vec![0xDEAD_BEEF, 0xCAFE_BABE, 7]);
        let q = Natural::from_limbs(vec![3, 0, 0, 11]);
        let a = &b * &q;
        let (qq, rr) = div_rem(&a, &b).unwrap();
        assert_eq!(qq, q);
        assert!(rr.is_zero());
    }
}
