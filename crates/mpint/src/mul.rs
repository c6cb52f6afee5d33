//! Multi-precision multiplication: schoolbook and Karatsuba.
//!
//! The paper's GPU kernel multiplies limb-by-limb across threads
//! (Sec. IV-A1: "multiply the limbs with the limbs in other threads one by
//! one, aggregate and propagate"); the CPU reference here is the classic
//! operand-scanning schoolbook product, with Karatsuba above a tuned
//! threshold for the large operands produced by 2048/4096-bit keys.

#![expect(
    clippy::indexing_slicing,
    reason = "product indices `out[i + j]` are bounded by the `a.len() + b.len()` \
              allocation; this is the workspace's second hottest loop after CIOS"
)]

use crate::limb::{mac, Limb};
use crate::natural::Natural;

/// Operand size (in limbs) above which Karatsuba beats schoolbook.
///
/// Fitted once on the development host and not re-fitted since: the
/// Montgomery kernels never form a whole-integer product, so no hot path
/// depends on it (DESIGN.md §5, item 6).
pub(crate) const KARATSUBA_THRESHOLD: usize = 24;

/// Dispatching product used by the `Mul` operator impls.
pub(crate) fn mul(a: &Natural, b: &Natural) -> Natural {
    if a.is_zero() || b.is_zero() {
        return Natural::zero();
    }
    let (small, large) = if a.limb_len() <= b.limb_len() {
        (a, b)
    } else {
        (b, a)
    };
    if small.limb_len() < KARATSUBA_THRESHOLD {
        schoolbook(a.limbs(), b.limbs())
    } else {
        karatsuba(large.limbs(), small.limbs())
    }
}

/// Schoolbook (operand-scanning) multiplication, `O(n*m)` limb products.
pub(crate) fn schoolbook(a: &[Limb], b: &[Limb]) -> Natural {
    let mut out = vec![0 as Limb; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue; // common for padded operands
        }
        let mut carry = 0;
        for (j, &bj) in b.iter().enumerate() {
            let (lo, hi) = mac(bj, ai, out[i + j], carry);
            out[i + j] = lo;
            carry = hi;
        }
        out[i + b.len()] = carry;
    }
    Natural::from_limbs(out)
}

/// Karatsuba multiplication: splits each operand at `m = max/2` limbs and
/// recombines three half-size products, `O(n^1.585)`.
fn karatsuba(a: &[Limb], b: &[Limb]) -> Natural {
    debug_assert!(a.len() >= b.len());
    if b.len() < KARATSUBA_THRESHOLD {
        return schoolbook(a, b);
    }
    let m = a.len() / 2;
    // a = a1*B^m + a0 ; b = b1*B^m + b0 (b1 may be empty)
    let (a0s, a1s) = a.split_at(m.min(a.len()));
    let (b0s, b1s) = b.split_at(m.min(b.len()));
    let a0 = Natural::from_limbs(a0s.to_vec());
    let a1 = Natural::from_limbs(a1s.to_vec());
    let b0 = Natural::from_limbs(b0s.to_vec());
    let b1 = Natural::from_limbs(b1s.to_vec());

    let z0 = mul(&a0, &b0);
    let z2 = mul(&a1, &b1);
    // z1 = (a0+a1)(b0+b1) - z0 - z2
    let z1 = {
        let sa = &a0 + &a1;
        let sb = &b0 + &b1;
        // (a0+a1)(b0+b1) = z0 + z2 + a0*b1 + a1*b0 >= z0 + z2, so the
        // middle term is non-negative and the subtractions cannot fail.
        let p = mul(&sa, &sb);
        p.checked_sub(&z0)
            .and_then(|t| t.checked_sub(&z2))
            .unwrap_or_default()
    };

    // result = z2*B^{2m} + z1*B^m + z0
    let mut acc = shl_limbs(&z2, 2 * m);
    acc.add_assign_ref(&shl_limbs(&z1, m));
    acc.add_assign_ref(&z0);
    acc
}

/// Multiplies by `B^limbs` (limb-granularity left shift).
fn shl_limbs(v: &Natural, limbs: usize) -> Natural {
    if v.is_zero() {
        return Natural::zero();
    }
    let mut out = vec![0; limbs + v.limb_len()];
    out[limbs..].copy_from_slice(v.limbs());
    Natural::from_limbs(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn schoolbook_matches_u128() {
        let cases = [
            (0u128, 0u128),
            (1, u64::MAX as u128),
            (u64::MAX as u128, u64::MAX as u128),
            (123_456_789, 987_654_321),
        ];
        for (a, b) in cases {
            assert_eq!(mul(&n(a), &n(b)), Natural::from(a * b), "{a} * {b}");
        }
    }

    #[test]
    fn mul_commutes() {
        let a = n(0xDEAD_BEEF_CAFE_BABE);
        let b = n(0x1234_5678_9ABC_DEF0_1111);
        assert_eq!(mul(&a, &b), mul(&b, &a));
    }

    #[test]
    fn karatsuba_matches_schoolbook_on_large_operands() {
        // Build two ~40-limb pseudorandom operands deterministically.
        let mut limbs_a = Vec::new();
        let mut limbs_b = Vec::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..40u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            limbs_a.push(x);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i * 7 + 1);
            limbs_b.push(x);
        }
        let a = Natural::from_limbs(limbs_a);
        let b = Natural::from_limbs(limbs_b);
        assert_eq!(
            karatsuba(a.limbs(), b.limbs()),
            schoolbook(a.limbs(), b.limbs())
        );
    }

    #[test]
    fn karatsuba_handles_skewed_sizes() {
        let mut big = vec![0u64; 60];
        for (i, l) in big.iter_mut().enumerate() {
            *l = (i as u64).wrapping_mul(0xABCD_EF01_2345_6789) | 1;
        }
        let a = Natural::from_limbs(big);
        let b = Natural::from_limbs(vec![u64::MAX; 25]);
        assert_eq!(mul(&a, &b), schoolbook(a.limbs(), b.limbs()));
    }

    #[test]
    fn mul_by_power_of_two_is_shift() {
        let a = n(0x0123_4567_89AB_CDEF);
        let two64 = Natural::from_limbs(vec![0, 1]);
        let prod = mul(&a, &two64);
        assert_eq!(prod.limbs()[0], 0);
        assert_eq!(prod.limbs()[1], 0x0123_4567_89AB_CDEF);
    }
}
