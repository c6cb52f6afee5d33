//! Constant-time limb-vector primitives.
//!
//! The Montgomery kernels in [`crate::montgomery`] and [`crate::cios`] run
//! over secret values (Paillier/RSA plaintexts, private exponents), so
//! their final reduction must not branch on limb data: the classic leak is
//! the data-dependent "subtract `n` if `u >= n`" at the end of REDC, which
//! a timing observer can use to recover bits of the secret operand
//! (Walter & Thompson, CT-RSA 2001). Every helper here runs the same
//! instruction sequence for every input value of a given length: secrets
//! influence only *data* (masks computed from borrows), never control
//! flow or memory addresses. Lengths are public values throughout.
//!
//! `flcheck`'s ct-discipline rule recognises the `// flcheck: ct-fn`
//! marker on these functions and verifies the bodies stay branch-free.

use crate::limb::{sbb, Limb, LIMB_BITS};

/// Returns `1` if `x == 0`, else `0`, without branching on `x`.
// flcheck: ct-fn
// flcheck: secret(x)
#[inline]
#[must_use]
pub fn ct_is_zero(x: Limb) -> Limb {
    // For x != 0, `x | -x` has the top bit set; for x == 0 it is zero.
    let t = x | x.wrapping_neg();
    (t >> (LIMB_BITS - 1)) ^ 1
}

/// Returns all-ones if `flag == 1`, all-zeros if `flag == 0`.
// flcheck: ct-fn
// flcheck: secret(flag)
#[inline]
#[must_use]
pub fn ct_mask(flag: Limb) -> Limb {
    debug_assert!(flag <= 1);
    flag.wrapping_neg()
}

/// Selects `a` where `mask` is all-ones, `b` where it is all-zeros.
// flcheck: ct-fn
// flcheck: secret(mask, a, b)
#[inline]
#[must_use]
pub fn ct_select(mask: Limb, a: Limb, b: Limb) -> Limb {
    (a & mask) | (b & !mask)
}

/// Returns `1` if the limb vectors are equal, else `0`, scanning every
/// limb regardless of where the first difference occurs.
///
/// Both slices must have the same (public) length.
// flcheck: ct-fn
// flcheck: secret(a, b)
#[must_use]
pub fn ct_eq(a: &[Limb], b: &[Limb]) -> Limb {
    debug_assert_eq!(a.len(), b.len(), "ct_eq operands must share a width");
    let mut acc: Limb = 0;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    ct_is_zero(acc)
}

/// Returns `1` if `a < b` (as little-endian limb vectors of equal public
/// length), else `0`, via a full borrow chain — no early exit.
// flcheck: ct-fn
// flcheck: secret(a, b)
#[must_use]
pub fn ct_lt(a: &[Limb], b: &[Limb]) -> Limb {
    debug_assert_eq!(a.len(), b.len(), "ct_lt operands must share a width");
    let mut borrow: Limb = 0;
    for (x, y) in a.iter().zip(b.iter()) {
        let (_, br) = sbb(*x, *y, borrow);
        borrow = br;
    }
    borrow
}

/// In-place conditional selection over limb vectors: where `mask` is
/// all-ones, `dst` keeps its value; where all-zeros, `dst` takes `src`.
// flcheck: ct-fn
// flcheck: secret(mask, dst, src)
pub fn ct_select_limbs(mask: Limb, dst: &mut [Limb], src: &[Limb]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = ct_select(mask, *d, *s);
    }
}

/// Masked table fetch: copies entry `index` of a flat table of
/// `out.len()`-limb entries into `out`, reading **every** entry whatever
/// `index` is — entry `k` is kept under the mask `k == index` and dropped
/// under its complement, so neither the addresses touched nor the
/// instructions run depend on the (secret) index. An `index` past the
/// table yields zeros. The entry width and the table length are public.
// flcheck: ct-fn
// flcheck: secret(index)
pub fn ct_lookup_limbs(out: &mut [Limb], table: &[Limb], index: Limb) {
    debug_assert!(!out.is_empty(), "table entries are at least one limb");
    debug_assert_eq!(table.len() % out.len(), 0, "table must be whole entries");
    out.fill(0);
    for (k, entry) in (0..).zip(table.chunks_exact(out.len())) {
        // Opaque to the optimizer: given a mask it can test for zero,
        // rustc 1.95 at opt-level 3 branches around the entry's loads,
        // which puts the index back into the access pattern (a no-match
        // scan of a 64 MiB table took 25 µs; it takes 9 ms now).
        let mask = std::hint::black_box(ct_mask(ct_is_zero(k ^ index)));
        for (o, &e) in out.iter_mut().zip(entry) {
            *o |= e & mask;
        }
    }
}

/// `n` zero-extended without bound: zipped against a wider `t`, it lines
/// `n`'s limbs up with `t`'s low words and feeds zeros to the rest.
fn zero_extended(n: &[Limb]) -> impl Iterator<Item = Limb> + '_ {
    n.iter().copied().chain(std::iter::repeat(0))
}

/// Masked subtraction `t ← t − (n & mask)` over `t`'s full (public)
/// width, `n` virtually zero-extended: a no-op pass when `mask` is
/// all-zeros, the same instruction sequence either way. Returns the
/// borrow out of the top word (the split accumulator of [`crate::cios`]
/// cancels it against its top bit).
// flcheck: ct-fn
// flcheck: secret(t, mask)
pub fn ct_sub_masked(t: &mut [Limb], n: &[Limb], mask: Limb) -> Limb {
    debug_assert!(t.len() >= n.len(), "t must be at least as wide as n");
    let mut borrow: Limb = 0;
    for (ti, ni) in t.iter_mut().zip(zero_extended(n)) {
        (*ti, borrow) = sbb(*ti, ni & mask, borrow);
    }
    borrow
}

/// Constant-time final reduction: subtracts `n` from `t` exactly when
/// `t >= n`, returning `1` if the subtraction happened and `0` otherwise.
///
/// `n` is virtually zero-extended to `t.len()`; the caller guarantees
/// `t < 2n` so a single conditional subtraction fully reduces. Two full
/// passes run for every input: a borrow-only probe that decides the mask,
/// then [`ct_sub_masked`] — the sequence of executed instructions and
/// touched addresses depends only on the public lengths.
// flcheck: ct-fn
// flcheck: secret(t)
pub fn ct_ge_then_sub(t: &mut [Limb], n: &[Limb]) -> Limb {
    debug_assert!(t.len() >= n.len(), "t must be at least as wide as n");
    // Probe the borrow of t - n over the full width: none ⟺ t >= n.
    let mut borrow: Limb = 0;
    for (&ti, ni) in t.iter().zip(zero_extended(n)) {
        (_, borrow) = sbb(ti, ni, borrow);
    }
    let did_sub = ct_is_zero(borrow);
    let borrow = ct_sub_masked(t, n, ct_mask(did_sub));
    debug_assert_eq!(borrow, 0, "caller must guarantee t < 2n");
    did_sub
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::natural::Natural;

    #[test]
    fn is_zero_and_mask() {
        assert_eq!(ct_is_zero(0), 1);
        assert_eq!(ct_is_zero(1), 0);
        assert_eq!(ct_is_zero(Limb::MAX), 0);
        assert_eq!(ct_mask(0), 0);
        assert_eq!(ct_mask(1), Limb::MAX);
    }

    #[test]
    fn select_picks_by_mask() {
        assert_eq!(ct_select(Limb::MAX, 7, 9), 7);
        assert_eq!(ct_select(0, 7, 9), 9);
        let mut dst = [1, 2, 3];
        ct_select_limbs(0, &mut dst, &[4, 5, 6]);
        assert_eq!(dst, [4, 5, 6]);
        let mut dst = [1, 2, 3];
        ct_select_limbs(Limb::MAX, &mut dst, &[4, 5, 6]);
        assert_eq!(dst, [1, 2, 3]);
    }

    #[test]
    fn eq_scans_all_limbs() {
        assert_eq!(ct_eq(&[1, 2, 3], &[1, 2, 3]), 1);
        assert_eq!(ct_eq(&[1, 2, 3], &[1, 2, 4]), 0);
        assert_eq!(ct_eq(&[0, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(ct_eq(&[], &[]), 1);
    }

    #[test]
    fn lt_matches_natural_ordering() {
        let cases: [(&[Limb], &[Limb]); 5] = [
            (&[1, 0], &[2, 0]),
            (&[2, 0], &[1, 0]),
            (&[0, 1], &[Limb::MAX, 0]),
            (&[5, 5], &[5, 5]),
            (&[Limb::MAX, Limb::MAX], &[0, 0]),
        ];
        for (a, b) in cases {
            let expected = Natural::from_limbs(a.to_vec()) < Natural::from_limbs(b.to_vec());
            assert_eq!(ct_lt(a, b), expected as Limb, "{a:?} < {b:?}");
        }
    }

    #[test]
    fn lookup_returns_entry_k_for_every_k() {
        for width in [1usize, 2, 5] {
            for entries in [1usize, 2, 3, 16, 64] {
                // Entry k holds k·width+1 .. k·width+width: all distinct,
                // none zero.
                let table: Vec<Limb> = (1..=(entries * width) as Limb).collect();
                for k in 0..entries {
                    let mut out = vec![Limb::MAX; width]; // stale contents must not leak
                    ct_lookup_limbs(&mut out, &table, k as Limb);
                    assert_eq!(
                        out,
                        table[k * width..(k + 1) * width],
                        "{entries}x{width}[{k}]"
                    );
                }
                let mut out = vec![Limb::MAX; width];
                ct_lookup_limbs(&mut out, &table, entries as Limb);
                assert_eq!(out, vec![0; width], "index past the table");
            }
        }
    }

    fn check_reduce(t: &Natural, n: &Natural, width: usize) {
        let mut limbs = t.to_padded_limbs(width);
        let did = ct_ge_then_sub(&mut limbs, &n.to_padded_limbs(n.limb_len()));
        let expected = if t >= n {
            t.checked_sub(n).expect("t >= n")
        } else {
            t.clone()
        };
        assert_eq!(Natural::from_limbs(limbs), expected, "reduce {t} mod {n}");
        assert_eq!(did, (t >= n) as Limb);
    }

    #[test]
    fn ge_then_sub_boundary_inputs() {
        // The three boundary cases from the spec: u = n-1, u = n, u = 2n-1,
        // on single- and multi-limb moduli (including limb-edge values).
        let moduli = [
            Natural::from(3u64),
            Natural::from(0xFFFF_FFFF_FFFF_FFC5u64),
            Natural::from((1u128 << 127) - 1),
            Natural::from_limbs(vec![u64::MAX - 2, u64::MAX, u64::MAX, 1]),
        ];
        let one = Natural::one();
        for n in &moduli {
            let width = n.limb_len() + 1;
            let u_nm1 = n.checked_sub(&one).expect("n > 0");
            let u_2nm1 = &(n + n).checked_sub(&one).expect("2n > 0");
            check_reduce(&u_nm1, n, width);
            check_reduce(n, n, width);
            check_reduce(u_2nm1, n, width);
            check_reduce(&Natural::zero(), n, width);
            check_reduce(&one, n, width);
        }
    }

    #[test]
    fn ge_then_sub_zero_extends_n() {
        // t wider than n, top words zero / nonzero.
        let n = Natural::from(1_000_000_007u64);
        let t = Natural::from(1_999_999_999u64); // < 2n, > n
        let mut limbs = t.to_padded_limbs(4);
        let did = ct_ge_then_sub(&mut limbs, &n.to_padded_limbs(1));
        assert_eq!(did, 1);
        assert_eq!(
            Natural::from_limbs(limbs),
            t.checked_sub(&n).expect("t > n")
        );
    }
}
