//! The reusable Montgomery domain context.
//!
//! Montgomery's trick (paper Sec. III-B) replaces the expensive modular
//! reduction in `a*b mod n` with shifts and masks by working in the residue
//! representation `aR mod n` where `R = 2^{w·s}` is a power of the limb
//! base. The paper's Algorithm 1 states it over whole integers:
//!
//! ```text
//! T ← A·B mod R;  M ← T·N' mod R        (mask — the paper's "AND")
//! U ← (A·B + M·N) / R                   (shift)
//! return U - N if U ≥ N else U
//! ```
//!
//! and Algorithm 2 (CIOS) interleaves it word by word, which is what
//! runs: every method of [`MontgomeryCtx`] is a thin wrapper over the
//! fused kernels in [`crate::cios`], and [`MontAcc`] threads their
//! fixed-width buffers through an exponentiation. Algorithm 1 itself
//! survives as the test-only reference the kernels are checked against.

use std::borrow::Cow;

use crate::cios;
use crate::limb::{mont_neg_inv, Limb, LIMB_BITS};
use crate::natural::Natural;
use crate::{Error, Result};

/// Precomputed Montgomery domain for an odd modulus `n`.
///
/// The context fixes the limb width `s = ⌈bits(n)/w⌉` so every value in the
/// domain has the same fixed-size layout the GPU kernels expect.
#[derive(Debug, Clone)]
pub struct MontgomeryCtx {
    n: Natural,
    /// `s`: operand width in limbs; `R = 2^{64·s}`.
    width: usize,
    /// `-n^{-1} mod 2^64` — the single-limb `n'_0` of Algorithm 2.
    n0_inv: Limb,
    /// `R mod n` (the Montgomery form of 1).
    r_mod_n: Natural,
    /// `R² mod n` (converts values *into* the domain with one mont-mul).
    r2_mod_n: Natural,
}

impl MontgomeryCtx {
    /// Builds a context for odd `n > 1`.
    pub fn new(n: &Natural) -> Result<Self> {
        if n.is_even() || n.is_one() || n.is_zero() {
            return Err(Error::EvenModulus);
        }
        let width = n.limb_len();
        let r = Natural::one().shl_bits(n.bit_len().div_ceil(LIMB_BITS) * LIMB_BITS);
        #[expect(
            clippy::indexing_slicing,
            reason = "non-empty: the zero modulus was rejected above"
        )]
        let n0_inv = mont_neg_inv(n.limbs()[0]);
        let r_mod_n = &r % n;
        let r2_mod_n = &(&r_mod_n * &r_mod_n) % n;
        Ok(MontgomeryCtx {
            n: n.clone(),
            width,
            n0_inv,
            r_mod_n,
            r2_mod_n,
        })
    }

    /// The modulus `n`.
    #[inline]
    pub fn modulus(&self) -> &Natural {
        &self.n
    }

    /// Operand width `s` in limbs.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// `log2(R)` in bits: the modulus's bit length rounded up to whole
    /// limbs (`n` has no zero top limb, so that is `64·s`).
    #[inline]
    pub fn r_bits(&self) -> u32 {
        self.n.bit_len().div_ceil(LIMB_BITS) * LIMB_BITS
    }

    /// `n'_0 = -n^{-1} mod 2^64`, consumed by the CIOS kernel.
    #[inline]
    pub fn n0_inv(&self) -> Limb {
        self.n0_inv
    }

    /// The Montgomery form of 1 (`R mod n`).
    #[inline]
    pub fn one_mont(&self) -> Natural {
        self.r_mod_n.clone()
    }

    /// `R² mod n`.
    #[inline]
    pub fn r2(&self) -> &Natural {
        &self.r2_mod_n
    }

    /// `a mod n`, skipping the division when `a` is already reduced.
    pub(crate) fn reduce<'a>(&self, a: &'a Natural) -> Cow<'a, Natural> {
        if a < &self.n {
            Cow::Borrowed(a)
        } else {
            Cow::Owned(a % &self.n)
        }
    }

    /// Converts `a < n` into the Montgomery domain: `aR mod n`.
    pub fn to_mont(&self, a: &Natural) -> Natural {
        self.mont_mul(a, &self.r2_mod_n)
    }

    /// Converts out of the domain: `aR^{-1} mod n` (i.e. REDC of `a`).
    // flcheck: ct-fn
    pub fn from_mont(&self, a: &Natural) -> Natural {
        self.redc(a.clone())
    }

    /// `A·B·R^{-1} mod n` for `A, B < n`, through
    /// [`cios::mont_mul_into`].
    pub fn mont_mul(&self, a: &Natural, b: &Natural) -> Natural {
        debug_assert!(a < &self.n && b < &self.n, "operands must be reduced");
        let s = self.width;
        Natural::from_limbs(cios::mont_mul(
            &a.to_padded_limbs(s),
            &b.to_padded_limbs(s),
            self.n.limbs(),
            self.n0_inv,
        ))
    }

    /// Montgomery reduction of `t < n·R`: returns `t·R^{-1} mod n`,
    /// through [`cios::mont_reduce_into`] — `s²` MACs, half a multiply.
    // flcheck: ct-fn
    pub fn redc(&self, t: Natural) -> Natural {
        let s = self.width;
        let mut out = vec![0; s];
        let mut t = t.to_padded_limbs(cios::scratch_len(s));
        cios::mont_reduce_into(&mut out, &mut t, self.n.limbs(), self.n0_inv);
        Natural::from_limbs(out)
    }

    /// Dedicated Montgomery squaring `A²·R^{-1} mod n` for `A < n`,
    /// through [`cios::mont_sqr_into`] (~25% fewer MACs than
    /// [`MontgomeryCtx::mont_mul`] on equal operands; the result is
    /// bit-identical).
    // flcheck: ct-fn
    pub fn mont_sqr(&self, a: &Natural) -> Natural {
        debug_assert!(a < &self.n, "operand must be reduced");
        let a = a.to_padded_limbs(self.width);
        Natural::from_limbs(cios::mont_sqr(&a, self.n.limbs(), self.n0_inv))
    }

    /// Modular multiplication `a·b mod n` in two kernel calls — the
    /// two-factor [`mod_product`](Self::mod_product). Operands may be
    /// unreduced (Table I `mod_mul`); batch users should stay in the
    /// domain.
    pub fn mod_mul(&self, a: &Natural, b: &Natural) -> Natural {
        self.mod_product(&[a, b])
    }

    /// `∏ factors mod n` as one Montgomery chain: `k` factors cost
    /// `k + O(log k)` kernel calls, where chaining
    /// [`mod_mul`](Self::mod_mul) costs `2(k−1)`.
    ///
    /// Each `mont_mul` by a *canonical* factor strips one `R`, so the
    /// accumulator starts `k` of them ahead — at [`r_power`](Self::r_power)
    /// of `k` — and ends on the canonical product with no conversion in or
    /// out. Factors may be unreduced; one factor is returned reduced, none
    /// is `1`.
    pub fn mod_product(&self, factors: &[&Natural]) -> Natural {
        match factors {
            [] => Natural::one(),
            [only] => self.reduce(only).into_owned(),
            _ => self.product_acc(factors).into_natural(),
        }
    }

    /// The [`mod_product`](Self::mod_product) chain over two or more
    /// factors, on one accumulator and one padded operand buffer.
    fn product_acc(&self, factors: &[&Natural]) -> MontAcc<'_> {
        let mut acc = self.r_power(&Natural::from(factors.len()));
        let mut operand = vec![0; self.width];
        for factor in factors {
            self.load_reduced(&mut operand, factor);
            acc.mul(&operand);
        }
        acc
    }

    /// `R^k mod n` on a fresh accumulator, which has counted the kernel
    /// calls that built it: `k` multiplies by canonical residues started
    /// from it end canonical. `R^k` is the Montgomery form of `R^{k−1}`,
    /// a left-to-right binary power of `R²` (the Montgomery form of `R`)
    /// to the exponent `k − 1`; `k ≤ 2` costs no call.
    pub fn r_power(&self, k: &Natural) -> MontAcc<'_> {
        let s = self.width;
        let Some(exp) = k.checked_sub(&Natural::one()) else {
            return MontAcc::new(self, Natural::one().to_padded_limbs(s));
        };
        let r2 = self.r2_mod_n.to_padded_limbs(s);
        let seed = if exp.is_zero() {
            self.r_mod_n.to_padded_limbs(s)
        } else {
            r2.clone()
        };
        let mut acc = MontAcc::new(self, seed);
        for bit in (0..exp.bit_len().saturating_sub(1)).rev() {
            acc.sqr();
            if exp.bit(bit) {
                acc.mul(&r2);
            }
        }
        acc
    }

    /// The kernel calls [`r_power`](Self::r_power) makes for `k`, as
    /// `(squarings, multiplies)`: the bits of `k − 1` below its top one,
    /// and the set ones among them.
    pub fn r_power_calls(k: &Natural) -> (u64, u64) {
        let exp = k.checked_sub(&Natural::one()).unwrap_or_default();
        let below_top = exp.bit_len().saturating_sub(1);
        let ones = (0..below_top).filter(|&bit| exp.bit(bit)).count();
        (u64::from(below_top), ones as u64)
    }

    /// `∏ factors[j]^(2^(j·shift_bits)) mod n` as one Horner chain — the
    /// shift-and-add of a packed word, carried out in the exponents. From
    /// the last factor down, the accumulator is raised to `2^shift_bits`
    /// by `shift_bits` squarings and multiplied by the next factor: no
    /// window table (each exponent is a single bit) and no round trip
    /// through [`mod_mul`](Self::mod_mul)'s conversions per step.
    ///
    /// A multiply by a canonical factor strips one `R` and squaring would
    /// double that deficit, so each step first multiplies the canonical
    /// accumulator by `R²` — into Montgomery form, which squaring
    /// preserves — and the factor's multiply brings it back out: `k`
    /// factors cost `(k−1)·(shift_bits + 2)` kernel calls and end on the
    /// canonical product. Factors may be unreduced; one factor is returned
    /// reduced, none is `1`.
    pub fn mod_shifted_product(&self, factors: &[&Natural], shift_bits: u32) -> Natural {
        match factors.split_last() {
            None => Natural::one(),
            Some((only, [])) => self.reduce(only).into_owned(),
            Some((top, lower)) => self
                .shifted_product_acc(top, lower, shift_bits)
                .into_natural(),
        }
    }

    /// The [`mod_shifted_product`](Self::mod_shifted_product) chain: `top`
    /// seeds the accumulator and `lower` is multiplied in from its last
    /// factor to its first.
    fn shifted_product_acc(
        &self,
        top: &Natural,
        lower: &[&Natural],
        shift_bits: u32,
    ) -> MontAcc<'_> {
        let r2 = self.r2_mod_n.to_padded_limbs(self.width);
        let mut operand = self.reduce(top).to_padded_limbs(self.width);
        let mut acc = MontAcc::new(self, operand.clone());
        for factor in lower.iter().rev() {
            acc.mul(&r2);
            for _ in 0..shift_bits {
                acc.sqr();
            }
            self.load_reduced(&mut operand, factor);
            acc.mul(&operand);
        }
        acc
    }

    /// Overwrites the `width`-limb `operand` with `factor mod n`.
    fn load_reduced(&self, operand: &mut [Limb], factor: &Natural) {
        let factor = self.reduce(factor);
        // A residue below `n` fits the modulus width.
        let (limbs, padding) = operand.split_at_mut(factor.limb_len());
        limbs.copy_from_slice(factor.limbs());
        padding.fill(0);
    }
}

/// A running product in one Montgomery domain, held as fixed-width limbs.
///
/// Each step has the kernel write into a second buffer and swaps the two,
/// so an exponentiation allocates its accumulator and squaring scratch
/// once instead of once per multiply. Results are canonical residues,
/// bit-identical to chaining [`MontgomeryCtx::mont_mul`] /
/// [`MontgomeryCtx::mont_sqr`].
#[derive(Debug)]
pub struct MontAcc<'a> {
    ctx: &'a MontgomeryCtx,
    acc: Vec<Limb>,
    next: Vec<Limb>,
    scratch: Vec<Limb>,
    /// Kernel calls issued so far.
    calls: u64,
}

impl<'a> MontAcc<'a> {
    /// Starts from `value_m`: a Montgomery-form residue of exactly
    /// `ctx.width()` limbs.
    pub fn new(ctx: &'a MontgomeryCtx, value_m: Vec<Limb>) -> Self {
        let s = ctx.width;
        MontAcc {
            ctx,
            acc: value_m,
            next: vec![0; s],
            scratch: vec![0; cios::scratch_len(s)],
            calls: 0,
        }
    }

    /// `acc ← acc²·R^{-1} mod n`.
    pub fn sqr(&mut self) {
        let (n, n0_inv) = (self.ctx.n.limbs(), self.ctx.n0_inv);
        cios::mont_sqr_into(&mut self.next, &mut self.scratch, &self.acc, n, n0_inv);
        std::mem::swap(&mut self.acc, &mut self.next);
        self.calls += 1;
    }

    /// `acc ← acc·b_m·R^{-1} mod n` for a `ctx.width()`-limb `b_m < n`.
    pub fn mul(&mut self, b_m: &[Limb]) {
        let (n, n0_inv) = (self.ctx.n.limbs(), self.ctx.n0_inv);
        cios::mont_mul_into(&mut self.next, &self.acc, b_m, n, n0_inv);
        std::mem::swap(&mut self.acc, &mut self.next);
        self.calls += 1;
    }

    /// `acc ← value` for a `ctx.width()`-limb residue: a copy, no kernel
    /// call.
    pub fn load(&mut self, value: &[Limb]) {
        self.acc.copy_from_slice(value);
    }

    /// Montgomery kernel calls ([`sqr`](Self::sqr) and
    /// [`mul`](Self::mul)) issued on this accumulator.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// The accumulated residue as `ctx.width()` limbs.
    pub fn as_limbs(&self) -> &[Limb] {
        &self.acc
    }

    /// The accumulated residue, in whatever form the chain left it.
    pub fn into_natural(self) -> Natural {
        Natural::from_limbs(self.acc)
    }
}

/// The paper's Algorithm 1 as three whole-integer products (`A·B`, `·N'`,
/// `·N`) with a compare-and-branch final subtraction: the reference the
/// fused kernels are tested against. Test-only — nothing ships that runs it.
#[cfg(test)]
pub(crate) fn algorithm1_mont_mul(ctx: &MontgomeryCtx, a: &Natural, b: &Natural) -> Natural {
    let (n, r_bits) = (ctx.modulus(), ctx.r_bits());
    let r = Natural::one().shl_bits(r_bits);
    // N' = -n^{-1} mod R.
    let n_prime = r
        .checked_sub(&crate::gcd::mod_inv(n, &r).unwrap())
        .unwrap()
        .low_bits(r_bits);
    let t = a * b;
    let m = (&t.low_bits(r_bits) * &n_prime).low_bits(r_bits);
    let u = (&t + &(&m * n)).shr_bits(r_bits);
    u.checked_sub(n).unwrap_or(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    fn ctx(modulus: u128) -> MontgomeryCtx {
        MontgomeryCtx::new(&n(modulus)).unwrap()
    }

    #[test]
    fn rejects_even_or_trivial_modulus() {
        assert_eq!(MontgomeryCtx::new(&n(10)).unwrap_err(), Error::EvenModulus);
        assert_eq!(MontgomeryCtx::new(&n(1)).unwrap_err(), Error::EvenModulus);
        assert_eq!(MontgomeryCtx::new(&n(0)).unwrap_err(), Error::EvenModulus);
    }

    #[test]
    fn domain_roundtrip() {
        let c = ctx(1_000_000_007);
        for v in [0u128, 1, 2, 999_999_999, 1_000_000_006] {
            let m = c.to_mont(&n(v));
            assert_eq!(c.from_mont(&m), n(v), "roundtrip {v}");
        }
    }

    #[test]
    fn mont_mul_matches_plain_modmul() {
        let p = 0xFFFF_FFFF_FFFF_FFC5u128; // largest 64-bit prime
        let c = ctx(p);
        let cases = [(3u128, 5u128), (p - 1, p - 1), (12345, 67890), (0, 42)];
        for (a, b) in cases {
            let am = c.to_mont(&n(a));
            let bm = c.to_mont(&n(b));
            let prod = c.from_mont(&c.mont_mul(&am, &bm));
            assert_eq!(prod, n((a * b) % p), "{a}*{b} mod p");
        }
    }

    #[test]
    fn one_mont_is_identity() {
        let c = ctx(999_999_937);
        let x = c.to_mont(&n(123_456));
        assert_eq!(c.mont_mul(&x, &c.one_mont()), x);
        assert_eq!(c.from_mont(&c.one_mont()), Natural::one());
    }

    #[test]
    fn mod_mul_reduces_unreduced_inputs() {
        let c = ctx(97);
        assert_eq!(c.mod_mul(&n(100), &n(200)), n((100 * 200) % 97));
    }

    #[test]
    fn multi_limb_modulus() {
        // 2^127 - 1 is a Mersenne prime — exercises a 2-limb context.
        let p = (1u128 << 127) - 1;
        let c = ctx(p);
        assert_eq!(c.width(), 2);
        let a = (1u128 << 100) + 7;
        let b = (1u128 << 101) + 13;
        let am = c.to_mont(&n(a));
        let bm = c.to_mont(&n(b));
        let got = c.from_mont(&c.mont_mul(&am, &bm));
        // Reference product via Natural arithmetic.
        let expected = &(&n(a) * &n(b)) % &n(p);
        assert_eq!(got, expected);
    }

    proptest! {
        /// The fused kernels against the paper's Algorithm 1, operands and
        /// moduli of 1..=33 limbs with the modulus' top limb saturated
        /// half the time (the widths where the split accumulator's top
        /// bit and the deferred reduction carry come into play).
        #[test]
        fn fused_kernels_match_algorithm1(
            a in proptest::collection::vec(any::<u64>(), 0..=33),
            b in proptest::collection::vec(any::<u64>(), 0..=33),
            modulus in proptest::collection::vec(any::<u64>(), 1..=33),
            saturate_top in any::<bool>(),
        ) {
            let mut modulus = modulus;
            modulus[0] |= 1;
            let last = modulus.len() - 1;
            modulus[last] |= if saturate_top { u64::MAX } else { 1 << 63 };
            let modulus = Natural::from_limbs(modulus);
            let c = MontgomeryCtx::new(&modulus).unwrap();
            let a = &Natural::from_limbs(a) % &modulus;
            let b = &Natural::from_limbs(b) % &modulus;
            prop_assert_eq!(c.mont_mul(&a, &b), algorithm1_mont_mul(&c, &a, &b));
            prop_assert_eq!(c.mont_sqr(&a), algorithm1_mont_mul(&c, &a, &a));
            prop_assert_eq!(c.from_mont(&a), algorithm1_mont_mul(&c, &a, &Natural::one()));
        }
    }

    #[test]
    fn acc_chain_matches_natural_chain() {
        // 2^127 - 1: a 2-limb context, short residues get padded.
        let c = ctx((1u128 << 127) - 1);
        let s = c.width();
        let (x, y) = (c.to_mont(&n(3)), c.to_mont(&n((1 << 100) + 7)));
        let mut acc = MontAcc::new(&c, x.to_padded_limbs(s));
        acc.sqr();
        acc.mul(&y.to_padded_limbs(s));
        acc.sqr();
        let expected = c.mont_sqr(&c.mont_mul(&c.mont_sqr(&x), &y));
        assert_eq!(acc.into_natural(), expected);
    }

    /// `k` factors cost one multiply each plus the `R^k` power — at most
    /// `⌈log₂ k⌉ − 1` squarings and as many multiplies — where chaining
    /// `mod_mul` costs `2(k−1)`.
    #[test]
    fn product_chain_issues_k_plus_log_k_kernel_calls() {
        let c = ctx((1u128 << 127) - 1);
        let x = n((1 << 100) + 7);
        let calls = |k: usize| c.product_acc(&vec![&x; k]).calls();
        for k in 2..=130usize {
            let ceil_log2 = u64::from(k.next_power_of_two().trailing_zeros());
            let bound = k as u64 + 2 * ceil_log2 + 1;
            assert!((k as u64..=bound).contains(&calls(k)), "k = {k}");
        }
        assert_eq!(calls(2), 2, "an addition stays two kernel calls");
        assert_eq!(calls(128), 140, "against 254 chained");
        assert_eq!(calls(129), 136);
    }

    /// Each factor after the first costs its squarings, the `R²` multiply
    /// that keeps them in the domain, and its own multiply — nothing per
    /// chain on top — and the result is `∏ fⱼ^(2^(j·w))`.
    #[test]
    fn shifted_product_is_a_horner_chain_of_k_minus_1_times_w_plus_2_calls() {
        let c = ctx((1u128 << 127) - 1);
        let p = c.modulus().clone();
        let factors = [n((1 << 100) + 7), n(3), (&p + &n(5)), n((1 << 90) + 11)];
        for w in [0u32, 1, 5, 42] {
            for k in 2..=factors.len() {
                let refs: Vec<&Natural> = factors[..k].iter().collect();
                let (top, lower) = refs.split_last().unwrap();
                let calls = c.shifted_product_acc(top, lower, w).calls();
                assert_eq!(calls, (k as u64 - 1) * (u64::from(w) + 2), "k {k} w {w}");
                let mut expected = Natural::one();
                for (j, f) in (0u32..).zip(&factors[..k]) {
                    let e = Natural::one().shl_bits(j * w);
                    let term = crate::modpow::mod_pow(&(f % &p), &e, &p).unwrap();
                    expected = &(&expected * &term) % &p;
                }
                assert_eq!(c.mod_shifted_product(&refs, w), expected, "k {k} w {w}");
            }
        }
        assert_eq!(c.mod_shifted_product(&[], 9), Natural::one());
        assert_eq!(c.mod_shifted_product(&[&(&p + &n(5))], 9), n(5));
    }

    #[test]
    fn redc_of_zero_is_zero() {
        let c = ctx(101);
        assert!(c.redc(Natural::zero()).is_zero());
    }

    /// Boundary check for the constant-time final subtraction: feeding
    /// `t = u·R` into REDC makes `M = 0`, so the output is exactly
    /// `u - n if u >= n else u`. Exercises `u = n-1`, `u = n`, `u = 2n-1`
    /// on single- and multi-limb moduli and must agree bit-for-bit with
    /// the reference `% n`.
    #[test]
    fn redc_final_subtraction_boundaries() {
        for modulus in [n(101), n(0xFFFF_FFFF_FFFF_FFC5), n((1u128 << 127) - 1)] {
            let c = MontgomeryCtx::new(&modulus).unwrap();
            let one = Natural::one();
            let u_values = [
                modulus.checked_sub(&one).unwrap(), // n - 1: no subtract
                modulus.clone(),                    // n: subtract to zero
                (&modulus + &modulus).checked_sub(&one).unwrap(), // 2n - 1: subtract
            ];
            for u in u_values {
                let t = u.shl_bits(c.r_bits());
                let got = c.redc(t);
                let expected = &u % &modulus;
                assert_eq!(got, expected, "redc boundary u={u} mod {modulus}");
            }
        }
    }
}
