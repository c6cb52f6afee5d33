//! The [`Natural`] arbitrary-precision unsigned integer.
//!
//! Representation: little-endian `u64` limbs with no trailing zero limbs
//! (the canonical form of the paper's base-`2^w` "FRNS" layout, Sec.
//! IV-A1). The empty limb vector represents zero. An integer of `k` bits
//! occupies `s = ceil(k / w)` limbs, matching the paper's `s = ⌈k/w⌉`.

#![expect(
    clippy::indexing_slicing,
    reason = "limb indices in this module are bounded by `limbs.len()` loop ranges or \
              by widths established on entry; `.get()` in these inner loops costs \
              measurable throughput in the mont-mul benches"
)]

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Rem, Sub, SubAssign};

use crate::limb::{adc, sbb, split, Limb, LIMB_BITS};

/// An arbitrary-precision unsigned integer.
///
/// `Natural` is the plaintext/ciphertext/key carrier for every layer above
/// (`he`, `codec`, `flbooster-core`). Arithmetic is implemented on
/// references to avoid cloning in hot loops; owned operators are provided
/// for convenience.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Natural {
    pub(crate) limbs: Vec<Limb>,
}

impl Natural {
    /// The value 0.
    pub const fn zero() -> Self {
        Natural { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        Natural { limbs: vec![1] }
    }

    /// Constructs from little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(mut limbs: Vec<Limb>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Natural { limbs }
    }

    /// Borrows the little-endian limb slice (no trailing zeros).
    #[inline]
    pub fn limbs(&self) -> &[Limb] {
        &self.limbs
    }

    /// Returns the limbs zero-padded to exactly `width` limbs.
    ///
    /// This is the fixed-width layout handed to GPU kernels, where every
    /// operand of a key-size-`k` cryptosystem occupies `s = ⌈k/w⌉` words
    /// regardless of its magnitude.
    ///
    /// # Panics
    ///
    /// Panics if the value needs more than `width` limbs.
    pub fn to_padded_limbs(&self, width: usize) -> Vec<Limb> {
        // Documented panic: a silently-truncated operand would corrupt
        // every downstream Montgomery multiplication.
        // flcheck: allow(pf-assert)
        assert!(
            self.limbs.len() <= width,
            "value of {} limbs does not fit padded width {}",
            self.limbs.len(),
            width
        );
        let mut out = self.limbs.clone();
        out.resize(width, 0);
        out
    }

    /// True iff the value is 0.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even (0 is even).
    #[inline]
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// True iff the value is odd.
    #[inline]
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant limbs.
    #[inline]
    pub fn limb_len(&self) -> usize {
        self.limbs.len()
    }

    /// Number of significant bits (`k = ⌈log2(m+1)⌉`; 0 for the value 0).
    #[inline]
    pub fn bit_len(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(top) => {
                let below = (self.limbs.len() - 1) * LIMB_BITS as usize;
                let bits = below + (LIMB_BITS - top.leading_zeros()) as usize;
                u32::try_from(bits).unwrap_or(u32::MAX)
            }
        }
    }

    /// Returns bit `i` (little-endian); bits beyond `bit_len` are 0.
    #[inline]
    pub fn bit(&self, i: u32) -> bool {
        let limb = (i / LIMB_BITS) as usize;
        match self.limbs.get(limb) {
            Some(l) => (l >> (i % LIMB_BITS)) & 1 == 1,
            None => false,
        }
    }

    /// Sets bit `i` to `value`, growing the limb vector if needed.
    pub fn set_bit(&mut self, i: u32, value: bool) {
        let limb = (i / LIMB_BITS) as usize;
        let mask = 1u64 << (i % LIMB_BITS);
        if value {
            if self.limbs.len() <= limb {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= mask;
        } else if limb < self.limbs.len() {
            self.limbs[limb] &= !mask;
            self.normalize();
        }
    }

    /// Extracts `count` bits starting at bit `offset` as a `u64`
    /// (`count <= 64`). Bits beyond the value are zero.
    ///
    /// Used by the batch-compression unpacker to slice packed plaintexts
    /// out of a big integer without allocating.
    pub fn extract_bits(&self, offset: u32, count: u32) -> u64 {
        // Documented API bound on the return type's width.
        // flcheck: allow(pf-assert)
        assert!(count <= 64, "extract_bits supports at most 64 bits");
        if count == 0 {
            return 0;
        }
        let limb_idx = (offset / LIMB_BITS) as usize;
        let bit_idx = offset % LIMB_BITS;
        let lo = self.limbs.get(limb_idx).copied().unwrap_or(0) >> bit_idx;
        let hi = if bit_idx == 0 {
            0
        } else {
            self.limbs
                .get(limb_idx + 1)
                .copied()
                .unwrap_or(0)
                .checked_shl(LIMB_BITS - bit_idx)
                .unwrap_or(0)
        };
        let word = lo | hi;
        if count == 64 {
            word
        } else {
            word & ((1u64 << count) - 1)
        }
    }

    /// Drops trailing zero limbs to restore canonical form.
    #[inline]
    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add_ref(&self, other: &Natural) -> Natural {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s, c) = adc(a, b, carry);
            out.push(s);
            carry = c;
        }
        if carry != 0 {
            out.push(carry);
        }
        Natural { limbs: out }
    }

    /// In-place `self += other`.
    pub fn add_assign_ref(&mut self, other: &Natural) {
        if other.limbs.len() > self.limbs.len() {
            self.limbs.resize(other.limbs.len(), 0);
        }
        let mut carry = 0;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s, c) = adc(self.limbs[i], b, carry);
            self.limbs[i] = s;
            carry = c;
            if carry == 0 && i >= other.limbs.len() {
                return; // no more work: carry finished and other exhausted
            }
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// `self - other`, returning `None` if `other > self`.
    pub fn checked_sub(&self, other: &Natural) -> Option<Natural> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d, br) = sbb(self.limbs[i], b, borrow);
            out.push(d);
            borrow = br;
        }
        debug_assert_eq!(borrow, 0);
        Some(Natural::from_limbs(out))
    }

    /// `(self - rhs) mod n` for reduced operands (`self < n`, `rhs < n`),
    /// the lifting step of CRT recombination and of Bezout-coefficient
    /// tracking. Total and panic-free: when `self < rhs` the difference is
    /// lifted by `n`, which cannot underflow while `rhs <= self + n`; the
    /// (precondition-violating) remainder case yields zero.
    pub fn mod_sub(&self, rhs: &Natural, n: &Natural) -> Natural {
        debug_assert!(rhs <= &(self + n), "mod_sub requires rhs <= self + n");
        match self.checked_sub(rhs) {
            Some(diff) => diff,
            None => (self + n).checked_sub(rhs).unwrap_or_default(),
        }
    }

    /// `self * 2^shift + addend`, a fused primitive for base conversion.
    pub fn mul_add_small(&self, factor: Limb, addend: Limb) -> Natural {
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = addend;
        for &l in &self.limbs {
            let (lo, hi) = crate::limb::mac(l, factor, carry, 0);
            out.push(lo);
            carry = hi;
        }
        if carry != 0 {
            out.push(carry);
        }
        Natural::from_limbs(out)
    }

    /// Divides by a single limb in place, returning the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `divisor == 0`.
    pub fn div_rem_small(&self, divisor: Limb) -> (Natural, Limb) {
        // Documented panic mirroring primitive `/` semantics.
        // flcheck: allow(pf-assert)
        assert!(divisor != 0, "division by zero");
        let mut out = vec![0; self.limbs.len()];
        let mut rem: Limb = 0;
        for i in (0..self.limbs.len()).rev() {
            let (q, r) = crate::limb::div2by1(rem, self.limbs[i], divisor);
            out[i] = q;
            rem = r;
        }
        (Natural::from_limbs(out), rem)
    }

    /// Square of `self` (delegates to the multiplication dispatcher).
    pub fn square(&self) -> Natural {
        crate::mul::mul(self, self)
    }

    /// `self^exp` by binary exponentiation (plain, not modular).
    ///
    /// Intended for small exponents such as `n^2` in Paillier; modular
    /// exponentiation lives in [`crate::modpow`].
    pub fn pow(&self, mut exp: u32) -> Natural {
        let mut base = self.clone();
        let mut acc = Natural::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = crate::mul::mul(&acc, &base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.square();
            }
        }
        acc
    }

    /// Quotient and remainder of Euclidean division.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero; use [`Natural::checked_div_rem`] for a
    /// fallible variant.
    #[expect(
        clippy::expect_used,
        reason = "documented panic mirroring primitive `/` semantics"
    )]
    pub fn div_rem(&self, divisor: &Natural) -> (Natural, Natural) {
        self.checked_div_rem(divisor).expect("division by zero")
    }

    /// Fallible quotient/remainder.
    pub fn checked_div_rem(&self, divisor: &Natural) -> crate::Result<(Natural, Natural)> {
        crate::div::div_rem(self, divisor)
    }
}

impl Ord for Natural {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for Natural {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Show hex for debuggability without the cost of decimal conversion.
        write!(f, "Natural(0x{})", self.to_hex())
    }
}

impl fmt::Display for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_decimal_string())
    }
}

// --- operator impls (reference forms are primary) ---

impl Add for &Natural {
    type Output = Natural;
    fn add(self, rhs: &Natural) -> Natural {
        self.add_ref(rhs)
    }
}

impl Add for Natural {
    type Output = Natural;
    fn add(self, rhs: Natural) -> Natural {
        self.add_ref(&rhs)
    }
}

impl AddAssign<&Natural> for Natural {
    fn add_assign(&mut self, rhs: &Natural) {
        self.add_assign_ref(rhs);
    }
}

impl Sub for &Natural {
    type Output = Natural;
    /// # Panics
    /// Panics on underflow; use [`Natural::checked_sub`] to handle it.
    #[expect(
        clippy::expect_used,
        reason = "documented panic mirroring primitive `-` semantics"
    )]
    fn sub(self, rhs: &Natural) -> Natural {
        self.checked_sub(rhs)
            .expect("Natural subtraction underflow")
    }
}

impl Sub for Natural {
    type Output = Natural;
    fn sub(self, rhs: Natural) -> Natural {
        (&self) - (&rhs)
    }
}

impl SubAssign<&Natural> for Natural {
    fn sub_assign(&mut self, rhs: &Natural) {
        *self = (&*self) - rhs;
    }
}

impl Mul for &Natural {
    type Output = Natural;
    fn mul(self, rhs: &Natural) -> Natural {
        crate::mul::mul(self, rhs)
    }
}

impl Mul for Natural {
    type Output = Natural;
    fn mul(self, rhs: Natural) -> Natural {
        crate::mul::mul(&self, &rhs)
    }
}

impl Rem for &Natural {
    type Output = Natural;
    fn rem(self, rhs: &Natural) -> Natural {
        self.div_rem(rhs).1
    }
}

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Natural {
            fn from(v: $t) -> Self {
                Natural::from_limbs(vec![v as Limb])
            }
        }
    )*};
}
impl_from_unsigned!(u8, u16, u32, u64, usize);

impl From<u128> for Natural {
    fn from(v: u128) -> Self {
        let (lo, hi) = split(v);
        Natural::from_limbs(vec![lo, hi])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn zero_and_one_identities() {
        assert!(Natural::zero().is_zero());
        assert!(Natural::one().is_one());
        assert_eq!(&n(5) + &Natural::zero(), n(5));
        assert_eq!(&n(5) * &Natural::one(), n(5));
        assert_eq!(&n(5) * &Natural::zero(), Natural::zero());
    }

    #[test]
    fn normalization_strips_trailing_zeros() {
        let a = Natural::from_limbs(vec![7, 0, 0]);
        assert_eq!(a.limb_len(), 1);
        assert_eq!(a, n(7));
    }

    #[test]
    fn add_carries_across_limbs() {
        let max = Natural::from(u64::MAX);
        let sum = &max + &Natural::one();
        assert_eq!(sum, n(1u128 << 64));
        assert_eq!(sum.limb_len(), 2);
    }

    #[test]
    fn add_assign_matches_add() {
        let mut a = n(u64::MAX as u128 * 3 + 17);
        let b = n(u64::MAX as u128 + 5);
        let expected = &a + &b;
        a += &b;
        assert_eq!(a, expected);
    }

    #[test]
    fn checked_sub_underflow_is_none() {
        assert_eq!(n(3).checked_sub(&n(4)), None);
        assert_eq!(n(4).checked_sub(&n(4)), Some(Natural::zero()));
        let big = n(1u128 << 64);
        assert_eq!(big.checked_sub(&Natural::one()), Some(n((1u128 << 64) - 1)));
    }

    #[test]
    fn ordering_compares_magnitude() {
        assert!(n(1u128 << 64) > n(u64::MAX as u128));
        assert!(n(5) < n(6));
        assert_eq!(n(42).cmp(&n(42)), Ordering::Equal);
    }

    #[test]
    fn bit_len_and_bit() {
        assert_eq!(Natural::zero().bit_len(), 0);
        assert_eq!(Natural::one().bit_len(), 1);
        assert_eq!(n(0b1011).bit_len(), 4);
        assert_eq!(n(1u128 << 64).bit_len(), 65);
        let v = n(0b1011);
        assert!(v.bit(0) && v.bit(1) && !v.bit(2) && v.bit(3) && !v.bit(100));
    }

    #[test]
    fn set_bit_grows_and_clears() {
        let mut v = Natural::zero();
        v.set_bit(70, true);
        assert_eq!(v, n(1u128 << 70));
        v.set_bit(70, false);
        assert!(v.is_zero());
        assert_eq!(v.limb_len(), 0);
    }

    #[test]
    fn extract_bits_straddles_limb_boundary() {
        // value = 0xABCD << 60 straddles the limb 0/1 boundary
        let v = n(0xABCDu128 << 60);
        assert_eq!(v.extract_bits(60, 16), 0xABCD);
        assert_eq!(v.extract_bits(60, 8), 0xCD);
        assert_eq!(v.extract_bits(64, 12), 0xABC);
        assert_eq!(v.extract_bits(200, 16), 0);
    }

    #[test]
    fn extract_bits_full_word() {
        let v = n(u64::MAX as u128);
        assert_eq!(v.extract_bits(0, 64), u64::MAX);
        assert_eq!(v.extract_bits(1, 64), u64::MAX >> 1);
    }

    #[test]
    fn div_rem_small_roundtrip() {
        let v = n(123_456_789_012_345_678_901_234_567u128);
        let (q, r) = v.div_rem_small(97);
        assert_eq!(&q.mul_add_small(97, r), &v);
        assert!(r < 97);
    }

    #[test]
    fn pow_small_exponents() {
        assert_eq!(n(3).pow(0), Natural::one());
        assert_eq!(n(3).pow(4), n(81));
        assert_eq!(n(2).pow(100), {
            let mut v = Natural::one();
            for _ in 0..100 {
                v = &v + &v;
            }
            v
        });
    }

    #[test]
    fn padded_limbs_roundtrip() {
        let v = n(42);
        assert_eq!(v.to_padded_limbs(4), vec![42, 0, 0, 0]);
        assert_eq!(Natural::from_limbs(v.to_padded_limbs(4)), v);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_limbs_overflow_panics() {
        n(1u128 << 64).to_padded_limbs(1);
    }

    #[test]
    fn even_odd() {
        assert!(Natural::zero().is_even());
        assert!(n(2).is_even());
        assert!(n(3).is_odd());
    }
}
