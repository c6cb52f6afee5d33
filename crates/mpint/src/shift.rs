//! Bit-shift operators for [`Natural`].

#![expect(
    clippy::indexing_slicing,
    reason = "shifted-limb indices are offsets within vectors sized as `limb_len + \
              limb_shift (+ 1)` a few lines above"
)]

use std::ops::{Shl, Shr};

use crate::limb::{Limb, LIMB_BITS};
use crate::natural::Natural;

impl Natural {
    /// `self << bits`.
    pub fn shl_bits(&self, bits: u32) -> Natural {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = (bits / LIMB_BITS) as usize;
        let bit_shift = bits % LIMB_BITS;
        let mut out = vec![0 as Limb; limb_shift + self.limb_len() + 1];
        if bit_shift == 0 {
            out[limb_shift..limb_shift + self.limb_len()].copy_from_slice(self.limbs());
        } else {
            let mut carry = 0;
            for (i, &l) in self.limbs().iter().enumerate() {
                out[limb_shift + i] = (l << bit_shift) | carry;
                carry = l >> (LIMB_BITS - bit_shift);
            }
            out[limb_shift + self.limb_len()] = carry;
        }
        Natural::from_limbs(out)
    }

    /// `self >> bits` (floor).
    pub fn shr_bits(&self, bits: u32) -> Natural {
        let limb_shift = (bits / LIMB_BITS) as usize;
        if limb_shift >= self.limb_len() {
            return Natural::zero();
        }
        let bit_shift = bits % LIMB_BITS;
        let src = &self.limbs()[limb_shift..];
        if bit_shift == 0 {
            return Natural::from_limbs(src.to_vec());
        }
        let mut out = vec![0 as Limb; src.len()];
        let mut carry = 0;
        for i in (0..src.len()).rev() {
            out[i] = (src[i] >> bit_shift) | carry;
            carry = src[i] << (LIMB_BITS - bit_shift);
        }
        Natural::from_limbs(out)
    }

    /// Keeps only the low `bits` bits (`self mod 2^bits`).
    ///
    /// This is the fast path for the `mod R` steps of Montgomery
    /// multiplication, where `R = 2^{w·s}` (Algorithm 1 line 1: "modular
    /// ... replaced by AND").
    pub fn low_bits(&self, bits: u32) -> Natural {
        let full_limbs = (bits / LIMB_BITS) as usize;
        let rem_bits = bits % LIMB_BITS;
        if full_limbs >= self.limb_len() {
            return self.clone();
        }
        let mut out = self.limbs()[..full_limbs + usize::from(rem_bits > 0)].to_vec();
        if rem_bits > 0 {
            let last = out.len() - 1;
            out[last] &= (1u64 << rem_bits) - 1;
        }
        Natural::from_limbs(out)
    }
}

impl Shl<u32> for &Natural {
    type Output = Natural;
    fn shl(self, bits: u32) -> Natural {
        self.shl_bits(bits)
    }
}

impl Shr<u32> for &Natural {
    type Output = Natural;
    fn shr(self, bits: u32) -> Natural {
        self.shr_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn shl_matches_u128() {
        for bits in [0u32, 1, 7, 63, 64, 65, 100] {
            let v = 0x0123_4567_89AB_CDEFu128;
            if bits < 128 - 57 {
                assert_eq!(n(v).shl_bits(bits), n(v << bits), "<< {bits}");
            }
        }
    }

    #[test]
    fn shr_matches_u128() {
        let v = u128::MAX - 12345;
        for bits in [0u32, 1, 63, 64, 65, 127, 128, 200] {
            let expected = if bits >= 128 { 0 } else { v >> bits };
            assert_eq!(n(v).shr_bits(bits), n(expected), ">> {bits}");
        }
    }

    #[test]
    fn shift_roundtrip() {
        let v = n(0xFFFF_0000_FFFF_0000_1234);
        for bits in [1u32, 64, 130] {
            assert_eq!(v.shl_bits(bits).shr_bits(bits), v);
        }
    }

    #[test]
    fn low_bits_is_mod_power_of_two() {
        let v = n(u128::MAX);
        assert_eq!(v.low_bits(0), Natural::zero());
        assert_eq!(v.low_bits(1), Natural::one());
        assert_eq!(v.low_bits(64), n(u64::MAX as u128));
        assert_eq!(v.low_bits(65), n((1u128 << 65) - 1));
        assert_eq!(v.low_bits(300), v);
    }

    #[test]
    fn shl_zero_value() {
        assert!(Natural::zero().shl_bits(100).is_zero());
    }
}
