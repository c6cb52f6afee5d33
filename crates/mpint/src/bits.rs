//! Bitwise operations and string parsing.

use std::ops::{BitAnd, BitOr, BitXor};
use std::str::FromStr;

use crate::limb::Limb;
use crate::natural::Natural;

fn zip_limbs(a: &Natural, b: &Natural, f: impl Fn(Limb, Limb) -> Limb) -> Natural {
    let len = a.limb_len().max(b.limb_len());
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let x = a.limbs().get(i).copied().unwrap_or(0);
        let y = b.limbs().get(i).copied().unwrap_or(0);
        out.push(f(x, y));
    }
    Natural::from_limbs(out)
}

impl BitAnd for &Natural {
    type Output = Natural;
    fn bitand(self, rhs: &Natural) -> Natural {
        zip_limbs(self, rhs, |a, b| a & b)
    }
}

impl BitOr for &Natural {
    type Output = Natural;
    fn bitor(self, rhs: &Natural) -> Natural {
        zip_limbs(self, rhs, |a, b| a | b)
    }
}

impl BitXor for &Natural {
    type Output = Natural;
    fn bitxor(self, rhs: &Natural) -> Natural {
        zip_limbs(self, rhs, |a, b| a ^ b)
    }
}

impl FromStr for Natural {
    type Err = crate::Error;

    /// Parses decimal by default, hex with an `0x` prefix.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Some(hex) => Natural::from_hex(hex),
            None => Natural::from_decimal_str(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn bitwise_match_u128() {
        let a = 0xF0F0_F0F0_F0F0_F0F0_1234u128;
        let b = 0x0FF0_0FF0_0FF0_0FF0_ABCDu128;
        assert_eq!(&n(a) & &n(b), n(a & b));
        assert_eq!(&n(a) | &n(b), n(a | b));
        assert_eq!(&n(a) ^ &n(b), n(a ^ b));
        // Mismatched lengths treat missing limbs as zero.
        assert_eq!(&n(a) & &n(0xFF), n(a & 0xFF));
        assert_eq!(&n(a) ^ &Natural::zero(), n(a));
    }

    #[test]
    fn from_str_dispatches_on_prefix() {
        assert_eq!("255".parse::<Natural>().unwrap(), n(255));
        assert_eq!("0xff".parse::<Natural>().unwrap(), n(255));
        assert_eq!("0XFF".parse::<Natural>().unwrap(), n(255));
        assert!("0xzz".parse::<Natural>().is_err());
        assert!("12a".parse::<Natural>().is_err());
    }
}
