//! Conversions between [`Natural`] and primitive integers, byte strings,
//! and hex/decimal text.
//!
//! The FLBooster pipeline (paper Fig. 4, "data conversion") moves values
//! between the FL framework's float/integer domain and the multi-precision
//! domain at the boundary of every encryption/decryption call; these are
//! the conversions it uses.

#![expect(
    clippy::indexing_slicing,
    reason = "byte/limb indices derive from the lengths computed in the same \
              expression (`i / LIMB_BYTES` over `bytes.len()`-sized buffers)"
)]

use crate::limb::{Limb, LIMB_BYTES};
use crate::natural::Natural;
use crate::{Error, Result};

impl Natural {
    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limb_len() {
            0 => Some(0),
            1 => Some(self.limbs()[0]),
            _ => None,
        }
    }

    /// Serializes to little-endian bytes with no trailing zeros
    /// (the wire format counted by the communication simulator).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limb_len() * LIMB_BYTES);
        for l in self.limbs() {
            out.extend_from_slice(&l.to_le_bytes());
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Parses from little-endian bytes.
    pub fn from_le_bytes(bytes: &[u8]) -> Natural {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(LIMB_BYTES));
        for chunk in bytes.chunks(LIMB_BYTES) {
            let mut buf = [0u8; LIMB_BYTES];
            buf[..chunk.len()].copy_from_slice(chunk);
            limbs.push(Limb::from_le_bytes(buf));
        }
        Natural::from_limbs(limbs)
    }

    /// Lowercase big-endian hex, no leading zeros (`"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::with_capacity(self.limb_len() * 16);
        let mut iter = self.limbs().iter().rev();
        if let Some(top) = iter.next() {
            s.push_str(&format!("{top:x}"));
        }
        for l in iter {
            s.push_str(&format!("{l:016x}"));
        }
        s
    }

    /// Parses big-endian hex (case-insensitive, no prefix).
    pub fn from_hex(s: &str) -> Result<Natural> {
        if s.is_empty() {
            return Err(Error::Parse {
                radix: 16,
                position: None,
            });
        }
        let mut v = Natural::zero();
        for (i, c) in s.bytes().enumerate() {
            let d = (c as char).to_digit(16).ok_or(Error::Parse {
                radix: 16,
                position: Some(i),
            })?;
            v = v.shl_bits(4);
            if d != 0 {
                v.add_assign_ref(&Natural::from(d as u64));
            }
        }
        Ok(v)
    }

    /// Decimal rendering (division by 10^19 chunks).
    pub fn to_decimal_string(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        const CHUNK: Limb = 10_000_000_000_000_000_000; // 10^19 < 2^64
        let mut rest = self.clone();
        let mut parts: Vec<Limb> = Vec::new();
        while !rest.is_zero() {
            let (q, r) = rest.div_rem_small(CHUNK);
            parts.push(r);
            rest = q;
        }
        let mut s = String::with_capacity(parts.len() * 19);
        let mut iter = parts.iter().rev();
        if let Some(top) = iter.next() {
            s.push_str(&top.to_string());
        }
        for p in iter {
            s.push_str(&format!("{p:019}"));
        }
        s
    }

    /// Parses a decimal string.
    pub fn from_decimal_str(s: &str) -> Result<Natural> {
        if s.is_empty() {
            return Err(Error::Parse {
                radix: 10,
                position: None,
            });
        }
        let mut v = Natural::zero();
        for (i, c) in s.bytes().enumerate() {
            let d = (c as char).to_digit(10).ok_or(Error::Parse {
                radix: 10,
                position: Some(i),
            })?;
            v = v.mul_add_small(10, d as Limb);
        }
        Ok(v)
    }

    /// Serialized byte length on the wire (what the network simulator
    /// charges per ciphertext; the paper's `L_before`/`L_after` in Eq. 10).
    pub fn wire_size_bytes(&self) -> usize {
        self.to_le_bytes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn u64_u128_roundtrip() {
        assert_eq!(Natural::zero().to_u64(), Some(0));
        assert_eq!(n(42).to_u64(), Some(42));
        assert_eq!(n(u128::MAX).to_u64(), None);
    }

    #[test]
    fn le_bytes_roundtrip() {
        for v in [0u128, 1, 255, 256, u64::MAX as u128, u128::MAX] {
            let x = n(v);
            assert_eq!(Natural::from_le_bytes(&x.to_le_bytes()), x, "{v}");
        }
    }

    #[test]
    fn le_bytes_no_trailing_zeros() {
        assert_eq!(n(1).to_le_bytes(), vec![1]);
        assert_eq!(n(256).to_le_bytes(), vec![0, 1]);
        assert!(Natural::zero().to_le_bytes().is_empty());
    }

    #[test]
    fn hex_roundtrip() {
        for v in [0u128, 0xF, 0x10, 0xDEAD_BEEF, u128::MAX] {
            let x = n(v);
            assert_eq!(Natural::from_hex(&x.to_hex()).unwrap(), x);
            assert_eq!(x.to_hex(), format!("{v:x}"));
        }
    }

    #[test]
    fn hex_rejects_bad_digit() {
        assert_eq!(
            Natural::from_hex("12g4").unwrap_err(),
            Error::Parse {
                radix: 16,
                position: Some(2)
            }
        );
        assert_eq!(
            Natural::from_hex("").unwrap_err(),
            Error::Parse {
                radix: 16,
                position: None
            }
        );
    }

    #[test]
    fn decimal_roundtrip() {
        for v in [0u128, 9, 10, 12345, u64::MAX as u128, u128::MAX] {
            let x = n(v);
            assert_eq!(x.to_decimal_string(), v.to_string());
            assert_eq!(Natural::from_decimal_str(&v.to_string()).unwrap(), x);
        }
    }

    #[test]
    fn decimal_large_roundtrip() {
        let s = "9".repeat(100);
        let v = Natural::from_decimal_str(&s).unwrap();
        assert_eq!(v.to_decimal_string(), s);
        // 10^100 - 1 has bit length ceil(100 * log2(10)) = 333
        assert_eq!(v.bit_len(), 333);
    }

    #[test]
    fn decimal_rejects_bad_digit() {
        assert!(Natural::from_decimal_str("12a").is_err());
        assert!(Natural::from_decimal_str("").is_err());
    }

    #[test]
    fn wire_size_grows_with_magnitude() {
        assert_eq!(Natural::zero().wire_size_bytes(), 0);
        assert_eq!(n(255).wire_size_bytes(), 1);
        assert_eq!(n(u64::MAX as u128).wire_size_bytes(), 8);
        assert_eq!(n(u128::MAX).wire_size_bytes(), 16);
    }
}
