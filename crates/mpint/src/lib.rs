//! Multi-precision unsigned integer arithmetic for the FLBooster
//! reproduction.
//!
//! The paper (Sec. IV-A1) represents multi-precision integers in a
//! radix-based number system ("FRNS"): an integer is split into fixed-size
//! *limbs* (words) of `w` bits each, processed in parallel by GPU threads.
//! This crate implements that representation on the CPU with `w = 64`
//! (`u64` limbs, little-endian order) and provides every arithmetic
//! primitive the platform needs:
//!
//! - [`Natural`]: arbitrary-precision unsigned integers with schoolbook and
//!   Karatsuba multiplication, Knuth Algorithm-D division, shifts, bit
//!   operations, and decimal/hex/byte conversions.
//! - [`montgomery`]: the basic Montgomery multiplication of the paper's
//!   Algorithm 1 plus a reusable Montgomery domain context.
//! - [`cios`]: the CIOS (Coarsely Integrated Operand Scanning) Montgomery
//!   multiplication of the paper's Algorithm 2, as a fused word-serial
//!   product and a dedicated squaring.
//! - [`modpow`]: binary and sliding-window modular exponentiation (the
//!   paper reduces complexity from `e` to `log_{2^b} e` multiplications).
//! - [`comb`]: constant-time fixed-base exponentiation from a per-base
//!   table (Lim–Lee comb), for the Paillier blinding pools.
//! - [`straus`]: Bos–Coster multi-exponentiation over public exponents,
//!   for weighted aggregation.
//! - [`prime`]: Miller–Rabin primality testing and random prime generation
//!   used by Paillier/RSA key generation.
//! - [`random`]: uniform random `Natural` generation.
//!
//! # Example
//!
//! ```
//! use mpint::Natural;
//!
//! let a = Natural::from_decimal_str("123456789012345678901234567890").unwrap();
//! let b = Natural::from(42u64);
//! let (q, r) = (&a * &b).div_rem(&a);
//! assert_eq!(q, b);
//! assert!(r.is_zero());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bits;
pub mod cios;
pub mod comb;
mod convert;
pub mod ct;
mod div;
pub mod error;
mod gcd;
pub mod limb;
pub mod modpow;
pub mod montgomery;
mod mul;
mod natural;
pub mod prime;
pub mod random;
mod shift;
pub mod straus;

pub use ct::{ct_eq, ct_ge_then_sub, ct_lt, ct_select};
pub use error::{Error, Result};
pub use gcd::{gcd, lcm, mod_inv, ExtendedGcd};
pub use limb::{Limb, LIMB_BITS};
pub use montgomery::{MontAcc, MontgomeryCtx};
pub use natural::Natural;
