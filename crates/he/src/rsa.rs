//! Textbook RSA with multiplicative homomorphism (paper Table I:
//! `RSA::key_gen / encrypt / decrypt / mul`).
//!
//! FLBooster exposes RSA alongside Paillier because several vertical-FL
//! protocols (e.g. RSA-based private set intersection for sample
//! alignment) need a multiplicatively homomorphic primitive:
//! `E(m₁)·E(m₂) = E(m₁·m₂ mod n)`. This is *raw* RSA — deterministic, no
//! padding — which is exactly what the homomorphic use case requires (and
//! why it must never be used for general-purpose encryption).

use std::fmt;

use mpint::cios::{mont_mul_mac_count, mont_sqr_mac_count};
use mpint::ct::Secret;
use mpint::modpow::{mod_pow_ct, mod_pow_ctx};
use mpint::{mod_inv, MontgomeryCtx, Natural};
use rand::Rng;

use crate::paillier::{fmt_redacted, key_fingerprint};
use crate::prime::generate_prime_pair;
use crate::{Error, Result};

/// Smallest accepted RSA modulus size.
pub const MIN_KEY_BITS: u32 = 64;

/// Standard public exponent.
pub const PUBLIC_EXPONENT: u64 = 65_537;

/// RSA public key `(n, e)`.
#[derive(Debug, Clone)]
pub struct RsaPublicKey {
    /// Modulus `n = p·q`.
    pub n: Natural,
    /// Public exponent `e`.
    pub e: Natural,
    /// Nominal key size in bits.
    pub key_bits: u32,
    ctx_n: MontgomeryCtx,
}

/// RSA private key with CRT acceleration. `Debug` prints the key size and
/// the fingerprint of `(n, e)` only.
#[derive(Clone)]
pub struct RsaPrivateKey {
    /// Private exponent `d = e^{-1} mod λ(n)`.
    pub d: Secret,
    /// Copy of the public key.
    pub public: RsaPublicKey,
    p: Natural,
    q: Natural,
    d_p: Secret,
    d_q: Secret,
    q_inv_p: Natural,
    ctx_p: MontgomeryCtx,
    ctx_q: MontgomeryCtx,
}

/// A generated RSA key pair. `Debug` prints the key size and the
/// fingerprint of `(n, e)` only.
#[derive(Clone)]
pub struct RsaKeyPair {
    /// Public key.
    pub public: RsaPublicKey,
    /// Private key.
    pub private: RsaPrivateKey,
}

impl fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pk = &self.public;
        fmt_redacted(
            f,
            "RsaPrivateKey",
            pk.key_bits,
            key_fingerprint(&pk.n, &pk.e),
        )
    }
}

impl fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pk = &self.public;
        fmt_redacted(f, "RsaKeyPair", pk.key_bits, key_fingerprint(&pk.n, &pk.e))
    }
}

impl RsaKeyPair {
    /// Generates an RSA key pair with a `bits`-bit modulus.
    ///
    /// The RNG is `Clone` because the prime search runs its Miller–Rabin
    /// rounds side by side on the pool and rewinds to a copy, so that the
    /// keys and the RNG's state afterwards are those of a serial search.
    // The cost model charges steady-state encrypt/mul/decrypt traffic,
    // not the one-time keygen that precedes training.
    pub fn generate<R: Rng + Clone>(rng: &mut R, bits: u32) -> Result<Self> {
        if bits < MIN_KEY_BITS {
            return Err(Error::KeySizeTooSmall {
                bits,
                min: MIN_KEY_BITS,
            });
        }
        let e = Natural::from(PUBLIC_EXPONENT);
        loop {
            let (p, q) = generate_prime_pair(rng, bits / 2)?;
            let n = &p * &q;
            if n.bit_len() != bits {
                continue;
            }
            let one = Natural::one();
            // Generated primes exceed 1; resample on the impossible case
            // rather than panicking.
            let Some(p1) = p.checked_sub(&one) else {
                continue;
            };
            let Some(q1) = q.checked_sub(&one) else {
                continue;
            };
            let phi = &p1 * &q1;
            // e must be invertible modulo φ(n).
            let d = match mod_inv(&e, &phi) {
                Ok(d) => d,
                Err(_) => continue,
            };
            let ctx_n = MontgomeryCtx::new(&n)?;
            let public = RsaPublicKey {
                n,
                e: e.clone(),
                key_bits: bits,
                ctx_n,
            };
            let d_p = Secret::new(&d % &p1);
            let d_q = Secret::new(&d % &q1);
            let q_inv_p = mod_inv(&(&q % &p), &p)?;
            let ctx_p = MontgomeryCtx::new(&p)?;
            let ctx_q = MontgomeryCtx::new(&q)?;
            let private = RsaPrivateKey {
                d: Secret::new(d),
                public: public.clone(),
                p,
                q,
                d_p,
                d_q,
                q_inv_p,
                ctx_p,
                ctx_q,
            };
            return Ok(RsaKeyPair { public, private });
        }
    }
}

impl RsaPublicKey {
    /// Raw RSA encryption: `m^e mod n` for `m < n`.
    pub fn encrypt(&self, m: &Natural) -> Result<Natural> {
        if m >= &self.n {
            return Err(Error::PlaintextTooLarge {
                plaintext_bits: m.bit_len(),
                modulus_bits: self.n.bit_len(),
            });
        }
        Ok(mod_pow_ctx(&self.ctx_n, m, &self.e))
    }

    /// Homomorphic multiplication: `c₁·c₂ mod n = E(m₁·m₂ mod n)`.
    pub fn mul(&self, c1: &Natural, c2: &Natural) -> Natural {
        self.ctx_n.mod_mul(c1, c2)
    }

    /// Estimated limb-level op count of one encryption (65537 = 2^16+1:
    /// 17 Montgomery multiplications of `s²` cost each).
    pub fn encrypt_op_estimate(&self) -> u64 {
        let s = self.ctx_n.width() as u64;
        17 * s * s
    }
}

/// Secret-exponent exponentiation for decryption, and the key's one read
/// of its [`Secret`]s. `d` and its CRT shares must not leak through the
/// multiply schedule (the sliding-window path's schedule mirrors the
/// exponent bits), so decryption routes through the constant-time fixed
/// window, bounded by the public prime size.
// flcheck: ct-fn
#[expect(
    clippy::disallowed_methods,
    reason = "the constant-time window is the one reader of a private exponent"
)]
fn pow_secret(ctx: &MontgomeryCtx, base: &Natural, exp: &Secret, bits: u32) -> Natural {
    mod_pow_ct(ctx, base, exp.expose(), bits)
}

impl RsaPrivateKey {
    /// Raw RSA decryption via CRT: two half-width exponentiations, both
    /// constant-time in the secret exponent shares.
    pub fn decrypt(&self, c: &Natural) -> Result<Natural> {
        if c >= &self.public.n {
            return Err(Error::CiphertextOutOfRange);
        }
        let m_p = pow_secret(&self.ctx_p, &(c % &self.p), &self.d_p, self.p.bit_len());
        let m_q = pow_secret(&self.ctx_q, &(c % &self.q), &self.d_q, self.q.bit_len());
        // Garner: m = m_q + q·((m_p - m_q)·q^{-1} mod p); both operands of
        // the lifted difference are reduced mod p.
        let diff = m_p.mod_sub(&(&m_q % &self.p), &self.p);
        let h = &(&diff * &self.q_inv_p) % &self.p;
        Ok(&m_q + &(&self.q * &h))
    }

    /// Decryption without CRT (ablation baseline): `c^d mod n`,
    /// constant-time in `d`.
    pub fn decrypt_direct(&self, c: &Natural) -> Result<Natural> {
        if c >= &self.public.n {
            return Err(Error::CiphertextOutOfRange);
        }
        Ok(pow_secret(
            &self.public.ctx_n,
            c,
            &self.d,
            self.public.n.bit_len(),
        ))
    }

    /// Estimated limb-level op count of one CRT decryption as the
    /// *simulated device* is charged for it: two half-width secret-exponent
    /// powers at one squaring and one multiply per exponent bit (the CRT
    /// exponent shares are private-key material, so decryption pays a
    /// constant-time schedule) plus the Garner recombination arithmetic.
    /// The host runs the fixed window and does less; this estimate does
    /// not follow it. Same unit as the Paillier estimates — MAC counts
    /// halved, squarings at the dedicated `mont_sqr` rate.
    pub fn decrypt_op_estimate(&self) -> u64 {
        let s = self.ctx_p.width();
        let e_bits = self.p.bit_len() as u64;
        let ladder = e_bits * (mont_sqr_mac_count(s) + mont_mul_mac_count(s)) / 2;
        2 * (ladder + 2 * mont_mul_mac_count(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn keys(bits: u32) -> RsaKeyPair {
        RsaKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(0xA5A5), bits).unwrap()
    }

    fn nat(v: u64) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn roundtrip() {
        let k = keys(128);
        for v in [0u64, 1, 2, 65_537, u64::MAX] {
            let c = k.public.encrypt(&nat(v)).unwrap();
            assert_eq!(k.private.decrypt(&c).unwrap(), nat(v), "crt {v}");
            assert_eq!(k.private.decrypt_direct(&c).unwrap(), nat(v), "direct {v}");
        }
    }

    #[test]
    fn roundtrip_near_modulus() {
        let k = keys(128);
        let m = k.public.n.checked_sub(&Natural::one()).unwrap();
        let c = k.public.encrypt(&m).unwrap();
        assert_eq!(k.private.decrypt(&c).unwrap(), m);
    }

    #[test]
    fn multiplicative_homomorphism() {
        let k = keys(128);
        let (a, b) = (nat(123_456), nat(789_012));
        let ca = k.public.encrypt(&a).unwrap();
        let cb = k.public.encrypt(&b).unwrap();
        let product = k.public.mul(&ca, &cb);
        assert_eq!(k.private.decrypt(&product).unwrap(), &a * &b);
    }

    #[test]
    fn homomorphism_wraps_mod_n() {
        let k = keys(64);
        let m = k.public.n.checked_sub(&nat(2)).unwrap();
        let ca = k.public.encrypt(&m).unwrap();
        let cb = k.public.encrypt(&nat(3)).unwrap();
        let product = k.public.mul(&ca, &cb);
        assert_eq!(
            k.private.decrypt(&product).unwrap(),
            &(&m * &nat(3)) % &k.public.n
        );
    }

    #[test]
    fn deterministic_encryption() {
        // Raw RSA is deterministic — that is what makes it homomorphic.
        let k = keys(128);
        assert_eq!(
            k.public.encrypt(&nat(5)).unwrap(),
            k.public.encrypt(&nat(5)).unwrap()
        );
    }

    #[test]
    fn rejects_out_of_range() {
        let k = keys(64);
        assert!(matches!(
            k.public.encrypt(&k.public.n),
            Err(Error::PlaintextTooLarge { .. })
        ));
        assert!(matches!(
            k.private.decrypt(&k.public.n),
            Err(Error::CiphertextOutOfRange)
        ));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "reads the secret exponents to show that no debug output prints them"
    )]
    fn debug_output_shows_no_key_material() {
        let k = keys(128);
        let sk = &k.private;
        for text in [format!("{k:?}"), format!("{sk:?}"), format!("{k:#?}")] {
            let exponents = [&sk.d, &sk.d_p, &sk.d_q].map(Secret::expose);
            for secret in exponents.into_iter().chain([&sk.p, &sk.q, &sk.q_inv_p]) {
                assert!(!text.contains(&secret.to_hex()), "leaked in {text}");
                assert!(!text.contains(&secret.to_string()), "leaked in {text}");
            }
            assert!(text.contains("key_bits: 128"), "{text}");
            assert!(text.contains("fingerprint"), "{text}");
        }
    }

    #[test]
    fn key_size_floor() {
        assert!(matches!(
            RsaKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(1), 16),
            Err(Error::KeySizeTooSmall { .. })
        ));
    }

    #[test]
    fn modulus_size_exact() {
        for bits in [64u32, 128] {
            assert_eq!(keys(bits).public.n.bit_len(), bits);
        }
    }
}
