//! Random multi-precision integer generation.
//!
//! The paper assigns "a random number generator for each thread in a warp"
//! (Sec. IV-A3); here every call site passes its own `Rng`, so the GPU
//! simulator can hand one deterministic per-lane generator to each thread
//! while tests use seeded `rand_chacha` streams.

#![expect(
    clippy::indexing_slicing,
    reason = "`v[last]` with `last = limbs - 1` where `limbs >= 1` is guaranteed by \
              the early `bits == 0` return"
)]

use rand::Rng;

use crate::limb::{Limb, LIMB_BITS};
use crate::natural::Natural;

/// Uniform random integer with exactly `bits` significant bits
/// (the top bit is forced to 1); `bits == 0` yields zero.
pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: u32) -> Natural {
    if bits == 0 {
        return Natural::zero();
    }
    let limbs = bits.div_ceil(LIMB_BITS);
    let mut v: Vec<Limb> = (0..limbs).map(|_| rng.gen()).collect();
    let top_bits = bits - (limbs - 1) * LIMB_BITS;
    let last = (limbs - 1) as usize;
    if top_bits < LIMB_BITS {
        v[last] &= (1u64 << top_bits) - 1;
    }
    v[last] |= 1u64 << (top_bits - 1); // force exact bit length
    Natural::from_limbs(v)
}

/// Uniform random integer in `[0, bound)` by rejection sampling.
///
/// # Panics
///
/// Panics if `bound` is zero.
pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &Natural) -> Natural {
    // Documented panic: sampling from an empty range has no other answer.
    // flcheck: allow(pf-assert)
    assert!(!bound.is_zero(), "empty range");
    let bits = bound.bit_len();
    loop {
        // Sample `bits` unconstrained bits; expected < 2 iterations.
        let limbs = bits.div_ceil(LIMB_BITS);
        let mut v: Vec<Limb> = (0..limbs).map(|_| rng.gen()).collect();
        let top_bits = bits - (limbs - 1) * LIMB_BITS;
        if top_bits < LIMB_BITS {
            let last = (limbs - 1) as usize;
            v[last] &= (1u64 << top_bits) - 1;
        }
        let candidate = Natural::from_limbs(v);
        if &candidate < bound {
            return candidate;
        }
    }
}

/// Random element of `Z_n^*` (unit group): nonzero, coprime with `n`.
///
/// Paillier encryption draws its blinding factor `r` from here
/// (paper Eq. 3: "selects a random integer r ∈ Z*_{n²}").
pub fn random_coprime<R: Rng + ?Sized>(rng: &mut R, n: &Natural) -> Natural {
    // Documented panic: Z_n^* is empty for n <= 1, the loop would hang.
    // flcheck: allow(pf-assert)
    assert!(n > &Natural::one(), "group requires n > 1");
    loop {
        let candidate = random_below(rng, n);
        if candidate.is_zero() {
            continue;
        }
        if crate::gcd::gcd(&candidate, n).is_one() {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0xF1B0_0575)
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut r = rng();
        for bits in [1u32, 2, 63, 64, 65, 128, 1024] {
            let v = random_bits(&mut r, bits);
            assert_eq!(v.bit_len(), bits, "requested {bits} bits");
        }
        assert!(random_bits(&mut r, 0).is_zero());
    }

    #[test]
    fn random_below_respects_bound() {
        let mut r = rng();
        let bound = Natural::from(1000u64);
        for _ in 0..200 {
            assert!(random_below(&mut r, &bound) < bound);
        }
    }

    #[test]
    fn random_below_covers_small_range() {
        // Over 3 values, all should appear within a few hundred draws.
        let mut r = rng();
        let bound = Natural::from(3u64);
        let mut seen = [false; 3];
        for _ in 0..300 {
            let v = usize::try_from(random_below(&mut r, &bound).to_u64().unwrap()).unwrap();
            seen[v] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    fn random_coprime_is_unit() {
        let mut r = rng();
        let n = Natural::from(3 * 5 * 7 * 11u64);
        for _ in 0..50 {
            let u = random_coprime(&mut r, &n);
            assert!(!u.is_zero() && u < n);
            assert!(crate::gcd::gcd(&u, &n).is_one());
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = random_bits(&mut rng(), 256);
        let b = random_bits(&mut rng(), 256);
        assert_eq!(a, b, "same seed, same stream");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn random_below_zero_bound_panics() {
        random_below(&mut rng(), &Natural::zero());
    }
}
