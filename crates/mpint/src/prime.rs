//! The pure pieces of Miller–Rabin prime generation: trial division, a
//! deeper sieve, and one strong-probable-prime round with a given base.
//!
//! Key generation (paper Sec. IV-A3) uses "the Miller-Rabin large prime
//! number generator ... the large prime numbers p and q are generated
//! using the Miller-Rabin primality test", with `p` and `q` sized to the
//! operand width so every multi-precision value in a key share the same
//! limb count. The search that draws candidates and bases and runs the
//! rounds side by side is `he`'s, beside the pool; everything here is a
//! function of its arguments alone.

use crate::limb::{div2by1, Limb};
use crate::modpow::mod_pow_ct;
use crate::montgomery::MontgomeryCtx;
use crate::natural::Natural;

/// The odd primes to 211: [`trial_division`] decides a candidate on these
/// before any Miller–Rabin round.
const SMALL_PRIMES: [u64; odd_prime_count(3, 212)] = odd_primes(3, 212);

/// Exclusive upper bound of [`sieve_factor`]'s primes, which start above
/// [`trial_division`]'s 211. About 40 % of the candidates that pass trial
/// division have a factor in that range; at `2^12` it is 36 %, at `2^14`
/// 44 %, and the remainders cost 8, 16 and 24 µs per 1024-bit survivor.
const SIEVE_BOUND: u64 = 1 << 13;

const SIEVE_PRIMES: [u64; odd_prime_count(213, SIEVE_BOUND)] = odd_primes(213, SIEVE_BOUND);
const TRIAL_PACKS: [Pack; pack_count(&SMALL_PRIMES)] = packs(&SMALL_PRIMES);
const SIEVE_PACKS: [Pack; pack_count(&SIEVE_PRIMES)] = packs(&SIEVE_PRIMES);

/// A run of consecutive primes whose product fits in a `u64`: one
/// remainder of the candidate by `product` tests every prime of the run.
#[derive(Clone, Copy)]
struct Pack {
    product: u64,
    /// The run's end, exclusive, as an index into its prime list.
    end: usize,
}

/// Whether the odd `m ≥ 3` is prime.
const fn is_odd_prime(m: u64) -> bool {
    let mut f = 3;
    while f * f <= m {
        if m.is_multiple_of(f) {
            return false;
        }
        f += 2;
    }
    true
}

/// Number of primes among the odd numbers from `lo ≥ 3` up to `hi`.
const fn odd_prime_count(lo: u64, hi: u64) -> usize {
    let (mut m, mut count) = (lo, 0);
    while m < hi {
        if is_odd_prime(m) {
            count += 1;
        }
        m += 2;
    }
    count
}

/// The primes among the odd numbers from `lo ≥ 3` up to `hi`, ascending.
#[expect(
    clippy::indexing_slicing,
    reason = "compile-time table: `N` is odd_prime_count(lo, hi), one slot per prime"
)]
const fn odd_primes<const N: usize>(lo: u64, hi: u64) -> [u64; N] {
    let (mut out, mut m, mut count) = ([0; N], lo, 0);
    while m < hi {
        if is_odd_prime(m) {
            out[count] = m;
            count += 1;
        }
        m += 2;
    }
    out
}

/// The longest run of `primes` from `start` whose product fits in a
/// `u64`.
#[expect(
    clippy::indexing_slicing,
    reason = "compile-time table: `end < primes.len()` is checked before each read"
)]
const fn run_from(primes: &[u64], start: usize) -> Pack {
    let (mut product, mut end) = (1u64, start);
    while end < primes.len() {
        match product.checked_mul(primes[end]) {
            Some(p) => product = p,
            None => break,
        }
        end += 1;
    }
    Pack { product, end }
}

/// Number of runs [`packs`] cuts `primes` into.
const fn pack_count(primes: &[u64]) -> usize {
    let (mut i, mut count) = (0, 0);
    while i < primes.len() {
        i = run_from(primes, i).end;
        count += 1;
    }
    count
}

/// `primes` cut into consecutive runs, each as long as fits in a `u64`.
#[expect(
    clippy::indexing_slicing,
    reason = "compile-time table: `P` is pack_count(primes), one slot per run"
)]
const fn packs<const P: usize>(primes: &[u64]) -> [Pack; P] {
    let mut out = [Pack { product: 1, end: 0 }; P];
    let (mut i, mut k) = (0, 0);
    while i < primes.len() {
        out[k] = run_from(primes, i);
        i = out[k].end;
        k += 1;
    }
    out
}

/// `limbs mod m` for `m > 0`, by 2-by-1 divisions from the top limb.
fn rem_limbs(limbs: &[Limb], m: u64) -> u64 {
    limbs
        .iter()
        .rev()
        .fold(0, |rem, &limb| div2by1(rem, limb, m).1)
}

/// The first prime of `primes` that divides `n`, one remainder per pack.
fn packed_factor(n: &Natural, packs: &[Pack], primes: &[u64]) -> Option<u64> {
    let mut start = 0;
    for pack in packs {
        let rem = rem_limbs(n.limbs(), pack.product);
        let run = primes.get(start..pack.end).unwrap_or_default();
        if let Some(&p) = run.iter().find(|&&p| rem.is_multiple_of(p)) {
            return Some(p);
        }
        start = pack.end;
    }
    None
}

/// Trial division by the odd primes to 211: `Some(verdict)` when it
/// decides `n` — below 2, even, one of those primes (or 2), or divisible
/// by one — and `None` for a survivor, which is odd and above 211 and
/// goes on to Miller–Rabin.
pub fn trial_division(n: &Natural) -> Option<bool> {
    if let Some(v) = n.to_u64() {
        if v < 2 {
            return Some(false);
        }
        if v == 2 || SMALL_PRIMES.contains(&v) {
            return Some(true);
        }
    }
    if n.is_even() || packed_factor(n, &TRIAL_PACKS, &SMALL_PRIMES).is_some() {
        return Some(false);
    }
    None
}

/// The least prime `r` with `211 < r < 2^13` that divides `n` and is not
/// `n` itself. A survivor of [`trial_division`] with such a
/// factor is composite, but only [`round_fails_modulo`] says whether a
/// given base's round rejects it.
pub fn sieve_factor(n: &Natural) -> Option<u64> {
    packed_factor(n, &SIEVE_PACKS, &SIEVE_PRIMES).filter(|&r| n.to_u64() != Some(r))
}

/// Whether `base` fails the strong-probable-prime conditions of `n`
/// modulo `r`, a prime factor of `n` with `2 < r < 2^32`.
///
/// With `n − 1 = d·2^s`, a round that passes has `base^d ≡ 1` or
/// `base^(d·2^i) ≡ −1 (mod n)` for some `i < s`, and then the same holds
/// modulo `r`. So `true` here means [`MillerRabin::round`] rejects `base`,
/// with no modular exponentiation at `n`'s width; `false` says nothing.
pub fn round_fails_modulo(n: &Natural, base: &Natural, r: u64) -> bool {
    debug_assert!(r > 2 && r < 1 << 32, "r must be an odd prime below 2^32");
    let Some(n_minus_1) = n.checked_sub(&Natural::one()) else {
        return false;
    };
    let s = trailing_zeros(&n_minus_1);
    let a = rem_limbs(base.limbs(), r);
    if a == 0 {
        // base^(d·2^i) ≡ 0 (mod r), which is neither 1 nor −1.
        return true;
    }
    // r is prime and a ≢ 0, so a^(r−1) ≡ 1 (mod r) and d may be reduced.
    let e = rem_limbs(n_minus_1.shr_bits(s).limbs(), r - 1);
    let mut x = pow_mod_small(a, e, r);
    if x == 1 || x == r - 1 {
        return false;
    }
    for _ in 1..s {
        x = x * x % r;
        if x == r - 1 {
            return false;
        }
    }
    true
}

/// `a^e mod r` for `a < r < 2^32`, by binary exponentiation.
fn pow_mod_small(a: u64, mut e: u64, r: u64) -> u64 {
    let (mut base, mut acc) = (a, 1);
    while e > 0 {
        if e & 1 == 1 {
            acc = acc * base % r;
        }
        base = base * base % r;
        e >>= 1;
    }
    acc
}

/// One odd modulus `n > 3` prepared for Miller–Rabin rounds:
/// `n − 1 = d·2^s` with `d` odd, and `n`'s Montgomery domain.
#[derive(Debug)]
pub struct MillerRabin {
    ctx: MontgomeryCtx,
    n_minus_1: Natural,
    d: Natural,
    s: u32,
    /// `n − 1` in the Montgomery domain, what a squaring is compared to.
    minus_one_m: Natural,
}

impl MillerRabin {
    /// Prepares the odd modulus `n > 3`; `None` for any other `n`.
    pub fn new(n: &Natural) -> Option<Self> {
        if n <= &Natural::from(3u64) {
            return None;
        }
        let ctx = MontgomeryCtx::new(n).ok()?;
        let n_minus_1 = n.checked_sub(&Natural::one())?;
        let s = trailing_zeros(&n_minus_1);
        Some(MillerRabin {
            d: n_minus_1.shr_bits(s),
            minus_one_m: ctx.to_mont(&n_minus_1),
            ctx,
            n_minus_1,
            s,
        })
    }

    /// One strong-probable-prime round with `base` in `[2, n − 2]`: `true`
    /// when `n` passes, `false` when `base` witnesses that it is composite.
    ///
    /// `base^d` runs through [`mod_pow_ct`] under the public bound
    /// `bits(n)`: `d` comes from the prime that will be kept, and a sliding
    /// window's multiply schedule would leak its bits. The `s − 1`
    /// squarings stay in the Montgomery domain.
    pub fn round(&self, base: &Natural) -> bool {
        let bits = self.ctx.modulus().bit_len();
        let x = mod_pow_ct(&self.ctx, base, &self.d, bits);
        if x.is_one() || x == self.n_minus_1 {
            return true;
        }
        let mut x_m = self.ctx.to_mont(&x);
        for _ in 1..self.s {
            x_m = self.ctx.mont_sqr(&x_m);
            if x_m == self.minus_one_m {
                return true;
            }
        }
        false
    }
}

/// Number of trailing zero bits; total (returns the full bit count for
/// zero, which callers never pass).
fn trailing_zeros(n: &Natural) -> u32 {
    debug_assert!(!n.is_zero());
    let mut zeros = 0;
    for &l in n.limbs() {
        if l != 0 {
            return zeros + l.trailing_zeros();
        }
        zeros += crate::LIMB_BITS;
    }
    zeros
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modpow::mod_pow;
    use proptest::prelude::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    /// The textbook round, through the sliding window and `%`, as the
    /// reference for [`MillerRabin::round`].
    fn reference_round(n: &Natural, base: &Natural) -> bool {
        let n_minus_1 = n - &Natural::one();
        let s = trailing_zeros(&n_minus_1);
        let mut x = mod_pow(base, &n_minus_1.shr_bits(s), n).unwrap();
        if x.is_one() || x == n_minus_1 {
            return true;
        }
        for _ in 1..s {
            x = &(&x * &x) % n;
            if x == n_minus_1 {
                return true;
            }
        }
        false
    }

    /// Trial division, then rounds with the bases 2, 3, 5, … 37.
    fn passes(v: u128) -> bool {
        match trial_division(&n(v)) {
            Some(verdict) => verdict,
            None => {
                let mr = MillerRabin::new(&n(v)).unwrap();
                [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
                    .iter()
                    .all(|&b| mr.round(&Natural::from(b)))
            }
        }
    }

    #[test]
    fn small_primes_recognized() {
        for p in [2u128, 3, 5, 7, 11, 13, 97, 101, 211, 223, 8191, 65537] {
            assert!(passes(p), "{p} is prime");
        }
    }

    #[test]
    fn small_composites_rejected() {
        for c in [0u128, 1, 4, 6, 9, 15, 91, 6601 /* Carmichael */, 65536] {
            assert!(!passes(c), "{c} is composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Classic Fermat pseudoprimes that Miller–Rabin must catch: base 2
        // is a strong witness for each, whatever trial division says.
        for c in [561u128, 1105, 1729, 2465, 2821, 41041, 825265] {
            assert!(!passes(c), "Carmichael {c}");
            assert!(!MillerRabin::new(&n(c)).unwrap().round(&n(2)), "{c}");
        }
    }

    #[test]
    fn mersenne_127_is_prime() {
        let m127 = n((1u128 << 127) - 1);
        assert_eq!(sieve_factor(&m127), None);
        assert!(passes((1u128 << 127) - 1));
    }

    #[test]
    fn strong_pseudoprimes_pass_base_2_and_agree_modulo_each_factor() {
        // Strong pseudoprimes to base 2 with their factors: the round
        // passes, so it must pass modulo every factor too.
        for (c, factors) in [
            (2047u128, [23u64, 89]),
            (3277, [29, 113]),
            (4033, [37, 109]),
            (4681, [31, 151]),
            (8321, [53, 157]),
        ] {
            assert!(MillerRabin::new(&n(c)).unwrap().round(&n(2)), "{c}");
            for r in factors {
                assert!(!round_fails_modulo(&n(c), &n(2), r), "{c} mod {r}");
            }
        }
    }

    #[test]
    fn trial_division_and_sieve_see_the_right_primes() {
        assert_eq!(SMALL_PRIMES.len(), 46);
        assert_eq!(SMALL_PRIMES.last(), Some(&211));
        assert_eq!(SIEVE_PRIMES.first(), Some(&223));
        assert_eq!(SIEVE_PRIMES.last(), Some(&8191));
        assert_eq!(SIEVE_PRIMES.len(), 1028 - 47);
        assert_eq!(TRIAL_PACKS.last().map(|p| p.end), Some(SMALL_PRIMES.len()));
        assert_eq!(SIEVE_PACKS.last().map(|p| p.end), Some(SIEVE_PRIMES.len()));
        // 223 · 8191 survives trial division; the sieve names 223, not 8191.
        let c = n(223 * 8191);
        assert_eq!(trial_division(&c), None);
        assert_eq!(sieve_factor(&c), Some(223));
        // A sieve prime is not its own factor.
        assert_eq!(sieve_factor(&n(8191)), None);
        assert_eq!(trial_division(&n(211 * 3)), Some(false));
    }

    proptest! {
        #[test]
        fn round_matches_the_textbook_round(v in 5u64..u64::MAX, b in any::<u64>()) {
            let v = v | 1;
            let base = Natural::from(2 + b % (v - 3));
            let mr = MillerRabin::new(&Natural::from(v)).unwrap();
            prop_assert_eq!(mr.round(&base), reference_round(&Natural::from(v), &base));
        }

        #[test]
        fn a_base_failing_modulo_a_factor_fails_the_round(
            k in 0usize..SIEVE_PRIMES.len(),
            m in any::<u64>(),
            hi in any::<u64>(),
            b in any::<u64>(),
            b_hi in any::<u64>(),
        ) {
            // n = r·m is odd and composite; r is a sieve prime.
            let r = SIEVE_PRIMES[k];
            let n = &Natural::from(r) * &Natural::from((u128::from(hi) << 64) | u128::from(m | 1));
            let span = &n - &Natural::from(3u64);
            let base = &(&Natural::from((u128::from(b_hi) << 64) | u128::from(b)) % &span)
                + &Natural::from(2u64);
            let full = MillerRabin::new(&n).unwrap().round(&base);
            prop_assert_eq!(full, reference_round(&n, &base));
            if round_fails_modulo(&n, &base, r) {
                prop_assert!(!full, "base {base} fails mod {r} but passes mod {n}");
            }
        }
    }

    #[test]
    fn trailing_zeros_multi_limb() {
        assert_eq!(trailing_zeros(&n(1)), 0);
        assert_eq!(trailing_zeros(&n(8)), 3);
        assert_eq!(trailing_zeros(&Natural::one().shl_bits(100)), 100);
    }
}
