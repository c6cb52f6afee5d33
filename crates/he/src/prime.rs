//! The prime search of key generation, with its Miller–Rabin rounds side
//! by side on the pool.
//!
//! The search returns bit for bit what a serial loop returns: draw a
//! `bits`-bit odd candidate, decide it by trial division or draw bases in
//! `[2, n − 2]` one at a time until a round rejects it or
//! [`MR_ROUNDS`] rounds pass. Same primes, same number of candidates, and
//! the caller's RNG left in the same state, at every pool width:
//!
//! - **The walk** draws candidates and, for each survivor of trial
//!   division, its first base, as if every survivor failed its first
//!   round, and keeps a `Clone` of the RNG just after each such base.
//! - **The sieve.** A survivor with a factor `r` below `2^13`
//!   ([`sieve_factor`]) whose base fails the round's conditions modulo `r`
//!   is rejected with no modular exponentiation: the full round would
//!   reject that base too ([`round_fails_modulo`]).
//! - **Round 1.** The first rounds of [`BATCH`] further survivors run as
//!   one pool drive. Survivors before the earliest one that passes did
//!   fail, as the walk assumed; those after it were drawn from the wrong
//!   RNG state and are dropped.
//! - **Rounds 2–40.** From the passing survivor's snapshot, the bases of
//!   its remaining rounds are drawn in order and the rounds run as one
//!   drive. If one fails, the RNG goes back to the snapshot and redraws
//!   the bases up to that round, and the walk resumes.

use mpint::prime::{round_fails_modulo, sieve_factor, trial_division, MillerRabin};
use mpint::random::{random_below, random_bits};
use mpint::Natural;
use rand::Rng;
use rayon::prelude::*;

use crate::Result;

/// Miller–Rabin rounds per accepted prime: error probability ≤ 4^-40.
const MR_ROUNDS: u32 = 40;

/// Survivors whose first rounds share one pool drive. It is a constant:
/// the result never depends on it, and pool width may not reach results.
const BATCH: usize = 8;

/// A survivor of trial division and the sieve, with its first base.
struct Survivor {
    candidate: Natural,
    base: Natural,
    /// Candidates drawn up to and including this one.
    attempts: u32,
}

/// Generates a prime pair `(p, q)` with `p != q`, both `bits` bits: the
/// Paillier and RSA key-generation primitive.
pub(crate) fn generate_prime_pair<R: Rng + Clone>(
    rng: &mut R,
    bits: u32,
) -> Result<(Natural, Natural)> {
    let (p, _) = search(rng, bits)?;
    loop {
        let (q, _) = search(rng, bits)?;
        if q != p {
            return Ok((p, q));
        }
    }
}

/// A random prime with exactly `bits` bits, and the number of candidates
/// drawn to find it.
///
/// Candidates force the top bit (exact size, per the paper: "the lengths
/// of the large prime number p and q are the same as the length of other
/// large integers") and the bottom bit. The budget is `40·max(bits, 8)`
/// candidates, several standard deviations above the mean for a prime
/// density of `2/(bits·ln 2)` among odd numbers.
pub(crate) fn search<R: Rng + Clone>(rng: &mut R, bits: u32) -> Result<(Natural, u32)> {
    let failed = |attempts| mpint::Error::PrimeGenerationFailed { bits, attempts };
    if bits < 2 {
        return Err(failed(0).into());
    }
    let max_attempts = 40 * bits.max(8);
    let mut attempts = 0;
    let mut batch: Vec<Survivor> = Vec::with_capacity(BATCH);
    // The RNG just after each survivor's base was drawn.
    let mut afters: Vec<R> = Vec::with_capacity(BATCH);
    loop {
        // A prime that trial division accepts ends the walk: the batch
        // before it is tested first.
        let mut decided = None;
        while batch.len() < BATCH && attempts < max_attempts {
            let mut candidate = random_bits(rng, bits);
            candidate.set_bit(0, true);
            attempts += 1;
            match trial_division(&candidate) {
                Some(true) => {
                    decided = Some(candidate);
                    break;
                }
                Some(false) => continue,
                None => {}
            }
            // A survivor is odd and above 211, so its base span is positive.
            let base = draw_base(rng, &candidate);
            if sieve_factor(&candidate).is_some_and(|r| round_fails_modulo(&candidate, &base, r)) {
                continue;
            }
            afters.push(rng.clone());
            batch.push(Survivor {
                candidate,
                base,
                attempts,
            });
        }

        let passes = side_by_side(batch.len(), |i| {
            batch
                .get(i)
                .is_some_and(|s| MillerRabin::new(&s.candidate).is_some_and(|mr| mr.round(&s.base)))
        });
        let first = passes.iter().position(|&pass| pass);
        let passed = first.and_then(|i| batch.drain(..).zip(afters.drain(..)).nth(i));
        match passed {
            Some((passed, after)) => {
                *rng = after;
                attempts = passed.attempts;
                if confirm(rng, &passed.candidate) {
                    return Ok((passed.candidate, attempts));
                }
            }
            None => {
                if let Some(prime) = decided {
                    return Ok((prime, attempts));
                }
                if attempts >= max_attempts {
                    return Err(failed(max_attempts).into());
                }
            }
        }
        batch.clear();
        afters.clear();
    }
}

/// Rounds 2 to [`MR_ROUNDS`] of a candidate that passed its first: all
/// bases drawn in order, all rounds in one drive. On a rejection the RNG
/// is left just after the rejecting round's base, as the serial loop
/// leaves it.
fn confirm<R: Rng + Clone>(rng: &mut R, candidate: &Natural) -> bool {
    let Some(mr) = MillerRabin::new(candidate) else {
        return false;
    };
    let start = rng.clone();
    let bases: Vec<Natural> = (1..MR_ROUNDS).map(|_| draw_base(rng, candidate)).collect();
    let passes = side_by_side(bases.len(), |i| bases.get(i).is_some_and(|b| mr.round(b)));
    match passes.iter().position(|&pass| !pass) {
        None => true,
        Some(k) => {
            *rng = start;
            for _ in 0..=k {
                draw_base(rng, candidate);
            }
            false
        }
    }
}

/// A uniform base in `[2, n − 2]` for the odd `n > 3`.
fn draw_base<R: Rng>(rng: &mut R, n: &Natural) -> Natural {
    let span = n - &Natural::from(3u64);
    &random_below(rng, &span) + &Natural::from(2u64)
}

/// The verdicts of `round(0..len)`, run side by side on the pool, in
/// index order.
fn side_by_side(len: usize, round: impl Fn(usize) -> bool + Sync) -> Vec<bool> {
    #[expect(
        clippy::disallowed_methods,
        reason = "drive home: the Miller-Rabin rounds of one prime-search step"
    )]
    let verdicts = (0..len).into_par_iter().map(round).collect();
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Error;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The serial search this module replaces, kept as the oracle: trial
    /// division by the odd primes to 211, then rounds with fresh bases
    /// through the sliding window, one candidate at a time. Returns the
    /// prime and the candidates drawn.
    fn serial_prime<R: Rng>(rng: &mut R, bits: u32) -> Result<(Natural, u32)> {
        serial_search(rng, bits, &mut 0)
    }

    /// [`serial_prime`], counting into `liars` the composites that passed
    /// at least their first round.
    fn serial_search<R: Rng>(rng: &mut R, bits: u32, liars: &mut u32) -> Result<(Natural, u32)> {
        if bits < 2 {
            return Err(mpint::Error::PrimeGenerationFailed { bits, attempts: 0 }.into());
        }
        let max_attempts = 40 * bits.max(8);
        for attempt in 0..max_attempts {
            let mut candidate = random_bits(rng, bits);
            candidate.set_bit(0, true);
            match serial_is_probable_prime(&candidate, rng) {
                (true, _) => return Ok((candidate, attempt + 1)),
                (false, passed) => *liars += u32::from(passed > 0),
            }
        }
        Err(mpint::Error::PrimeGenerationFailed {
            bits,
            attempts: max_attempts,
        }
        .into())
    }

    const SMALL_PRIMES: [u64; 46] = [
        3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
        97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
        191, 193, 197, 199, 211,
    ];

    /// The verdict, and the rounds passed before a rejection.
    fn serial_is_probable_prime<R: Rng>(n: &Natural, rng: &mut R) -> (bool, u32) {
        if let Some(v) = n.to_u64() {
            if v < 2 {
                return (false, 0);
            }
            if v == 2 {
                return (true, 0);
            }
        }
        if n.is_even() {
            return (false, 0);
        }
        for &p in &SMALL_PRIMES {
            if n == &Natural::from(p) {
                return (true, 0);
            }
            if n.div_rem_small(p).1 == 0 {
                return (false, 0);
            }
        }
        let n_minus_1 = n - &Natural::one();
        let mut s = 0;
        while !n_minus_1.bit(s) {
            s += 1;
        }
        let d = n_minus_1.shr_bits(s);
        let bound = n - &Natural::from(3u64);
        'witness: for round in 0..MR_ROUNDS {
            let a = &random_below(rng, &bound) + &Natural::from(2u64);
            let mut x = mpint::modpow::mod_pow(&a, &d, n).unwrap();
            if x.is_one() || x == n_minus_1 {
                continue 'witness;
            }
            for _ in 0..s.saturating_sub(1) {
                x = &(&x * &x) % n;
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return (false, round);
        }
        (true, MR_ROUNDS)
    }

    fn in_pool<T: Send>(threads: usize, body: impl FnOnce() -> T + Send) -> T {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(body)
    }

    #[test]
    fn search_matches_the_serial_loop_at_every_width() {
        // Small widths: strong liars pass first rounds and fail later
        // ones, and sieve primes divide most survivors.
        for bits in (2..=24).chain([31, 32, 33, 48, 63, 64]) {
            for seed in 0..24u64 {
                let seed = seed * 0x9E37 + u64::from(bits);
                let mut oracle = ChaCha8Rng::seed_from_u64(seed);
                let want = serial_prime(&mut oracle, bits);
                for threads in [1, 2, 3] {
                    let (got, next) = in_pool(threads, || {
                        let mut rng = ChaCha8Rng::seed_from_u64(seed);
                        (search(&mut rng, bits), rng.next_u64())
                    });
                    let ctx = format!("bits {bits} seed {seed} threads {threads}");
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(next, oracle.clone().next_u64(), "{ctx}");
                }
            }
        }
    }

    /// A seeded stream whose first word is fixed.
    #[derive(Clone)]
    struct Scripted {
        first: Option<u64>,
        rest: ChaCha8Rng,
    }

    impl RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            self.rest.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.first.take().unwrap_or_else(|| self.rest.next_u64())
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.rest.fill_bytes(dest);
        }
    }

    #[test]
    fn search_matches_the_serial_loop_on_strong_liars() {
        // Random composites have few strong liars, so the first candidate
        // is p·(2p − 1) with p ≡ 3 (mod 4), which about a quarter of all
        // bases pass: searches confirm it, reject it in a later round,
        // rewind, redraw and walk on. 271 is a sieve prime, 8287 is not.
        let mut liars = 0;
        for (n, bits) in [(271u64 * 541, 18u32), (8287 * 16573, 28)] {
            for seed in 0..64u64 {
                let stream = Scripted {
                    first: Some(n),
                    rest: ChaCha8Rng::seed_from_u64(seed),
                };
                let mut oracle = stream.clone();
                let want = serial_search(&mut oracle, bits, &mut liars);
                for threads in [1, 2] {
                    let mut rng = stream.clone();
                    let got = in_pool(threads, || search(&mut rng, bits));
                    let ctx = format!("n {n} seed {seed} threads {threads}");
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(rng.next_u64(), oracle.clone().next_u64(), "{ctx}");
                }
            }
        }
        assert!(liars > 16, "only {liars} composites passed a first round");
    }

    /// An RNG that yields one word forever and counts its draws.
    #[derive(Clone)]
    struct Stuck {
        word: u64,
        draws: u64,
    }

    impl RngCore for Stuck {
        fn next_u32(&mut self) -> u32 {
            self.draws += 1;
            u32::try_from(self.word & 0xFFFF_FFFF).unwrap()
        }
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.word
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let word = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
        }
    }

    #[test]
    fn exhausted_budget_matches_the_serial_loop() {
        // Every candidate is the same all-ones composite, which trial
        // division rejects (3 divides each), so the budget runs out.
        for (word, bits) in [(0xFFFFu64, 16u32), (0xFFFF_FFFF, 32), (u64::MAX, 64)] {
            let mut oracle = Stuck { word, draws: 0 };
            let want = serial_prime(&mut oracle, bits);
            assert_eq!(
                want,
                Err(Error::Arithmetic(mpint::Error::PrimeGenerationFailed {
                    bits,
                    attempts: 40 * bits
                }))
            );
            for threads in [1, 2] {
                let mut rng = Stuck { word, draws: 0 };
                let got = in_pool(threads, || search(&mut rng, bits));
                assert_eq!(got, want, "{word:#x} threads {threads}");
                assert_eq!(rng.draws, oracle.draws, "{word:#x} threads {threads}");
            }
        }
    }

    #[test]
    fn generated_primes_have_exact_size() {
        let mut r = ChaCha8Rng::seed_from_u64(0x9E37_79B9);
        for bits in [16u32, 64, 128, 256] {
            let (p, _) = search(&mut r, bits).unwrap();
            assert_eq!(p.bit_len(), bits);
            assert!(p.is_odd());
            let mr = MillerRabin::new(&p).unwrap();
            assert!((2..20u64).all(|b| mr.round(&Natural::from(b))));
        }
    }

    #[test]
    fn prime_pair_distinct() {
        let mut r = ChaCha8Rng::seed_from_u64(0x9E37_79B9);
        let (p, q) = generate_prime_pair(&mut r, 32).unwrap();
        assert_ne!(p, q);
        assert_eq!(p.bit_len(), 32);
        assert_eq!(q.bit_len(), 32);
    }

    #[test]
    fn rsa_style_semiprime_rejected() {
        let mut r = ChaCha8Rng::seed_from_u64(0x9E37_79B9);
        let (p, q) = generate_prime_pair(&mut r, 64).unwrap();
        let mr = MillerRabin::new(&(&p * &q)).unwrap();
        assert!(!(2..20u64).all(|b| mr.round(&Natural::from(b))));
    }

    #[test]
    fn rejects_tiny_request() {
        let mut r = ChaCha8Rng::seed_from_u64(0x9E37_79B9);
        assert_eq!(
            search(&mut r, 1),
            Err(Error::Arithmetic(mpint::Error::PrimeGenerationFailed {
                bits: 1,
                attempts: 0
            }))
        );
    }
}
