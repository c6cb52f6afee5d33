//! The Paillier cryptosystem (paper Sec. III-B).
//!
//! Additive homomorphic encryption over `Z_n` with ciphertexts in
//! `Z*_{n²}`:
//!
//! - **Key generation**: primes `p, q` of `k/2` bits, `n = p·q`,
//!   `λ = lcm(p-1, q-1)`. The generator is always `g = n + 1`, which
//!   satisfies the paper's `gcd(n, L(g^λ mod n²)) = 1` condition and makes
//!   `g^m mod n² = 1 + m·n` a single multiplication, so a plaintext is
//!   never an exponent.
//! - **Encryption** (paper Eq. 3): `E(m) = g^m · r^n mod n²`. The
//!   blinding power `r^n mod n²` is the expensive half and does not
//!   depend on the plaintext, so it is packaged as an [`Obfuscator`],
//!   and one from an [`ObfuscatorPool`] is charged as computed ahead of
//!   the batch. For an
//!   explicit `r` there are two routes to the same value: anyone holding
//!   the public key pays one `bits(n)`-bit power over `n²`-wide operands
//!   ([`PaillierPublicKey::precompute_obfuscator`]); the key owner pays,
//!   for each prime, one half-length power modulo the prime and one
//!   modulo its square, and recombines by CRT
//!   ([`PaillierPrivateKey::precompute_obfuscator`]) — a third of the
//!   work for the identical residue. A pool does neither per factor: it
//!   raises one per-key `n`-th residue `h_s` to a short secret exponent
//!   through a fixed-base table ([`ObfuscatorPool`] says what that
//!   assumes).
//! - **Decryption** (paper Eq. 4): `D(c) = L(c^λ mod n²) / L(g^λ mod n²)
//!   mod n`, with an optional CRT fast path that exponentiates modulo `p²`
//!   and `q²` separately (≈4× fewer limb operations).
//! - **Secret exponents** — `λ`, `p−1`, `q−1` and the owner route's
//!   exponents — are held as [`Secret`]s and all go through the one
//!   constant-time fixed-window exponentiation
//!   ([`mpint::modpow::mod_pow_ct`]); a pool's blinding exponents go
//!   through the constant-time comb ([`mpint::comb::FixedBaseCt`]).
//! - **Cost estimates** (`*_op_estimate`) price the *simulated device's*
//!   schedule — a sliding window for public exponents, one squaring and
//!   one multiply per exponent bit for secret ones — which is what
//!   `calibrate_cost` conforms to. The host's own schedules (above) are
//!   cheaper and do not enter the simulated seconds. Which kernel each
//!   estimate prices is a row of `tests/golden_schedule.rs` that binds
//!   the kernel through a typed fn pointer and pins the estimate.
//! - **Homomorphic addition** (paper Eq. 5): `E(m₁)·E(m₂) = E(m₁+m₂)`,
//!   plus plaintext-scalar multiplication `E(m)^k = E(k·m)` used for
//!   weighted gradient aggregation.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use mpint::cios::{mont_mul_mac_count, mont_sqr_mac_count};
use mpint::comb::FixedBaseCt;
use mpint::ct::Secret;
use mpint::modpow::{mod_pow_ct, mod_pow_ctx, window_size_for};
use mpint::prime::{generate_prime_pair, DEFAULT_MR_ROUNDS};
use mpint::random::random_coprime;
use mpint::straus;
use mpint::{mod_inv, Limb, MontgomeryCtx, Natural, LIMB_BITS};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{Error, Result};

/// Smallest accepted key size. Real deployments need ≥1024 (paper Sec.
/// IV-A: "only HE with enough large key size can be allowed"); tests use
/// smaller keys for speed.
pub const MIN_KEY_BITS: u32 = 64;

/// A Paillier ciphertext: an element of `Z*_{n²}` tagged with a key
/// fingerprint so cross-key operations fail loudly instead of decrypting
/// to garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    /// The ciphertext value `c ∈ Z*_{n²}`.
    pub value: Natural,
    pub(crate) key_id: u64,
}

impl Ciphertext {
    /// The ciphertext value `c ∈ Z*_{n²}`.
    pub fn value(&self) -> &Natural {
        &self.value
    }

    /// Bytes this ciphertext occupies on the wire (what the network
    /// simulator charges).
    pub fn wire_size_bytes(&self) -> usize {
        self.value.wire_size_bytes()
    }
}

/// Public key: the modulus `n` (the generator is `g = n + 1`) plus
/// precomputed Montgomery state for `mod n²`.
#[derive(Debug, Clone)]
pub struct PaillierPublicKey {
    /// The modulus `n = p·q`.
    pub n: Natural,
    /// `n²`, the ciphertext modulus.
    pub n_squared: Natural,
    /// Nominal key size in bits.
    pub key_bits: u32,
    pub(crate) ctx_n2: MontgomeryCtx,
    pub(crate) key_id: u64,
}

/// Private key: `(p, q)` with both the direct (`λ, μ`) and CRT decryption
/// precomputations. `Debug` prints the key size and fingerprint only.
/// Every secret exponent is a [`Secret`], read only by `pow_secret`;
/// `p` stays a plain `Natural` because the benchmark reads it.
#[derive(Clone)]
pub struct PaillierPrivateKey {
    /// Prime factor `p`.
    pub p: Natural,
    /// Prime factor `q`.
    pub q: Natural,
    /// `λ = lcm(p-1, q-1)`.
    pub lambda: Secret,
    /// `μ = L(g^λ mod n²)^{-1} mod n`.
    pub mu: Natural,
    /// Copy of the public key for the moduli and contexts.
    pub public: PaillierPublicKey,
    // CRT precomputation.
    p_squared: Natural,
    q_squared: Natural,
    p_minus_1: Secret,
    q_minus_1: Secret,
    ctx_p2: MontgomeryCtx,
    ctx_q2: MontgomeryCtx,
    /// `h_p = L_p(g^{p-1} mod p²)^{-1} mod p`.
    h_p: Natural,
    /// `h_q = L_q(g^{q-1} mod q²)^{-1} mod q`.
    h_q: Natural,
    /// `p^{-1} mod q` for the CRT recombination.
    p_inv_q: Natural,
    // Owner-route blinding precomputation (`r^n` mod `p²`, `q²`).
    ctx_p: MontgomeryCtx,
    ctx_q: MontgomeryCtx,
    /// `q mod (p-1)`: the exponent of `r^q mod p`.
    q_mod_p1: Secret,
    /// `p mod (q-1)`.
    p_mod_q1: Secret,
    /// `(p²)^{-1} mod q²` for recombining the two blinding residues.
    p2_inv_q2: Natural,
}

/// A generated key pair. `Debug` prints the key size and fingerprint only.
#[derive(Clone)]
pub struct PaillierKeyPair {
    /// The public (encryption) key.
    pub public: PaillierPublicKey,
    /// The private (decryption) key.
    pub private: PaillierPrivateKey,
}

/// `Debug` body shared by everything that holds private-key material: the
/// type name, the key size and the key fingerprint, and nothing a factor,
/// exponent or blinding residue could be read from.
pub(crate) fn fmt_redacted(
    f: &mut fmt::Formatter<'_>,
    name: &str,
    key_bits: u32,
    fingerprint: u64,
) -> fmt::Result {
    f.debug_struct(name)
        .field("key_bits", &key_bits)
        .field("fingerprint", &format_args!("{fingerprint:#018x}"))
        .finish_non_exhaustive()
}

impl fmt::Debug for PaillierPrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pk = &self.public;
        fmt_redacted(f, "PaillierPrivateKey", pk.key_bits, pk.key_id)
    }
}

impl fmt::Debug for PaillierKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pk = &self.public;
        fmt_redacted(f, "PaillierKeyPair", pk.key_bits, pk.key_id)
    }
}

/// `L(x) = (x - 1) / n` — the paper's L function, defined on `x ≡ 1 mod n`.
/// Callers pass powers of a checked ciphertext, which lies in `[1, n²)`;
/// `x = 0` (a ciphertext sharing a factor with `n`) maps to `L(0) = 0`.
fn l_function(x: &Natural, n: &Natural) -> Natural {
    let (q, _r) = x
        .checked_sub(&Natural::one())
        .unwrap_or_default()
        .div_rem(n);
    q
}

/// Secret-exponent exponentiation, and the private key's one read of its
/// [`Secret`]s: `λ`, the CRT exponents `p-1`, `q-1`, the owner route's
/// `q mod (p-1)` and its mirror go through the constant-time fixed window
/// with a public key-size bound rather than the sliding-window path (whose
/// multiply schedule mirrors the exponent bits).
// flcheck: ct-fn
#[expect(
    clippy::disallowed_methods,
    reason = "the constant-time window is the one reader of a private exponent"
)]
fn pow_secret(ctx: &MontgomeryCtx, base: &Natural, exp: &Secret, bits: u32) -> Natural {
    mod_pow_ct(ctx, base, exp.expose(), bits)
}

/// Limb-op estimate of one sliding-window exponentiation (`mod_pow_ctx`)
/// with a public `e_bits`-bit exponent over `s`-limb operands, as the
/// simulated device is charged for it.
///
/// The simulator's historical unit charges one `s`-limb `mont_mul` as
/// `s²` limb ops — half its 64×64 MAC count — so totals here are MAC
/// counts halved. Squarings are charged at the dedicated
/// [`mont_sqr`](mpint::cios::mont_sqr) kernel's cheaper rate (~¾ of a
/// general multiply).
fn window_pow_ops(s: usize, e_bits: u32) -> u64 {
    let w = window_size_for(e_bits) as u64;
    let e = e_bits as u64;
    let sqr_macs = e * mont_sqr_mac_count(s);
    let mul_macs = (e / (w + 1) + (1 << (w - 1))) * mont_mul_mac_count(s);
    (sqr_macs + mul_macs) / 2
}

/// Limb-op estimate of one secret-exponent power on the *simulated
/// device*: one squaring and one multiply per exponent bit, regardless of
/// the bits. This is the charged schedule `calibrate_cost` conforms to,
/// not the host's — [`mod_pow_ct`] runs a fixed window
/// ([`mpint::modpow::mod_pow_ct_counts`]) and does less. Same unit as
/// [`window_pow_ops`].
fn ladder_pow_ops(s: usize, e_bits: u32) -> u64 {
    (e_bits as u64) * (mont_sqr_mac_count(s) + mont_mul_mac_count(s)) / 2
}

impl PaillierKeyPair {
    /// Generates a key pair with an `bits`-bit modulus `n`.
    // Key generation is setup, not per-item work: the paper's cost model
    // (and the simulator's launch accounting) charges steady-state
    // encrypt/aggregate/decrypt traffic, not the one-time keygen that
    // precedes training.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: u32) -> Result<Self> {
        if bits < MIN_KEY_BITS {
            return Err(Error::KeySizeTooSmall {
                bits,
                min: MIN_KEY_BITS,
            });
        }
        loop {
            let (p, q) = generate_prime_pair(rng, bits / 2, DEFAULT_MR_ROUNDS)?;
            let n = &p * &q;
            // Equal-size primes guarantee gcd(n, (p-1)(q-1)) = 1 unless
            // p | q-1 or q | p-1, impossible at equal bit lengths — but n
            // can land at bits-1 when both primes are near 2^(b/2); retry.
            if n.bit_len() != bits {
                continue;
            }
            return Self::from_primes(p, q, bits);
        }
    }

    /// Builds a key pair from explicit primes (used by tests and by the
    /// deterministic benchmark harness) with the generator `g = n + 1`.
    pub fn from_primes(p: Natural, q: Natural, key_bits: u32) -> Result<Self> {
        let n = &p * &q;
        let n_squared = n.square();
        let one = Natural::one();
        let ctx_n2 = MontgomeryCtx::new(&n_squared)?;
        let key_id = key_fingerprint(&n, &(&n + &one));
        let public = PaillierPublicKey {
            n: n.clone(),
            n_squared,
            key_bits,
            ctx_n2,
            key_id,
        };

        let p_minus_1 = p
            .checked_sub(&one)
            .ok_or(Error::InvalidParameter("prime factor p must exceed 1"))?;
        let q_minus_1 = q
            .checked_sub(&one)
            .ok_or(Error::InvalidParameter("prime factor q must exceed 1"))?;
        let lambda = mpint::lcm(&p_minus_1, &q_minus_1);

        // μ = L(g^λ mod n²)^{-1} mod n. With g = n+1,
        // g^λ mod n² = 1 + λ·n mod n², hence L(g^λ) = λ mod n.
        let mu = mod_inv(&(&lambda % &n), &n)?;

        // CRT precomputation.
        let p_squared = p.square();
        let q_squared = q.square();
        let ctx_p2 = MontgomeryCtx::new(&p_squared)?;
        let ctx_q2 = MontgomeryCtx::new(&q_squared)?;
        // n² ≡ 0 (mod p²), so g^k mod p² = 1 + k·n mod p² — no
        // exponentiation needed.
        let g_p = &(&one + &(&p_minus_1 * &n)) % &p_squared;
        let h_p = mod_inv(&(&l_function(&g_p, &p) % &p), &p)?;
        let g_q = &(&one + &(&q_minus_1 * &n)) % &q_squared;
        let h_q = mod_inv(&(&l_function(&g_q, &q) % &q), &q)?;
        let p_inv_q = mod_inv(&(&p % &q), &q)?;

        // Owner-route blinding precomputation.
        let ctx_p = MontgomeryCtx::new(&p)?;
        let ctx_q = MontgomeryCtx::new(&q)?;
        let q_mod_p1 = &q % &p_minus_1;
        let p_mod_q1 = &p % &q_minus_1;
        // (p²)⁻¹ mod q² without a second inversion: one Newton step
        // lifts u = p⁻¹ mod q to p⁻¹ mod q² = u·(2 − p·u), and the
        // inverse of a square is the square of the inverse.
        let two = Natural::from(2u64);
        let p_u = &(&p * &p_inv_q) % &q_squared;
        let p_inv_q2 = &(&p_inv_q * &two.mod_sub(&p_u, &q_squared)) % &q_squared;
        let p2_inv_q2 = &p_inv_q2.square() % &q_squared;

        let private = PaillierPrivateKey {
            p,
            q,
            lambda: Secret::new(lambda),
            mu,
            public: public.clone(),
            p_squared,
            q_squared,
            p_minus_1: Secret::new(p_minus_1),
            q_minus_1: Secret::new(q_minus_1),
            ctx_p2,
            ctx_q2,
            h_p,
            h_q,
            p_inv_q,
            ctx_p,
            ctx_q,
            q_mod_p1: Secret::new(q_mod_p1),
            p_mod_q1: Secret::new(p_mod_q1),
            p2_inv_q2,
        };
        Ok(PaillierKeyPair { public, private })
    }
}

/// Cheap structural fingerprint of a key's modulus and its public
/// exponent or generator (`e` for RSA, `n + 1` for Paillier), embedded in
/// ciphertexts to catch cross-key mixing.
pub(crate) fn key_fingerprint(n: &Natural, g: &Natural) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &l in n.limbs().iter().chain(g.limbs()) {
        h ^= l;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A precomputed Paillier blinding factor: an `n`-th residue `r^n mod n²`.
///
/// It is the expensive half of encryption and depends only on the key —
/// never on the plaintext — so it can be computed ahead of the gradient
/// batch: from an explicit `r` by a full `bits(n)`-bit exponentiation
/// ([`PaillierPublicKey::precompute_obfuscator`]), or by an
/// [`ObfuscatorPool`] from its per-key table. An obfuscator is consumed
/// **by value** in [`PaillierPublicKey::encrypt_with_obfuscator`], so each
/// factor blinds exactly one ciphertext; reusing one across two
/// ciphertexts would let their quotient cancel the blinding. `Debug`
/// prints the key fingerprint only: `r^n` unblinds the ciphertext it goes
/// into.
pub struct Obfuscator {
    /// `r^n mod n²`, ready to multiply onto `g^m`.
    r_n: Natural,
    key_id: u64,
}

impl fmt::Debug for Obfuscator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obfuscator")
            .field("fingerprint", &format_args!("{:#018x}", self.key_id))
            .finish_non_exhaustive()
    }
}

/// Domain tags of the two kinds of ChaCha stream a pool derives, the
/// first word of the stream's 32-byte key: the per-key base `h_s`, and an
/// item's blinding exponent.
const BASE_DOMAIN: u64 = u64::from_le_bytes(*b"flb/djnH");
const EXPONENT_DOMAIN: u64 = u64::from_le_bytes(*b"flb/djnA");

/// The ChaCha8 stream keyed by the 32 bytes `domain ‖ key_id ‖ seed ‖
/// index`. The key *is* the tuple, so two streams coincide only when all
/// four words do — unlike [`PaillierPublicKey::batch_blinding`]'s mix of
/// `seed` and `index` into one word, which distinct pairs can share.
fn pool_stream(domain: u64, key_id: u64, seed: u64, index: u64) -> ChaCha8Rng {
    let mut key = [0u8; 32];
    for (bytes, word) in key.chunks_exact_mut(8).zip([domain, key_id, seed, index]) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    ChaCha8Rng::from_seed(key)
}

/// The secret exponent of pool item `(seed, index)` under the key
/// `key_id`: `exp_bits` uniform bits, as limbs of the public length
/// `⌈exp_bits/64⌉` (it never passes through a [`Natural`], whose length
/// would follow its leading zeros).
fn blinding_exponent(key_id: u64, seed: u64, index: u64, exp_bits: u32) -> Vec<Limb> {
    let mut rng = pool_stream(EXPONENT_DOMAIN, key_id, seed, index);
    let limbs = exp_bits.div_ceil(LIMB_BITS);
    let mut a: Vec<Limb> = (0..limbs).map(|_| rng.gen()).collect();
    let spare = limbs * LIMB_BITS - exp_bits;
    if let Some(top) = a.last_mut() {
        *top &= Limb::MAX >> spare;
    }
    a
}

/// The per-key base `h_s`, tabulated for its holder's cheapest route.
enum BlindingBase {
    /// A holder of the public key: one comb modulo `n²`.
    Public(FixedBaseCt),
    /// The key owner: a comb modulo each prime square over `h_s` reduced
    /// by it, and the key for the CRT step that joins the two residues.
    Owner {
        sk: Box<PaillierPrivateKey>,
        at_p2: FixedBaseCt,
        at_q2: FixedBaseCt,
    },
}

/// Blinding factors for batched encryption, charged as pre-generated
/// (HAFLO-style obfuscator pooling) and drawn from a per-key fixed-base
/// table.
///
/// **What a pooled factor is.** Not `r^n` for a fresh uniform `r`: when
/// the pool is built it derives, from the key fingerprint alone, an
/// `x ∈ Z*_n` and the public `n`-th residue `h_s = (−x²)^n mod n²`, and
/// tabulates `h_s` for constant-time fixed-base powers
/// ([`FixedBaseCt`]). The factor of item `(seed, index)` is `h_s^a mod
/// n²` for a secret `a` of `⌈bits(n)/2⌉` uniform bits drawn from a ChaCha8
/// stream keyed by `(key, seed, index)` — the blinding of Damgård, Jurik
/// and Nielsen's Paillier variant. Every factor is still an `n`-th
/// residue (`h_s^a = ((−x²)^a)^n`), so decryption, homomorphic sums and
/// plaintext capacity are exactly as with a uniform `r`. What changes is
/// the distribution: a point of the cyclic subgroup `⟨h_s⟩` reached by a
/// half-length exponent, not a uniform `n`-th residue — semantic security
/// then also assumes such points cannot be told from uniform ones (DESIGN
/// §9). The paper pools uniform `r^n`; this is an extension it does not
/// make. [`PaillierPublicKey::encrypt`], `encrypt_with_r` and every
/// pool-less batch keep the uniform `r`.
///
/// The pool stores no factor. A batch encryption computes item `(seed,
/// index)`'s factor inside the item that consumes it, on the host worker
/// that runs the item, and moves it into
/// [`encrypt_with_obfuscator`](PaillierPublicKey::encrypt_with_obfuscator):
/// each factor blinds one ciphertext. A batch seed must not be reused
/// under one key: the same `(seed, index)` is the same factor. The
/// simulated device is charged the pooled encrypt
/// ([`encrypt_pooled_op_estimate`](PaillierPublicKey::encrypt_pooled_op_estimate))
/// as though the factor were pre-generated — the paper's pooling argument
/// puts pre-generation off the modelled hot path — while the host pays
/// for every factor in the call.
///
/// What a factor costs depends on who holds the pool. A pool built with
/// [`for_owner`](Self::for_owner) carries the private key: two combs over
/// `p²`- and `q²`-wide operands and a CRT step. One built with
/// [`new`](Self::new) knows the public key only: one comb over `n²`-wide
/// operands, about twice the work. The values — and so the ciphertexts,
/// the count of factors computed and every simulated charge — are the
/// same either way. Both constructors compute `h_s` (one full blinding
/// power, by the holder's
/// [`precompute_obfuscator`](PaillierPublicKey::precompute_obfuscator))
/// and build the tables (about one more) before they return; nothing is
/// built on first use. A table is at most
/// [`mpint::comb::MAX_TABLE_BYTES`], and an owner's two are key material.
pub struct ObfuscatorPool {
    key_id: u64,
    /// Bits of a blinding exponent, `⌈bits(n)/2⌉`.
    exp_bits: u32,
    base: BlindingBase,
    /// Factors computed by [`blinding_power`](Self::blinding_power).
    hits: AtomicU64,
}

impl std::fmt::Debug for ObfuscatorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObfuscatorPool")
            .field("fingerprint", &format_args!("{:#018x}", self.key_id))
            .field("owner", &matches!(self.base, BlindingBase::Owner { .. }))
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .finish()
    }
}

impl ObfuscatorPool {
    /// An empty pool bound to `pk`'s key identity, for a holder of the
    /// public key: factors are one comb power modulo `n²`.
    pub fn new(pk: &PaillierPublicKey) -> Self {
        Self::with_owner(pk, None)
    }

    /// An empty pool for the key owner: factors are two half-width comb
    /// powers and a CRT step, bit-identical to the public pool's and about
    /// half their work.
    pub fn for_owner(sk: &PaillierPrivateKey) -> Self {
        Self::with_owner(&sk.public, Some(sk))
    }

    fn with_owner(pk: &PaillierPublicKey, owner: Option<&PaillierPrivateKey>) -> Self {
        let exp_bits = pk.n.bit_len().div_ceil(2);
        // −x² mod n for an x every holder of this key derives alike; its
        // n-th power is h_s, by whichever route the holder has.
        let x = random_coprime(&mut pool_stream(BASE_DOMAIN, pk.key_id, 0, 0), &pk.n);
        let root = Natural::zero().mod_sub(&(&x.square() % &pk.n), &pk.n);
        let base = match owner {
            Some(sk) => {
                let h_s = sk.precompute_obfuscator(&root).r_n;
                BlindingBase::Owner {
                    at_p2: FixedBaseCt::new(&sk.ctx_p2, &h_s, exp_bits),
                    at_q2: FixedBaseCt::new(&sk.ctx_q2, &h_s, exp_bits),
                    sk: Box::new(sk.clone()),
                }
            }
            None => {
                let h_s = pk.precompute_obfuscator(&root).r_n;
                BlindingBase::Public(FixedBaseCt::new(&pk.ctx_n2, &h_s, exp_bits))
            }
        };
        ObfuscatorPool {
            key_id: pk.key_id,
            exp_bits,
            base,
            hits: AtomicU64::new(0),
        }
    }

    /// The factor of item `index` of the batch `seed`, `h_s^a mod n²`, by
    /// this pool's route. Same value either way: both are the canonical
    /// residue below `n²`.
    pub(crate) fn blinding_power(&self, seed: u64, index: usize) -> Obfuscator {
        let a = blinding_exponent(self.key_id, seed, index as u64, self.exp_bits);
        let r_n = match &self.base {
            BlindingBase::Public(at_n2) => at_n2.pow(&a),
            BlindingBase::Owner { sk, at_p2, at_q2 } => {
                sk.crt_squares(&at_p2.pow(&a), &at_q2.pow(&a))
            }
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        Obfuscator {
            r_n,
            key_id: self.key_id,
        }
    }

    /// Checks that `pk` is this pool's key and does nothing else: a batch
    /// computes its factors inside its own items. Kept for the benchmark
    /// package, whose frozen API names it.
    pub fn prefill_batch(&self, pk: &PaillierPublicKey, _seed: u64, _count: usize) -> Result<()> {
        if pk.key_id != self.key_id {
            return Err(Error::KeyMismatch);
        }
        Ok(())
    }

    /// Factors this pool has computed, one per pooled batch item.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Always 0: no item misses a pool that computes every factor it is
    /// asked for. Kept for the benchmark package, whose frozen API names
    /// it.
    pub fn misses(&self) -> u64 {
        0
    }
}

impl PaillierPublicKey {
    /// Encrypts `m < n` with a fresh blinding factor (paper Eq. 3).
    pub fn encrypt<R: Rng + ?Sized>(&self, m: &Natural, rng: &mut R) -> Result<Ciphertext> {
        let r = random_coprime(rng, &self.n);
        self.encrypt_with_r(m, &r)
    }

    /// Encrypts with an explicit blinding factor (deterministic tests).
    pub fn encrypt_with_r(&self, m: &Natural, r: &Natural) -> Result<Ciphertext> {
        self.encrypt_with_obfuscator(m, self.precompute_obfuscator(r))
    }

    /// The deterministic per-item blinding root `r` for item `index` of the
    /// batch identified by `seed` — each item gets an independent ChaCha8
    /// stream, matching the paper's one-generator-per-thread design. Kept
    /// for the pool-less path (the FATE / HAFLO baselines' inline `r^n`)
    /// only: the stream key mixes `seed` and `index` into one word, so
    /// `(s, i)` and `(s ^ i·φ ^ j·φ, j)` draw the same `r`, which is
    /// harmless between baseline batches that never share a seed and is
    /// why [`ObfuscatorPool`] derives its exponents from the whole tuple
    /// instead.
    pub fn batch_blinding(&self, seed: u64, index: usize) -> Natural {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(
            seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        random_coprime(&mut rng, &self.n)
    }

    /// Computes the expensive half of an encryption — `r^n mod n²` — for
    /// an explicit blinding factor, packaging it for a later
    /// [`encrypt_with_obfuscator`](Self::encrypt_with_obfuscator). The
    /// exponent `n` is public; the base `r` is the blinding secret, but
    /// the sliding-window schedule depends only on the exponent bits.
    /// This is the route open to anyone who can encrypt; the key owner
    /// has a cheaper one to the same value,
    /// [`PaillierPrivateKey::precompute_obfuscator`].
    pub fn precompute_obfuscator(&self, r: &Natural) -> Obfuscator {
        let r_n = mod_pow_ctx(&self.ctx_n2, r, &self.n);
        Obfuscator {
            r_n,
            key_id: self.key_id,
        }
    }

    /// Encrypts using a precomputed blinding pair, consuming it: only
    /// `g^m` and one blinding multiplication remain on the hot path.
    pub fn encrypt_with_obfuscator(&self, m: &Natural, obf: Obfuscator) -> Result<Ciphertext> {
        if obf.key_id != self.key_id {
            return Err(Error::KeyMismatch);
        }
        // The range check leaks only whether the plaintext is valid — a
        // bit the caller already knows.
        if m >= &self.n {
            return Err(Error::PlaintextTooLarge {
                plaintext_bits: m.bit_len(),
                modulus_bits: self.n.bit_len(),
            });
        }
        // g = n+1: g^m mod n² = 1 + m·n — one multiplication.
        let g_m = &(&Natural::one() + &(m * &self.n)) % &self.n_squared;
        let value = self.ctx_n2.mod_mul(&g_m, &obf.r_n);
        Ok(Ciphertext {
            value,
            key_id: self.key_id,
        })
    }

    /// Homomorphic addition (paper Eq. 5): `E(m₁)·E(m₂) mod n²`.
    pub fn add(&self, c1: &Ciphertext, c2: &Ciphertext) -> Ciphertext {
        debug_assert_eq!(c1.key_id, self.key_id);
        debug_assert_eq!(c2.key_id, self.key_id);
        Ciphertext {
            value: self.ctx_n2.mod_mul(&c1.value, &c2.value),
            key_id: self.key_id,
        }
    }

    /// Checked homomorphic addition: fails on key mismatch, and on an
    /// operand outside the ciphertext range `[1, n²)`. The two-operand
    /// [`checked_sum`](Self::checked_sum).
    pub fn checked_add(&self, c1: &Ciphertext, c2: &Ciphertext) -> Result<Ciphertext> {
        self.checked_sum(&[c1, c2])
    }

    /// Checked homomorphic sum of any number of ciphertexts,
    /// `∏ cᵢ mod n² = E(Σ mᵢ mod n)`, as one Montgomery chain
    /// ([`MontgomeryCtx::mod_product`]). Every operand is validated
    /// before any is multiplied — a foreign key is
    /// [`Error::KeyMismatch`], a value outside `[1, n²)` is
    /// [`Error::CiphertextOutOfRange`], also when it is the only operand.
    /// An empty sum is the [`zero_ciphertext`](Self::zero_ciphertext).
    pub fn checked_sum(&self, cts: &[&Ciphertext]) -> Result<Ciphertext> {
        let values = self.checked_values(cts)?;
        Ok(Ciphertext {
            value: self.ctx_n2.mod_product(&values),
            key_id: self.key_id,
        })
    }

    /// The operands' residues, once every one of them has passed: all
    /// `key_id`s first ([`Error::KeyMismatch`]), then all values against
    /// `[1, n²)` ([`Error::CiphertextOutOfRange`]).
    fn checked_values<'a>(&self, cts: &[&'a Ciphertext]) -> Result<Vec<&'a Natural>> {
        if cts.iter().any(|c| c.key_id != self.key_id) {
            return Err(Error::KeyMismatch);
        }
        if cts.iter().any(|c| !self.in_ciphertext_range(&c.value)) {
            return Err(Error::CiphertextOutOfRange);
        }
        Ok(cts.iter().map(|c| &c.value).collect())
    }

    /// How many `slot_bits`-bit slots one plaintext holds under this key:
    /// `⌊(bits(n) − 1) / slot_bits⌋`, since every value below
    /// `2^(bits(n)−1)` is below `n`. A zero width is an
    /// [`Error::InvalidParameter`]; a slot wider than the whole word is
    /// [`Error::PlaintextTooLarge`].
    pub fn pack_capacity(&self, slot_bits: u32) -> Result<usize> {
        if slot_bits == 0 {
            return Err(Error::InvalidParameter(
                "a packed slot needs at least one bit",
            ));
        }
        match (self.n.bit_len().saturating_sub(1) / slot_bits) as usize {
            0 => Err(self.too_wide(1, slot_bits)),
            capacity => Ok(capacity),
        }
    }

    /// `slots` slots of `slot_bits` bits do not fit below `n`.
    fn too_wide(&self, slots: usize, slot_bits: u32) -> Error {
        Error::PlaintextTooLarge {
            plaintext_bits: u32::try_from(slots)
                .unwrap_or(u32::MAX)
                .saturating_mul(slot_bits),
            modulus_bits: self.n.bit_len(),
        }
    }

    /// How `count` slot values are cut into packed words: in index order,
    /// into `⌈count / capacity⌉` runs of near-equal length
    /// ([`straus::shard_spans`]), capacity being
    /// [`pack_capacity`](Self::pack_capacity). The packer
    /// ([`HeBackend::fold_packed`](crate::HeBackend::fold_packed)) and
    /// [`unpack_runs`](Self::unpack_runs) both take the cut from here, so
    /// neither is told a run length.
    pub(crate) fn pack_runs(
        &self,
        count: usize,
        slot_bits: u32,
    ) -> Result<Vec<std::ops::Range<usize>>> {
        let capacity = self.pack_capacity(slot_bits)?;
        Ok(straus::shard_spans(count, count.div_ceil(capacity)))
    }

    /// Slices decrypted packed words back into the `count` slot values
    /// they carry, in index order — the inverse of the layout
    /// [`HeBackend::fold_packed`](crate::HeBackend::fold_packed) writes.
    /// A word count that is not the one `count` values pack into is an
    /// [`Error::InvalidParameter`].
    pub fn unpack_runs(
        &self,
        words: &[Natural],
        count: usize,
        slot_bits: u32,
    ) -> Result<Vec<Natural>> {
        let runs = self.pack_runs(count, slot_bits)?;
        if runs.len() != words.len() {
            return Err(Error::InvalidParameter(
                "packed words do not match the slot count",
            ));
        }
        let mut slots = Vec::with_capacity(count);
        for (run, word) in runs.iter().zip(words) {
            let mut rest = word.clone();
            for _ in run.clone() {
                slots.push(rest.low_bits(slot_bits));
                rest = rest.shr_bits(slot_bits);
            }
        }
        Ok(slots)
    }

    /// Checked homomorphic packing: `∏ cⱼ^(2^(j·slot_bits)) mod n² =
    /// E(Σ mⱼ·2^(j·slot_bits))` — operand `j` lands in slot `j` of one
    /// plaintext word, as one Horner chain
    /// ([`MontgomeryCtx::mod_shifted_product`]). Every operand is
    /// validated before any is multiplied, as in
    /// [`checked_sum`](Self::checked_sum); one operand is returned as it
    /// came. The caller vouches that each `mⱼ < 2^slot_bits` (a slot that
    /// overflows carries into its neighbour); that the word stays below
    /// `n` is checked here — more operands than
    /// [`pack_capacity`](Self::pack_capacity) is
    /// [`Error::PlaintextTooLarge`], none is an
    /// [`Error::InvalidParameter`].
    pub fn checked_pack(&self, cts: &[&Ciphertext], slot_bits: u32) -> Result<Ciphertext> {
        if cts.is_empty() {
            return Err(Error::InvalidParameter("nothing to pack"));
        }
        if cts.len() > self.pack_capacity(slot_bits)? {
            return Err(self.too_wide(cts.len(), slot_bits));
        }
        let values = self.checked_values(cts)?;
        Ok(Ciphertext {
            value: self.ctx_n2.mod_shifted_product(&values, slot_bits),
            key_id: self.key_id,
        })
    }

    /// Plaintext-scalar multiplication: `E(m)^k = E(k·m mod n)`.
    pub fn scalar_mul(&self, c: &Ciphertext, k: &Natural) -> Ciphertext {
        debug_assert_eq!(c.key_id, self.key_id);
        Ciphertext {
            value: mod_pow_ctx(&self.ctx_n2, &c.value, k),
            key_id: self.key_id,
        }
    }

    /// Checked plaintext-scalar multiplication: fails on key mismatch
    /// instead of silently producing garbage in release builds (where
    /// [`scalar_mul`](Self::scalar_mul)'s `debug_assert!` compiles out),
    /// and on a ciphertext outside `[1, n²)`.
    #[expect(
        clippy::disallowed_methods,
        reason = "`scalar_mul` runs only after the key and range checks it skips"
    )]
    pub fn checked_scalar_mul(&self, c: &Ciphertext, k: &Natural) -> Result<Ciphertext> {
        if c.key_id != self.key_id {
            return Err(Error::KeyMismatch);
        }
        if !self.in_ciphertext_range(&c.value) {
            return Err(Error::CiphertextOutOfRange);
        }
        Ok(self.scalar_mul(c, k))
    }

    /// Weighted homomorphic sum: `∏ cᵢ^{kᵢ} mod n² = E(Σ kᵢ·mᵢ mod n)`
    /// as one Bos–Coster chain — about two multiplies per term instead of
    /// a `scalar_mul` + `add` per term (see [`mpint::straus`]). Weights
    /// are public aggregation metadata (sample counts), so the
    /// weight-dependent multiply schedule is not a leak. An empty batch
    /// yields the encryption of zero.
    pub fn weighted_sum(&self, cts: &[Ciphertext], weights: &[Natural]) -> Result<Ciphertext> {
        let column: Vec<&Ciphertext> = cts.iter().collect();
        let (plan, fixup) = self.weighted_pass(weights);
        self.weighted_sum_column(&column, &plan, &fixup)
    }

    /// The chain over `weights`, [`straus::multi_exp_plan`], and the
    /// `R`-power its last multiply takes in: every slot of a fold shares
    /// its weights, so the fold computes both once.
    pub(crate) fn weighted_pass(&self, weights: &[Natural]) -> (straus::MultiExpPlan, Vec<Limb>) {
        let plan = straus::multi_exp_plan(weights);
        let fixup = self.ctx_n2.r_power(&plan.deficit).as_limbs().to_vec();
        (plan, fixup)
    }

    /// Validates a batch of aggregation inputs: every ciphertext must
    /// carry this key's fingerprint ([`Error::AggregandKeyMismatch`]
    /// names the offending index) and lie in `[1, n²)`.
    fn check_aggregands(&self, cts: &[&Ciphertext]) -> Result<()> {
        for (index, c) in cts.iter().enumerate() {
            if c.key_id != self.key_id {
                return Err(Error::AggregandKeyMismatch { index });
            }
            if !self.in_ciphertext_range(&c.value) {
                return Err(Error::CiphertextOutOfRange);
            }
        }
        Ok(())
    }

    /// Whether `value` lies in `[1, n²)`, the range every element of the
    /// ciphertext space `Z*_{n²}` falls in. Zero is outside it: it is no
    /// unit, and it would "decrypt" to `0` as if it were `E(0)`.
    fn in_ciphertext_range(&self, value: &Natural) -> bool {
        !value.is_zero() && value < &self.n_squared
    }

    /// [`weighted_sum`](Self::weighted_sum) over borrowed ciphertexts —
    /// one slot's column across the participants' batches, which the
    /// batched aggregate folds without copying it out — as one replay of
    /// the chain [`weighted_pass`](Self::weighted_pass) planned over
    /// their weights, on the ciphertexts as they came.
    pub(crate) fn weighted_sum_column(
        &self,
        cts: &[&Ciphertext],
        plan: &straus::MultiExpPlan,
        fixup: &[Limb],
    ) -> Result<Ciphertext> {
        if cts.len() != plan.terms() {
            return Err(Error::InvalidParameter(
                "each ciphertext needs exactly one weight",
            ));
        }
        self.check_aggregands(cts)?;
        let s = self.ctx_n2.width();
        let mut bases: Vec<Limb> = cts
            .iter()
            .flat_map(|c| c.value.to_padded_limbs(s))
            .collect();
        let product = straus::multi_exp_mont(&self.ctx_n2, &mut bases, plan, fixup);
        Ok(Ciphertext {
            value: product.into_natural(),
            key_id: self.key_id,
        })
    }

    /// Encryption of zero with unit blinding — the additive identity used
    /// to initialize aggregation accumulators.
    pub fn zero_ciphertext(&self) -> Ciphertext {
        Ciphertext {
            value: Natural::one(),
            key_id: self.key_id,
        }
    }

    /// Estimated limb-level operation count of one encryption with an
    /// inline `r^n mod n²`, as the *simulated device* is charged for it:
    /// the `bits(n)`-bit sliding-window exponentiation (squarings at the
    /// dedicated `mont_sqr` rate) plus the pooled-path remainder. It
    /// prices every pool-less batch item (the FATE and HAFLO baselines),
    /// which computes `r^n` by the public route; a backend with an
    /// [`ObfuscatorPool`] is charged
    /// [`encrypt_pooled_op_estimate`](Self::encrypt_pooled_op_estimate)
    /// instead.
    pub fn encrypt_op_estimate(&self) -> u64 {
        let s = self.ctx_n2.width();
        window_pow_ops(s, self.n.bit_len()) + self.encrypt_pooled_op_estimate()
    }

    /// Estimated limb-level operation count of one encryption behind an
    /// [`ObfuscatorPool`], whose `r^n` the model takes as pre-generated:
    /// only `g^m` and the blinding multiplication remain on the hot path.
    pub fn encrypt_pooled_op_estimate(&self) -> u64 {
        // Blinding mod_mul: two to-Montgomery conversions, the multiply,
        // and the final reduction — four mont-muls' worth of MACs.
        2 * mont_mul_mac_count(self.ctx_n2.width())
    }

    /// Estimated limb-level operation count of one homomorphic addition.
    pub fn add_op_estimate(&self) -> u64 {
        // to-Montgomery ×2 is amortized; one mont-mul + reduce.
        3 * mont_mul_mac_count(self.ctx_n2.width()) / 2
    }

    /// Estimated limb-level operation count of one scalar multiplication
    /// `E(m)^k` with a public `k_bits`-bit scalar.
    pub fn scalar_mul_op_estimate(&self, k_bits: u32) -> u64 {
        let s = self.ctx_n2.width();
        window_pow_ops(s, k_bits) + mont_mul_mac_count(s)
    }

    /// Estimated limb-level operation count of one
    /// [`checked_pack`](Self::checked_pack) of `count` operands, as the
    /// simulated device is charged for it: each operand after the first
    /// is a scalar multiplication by `2^slot_bits` and an addition.
    pub fn pack_op_estimate(&self, count: usize, slot_bits: u32) -> u64 {
        let per_operand =
            self.scalar_mul_op_estimate(slot_bits.saturating_add(1)) + self.add_op_estimate();
        count.saturating_sub(1) as u64 * per_operand
    }

    /// Limb-level operation count of one slot of a weighted fold: the
    /// chain [`weighted_sum`](Self::weighted_sum) replays, `plan`
    /// ([`straus::multi_exp_plan`] over the weights), its squarings at
    /// the dedicated `mont_sqr` rate and its multiplies, the fix-up
    /// included, at the `mont_mul` rate.
    pub fn weighted_sum_op_estimate(&self, plan: &straus::MultiExpPlan) -> u64 {
        self.chain_ops(plan.squarings, plan.multiplies)
    }

    /// Limb-level operation count of the `R^{Σw}` a weighted fold's
    /// fix-up multiplies by, built once per launch
    /// ([`MontgomeryCtx::r_power`] at `plan.deficit`), priced as
    /// [`weighted_sum_op_estimate`](Self::weighted_sum_op_estimate)
    /// prices a slot.
    pub fn weighted_fixup_op_estimate(&self, plan: &straus::MultiExpPlan) -> u64 {
        let (squarings, multiplies) = MontgomeryCtx::r_power_calls(&plan.deficit);
        self.chain_ops(squarings, multiplies)
    }

    /// `squarings` at the `mont_sqr` rate and `multiplies` at the
    /// `mont_mul` rate under `n²`, in limb ops (MACs halved).
    fn chain_ops(&self, squarings: u64, multiplies: u64) -> u64 {
        let s = self.ctx_n2.width();
        (squarings * mont_sqr_mac_count(s) + multiplies * mont_mul_mac_count(s)) / 2
    }
}

impl PaillierPrivateKey {
    /// Direct decryption (paper Eq. 4), constant-time in `λ`.
    pub fn decrypt(&self, c: &Ciphertext) -> Result<Natural> {
        self.check(c)?;
        // λ = lcm(p-1, q-1) < n: the public modulus size bounds the window.
        let u = pow_secret(
            &self.public.ctx_n2,
            &c.value,
            &self.lambda,
            self.public.n.bit_len(),
        );
        // L(u) = (u-1)/n is variable-time in the *decryption output*, not
        // in the λ bits the window above protects.
        let l = l_function(&u, &self.public.n);
        Ok(&(&l * &self.mu) % &self.public.n)
    }

    /// CRT decryption: exponentiates modulo `p²` and `q²` (half-width
    /// operands, half-length exponents) and recombines — the fast path the
    /// GPU layer batches.
    pub fn decrypt_crt(&self, c: &Ciphertext) -> Result<Natural> {
        self.check(c)?;
        // m_p = L_p(c^{p-1} mod p²) · h_p mod p; the exponent p-1 is
        // private-key material, bounded by the public half-key size.
        let cp = &c.value % &self.p_squared;
        let up = pow_secret(&self.ctx_p2, &cp, &self.p_minus_1, self.p.bit_len());
        // L_p operates on the recovered residue, not the p-1 exponent bits.
        let m_p = &(&l_function(&up, &self.p) * &self.h_p) % &self.p;

        let cq = &c.value % &self.q_squared;
        let uq = pow_secret(&self.ctx_q2, &cq, &self.q_minus_1, self.q.bit_len());
        let m_q = &(&l_function(&uq, &self.q) * &self.h_q) % &self.q;

        // CRT: m = m_p + p·((m_q - m_p)·p^{-1} mod q), with m_p reduced
        // into [0, q) before the difference (p and q have no ordering).
        let m_p_mod_q = &m_p % &self.q;
        let diff = m_q.mod_sub(&m_p_mod_q, &self.q);
        let t = &(&diff * &self.p_inv_q) % &self.q;
        Ok(&m_p + &(&self.p * &t))
    }

    /// The key owner's route to the blinding power `r^n mod n²`: the same
    /// residue as [`PaillierPublicKey::precompute_obfuscator`] for every
    /// `r ∈ Z*_n`, from half-width arithmetic.
    ///
    /// Modulo `p²`, `r^n = (r^q)^p`, and `x^p mod p²` depends on `x mod p`
    /// alone (`(x + kp)^p ≡ x^p`), so
    /// `r^n mod p² = ((r mod p)^(q mod (p−1)) mod p)^p mod p²`: one
    /// half-length power over `p`-wide operands and one over `p²`-wide
    /// ones. The same modulo `q²`, and the two residues recombine by CRT
    /// (`crt_squares`). All four exponents are key material and go through
    /// the constant-time window. An owner's [`ObfuscatorPool`] computes its
    /// base `h_s` through here, once.
    pub fn precompute_obfuscator(&self, r: &Natural) -> Obfuscator {
        let at_p = Self::pow_n_mod_square(r, &self.p, &self.q_mod_p1, &self.ctx_p, &self.ctx_p2);
        let at_q = Self::pow_n_mod_square(r, &self.q, &self.p_mod_q1, &self.ctx_q, &self.ctx_q2);
        let r_n = self.crt_squares(&at_p, &at_q);
        Obfuscator {
            r_n,
            key_id: self.public.key_id,
        }
    }

    /// The residue below `n² = p²·q²` of a value known modulo `p²` and
    /// modulo `q²`: `at_p + p²·((at_q − at_p)·(p²)^{-1} mod q²)`, with
    /// `at_p` reduced into `[0, q²)` before the difference (`p²` and `q²`
    /// have no ordering). The step both of the owner's blinding routes end
    /// on — an explicit `r`'s two windows, a pool factor's two combs.
    fn crt_squares(&self, at_p: &Natural, at_q: &Natural) -> Natural {
        let diff = at_q.mod_sub(&(at_p % &self.q_squared), &self.q_squared);
        let t = self.ctx_q2.mod_mul(&diff, &self.p2_inv_q2);
        at_p + &(&self.p_squared * &t)
    }

    /// `r^n mod s²` for the prime factor `s` of `n`, given
    /// `cofactor_exp = (n/s) mod (s−1)` and the contexts modulo `s`, `s²`.
    fn pow_n_mod_square(
        r: &Natural,
        prime: &Natural,
        cofactor_exp: &Secret,
        ctx_prime: &MontgomeryCtx,
        ctx_square: &MontgomeryCtx,
    ) -> Natural {
        // Both exponents are key material bounded by the public half-key
        // size. The prime is a plain `Natural` (see `p`), so its power
        // takes the same constant-time window directly.
        let half_bits = prime.bit_len();
        let x = pow_secret(ctx_prime, &(r % prime), cofactor_exp, half_bits);
        mod_pow_ct(ctx_square, &x, prime, half_bits)
    }

    /// Estimated limb-level op count of one CRT decryption as the
    /// *simulated device* is charged for it: two half-width secret-exponent
    /// powers at one squaring and one multiply per exponent bit (the
    /// exponents are private-key material, so decryption pays a
    /// constant-time schedule, not the sliding window) plus the L-function
    /// and CRT recombination arithmetic. The host's `decrypt_crt` runs the
    /// fixed window and does less; this estimate does not follow it.
    pub fn decrypt_op_estimate(&self) -> u64 {
        let s = self.ctx_p2.width();
        2 * (ladder_pow_ops(s, self.p.bit_len()) + 2 * mont_mul_mac_count(s))
    }

    fn check(&self, c: &Ciphertext) -> Result<()> {
        if c.key_id != self.public.key_id {
            return Err(Error::KeyMismatch);
        }
        if !self.public.in_ciphertext_range(&c.value) {
            return Err(Error::CiphertextOutOfRange);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0x5EED)
    }

    fn keys(bits: u32) -> PaillierKeyPair {
        PaillierKeyPair::generate(&mut rng(), bits).unwrap()
    }

    fn nat(v: u64) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn roundtrip_small_values() {
        let k = keys(128);
        let mut r = rng();
        for v in [0u64, 1, 42, 0xFFFF_FFFF] {
            let c = k.public.encrypt(&nat(v), &mut r).unwrap();
            assert_eq!(k.private.decrypt(&c).unwrap(), nat(v), "direct {v}");
            assert_eq!(k.private.decrypt_crt(&c).unwrap(), nat(v), "crt {v}");
        }
    }

    #[test]
    fn roundtrip_near_modulus() {
        let k = keys(128);
        let mut r = rng();
        let m = k.public.n.checked_sub(&Natural::one()).unwrap();
        let c = k.public.encrypt(&m, &mut r).unwrap();
        assert_eq!(k.private.decrypt(&c).unwrap(), m);
        assert_eq!(k.private.decrypt_crt(&c).unwrap(), m);
    }

    #[test]
    fn plaintext_too_large_rejected() {
        let k = keys(128);
        let mut r = rng();
        assert!(matches!(
            k.public.encrypt(&k.public.n, &mut r),
            Err(Error::PlaintextTooLarge { .. })
        ));
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "tests the unchecked op itself")]
    fn homomorphic_addition() {
        let k = keys(128);
        let mut r = rng();
        let c1 = k.public.encrypt(&nat(1000), &mut r).unwrap();
        let c2 = k.public.encrypt(&nat(2345), &mut r).unwrap();
        let sum = k.public.add(&c1, &c2);
        assert_eq!(k.private.decrypt(&sum).unwrap(), nat(3345));
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "tests the unchecked op itself")]
    fn homomorphic_addition_wraps_mod_n() {
        let k = keys(128);
        let mut r = rng();
        let m = k.public.n.checked_sub(&Natural::one()).unwrap();
        let c1 = k.public.encrypt(&m, &mut r).unwrap();
        let c2 = k.public.encrypt(&nat(2), &mut r).unwrap();
        let sum = k.public.add(&c1, &c2);
        assert_eq!(k.private.decrypt(&sum).unwrap(), nat(1));
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "tests the unchecked op itself")]
    fn scalar_multiplication() {
        let k = keys(128);
        let mut r = rng();
        let c = k.public.encrypt(&nat(111), &mut r).unwrap();
        let scaled = k.public.scalar_mul(&c, &nat(9));
        assert_eq!(k.private.decrypt(&scaled).unwrap(), nat(999));
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "tests the unchecked op itself")]
    fn zero_ciphertext_is_additive_identity() {
        let k = keys(128);
        let mut r = rng();
        let c = k.public.encrypt(&nat(77), &mut r).unwrap();
        let sum = k.public.add(&c, &k.public.zero_ciphertext());
        assert_eq!(k.private.decrypt(&sum).unwrap(), nat(77));
    }

    #[test]
    fn encryption_is_probabilistic() {
        let k = keys(128);
        let mut r = rng();
        let c1 = k.public.encrypt(&nat(5), &mut r).unwrap();
        let c2 = k.public.encrypt(&nat(5), &mut r).unwrap();
        assert_ne!(c1.value, c2.value, "fresh blinding must differ");
        assert_eq!(
            k.private.decrypt(&c1).unwrap(),
            k.private.decrypt(&c2).unwrap()
        );
    }

    #[test]
    fn cross_key_operations_fail() {
        let k1 = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(1), 128).unwrap();
        let k2 = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(2), 128).unwrap();
        let mut r = rng();
        let c1 = k1.public.encrypt(&nat(1), &mut r).unwrap();
        let c2 = k2.public.encrypt(&nat(2), &mut r).unwrap();
        assert_eq!(k1.public.checked_add(&c1, &c2), Err(Error::KeyMismatch));
        assert_eq!(k2.private.decrypt(&c1), Err(Error::KeyMismatch));
    }

    #[test]
    fn ciphertext_out_of_range_rejected() {
        let k = keys(128);
        let bogus = Ciphertext {
            value: k.public.n_squared.clone(),
            key_id: k.public.key_id,
        };
        assert_eq!(k.private.decrypt(&bogus), Err(Error::CiphertextOutOfRange));
    }

    #[test]
    fn zero_ciphertext_value_rejected_everywhere() {
        // 0 is below n² but outside Z*_{n²}; it used to "decrypt" to 0.
        let k = keys(128);
        let zero = Ciphertext {
            value: Natural::zero(),
            key_id: k.public.key_id,
        };
        assert_eq!(k.private.decrypt(&zero), Err(Error::CiphertextOutOfRange));
        assert_eq!(
            k.private.decrypt_crt(&zero),
            Err(Error::CiphertextOutOfRange)
        );
        let good = k.public.encrypt(&nat(5), &mut rng()).unwrap();
        assert_eq!(
            k.public.weighted_sum(&[good, zero], &[nat(1), nat(1)]),
            Err(Error::CiphertextOutOfRange)
        );
        assert_eq!(
            Error::CiphertextOutOfRange.to_string(),
            "ciphertext outside the ciphertext space"
        );
        // The smallest member of the range still goes through.
        assert_eq!(
            k.private.decrypt(&k.public.zero_ciphertext()).unwrap(),
            nat(0)
        );
    }

    #[test]
    fn checked_sum_is_the_left_fold_of_checked_add() {
        let k = keys(128);
        let mut r = rng();
        let cts: Vec<Ciphertext> = (0..130u64)
            .map(|m| k.public.encrypt(&nat(m * m + 1), &mut r).unwrap())
            .collect();
        for len in [0usize, 1, 2, 3, 16, 17, 127, 128, 129, 130] {
            let operands: Vec<&Ciphertext> = cts.iter().take(len).collect();
            let folded = operands
                .iter()
                .try_fold(k.public.zero_ciphertext(), |acc, c| {
                    k.public.checked_add(&acc, c)
                })
                .unwrap();
            let sum = k.public.checked_sum(&operands).unwrap();
            assert_eq!(sum, folded, "{len} operands");
            let expected: u64 = (0..len as u64).map(|m| m * m + 1).sum();
            assert_eq!(k.private.decrypt(&sum).unwrap(), nat(expected));
        }
        assert_eq!(
            k.public.checked_sum(&[]).unwrap(),
            k.public.zero_ciphertext()
        );
    }

    #[test]
    fn checked_sum_rejects_one_bad_operand_anywhere_as_checked_add_does() {
        let k = keys(128);
        let other = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(2), 128).unwrap();
        let mut r = rng();
        let good = k.public.encrypt(&nat(7), &mut r).unwrap();
        let with_value = |value: Natural| Ciphertext {
            value,
            key_id: k.public.key_id,
        };
        let faults = [
            other.public.encrypt(&nat(1), &mut r).unwrap(),
            with_value(Natural::zero()),
            with_value(k.public.n_squared.clone()),
        ];
        for bad in &faults {
            // What the two-operand form reports for this fault alone.
            let expected = k.public.checked_add(&good, bad).unwrap_err();
            assert_eq!(k.public.checked_add(bad, &good).unwrap_err(), expected);
            for len in [1usize, 2, 128] {
                for position in [0, len / 2, len - 1] {
                    let mut operands = vec![&good; len];
                    operands[position] = bad;
                    assert_eq!(
                        k.public.checked_sum(&operands).unwrap_err(),
                        expected,
                        "{len} operands, fault at {position}"
                    );
                }
            }
        }
        assert_eq!(
            k.public.checked_add(&good, &faults[0]),
            Err(Error::KeyMismatch)
        );
        assert_eq!(
            k.public.checked_add(&good, &faults[1]),
            Err(Error::CiphertextOutOfRange)
        );
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "reads the secret exponents to show that no debug output prints them"
    )]
    fn debug_output_shows_no_key_material() {
        let k = keys(128);
        let pool = ObfuscatorPool::for_owner(&k.private);
        let r = nat(987_654_321);
        let obf = k.private.precompute_obfuscator(&r);
        let r_n = obf.r_n.clone();
        let rendered = [
            format!("{k:?}"),
            format!("{:?}", k.private),
            format!("{pool:?}"),
            format!("{obf:?}"),
            format!("{k:#?}"),
        ];
        let sk = &k.private;
        let exponents = [
            &sk.lambda,
            &sk.p_minus_1,
            &sk.q_minus_1,
            &sk.q_mod_p1,
            &sk.p_mod_q1,
        ]
        .map(Secret::expose);
        let plain = [&sk.p, &sk.q, &sk.mu, &sk.p_squared, &r_n];
        for text in &rendered {
            for secret in exponents.into_iter().chain(plain) {
                let hex = secret.to_hex();
                assert!(!text.contains(&hex), "{hex} leaked in {text}");
                assert!(!text.contains(&format!("{secret:?}")));
                assert!(
                    !text.contains(&secret.to_string()),
                    "decimal leaked in {text}"
                );
            }
            assert!(text.contains("fingerprint"), "{text}");
        }
        assert_eq!(
            rendered[0],
            format!(
                "PaillierKeyPair {{ key_bits: 128, fingerprint: {:#018x}, .. }}",
                k.public.key_id
            )
        );
        assert!(rendered[2].contains("owner: true"), "{}", rendered[2]);
    }

    #[test]
    fn owner_and_public_blinding_powers_are_the_same_residue() {
        let fast = keys(128);
        let swapped =
            PaillierKeyPair::from_primes(fast.private.q.clone(), fast.private.p.clone(), 128)
                .unwrap();
        for k in [&fast, &swapped, &keys(64), &keys(256)] {
            let n = &k.public.n;
            let edge = [
                Natural::one(),
                nat(2),
                n.checked_sub(&Natural::one()).unwrap(),
                // Unreduced: r^n mod n² depends on r mod n alone, and
                // both routes reduce.
                n + &nat(2),
            ];
            let drawn = (0..4).map(|i| k.public.batch_blinding(0xB11D, i));
            for r in edge.into_iter().chain(drawn) {
                let public = k.public.precompute_obfuscator(&r);
                let owner = k.private.precompute_obfuscator(&r);
                assert_eq!(owner.r_n.limbs(), public.r_n.limbs(), "r = {r}, n = {n}");
                assert_eq!(owner.key_id, public.key_id);
            }
        }
    }

    #[test]
    fn owner_pool_matches_public_pool_on_hit_and_miss() {
        let other = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(2), 128).unwrap();
        for k in [&keys(128), &keys(64)] {
            let owner = ObfuscatorPool::for_owner(&k.private);
            let public = ObfuscatorPool::new(&k.public);
            for i in [0, 1, 9] {
                let (a, b) = (owner.blinding_power(31, i), public.blinding_power(31, i));
                assert_eq!(a.r_n, b.r_n, "item {i}");
                assert_eq!(a.key_id, b.key_id);
            }
            assert_eq!((owner.hits(), public.hits()), (3, 3));
            // A foreign key is still refused.
            assert_eq!(
                owner.prefill_batch(&other.public, 0, 1),
                Err(Error::KeyMismatch)
            );
        }
    }

    #[test]
    fn pool_exponents_are_injective_where_batch_blinding_aliases() {
        const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
        let k = keys(128);
        let pool = ObfuscatorPool::new(&k.public);
        let (id, bits) = (k.public.key_id, pool.exp_bits);
        for (s, i, j) in [(0xB11Du64, 0usize, 1usize), (7, 3, 12), (u64::MAX, 5, 2)] {
            // (s, i) and (s ^ i·φ ^ j·φ, j) fold to one batch_blinding key.
            let t = s ^ (i as u64).wrapping_mul(PHI) ^ (j as u64).wrapping_mul(PHI);
            assert_eq!(
                k.public.batch_blinding(s, i),
                k.public.batch_blinding(t, j),
                "the baseline derivation aliases"
            );
            assert_ne!(
                blinding_exponent(id, s, i as u64, bits),
                blinding_exponent(id, t, j as u64, bits)
            );
            assert_ne!(pool.blinding_power(s, i).r_n, pool.blinding_power(t, j).r_n);
        }
        // Every word of the tuple reaches the stream key, the key too.
        let a = blinding_exponent(id, 1, 2, bits);
        assert_eq!(a, blinding_exponent(id, 1, 2, bits));
        for other in [
            blinding_exponent(id ^ 1, 1, 2, bits),
            blinding_exponent(id, 2, 1, bits),
            blinding_exponent(id, 1, 3, bits),
        ] {
            assert_ne!(a, other);
        }
        // A public length, and nothing above the bound.
        for bits in [0u32, 1, 63, 64, 65, 512] {
            let a = blinding_exponent(id, 9, 9, bits);
            assert_eq!(a.len(), bits.div_ceil(64) as usize);
            assert!(Natural::from_limbs(a).bit_len() <= bits);
        }
    }

    #[test]
    fn key_size_floor_enforced() {
        assert!(matches!(
            PaillierKeyPair::generate(&mut rng(), 32),
            Err(Error::KeySizeTooSmall { .. })
        ));
    }

    #[test]
    fn modulus_has_requested_size() {
        for bits in [64u32, 128, 256] {
            let k = keys(bits);
            assert_eq!(k.public.n.bit_len(), bits);
            assert_eq!(k.public.key_bits, bits);
        }
    }

    #[test]
    fn ciphertext_is_about_twice_key_size() {
        // The paper's communication overhead: a k-bit key yields 2k-bit
        // ciphertexts.
        let k = keys(128);
        let mut r = rng();
        let c = k.public.encrypt(&nat(1), &mut r).unwrap();
        let bits = c.value.bit_len();
        assert!(bits > 192 && bits <= 256, "ciphertext bits {bits}");
    }

    #[test]
    fn op_estimates_scale_with_key_size() {
        let k1 = keys(64);
        let k2 = keys(256);
        assert!(k2.public.encrypt_op_estimate() > 4 * k1.public.encrypt_op_estimate());
        assert!(k2.private.decrypt_op_estimate() > 4 * k1.private.decrypt_op_estimate());
        assert!(k1.public.add_op_estimate() < k1.public.encrypt_op_estimate());
    }

    #[test]
    fn deterministic_blinding_reproduces() {
        let k = keys(128);
        let r = nat(12345);
        let c1 = k.public.encrypt_with_r(&nat(7), &r).unwrap();
        let c2 = k.public.encrypt_with_r(&nat(7), &r).unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn obfuscator_encryption_matches_inline() {
        let k = keys(128);
        let r = nat(987_654_321);
        let inline = k.public.encrypt_with_r(&nat(42), &r).unwrap();
        let obf = k.public.precompute_obfuscator(&r);
        let pooled = k.public.encrypt_with_obfuscator(&nat(42), obf).unwrap();
        assert_eq!(inline, pooled);
    }

    #[test]
    fn obfuscator_from_wrong_key_rejected() {
        let k1 = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(1), 128).unwrap();
        let k2 = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(2), 128).unwrap();
        let obf = k1.public.precompute_obfuscator(&nat(777));
        assert_eq!(
            k2.public.encrypt_with_obfuscator(&nat(1), obf),
            Err(Error::KeyMismatch)
        );
    }

    #[test]
    fn pooled_and_baseline_ciphertexts_differ_in_blinding_only() {
        let k = keys(128);
        let pool = ObfuscatorPool::for_owner(&k.private);
        for i in 0..3 {
            let obf = pool.blinding_power(31, i);
            // A bare factor is an encryption of zero: an n-th residue.
            let bare = Ciphertext {
                value: obf.r_n.clone(),
                key_id: k.public.key_id,
            };
            assert_eq!(k.private.decrypt(&bare).unwrap(), nat(0), "item {i}");
            let pooled = k.public.encrypt_with_obfuscator(&nat(5), obf).unwrap();
            let baseline = k
                .public
                .encrypt_with_r(&nat(6), &k.public.batch_blinding(31, i))
                .unwrap();
            assert_ne!(pooled.value, baseline.value, "item {i}");
            assert_eq!(k.private.decrypt_crt(&pooled).unwrap(), nat(5));
            // The two kinds of ciphertext add like any two.
            let sum = k.public.checked_add(&pooled, &baseline).unwrap();
            assert_eq!(k.private.decrypt(&sum).unwrap(), nat(11), "item {i}");
        }
    }

    #[test]
    fn pool_rejects_foreign_key() {
        let k1 = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(1), 128).unwrap();
        let k2 = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(2), 128).unwrap();
        let pool = ObfuscatorPool::new(&k1.public);
        assert_eq!(
            pool.prefill_batch(&k2.public, 0, 1),
            Err(Error::KeyMismatch)
        );
        assert_eq!(pool.prefill_batch(&k1.public, 0, 1), Ok(()));
        assert_eq!(
            (pool.hits(), pool.misses()),
            (0, 0),
            "checks compute nothing"
        );
    }

    #[test]
    fn checked_scalar_mul_rejects_cross_key() {
        let k1 = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(1), 128).unwrap();
        let k2 = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(2), 128).unwrap();
        let mut r = rng();
        let c = k1.public.encrypt(&nat(6), &mut r).unwrap();
        assert_eq!(
            k2.public.checked_scalar_mul(&c, &nat(3)),
            Err(Error::KeyMismatch)
        );
        let ok = k1.public.checked_scalar_mul(&c, &nat(3)).unwrap();
        assert_eq!(k1.private.decrypt(&ok).unwrap(), nat(18));
    }

    #[test]
    fn weighted_sum_decrypts_to_weighted_total() {
        let k = keys(128);
        let mut r = rng();
        let ms = [5u64, 11, 0, 1000];
        let ws = [3u64, 1, 999, 7];
        let cts: Vec<Ciphertext> = ms
            .iter()
            .map(|&m| k.public.encrypt(&nat(m), &mut r).unwrap())
            .collect();
        let wnat: Vec<Natural> = ws.iter().map(|&w| nat(w)).collect();
        let sum = k.public.weighted_sum(&cts, &wnat).unwrap();
        let expected: u64 = ms.iter().zip(&ws).map(|(m, w)| m * w).sum();
        assert_eq!(k.private.decrypt(&sum).unwrap(), nat(expected));
    }

    #[test]
    fn weighted_sum_matches_scalar_mul_add_loop_exactly() {
        // At 1024 bits `n²` is 32 limbs wide, the width `server_agg_1024`
        // folds at.
        for bits in [128, 1024] {
            let k = keys(bits);
            let mut r = rng();
            let cts: Vec<Ciphertext> = (1u64..6)
                .map(|m| k.public.encrypt(&nat(m * 77), &mut r).unwrap())
                .collect();
            let ws: Vec<Natural> = (0u64..5).map(|w| nat(w * w + 1)).collect();
            let straus = k.public.weighted_sum(&cts, &ws).unwrap();
            let mut naive = k.public.zero_ciphertext();
            for (c, w) in cts.iter().zip(&ws) {
                let scaled = k.public.checked_scalar_mul(c, w).unwrap();
                naive = k.public.checked_add(&naive, &scaled).unwrap();
            }
            // Both paths produce canonical residues mod n², so the
            // ciphertext values — not just the decryptions — must agree
            // bit-for-bit.
            assert_eq!(straus.value, naive.value, "{bits}-bit key");
        }
    }

    #[test]
    fn weighted_sum_rejects_bad_shapes_and_keys() {
        let k1 = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(1), 128).unwrap();
        let k2 = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(2), 128).unwrap();
        let mut r = rng();
        let c1 = k1.public.encrypt(&nat(1), &mut r).unwrap();
        let c2 = k2.public.encrypt(&nat(2), &mut r).unwrap();
        assert!(matches!(
            k1.public.weighted_sum(std::slice::from_ref(&c1), &[]),
            Err(Error::InvalidParameter(_))
        ));
        // The key-fingerprint failure names the offending position (and
        // its Display pins the index so round logs can blame the upload).
        let err = k1
            .public
            .weighted_sum(&[c1.clone(), c2], &[nat(1), nat(1)])
            .unwrap_err();
        assert_eq!(err, Error::AggregandKeyMismatch { index: 1 });
        assert_eq!(
            err.to_string(),
            "ciphertext at index 1 was produced under a different key"
        );
        let oversized = Ciphertext {
            value: k1.public.n_squared.clone(),
            key_id: k1.public.key_id,
        };
        assert_eq!(
            k1.public.weighted_sum(&[oversized], &[nat(1)]),
            Err(Error::CiphertextOutOfRange)
        );
        // Empty batch: the encryption of zero.
        let empty = k1.public.weighted_sum(&[], &[]).unwrap();
        assert_eq!(k1.private.decrypt(&empty).unwrap(), nat(0));
        let _ = c1;
    }

    #[test]
    fn pooled_estimate_is_much_cheaper_than_full() {
        let k = keys(256);
        assert!(k.public.encrypt_pooled_op_estimate() * 10 < k.public.encrypt_op_estimate());
        let weights = vec![Natural::from(u64::from(u32::MAX)); 64];
        assert!(
            k.public
                .weighted_sum_op_estimate(&straus::multi_exp_plan(&weights))
                > 0
        );
        assert!(k.public.scalar_mul_op_estimate(32) < k.public.encrypt_op_estimate());
    }
}
