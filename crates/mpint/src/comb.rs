//! Constant-time fixed-base exponentiation: a Lim–Lee comb.
//!
//! When the base `g` of `g^e mod n` never changes and only the (secret)
//! exponent does, the squarings of an exponentiation can be done once, at
//! set-up: cut the `exp_bits`-bit exponent into `h` *teeth* of `v·b` bits,
//! each tooth into `v` *blocks* of `b` bits, and tabulate, for every block
//! `j` and every `h`-bit pattern `u`,
//!
//! ```text
//! T[j][u] = ∏_{i : bit i of u set} g^(2^((i·v + j)·b))
//! ```
//!
//! Bit `k` of block `j` of tooth `i` is exponent bit `(i·v + j)·b + k`, so
//! `g^e = ∏_k (∏_j T[j][u_{j,k}])^(2^k)` with `u_{j,k}` the pattern those
//! bits form across the teeth: one pass over the `b` columns from the top,
//! one squaring per column and one table product per block — `b` squarings
//! and `v·b` multiplies where a windowed power pays `exp_bits` squarings
//! (Lim & Lee, CRYPTO '94). Every power the table needs is `g^(2^(t·b))`
//! for `t < h·v`, so one squaring chain of `(h·v − 1)·b` steps builds it.
//!
//! [`FixedBaseCt::pow`] is written for secret exponents the way
//! [`mod_pow_ct`](crate::modpow::mod_pow_ct) is: `T[j][0] = 1`, so every
//! column of every block costs exactly one masked table scan
//! ([`ct_lookup_limbs`]) and one multiply whatever the bits are, and `h`,
//! `v`, `b` come from the public `(limbs, exp_bits)` alone
//! ([`fixed_base_counts`]).

use crate::cios;
use crate::ct::ct_lookup_limbs;
use crate::limb::{Limb, LIMB_BITS};
use crate::montgomery::{MontAcc, MontgomeryCtx};
use crate::natural::Natural;

/// Most bytes one comb table may occupy.
pub const MAX_TABLE_BYTES: usize = 128 << 10;

/// Widest pattern (`h`) and most blocks (`v`) the geometry search tries.
const MAX_TEETH: u32 = 8;
const MAX_BLOCKS: u32 = 8;

/// Table limbs one masked scan reads in the time of one MAC (a load, an
/// AND and an OR per limb against a 64×64 multiply on a carry chain;
/// measured at 16 to 64 limbs).
const SCANNED_LIMBS_PER_MAC: u64 = 3;

/// The geometry of a comb over `limbs`-limb operands under the exponent
/// bound `exp_bits`, and the kernel calls one [`FixedBaseCt::pow`] and the
/// table build make. `pow` and [`FixedBaseCt::new`] take their loop bounds
/// from here, so the counts are the schedule that runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedBaseCounts {
    /// `h`: exponent bits gathered into one table index.
    pub teeth: u32,
    /// `v`: sub-tables, one per block of a tooth.
    pub blocks: u32,
    /// `b = ⌈exp_bits / (h·v)⌉`: bits per block, columns per pass.
    pub columns: u32,
    /// Squarings per power: one per column.
    pub squarings: u64,
    /// Multiplies per power, each behind one scan of a `2^h`-entry
    /// sub-table: one per block per column.
    pub multiplies: u64,
    /// MACs of the above plus the conversion out of the Montgomery domain
    /// (half a multiply).
    pub macs: u64,
    /// Bytes of the table, `v·2^h` entries of `limbs` limbs.
    pub table_bytes: usize,
    /// Squarings of the set-up chain, `(h·v − 1)·b`; the sub-tables then
    /// take `2^h − h − 1` multiplies each.
    pub build_squarings: u64,
}

impl FixedBaseCounts {
    fn at(limbs: usize, exp_bits: u32, teeth: u32, blocks: u32) -> Self {
        let columns = exp_bits.div_ceil(teeth * blocks);
        let squarings = u64::from(columns);
        let multiplies = u64::from(blocks * columns);
        let mul_macs = cios::mont_mul_mac_count(limbs);
        FixedBaseCounts {
            teeth,
            blocks,
            columns,
            squarings,
            multiplies,
            macs: squarings * cios::mont_sqr_mac_count(limbs)
                + multiplies * mul_macs
                + mul_macs / 2,
            table_bytes: (blocks as usize) * (limbs << teeth) * (LIMB_BITS as usize / 8),
            build_squarings: u64::from((teeth * blocks - 1) * columns),
        }
    }

    /// Modeled cost of one power, in MACs: the kernel calls and the table
    /// scans behind the multiplies.
    fn modeled_cost(&self, limbs: usize) -> u64 {
        self.macs + self.multiplies * ((limbs as u64) << self.teeth) / SCANNED_LIMBS_PER_MAC
    }
}

/// The comb [`FixedBaseCt`] runs at `limbs`-limb operands under the
/// exponent bound `exp_bits` — see [`FixedBaseCounts`]. Among the
/// geometries whose table fits [`MAX_TABLE_BYTES`], the one with the
/// cheapest modeled power; of equals, the first in `(h, v)` order.
pub fn fixed_base_counts(limbs: usize, exp_bits: u32) -> FixedBaseCounts {
    let mut best = FixedBaseCounts::at(limbs, exp_bits, 1, 1);
    for teeth in 1..=MAX_TEETH {
        for blocks in 1..=MAX_BLOCKS {
            let candidate = FixedBaseCounts::at(limbs, exp_bits, teeth, blocks);
            if candidate.table_bytes <= MAX_TABLE_BYTES
                && candidate.modeled_cost(limbs) < best.modeled_cost(limbs)
            {
                best = candidate;
            }
        }
    }
    best
}

/// A fixed base `g` modulo an odd `n`, tabulated for constant-time powers
/// `g^e mod n` under secret exponents of at most `exp_bits` bits (module
/// docs). Building one costs about what one windowed power of the same
/// length does; every power after that costs
/// [`fixed_base_counts`]`.macs`. The table holds powers of `g` reduced
/// modulo `n`: it is as secret as `n` is.
pub struct FixedBaseCt {
    ctx: MontgomeryCtx,
    counts: FixedBaseCounts,
    /// Sub-table `j` at `j·2^h·s`, its entry `u` at `u·s` from there, each
    /// `s = ctx.width()` limbs in Montgomery form.
    table: Vec<Limb>,
}

impl FixedBaseCt {
    /// Tabulates `base` (unreduced is fine) modulo `ctx`'s modulus for
    /// exponents of at most `exp_bits` bits.
    pub fn new(ctx: &MontgomeryCtx, base: &Natural, exp_bits: u32) -> Self {
        let counts = fixed_base_counts(ctx.width(), exp_bits);
        let FixedBaseCounts {
            teeth,
            blocks,
            columns,
            ..
        } = counts;
        let s = ctx.width();
        let (n, n0_inv) = (ctx.modulus().limbs(), ctx.n0_inv());

        // powers[t] = g^(2^(t·b)), t < h·v: one chain, b squarings apart.
        let base_m = ctx.to_mont(&ctx.reduce(base)).to_padded_limbs(s);
        let mut chain = MontAcc::new(ctx, base_m);
        let mut powers = chain.as_limbs().to_vec();
        for _ in 1..teeth * blocks {
            for _ in 0..columns {
                chain.sqr();
            }
            powers.extend_from_slice(chain.as_limbs());
        }
        debug_assert_eq!(chain.calls(), counts.build_squarings);

        // Sub-table j grows tooth by tooth: the upper half of its next
        // doubling is the lower half times powers[i·v + j], and entry 0
        // is 1, whose product is that power itself.
        let mut table = Vec::with_capacity(counts.table_bytes / (LIMB_BITS as usize / 8));
        for j in 0..blocks as usize {
            let mut sub = ctx.one_mont().to_padded_limbs(s);
            for power in powers.chunks_exact(s).skip(j).step_by(blocks as usize) {
                let filled = sub.len();
                sub.resize(2 * filled, 0);
                let (lower, upper) = sub.split_at_mut(filled);
                let mut pairs = lower.chunks_exact(s).zip(upper.chunks_exact_mut(s));
                if let Some((_, first)) = pairs.next() {
                    first.copy_from_slice(power);
                }
                for (known, product) in pairs {
                    cios::mont_mul_into(product, known, power, n, n0_inv);
                }
            }
            table.extend(sub);
        }
        FixedBaseCt {
            ctx: ctx.clone(),
            counts,
            table,
        }
    }

    /// Constant-time `base^exp mod n`, in `[0, n)`. `exp` is the secret
    /// exponent as little-endian limbs of a *public* length — any length;
    /// limbs past it read as zero — with no bit set at or above the
    /// `exp_bits` the table was built for. Neither the kernel calls made
    /// nor the addresses touched depend on the limbs' values.
    pub fn pow(&self, exp: &[Limb]) -> Natural {
        self.ctx.from_mont(&self.pow_acc(exp).into_natural())
    }

    /// [`pow`](Self::pow) up to the conversion out of the domain.
    // flcheck: ct-fn
    fn pow_acc(&self, exp: &[Limb]) -> MontAcc<'_> {
        let FixedBaseCounts {
            teeth,
            blocks,
            columns,
            ..
        } = self.counts;
        debug_assert!(
            Natural::from_limbs(exp.to_vec()).bit_len() <= columns * teeth * blocks,
            "exp_bits must bound the secret exponent"
        );
        let s = self.ctx.width();
        // Exponent bit `at`, a public position; zero past the buffer.
        let bit = |at: u32| -> Limb {
            let limb = exp.get((at / LIMB_BITS) as usize).copied().unwrap_or(0);
            limb >> (at % LIMB_BITS) & 1
        };
        // Column k of block j: bit k of that block in every tooth, tooth
        // i's at bit i of the index.
        let pattern = |j: u32, k: u32| -> Limb {
            (0..teeth).fold(0, |u, i| u | bit((i * blocks + j) * columns + k) << i)
        };
        let mut acc = MontAcc::new(&self.ctx, self.ctx.one_mont().to_padded_limbs(s));
        let mut entry = vec![0; s];
        for k in (0..columns).rev() {
            acc.sqr();
            for (j, sub) in (0..blocks).zip(self.table.chunks_exact(s << teeth)) {
                ct_lookup_limbs(&mut entry, sub, pattern(j, k));
                acc.mul(&entry);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modpow::mod_pow_ctx;
    use crate::random::random_bits;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// An odd modulus of exactly `limbs` limbs.
    fn modulus(rng: &mut ChaCha8Rng, limbs: usize) -> Natural {
        let mut n = random_bits(rng, limbs as u32 * LIMB_BITS);
        n.set_bit(0, true);
        n
    }

    fn exp_limbs(bits: u32) -> usize {
        bits.div_ceil(LIMB_BITS) as usize
    }

    #[test]
    fn pow_matches_the_sliding_window_at_every_width() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0B);
        // 33 limbs with 1031 bits: neither a power of two nor a multiple
        // of any h·v the search lands on.
        for (limbs, bits) in [(1usize, 1u32), (1, 61), (16, 512), (33, 1031), (2, 0)] {
            let n = modulus(&mut rng, limbs);
            let ctx = MontgomeryCtx::new(&n).unwrap();
            let base = random_bits(&mut rng, limbs as u32 * LIMB_BITS + 3);
            let comb = FixedBaseCt::new(&ctx, &base, bits);
            let c = comb.counts;
            assert!(
                c.columns * c.teeth * c.blocks >= bits,
                "the comb covers {bits}"
            );
            assert!(c.table_bytes <= MAX_TABLE_BYTES);
            assert_eq!(comb.table.len() * 8, c.table_bytes);
            let all_ones = Natural::one()
                .shl_bits(bits)
                .checked_sub(&Natural::one())
                .unwrap();
            let mut exps = vec![Natural::zero(), all_ones];
            if bits > 0 {
                exps.push(Natural::one());
                for _ in 0..4 {
                    let len = rng.gen_range(1..=bits);
                    exps.push(random_bits(&mut rng, len));
                }
            }
            for e in exps {
                let got = comb.pow(&e.to_padded_limbs(exp_limbs(bits)));
                assert_eq!(got, mod_pow_ctx(&ctx, &base, &e), "{limbs} limbs, e = {e}");
            }
        }
    }

    #[test]
    fn exponent_buffer_length_does_not_change_the_result() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0B + 1);
        let ctx = MontgomeryCtx::new(&modulus(&mut rng, 2)).unwrap();
        let comb = FixedBaseCt::new(&ctx, &Natural::from(3u64), 100);
        let e = random_bits(&mut rng, 40);
        let want = mod_pow_ctx(&ctx, &Natural::from(3u64), &e);
        for len in [1usize, 2, 5] {
            assert_eq!(comb.pow(&e.to_padded_limbs(len)), want, "{len} limbs");
        }
    }

    #[test]
    fn pow_and_build_issue_exactly_the_counted_kernel_calls() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0B + 2);
        for (limbs, bits) in [(1usize, 61u32), (16, 512), (32, 1024)] {
            let ctx = MontgomeryCtx::new(&modulus(&mut rng, limbs)).unwrap();
            // `new` asserts its own chain against `build_squarings`.
            let comb = FixedBaseCt::new(&ctx, &Natural::from(5u64), bits);
            let c = fixed_base_counts(limbs, bits);
            assert_eq!(comb.counts, c);
            let width = exp_limbs(bits);
            let mut ones = vec![Limb::MAX; width];
            if let Some(top) = ones.last_mut() {
                *top >>= width as u32 * LIMB_BITS - bits;
            }
            let random = random_bits(&mut rng, bits).to_padded_limbs(width);
            for exp in [vec![0; width], ones, random] {
                assert_eq!(
                    comb.pow_acc(&exp).calls(),
                    c.squarings + c.multiplies,
                    "{limbs} limbs"
                );
            }
        }
    }

    #[test]
    fn geometry_is_a_function_of_the_public_shape_and_fits_the_cap() {
        // The shapes the Paillier pools run: p² and n² widths at 1024- and
        // 2048-bit keys, half-length exponents.
        for (limbs, bits) in [(16usize, 512u32), (32, 512), (32, 1024), (64, 1024)] {
            let c = fixed_base_counts(limbs, bits);
            assert!(c.table_bytes <= MAX_TABLE_BYTES, "{limbs} limbs: {c:?}");
            assert_eq!(c.table_bytes, (c.blocks as usize) * (limbs << c.teeth) * 8);
            assert_eq!(c.columns, bits.div_ceil(c.teeth * c.blocks));
            assert_eq!(c.squarings, u64::from(c.columns));
            assert_eq!(c.multiplies, u64::from(c.blocks * c.columns));
            // No squaring per exponent bit: the whole power is a small
            // fraction of the window's calls at the same shape.
            let window = crate::modpow::mod_pow_ct_counts(limbs, bits);
            assert!(
                5 * (c.squarings + c.multiplies) < window.squarings + window.multiplies,
                "{c:?} vs {window:?}"
            );
            // Building the table costs about one such window power: the
            // chain is the covered bits less one block.
            assert!(c.build_squarings < u64::from(bits + c.teeth * c.blocks));
        }
        // A width the cap binds at: the search stays under it.
        let wide = fixed_base_counts(512, 4096);
        assert!(wide.table_bytes <= MAX_TABLE_BYTES, "{wide:?}");
        // Degenerate bounds still give a runnable comb.
        assert_eq!(fixed_base_counts(4, 0).columns, 0);
        assert_eq!(fixed_base_counts(1, 1).columns, 1);
    }
}
