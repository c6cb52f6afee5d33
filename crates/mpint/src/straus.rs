//! Multi-exponentiation `∏ bᵢ^{eᵢ} mod n` over public exponents: one
//! Bos–Coster chain.
//!
//! Weighted federated aggregation multiplies many ciphertext powers
//! together: `∏ cᵢ^{kᵢ} mod n²`, each participant's gradient scaled by its
//! sample count. Bos and Coster (CRYPTO '89; de Rooij, EUROCRYPT '94)
//! rewrite the two largest terms, `e₁ ≥ e₂` on bases `x₁, x₂`, as
//! `x₁^{e₁ mod e₂} · (x₁^{⌊e₁/e₂⌋}·x₂)^{e₂}` and repeat until one base
//! holds the only nonzero exponent, which is then raised by square and
//! multiply. Among many exponents of similar size the quotient is nearly
//! always 1, so a step is one multiply and every step shrinks the largest
//! exponent, like Euclid's algorithm run on all of them at once: the
//! squarings a digit-by-digit pass spends on every bit are spent once, on
//! the survivor's short remainder.
//!
//! [`multi_exp_plan`] runs that rewriting on the exponents alone — a
//! max-heap of `(exponent, base)` — and records its steps and the
//! squarings and multiplies they make; [`multi_exp_mont`] replays the
//! steps in place on the bases, every kernel call on one [`MontAcc`], so
//! the accumulator it returns has made exactly the plan's calls. A fold
//! whose slots share their weights plans once and replays per slot. The
//! bases stay canonical — none is converted into the Montgomery domain:
//! each Montgomery product strips one `R`, so a value holding `d` base
//! factors carries `R^{1−d}` whatever the order of the chain, the chain
//! ends on `P·R^{1−Σe}`, and one multiply by `R^{Σe}`
//! ([`MultiExpPlan::deficit`]) lands on the canonical product.
//! Exponents here are *public* aggregation weights, so the
//! exponent-dependent schedule leaks nothing; secret exponents must keep
//! using [`crate::modpow::mod_pow_ct`].
//!
//! The module is named for the first method it held, Straus' interleaved
//! windows, and keeps the name because the benchmark calls
//! [`multi_exp_ctx`] by this path. A weighted fold is charged from the
//! same [`MultiExpPlan`] it replays (`he::paillier`'s
//! `weighted_sum_op_estimate`).

use std::collections::BinaryHeap;

use crate::limb::Limb;
use crate::montgomery::{MontAcc, MontgomeryCtx};
use crate::natural::Natural;

/// Splits `len` items into at most `shards` contiguous balanced spans:
/// the first `len % shards` spans carry one extra item, so sizes differ
/// by at most 1 and the widest span is exactly `⌈len/shards⌉`.
/// `he::paillier` cuts a packed fold's slot values into words with it.
/// Deterministic in its arguments; never emits an empty span, so the
/// result holds `min(shards.max(1), len)` ranges — and none at all for
/// `len = 0`.
pub fn shard_spans(len: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, len);
    let base = len / shards;
    let extra = len % shards;
    let mut spans = Vec::with_capacity(shards);
    let mut start = 0usize;
    for i in 0..shards {
        let size = base + usize::from(i < extra);
        spans.push(start..start + size);
        start += size;
    }
    spans
}

/// One step of a [`MultiExpPlan`]: the base at `from`, raised to
/// `quotient`, multiplies into the base at `into`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Step {
    from: usize,
    into: usize,
    quotient: Natural,
}

/// The Bos–Coster chain [`multi_exp_mont`] replays over given exponents:
/// its steps, the kernel calls they make and the `R`-power its fix-up
/// takes in. Every field is a function of the exponents alone; the bases
/// never change it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiExpPlan {
    /// In order, each rewriting of the two largest exponents.
    steps: Vec<Step>,
    /// The base left holding the only nonzero exponent, and that
    /// exponent; none when every exponent is zero.
    survivor: Option<(usize, Natural)>,
    /// Exponents planned over, one per base.
    terms: usize,
    /// Squarings: per power `x^q`, the bits of `q` below its top one.
    pub squarings: u64,
    /// Multiplies: per step one, bringing `x₁^q` into `x₂`; per power
    /// `x^q` one per set bit of `q` below its top one; then the fix-up.
    pub multiplies: u64,
    /// `k = Σ eᵢ`: the replay's last multiply, the fix-up, is by
    /// `R^k mod n`, since the chain before it holds `P·R^{1−k}`
    /// (DESIGN.md §12).
    pub deficit: Natural,
}

impl MultiExpPlan {
    /// Exponents the plan is over: the bases a replay takes.
    pub fn terms(&self) -> usize {
        self.terms
    }

    /// Counts the kernel calls of `x^e` by left-to-right square and
    /// multiply, `e ≥ 1`.
    fn count_power(&mut self, e: &Natural) {
        let ones: u64 = e.limbs().iter().map(|l| u64::from(l.count_ones())).sum();
        self.squarings += u64::from(e.bit_len().saturating_sub(1));
        self.multiplies += ones.saturating_sub(1);
    }
}

/// The Bos–Coster chain over `exps`: while two exponents are nonzero, the
/// largest, `e₁` on base `x₁`, and the next, `e₂` on `x₂`, become
/// `e₁ mod e₂` on `x₁` and `e₂` on `x₁^{⌊e₁/e₂⌋}·x₂`; the last nonzero
/// exponent is a power of its base. Of equal exponents the higher index
/// counts as the larger, so the plan is a function of the exponents. No
/// exponents, or only zero ones, plan no step and one call, the fix-up.
pub fn multi_exp_plan(exps: &[Natural]) -> MultiExpPlan {
    let mut plan = MultiExpPlan {
        steps: Vec::new(),
        survivor: None,
        terms: exps.len(),
        squarings: 0,
        multiplies: 1,
        deficit: exps.iter().fold(Natural::zero(), |sum, e| &sum + e),
    };
    let mut heap: BinaryHeap<(Natural, usize)> = exps
        .iter()
        .enumerate()
        .filter(|(_, e)| !e.is_zero())
        .map(|(i, e)| (e.clone(), i))
        .collect();
    while let Some((top, from)) = heap.pop() {
        let Some((next, into)) = heap.pop() else {
            plan.count_power(&top);
            plan.survivor = Some((from, top));
            break;
        };
        let (quotient, rest) = top.div_rem(&next);
        plan.count_power(&quotient);
        plan.multiplies += 1;
        plan.steps.push(Step {
            from,
            into,
            quotient,
        });
        heap.push((next, into));
        if !rest.is_zero() {
            heap.push((rest, from));
        }
    }
    plan
}

/// `acc ← x^e` for `e ≥ 1`, by left-to-right square and multiply.
fn power(acc: &mut MontAcc<'_>, x: &[Limb], e: &Natural) {
    acc.load(x);
    for bit in (0..e.bit_len().saturating_sub(1)).rev() {
        acc.sqr();
        if e.bit(bit) {
            acc.mul(x);
        }
    }
}

/// Bos–Coster multi-exponentiation over canonical bases: replays `plan`
/// and returns the accumulator holding `∏ bases[i]^{eᵢ} mod n`,
/// canonical, whose [`calls`](MontAcc::calls) are
/// `plan.squarings + plan.multiplies`.
///
/// `bases` holds each base, reduced mod `n`, as `ctx.width()` limbs, back
/// to back; the chain runs in place on it, so it ends holding partial
/// products. No base enters the Montgomery domain. Every kernel call
/// strips an `R`: before its last multiply the chain holds `P·R^{1−k}`,
/// `k = plan.deficit`, and that multiply, by `fixup = R^k mod n`
/// ([`MontgomeryCtx::r_power`]), lands on the product `P`. `plan` is
/// [`multi_exp_plan`] over the public exponents; a fold whose slots
/// share their weights computes it and the fix-up once.
///
/// # Panics
///
/// Panics if `bases` does not hold one base per planned exponent or
/// `fixup` is not one `ctx.width()`-limb residue.
pub fn multi_exp_mont<'a>(
    ctx: &'a MontgomeryCtx,
    bases: &mut [Limb],
    plan: &MultiExpPlan,
    fixup: &[Limb],
) -> MontAcc<'a> {
    let s = ctx.width();
    // Documented precondition (see `# Panics`): callers validate shapes
    // before entering the kernel (`weighted_sum` returns a typed error).
    // flcheck: allow(pf-assert)
    assert_eq!(
        bases.len(),
        plan.terms * s,
        "each base needs exactly one exponent"
    );
    // Same documented precondition: a short fix-up would end the chain
    // off the canonical product.
    // flcheck: allow(pf-assert)
    assert_eq!(fixup.len(), s, "the fix-up must be one residue");
    // The Montgomery form of 1 until the first power is loaded, so a
    // plan with no exponent still lands on 1.
    let mut acc = MontAcc::new(ctx, ctx.one_mont().to_padded_limbs(s));
    for step in &plan.steps {
        if let Some(from) = bases.chunks_exact(s).nth(step.from) {
            power(&mut acc, from, &step.quotient);
        }
        if let Some(into) = bases.chunks_exact_mut(s).nth(step.into) {
            acc.mul(into);
            into.copy_from_slice(acc.as_limbs());
        }
    }
    if let Some((last, e)) = &plan.survivor {
        if let Some(x) = bases.chunks_exact(s).nth(*last) {
            power(&mut acc, x, e);
        }
    }
    acc.mul(fixup);
    acc
}

/// Convenience form over plain residues: reduces each base, runs
/// [`multi_exp_mont`] at [`multi_exp_plan`] and its fix-up.
pub fn multi_exp_ctx(ctx: &MontgomeryCtx, bases: &[Natural], exps: &[Natural]) -> Natural {
    let s = ctx.width();
    let mut padded: Vec<Limb> = bases
        .iter()
        .flat_map(|b| ctx.reduce(b).to_padded_limbs(s))
        .collect();
    let plan = multi_exp_plan(exps);
    let fixup = ctx.r_power(&plan.deficit);
    multi_exp_mont(ctx, &mut padded, &plan, fixup.as_limbs()).into_natural()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modpow::mod_pow_ctx;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    /// Reference: pairwise sliding-window exponentiation and product.
    fn naive(ctx: &MontgomeryCtx, bases: &[Natural], exps: &[Natural]) -> Natural {
        let mut acc = &Natural::one() % ctx.modulus();
        for (b, e) in bases.iter().zip(exps) {
            let p = mod_pow_ctx(ctx, b, e);
            acc = ctx.mod_mul(&acc, &p);
        }
        acc
    }

    #[test]
    fn matches_naive_product() {
        let p = (1u128 << 127) - 1;
        let ctx = MontgomeryCtx::new(&n(p)).unwrap();
        let bases: Vec<Natural> = [3u128, (1 << 90) + 7, p - 2, 65537]
            .iter()
            .map(|&b| n(b))
            .collect();
        let exps: Vec<Natural> = [12345u128, 0, (1 << 60) + 3, 999_999_999]
            .iter()
            .map(|&e| n(e))
            .collect();
        assert_eq!(
            multi_exp_ctx(&ctx, &bases, &exps),
            naive(&ctx, &bases, &exps)
        );
    }

    #[test]
    fn empty_and_all_zero_exponents() {
        let ctx = MontgomeryCtx::new(&n(101)).unwrap();
        assert_eq!(multi_exp_ctx(&ctx, &[], &[]), n(1));
        let bases = [n(7), n(9)];
        let exps = [n(0), n(0)];
        assert_eq!(multi_exp_ctx(&ctx, &bases, &exps), n(1));
        // No step: the Montgomery form of 1 and the fix-up by `R^0`.
        let none = multi_exp_plan(&exps);
        assert_eq!((none.squarings, none.multiplies), (0, 1));
        assert!(none.steps.is_empty() && none.survivor.is_none());
        assert!(none.deficit.is_zero());
    }

    #[test]
    fn single_base_matches_mod_pow() {
        let p = 1_000_000_007u128;
        let ctx = MontgomeryCtx::new(&n(p)).unwrap();
        let (b, e) = (n(123_456_789), n(0xDEAD_BEEF_u128));
        assert_eq!(
            multi_exp_ctx(&ctx, std::slice::from_ref(&b), std::slice::from_ref(&e)),
            mod_pow_ctx(&ctx, &b, &e)
        );
    }

    #[test]
    fn unreduced_bases_are_reduced() {
        let ctx = MontgomeryCtx::new(&n(97)).unwrap();
        assert_eq!(
            multi_exp_ctx(&ctx, &[n(1000)], &[n(3)]),
            n(1000u128.pow(3) % 97)
        );
    }

    #[test]
    fn a_server_slot_costs_about_two_multiplies_per_base() {
        // 128 bases with 10-bit sample-count weights, the server's shape:
        // nearly every step has quotient 1, so the chain is ≈ 2 multiplies
        // a base and a handful of squarings on the survivor.
        let exps: Vec<Natural> = (0..128u128).map(|i| n(100 + i * 7)).collect();
        let plan = multi_exp_plan(&exps);
        assert!(plan.squarings < 16, "{plan:?}");
        assert!(plan.squarings + plan.multiplies < 5 * 128 / 2, "{plan:?}");
    }

    #[test]
    #[should_panic(expected = "exactly one exponent")]
    fn mismatched_lengths_panic() {
        let ctx = MontgomeryCtx::new(&n(101)).unwrap();
        multi_exp_mont(&ctx, &mut [3], &multi_exp_plan(&[]), &[1]);
    }

    #[test]
    #[should_panic(expected = "the fix-up must be one residue")]
    fn a_fixup_of_another_width_panics() {
        let ctx = MontgomeryCtx::new(&n(101)).unwrap();
        multi_exp_mont(&ctx, &mut [3], &multi_exp_plan(&[n(3)]), &[1, 0]);
    }

    #[test]
    fn shard_spans_tile_exactly() {
        for len in 0..40usize {
            for shards in 0..10usize {
                let spans = shard_spans(len, shards);
                // Contiguous, in order, non-empty, covering 0..len.
                let mut next = 0usize;
                for s in &spans {
                    assert_eq!(s.start, next, "len {len} shards {shards}");
                    assert!(s.end > s.start, "empty span at len {len} shards {shards}");
                    next = s.end;
                }
                assert_eq!(next, len, "coverage at len {len} shards {shards}");
                if len > 0 {
                    assert_eq!(spans.len(), shards.clamp(1, len));
                    // Balanced split: sizes differ by at most 1 and the
                    // widest span is exactly ⌈len/shards⌉.
                    let min = spans.iter().map(|s| s.len()).min().unwrap();
                    let max = spans.iter().map(|s| s.len()).max().unwrap();
                    assert!(max - min <= 1, "len {len} shards {shards}");
                    assert_eq!(max, len.div_ceil(shards.clamp(1, len)));
                } else {
                    assert!(spans.is_empty());
                }
            }
        }
    }

    #[test]
    fn shard_spans_zero_items_is_empty() {
        assert!(shard_spans(0, 0).is_empty());
        assert!(shard_spans(0, 1).is_empty());
        assert!(shard_spans(0, 17).is_empty());
    }

    #[test]
    fn shard_spans_one_item_is_one_span() {
        for shards in 0..5usize {
            assert_eq!(shard_spans(1, shards), vec![0..1], "shards {shards}");
        }
    }

    #[test]
    fn shard_spans_more_shards_than_items_degenerates_to_singletons() {
        let spans = shard_spans(3, 8);
        assert_eq!(spans, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn shard_spans_are_disjoint_covering_and_balanced() {
        // A non-divisible case: 10 items over 4 shards must come out as
        // 3/3/2/2 — never the lopsided 3/3/3/1 a naive ceiling tiling
        // produces (the last packed word would run short).
        assert_eq!(shard_spans(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
        // Disjointness + coverage as an explicit element-level check.
        let mut seen = [false; 10];
        for s in shard_spans(10, 4) {
            for i in s {
                assert!(!seen[i], "element {i} covered twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }
}
