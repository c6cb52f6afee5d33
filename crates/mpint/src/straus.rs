//! Multi-exponentiation `∏ bᵢ^{eᵢ} mod n` over public exponents: one
//! bucket pass (Pippenger's method).
//!
//! Weighted federated aggregation multiplies many ciphertext powers
//! together: `∏ cᵢ^{kᵢ} mod n²`, each participant's gradient scaled by its
//! sample count. The exponents are cut into `c`-bit digit columns. For
//! each column, most significant first, every base is multiplied into the
//! bucket of its digit — the first arrival in a bucket is a copy — and the
//! buckets are folded by running sums: from the top bucket down, `running`
//! is the product of the buckets at or above `d`, and the column's product
//! takes it in once per digit value, which is `∏_d bucket_d^d`. The
//! product is first raised to `2^c` by `c` squarings. A column costs one
//! multiply per nonzero digit plus at most `2·(2^c − 1)` for the fold, so
//! a base costs about one multiply per column and the fold is shared by
//! the whole column: the wider the column, the cheaper each base
//! (Pippenger 1980; Bernstein et al., *Faster batch forgery
//! identification*, 2012, §4).
//!
//! [`multi_exp_counts`] counts the squarings and multiplies the pass makes
//! for given exponents at every width `c` and picks the cheapest;
//! [`multi_exp_mont`] takes its loop bounds from those counts, and the
//! accumulator it returns has made exactly that many kernel calls. The
//! bases stay canonical — none is converted into the Montgomery domain —
//! and one multiply by an `R`-power ([`MultiExpCounts::deficit`]) ends the
//! pass on the canonical product.
//! Exponents here are *public* aggregation weights, so the digit-dependent
//! schedule leaks nothing; secret exponents must keep using
//! [`crate::modpow::mod_pow_ct`].
//!
//! The module is named for the method it replaced, Straus' interleaved
//! windows, and keeps the name because the benchmark calls
//! [`multi_exp_ctx`] by this path. That method survives as the schedule
//! the simulated device is *charged* for a weighted fold:
//! [`straus_window_for`], [`straus_window_for_arity`] and [`shard_spans`]
//! feed the estimators in `he::paillier`, not a kernel.

use crate::limb::Limb;
use crate::montgomery::{MontAcc, MontgomeryCtx};
use crate::natural::Natural;

/// Widest bucket window the width search tries: `2^12 − 1` buckets are
/// 2 MiB of table at 4096-bit moduli, and only folds of thousands of
/// bases get near it.
const MAX_WINDOW: u32 = 12;

/// Window width (bits per digit) of the charged Straus schedule for a
/// fold whose largest exponent has `max_bits` bits.
///
/// Per window column every base multiplies with probability
/// `1 − 2^{-w}`, so widening `w` saves `≈ count·bits·(1/w − 1/(w+1))`
/// multiplies while the table build costs `count·(2^w − 2)` extra; the
/// break-even point depends only on `bits`, not `count`, and matches the
/// single-base table of [`crate::modpow::window_size_for`] shifted one
/// down (the shared squaring chain removes the incentive for very wide
/// windows). Clamped to `[1, 8]`.
pub fn straus_window_for(max_bits: u32) -> u32 {
    match max_bits {
        0..=8 => 1,
        9..=32 => 2,
        33..=128 => 3,
        129..=768 => 4,
        769..=2304 => 5,
        _ => 6,
    }
}

/// Window width of one *shard* of the charged Straus schedule: `arity`
/// bases sharing one squaring chain, exponents of at most `max_bits` bits.
///
/// [`straus_window_for`] is tuned for wide 64-way aggregates, where the
/// shared squaring chain is fully amortized and only the per-base
/// break-even matters. A shard amortizes its chain over just `arity`
/// bases, so the squaring/table trade-off shifts with the shard size.
/// This picks the `w ∈ [1, 8]` minimizing the modeled Montgomery
/// multiplication cost
///
/// ```text
/// 3/4 · (⌈bits/w⌉ − 1) · w      (squarings, dedicated-kernel rate)
///   + arity · (⌈bits/w⌉ + 2^w − 2)   (column + table-build multiplies)
/// ```
///
/// with ties going to the narrower window.
pub fn straus_window_for_arity(max_bits: u32, arity: usize) -> u32 {
    if max_bits == 0 || arity == 0 {
        return 1;
    }
    let mut best_w = 1u32;
    let mut best_cost = u64::MAX;
    for w in 1..=8u32 {
        let columns = max_bits.div_ceil(w) as u64;
        // Quarter-multiply units keep the 3/4 squaring weight integral.
        let sqr = 3 * columns.saturating_sub(1) * w as u64;
        let mul = 4 * arity as u64 * (columns + (1u64 << w) - 2);
        let cost = sqr + mul;
        if cost < best_cost {
            best_cost = cost;
            best_w = w;
        }
    }
    best_w
}

/// Splits `len` items into at most `shards` contiguous balanced spans:
/// the first `len % shards` spans carry one extra item, so sizes differ
/// by at most 1 and the widest span is exactly `⌈len/shards⌉` (the
/// critical path of a parallel fold). Deterministic in its arguments;
/// never emits an empty span, so the result holds
/// `min(shards.max(1), len)` ranges — and none at all for `len = 0`.
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

/// The bucket pass [`multi_exp_mont`] runs over given exponents: its width,
/// the kernel calls it makes and the `R`-power its fix-up takes in. The
/// pass takes its loop bounds from here, so the counts are the schedule
/// that runs. Every field is a function of the exponents alone; the bases
/// never change it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiExpCounts {
    /// Window width `c`: exponent bits per digit, one bucket per nonzero
    /// digit value.
    pub window: u32,
    /// Digit columns, `⌈max_bits / c⌉`.
    pub columns: u32,
    /// Squarings: `c` per column below the top one.
    pub squarings: u64,
    /// Multiplies: per column with a nonzero digit, one per nonzero digit
    /// less one (the bucket adds and the running sums, each bucket's first
    /// arrival and the top running sum being copies) plus one per digit
    /// value up to the column's largest (the product taking each running
    /// sum in), less the first of those, a copy that seeds the product;
    /// then the fix-up.
    pub multiplies: u64,
    /// `k = Σ eᵢ` at every width: the pass's last multiply, the fix-up, is
    /// by `R^k mod n`. Counting deficit plus one from the Montgomery form of
    /// 1, each column adds its digit sum and each squaring doubles it, so
    /// the product before the fix-up is `P·R^{1−k}` (DESIGN.md §12).
    pub deficit: Natural,
}

/// `(window, squarings, multiplies)` of the pass at width `window` over
/// exponents of at most `max_bits` bits.
fn calls_at(exps: &[Natural], max_bits: u32, window: u32) -> (u32, u64, u64) {
    let columns = max_bits.div_ceil(window);
    // The fix-up, less the seeding copy when a column takes one.
    let mut multiplies = u64::from(columns == 0);
    for col in 0..columns {
        let (mut nonzero, mut top) = (0u64, 0u64);
        for e in exps {
            let digit = e.extract_bits(col * window, window);
            nonzero += u64::from(digit != 0);
            top = top.max(digit);
        }
        if nonzero > 0 {
            multiplies += nonzero - 1 + top;
        }
    }
    let squarings = u64::from(columns.saturating_sub(1) * window);
    (window, squarings, multiplies)
}

/// The bucket pass over `exps` at the width, in `[1, 12]`, that makes the
/// fewest kernel calls (squarings plus multiplies, as
/// [`MontAcc::calls`] counts them); of equals, the narrowest. No
/// exponents, or only zero ones, give no columns and one call, the
/// fix-up.
pub fn multi_exp_counts(exps: &[Natural]) -> MultiExpCounts {
    let max_bits = exps.iter().map(Natural::bit_len).max().unwrap_or(0);
    let mut best = calls_at(exps, max_bits, 1);
    for window in 2..=MAX_WINDOW.min(max_bits) {
        let candidate = calls_at(exps, max_bits, window);
        if candidate.1 + candidate.2 < best.1 + best.2 {
            best = candidate;
        }
    }
    let (window, squarings, multiplies) = best;
    MultiExpCounts {
        window,
        columns: max_bits.div_ceil(window),
        squarings,
        multiplies,
        deficit: exps.iter().fold(Natural::zero(), |sum, e| &sum + e),
    }
}

/// Bucket multi-exponentiation over canonical bases: returns the
/// accumulator holding `∏ bases[i]^{exps[i]} mod n`, canonical, whose
/// [`calls`](MontAcc::calls) are `counts.squarings + counts.multiplies`.
///
/// `bases` holds each base, reduced mod `n`, as `ctx.width()` limbs, back
/// to back; no base enters the Montgomery domain. Every kernel call
/// strips an `R`: before its last multiply the pass holds `P·R^{1−k}`,
/// `k = counts.deficit`, and that multiply, by `fixup = R^k mod n`
/// ([`MontgomeryCtx::r_power`]), lands on the product `P`. `exps` are
/// public exponents and `counts` is [`multi_exp_counts`] over them; a
/// fold whose slots share their weights computes both once. All buckets
/// live in one flat table of `(2^c − 1)·s` limbs.
///
/// # Panics
///
/// Panics if `bases` does not hold one base per exponent or `counts` does
/// not cover every exponent.
pub fn multi_exp_mont<'a>(
    ctx: &'a MontgomeryCtx,
    bases: &[Limb],
    exps: &[Natural],
    counts: &MultiExpCounts,
    fixup: &[Limb],
) -> MontAcc<'a> {
    let (window, columns) = (counts.window, counts.columns);
    let s = ctx.width();
    // Documented precondition (see `# Panics`): callers validate shapes
    // before entering the kernel (`weighted_sum` returns a typed error).
    // flcheck: allow(pf-assert)
    assert_eq!(
        bases.len(),
        exps.len() * s,
        "each base needs exactly one exponent"
    );
    // Same documented precondition: counts from other exponents could
    // leave a digit column unvisited, or ask for an unbounded table.
    // flcheck: allow(pf-assert)
    assert!(
        window <= MAX_WINDOW
            && exps
                .iter()
                .all(|e| e.bit_len() <= columns.saturating_mul(window)),
        "counts must come from multi_exp_counts over these exponents"
    );
    // The Montgomery form of 1 until the first running sum is loaded, so
    // a pass with no columns still lands on 1.
    let mut acc = MontAcc::new(ctx, ctx.one_mont().to_padded_limbs(s));
    let mut seeded = false;
    // Bucket d holds the column's bases with digit d + 1.
    let buckets_len = (1usize << window) - 1;
    let mut buckets = vec![0; buckets_len * s];
    let mut filled = vec![false; buckets_len];
    let mut running = vec![0; s];
    for col in (0..columns).rev() {
        if col + 1 < columns {
            for _ in 0..window {
                acc.sqr();
            }
        }
        filled.fill(false);
        for (base, e) in bases.chunks_exact(s).zip(exps) {
            let Some(d) = (e.extract_bits(col * window, window) as usize).checked_sub(1) else {
                continue;
            };
            if let (Some(bucket), Some(full)) =
                (buckets.chunks_exact_mut(s).nth(d), filled.get_mut(d))
            {
                if *full {
                    acc.mul_other(bucket, base);
                } else {
                    bucket.copy_from_slice(base);
                    *full = true;
                }
            }
        }
        // Running sums from the top bucket down; the product takes one in
        // per digit value from the column's largest down to 1.
        let mut started = false;
        for (bucket, &full) in buckets.chunks_exact(s).zip(&filled).rev() {
            if full && started {
                acc.mul_other(&mut running, bucket);
            } else if full {
                running.copy_from_slice(bucket);
                started = true;
            }
            if started && seeded {
                acc.mul(&running);
            } else if started {
                acc.load(&running);
                seeded = true;
            }
        }
    }
    acc.mul(fixup);
    acc
}

/// Convenience form over plain residues: reduces each base, runs
/// [`multi_exp_mont`] at [`multi_exp_counts`] and its fix-up.
pub fn multi_exp_ctx(ctx: &MontgomeryCtx, bases: &[Natural], exps: &[Natural]) -> Natural {
    let s = ctx.width();
    let padded: Vec<Limb> = bases
        .iter()
        .flat_map(|b| ctx.reduce(b).to_padded_limbs(s))
        .collect();
    let counts = multi_exp_counts(exps);
    let fixup = ctx.r_power(&counts.deficit);
    multi_exp_mont(ctx, &padded, exps, &counts, fixup.as_limbs()).into_natural()
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
        // No columns: the Montgomery form of 1 and the fix-up by `R^0`.
        let none = multi_exp_counts(&exps);
        assert_eq!((none.columns, none.squarings, none.multiplies), (0, 0, 1));
        assert!(none.deficit.is_zero());
    }

    #[test]
    fn single_base_matches_mod_pow() {
        let p = 1_000_000_007u128;
        let ctx = MontgomeryCtx::new(&n(p)).unwrap();
        let (b, e) = (n(123_456_789), n(0xDEAD_BEEF_u128));
        assert_eq!(
            multi_exp_ctx(&ctx, &[b.clone()], &[e.clone()]),
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
    fn a_wide_column_costs_about_one_multiply_per_base() {
        // 128 bases with 10-bit sample-count weights, the server's shape:
        // every base is in every column, so the pass is ≈ 2 multiplies a
        // base plus a few shared folds.
        let exps: Vec<Natural> = (0..128u128).map(|i| n(100 + i * 7)).collect();
        let c = multi_exp_counts(&exps);
        assert!(c.window > 2, "{c:?}");
        assert!(c.squarings + c.multiplies < 3 * 128, "{c:?}");
    }

    #[test]
    #[should_panic(expected = "exactly one exponent")]
    fn mismatched_lengths_panic() {
        let ctx = MontgomeryCtx::new(&n(101)).unwrap();
        multi_exp_mont(&ctx, &[3], &[], &multi_exp_counts(&[]), &[1]);
    }

    #[test]
    #[should_panic(expected = "counts must come from multi_exp_counts")]
    fn counts_that_miss_a_column_panic() {
        let ctx = MontgomeryCtx::new(&n(101)).unwrap();
        let short = multi_exp_counts(&[n(3)]);
        multi_exp_mont(&ctx, &[3], &[n(1 << 20)], &short, &[1]);
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
                    // widest span is exactly ⌈len/shards⌉ (the parallel
                    // fold's critical path).
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
        // produces (the last worker would idle while the rest run long).
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

    #[test]
    fn arity_window_degenerates_and_widens() {
        assert_eq!(straus_window_for_arity(0, 5), 1);
        assert_eq!(straus_window_for_arity(32, 0), 1);
        // A single base pays the whole squaring chain alone, so its best
        // window is at least as wide as a large shard's.
        for bits in [8u32, 32, 128, 1024, 2048] {
            let solo = straus_window_for_arity(bits, 1);
            let wide = straus_window_for_arity(bits, 4096);
            assert!((1..=8).contains(&solo), "solo window {solo} at {bits} bits");
            assert!((1..=8).contains(&wide), "wide window {wide} at {bits} bits");
            assert!(solo >= wide, "bits {bits}: solo {solo} < wide {wide}");
        }
    }

    #[test]
    fn arity_window_minimizes_modeled_cost() {
        // The returned window must beat (or tie, resolved to narrower)
        // every other width under the documented quarter-multiply model.
        let cost = |bits: u32, arity: u64, w: u32| {
            let columns = bits.div_ceil(w) as u64;
            3 * columns.saturating_sub(1) * w as u64 + 4 * arity * (columns + (1u64 << w) - 2)
        };
        for bits in [8u32, 32, 256, 1024] {
            for arity in [1u64, 2, 16, 100, 2500] {
                let best = straus_window_for_arity(bits, arity as usize);
                for w in 1..=8u32 {
                    let (cb, cw) = (cost(bits, arity, best), cost(bits, arity, w));
                    assert!(
                        cb < cw || (cb == cw && best <= w),
                        "bits {bits} arity {arity}: window {best} loses to {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_chains_agree_with_flat_pass() {
        // Independent passes over the spans of any split, merged by
        // modular multiplication, equal the flat pass bit for bit: every
        // pass returns the canonical residue of its partial product.
        let p = (1u128 << 127) - 1;
        let ctx = MontgomeryCtx::new(&n(p)).unwrap();
        let bases: Vec<Natural> = (2..15u128).map(n).collect();
        let exps: Vec<Natural> = (0..13u128).map(|i| n(i * 104_729 + 3)).collect();
        let pass = |range: std::ops::Range<usize>| {
            multi_exp_ctx(&ctx, &bases[range.clone()], &exps[range])
        };
        let flat = pass(0..bases.len());
        assert_eq!(flat, naive(&ctx, &bases, &exps));
        for shards in [1usize, 2, 3, 7, 13, 40] {
            let merged = shard_spans(bases.len(), shards)
                .into_iter()
                .map(pass)
                .reduce(|a, b| ctx.mod_mul(&a, &b))
                .unwrap();
            assert_eq!(merged, flat, "shards {shards}");
        }
    }
}
